"""Differential test: the indexed certifier against a naive reference model.

:class:`ReferenceCertifier` below is a deliberately simple GSI
first-committer-wins certifier.  It keeps the retained log as a plain list
and answers every conflict check by scanning it, with no inverted index,
no amortised sweeps and no shared code with
:class:`~repro.replication.certifier.Certifier`.  It follows the conventions
documented on ``Certifier._find_conflict``:

* a key's conflicting version is its latest retained writer newer than the
  snapshot, and a writeset reports the smallest such version over its keys;
* every item's keys count, including two items on the same relation;
* conflicts are floored at the truncation horizon, so a writer that left
  the log, by truncation or by the ``max_log_entries`` cap, can no longer
  abort anyone.

Hypothesis streams over a small hot key range, so aborts actually fire,
mix batched round trips, at-least-once RPCs with fresh, duplicate and stale
request ids, and log truncation.  They run against the plain certifier and
against a replicated log with leader fail-overs interleaved.
"""

from hypothesis import given, settings, strategies as st

from repro.replication.certifier import (RPC_DEDUP_WINDOW, CertificationResult,
                                         Certifier)
from repro.replication.recovery import ReplicatedCertifierLog
from repro.storage.engine import WriteItem, WriteSet


class ReferenceCertifier:
    """Linear-scan GSI certifier with the same RPC dedup contract."""

    def __init__(self, max_log_entries=None):
        self.max_log_entries = max_log_entries
        self.log = []             # retained (version, writeset, commit_time)
        self.horizon = 0          # highest truncated version
        self.current_version = 0
        self.served = {}          # origin -> fresh request ids, oldest first
        self.decisions = {}       # (origin, request id) -> results
        self.dedup_hits = 0
        self.stale_requests = 0

    def certify(self, writeset, snapshot, now):
        start = max(snapshot, self.horizon)
        latest_writer = {}
        for version, logged, _ in self.log:
            if version > start:
                for item in logged.items:
                    for key in item.keys:
                        latest_writer[(item.relation, key)] = version
        conflicts = [latest_writer[(item.relation, key)]
                     for item in writeset.items for key in item.keys
                     if (item.relation, key) in latest_writer]
        if conflicts:
            return CertificationResult(False, self.current_version, min(conflicts))
        self.current_version += 1
        self.log.append((self.current_version, writeset, now))
        if self.max_log_entries is not None and len(self.log) > self.max_log_entries:
            excess = len(self.log) - self.max_log_entries
            self.log = self.log[excess:]
            self.horizon += excess
        return CertificationResult(True, self.current_version)

    def writesets_since(self, version):
        assert version >= self.horizon, "the stream never asks below the horizon"
        return [entry for entry in self.log if entry[0] > version]

    def certify_batch(self, requests, since_version, now):
        results = [self.certify(writeset, snapshot, now)
                   for writeset, snapshot in requests]
        return results, self.writesets_since(since_version)

    def certify_rpc(self, origin, request_id, requests, since_version, now):
        served = self.served.setdefault(origin, [])
        if request_id in served[-RPC_DEDUP_WINDOW:]:
            self.dedup_hits += 1
            return (self.decisions[(origin, request_id)],
                    self.writesets_since(since_version))
        if served and request_id <= served[-1]:
            self.stale_requests += 1
            return None, []
        served.append(request_id)
        results, piggyback = self.certify_batch(requests, since_version, now)
        self.decisions[(origin, request_id)] = results
        return results, piggyback

    def truncate(self, floor):
        kept = [entry for entry in self.log if entry[0] > floor]
        dropped = len(self.log) - len(kept)
        self.log = kept
        self.horizon = max(self.horizon, min(floor, self.current_version))
        return dropped

    @property
    def oldest_available_version(self):
        return self.horizon + 1


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

_items = st.lists(
    st.tuples(st.sampled_from(["orders", "item"]),
              st.lists(st.integers(0, 5), min_size=1, max_size=2)),
    min_size=1, max_size=2)
# (items, snapshot lag behind the current version)
_requests = st.lists(st.tuples(_items, st.integers(0, 10)),
                     min_size=0, max_size=4)
_since_back = st.integers(0, 8)
_origin = st.integers(0, 1)
# A fresh id skips 0-2 ids past the newest one served, leaving never-served
# gaps; a replay picks an id at or below the newest, so it lands either on a
# cached decision (duplicate) or in a gap (stale).
_request_id = st.tuples(st.sampled_from(["fresh", "replay"]), st.integers(0, 20))

_batch = st.tuples(st.just("batch"), _requests, _since_back)
_rpc = st.tuples(st.just("rpc"), _origin, _request_id, _requests, _since_back)
_truncate = st.tuples(st.just("truncate"), st.integers(0, 8))
_fail_over = st.tuples(st.just("fail_over"), st.booleans())

_plain_ops = st.lists(st.one_of(_batch, _rpc, _rpc, _truncate),
                      min_size=1, max_size=120)
_replicated_ops = st.lists(st.one_of(_batch, _rpc, _rpc, _truncate, _fail_over),
                           min_size=1, max_size=120)


def _materialise(requests, current):
    return [(WriteSet(transaction_type="T",
                      items=tuple(WriteItem(relation=relation, keys=tuple(keys),
                                            payload_bytes=8, pages_dirtied=1)
                                  for relation, keys in items)),
             max(0, current - lag))
            for items, lag in requests]


def _piggyback(entries):
    return [(e.version, e.writeset, e.commit_time) for e in entries]


def _run_against_reference(certifier, ops, max_log_entries=None):
    ref = ReferenceCertifier(max_log_entries)
    for step, op in enumerate(ops):
        now = float(step)
        kind = op[0]
        if kind == "truncate":
            floor = ref.current_version - op[1]
            assert certifier.truncate(floor) == ref.truncate(floor)
        elif kind == "fail_over":
            if certifier.backups:
                certifier.fail_over(leader_failed=op[1])
        else:
            requests = _materialise(op[-2], ref.current_version)
            since = max(ref.horizon, ref.current_version - op[-1])
            if max_log_entries is not None:
                # Stay above the horizon the batch's own commits may trim to.
                since = max(since, ref.current_version + len(requests)
                            - max_log_entries)
            if kind == "batch":
                got = certifier.certify_batch(requests, since, now=now)
                expected = ref.certify_batch(requests, since, now)
            else:
                origin, (how, step_back) = op[1], op[2]
                served = ref.served.get(origin)
                newest = served[-1] if served else 0
                if how == "fresh":
                    request_id = newest + 1 + step_back % 3
                else:
                    request_id = newest - step_back % newest if newest else 1
                got = certifier.certify_rpc(origin, request_id, requests,
                                            since, now=now)
                expected = ref.certify_rpc(origin, request_id, requests,
                                           since, now)
            assert got[0] == expected[0]
            assert _piggyback(got[1]) == expected[1]
        assert certifier.current_version == ref.current_version
        assert certifier.oldest_available_version == ref.oldest_available_version
        assert certifier.log_is_total_order()
    assert certifier.stats.dedup_hits == ref.dedup_hits
    assert certifier.stats.stale_requests == ref.stale_requests
    return ref


@settings(max_examples=150, deadline=None)
@given(_plain_ops, st.one_of(st.none(), st.integers(2, 8)))
def test_certifier_matches_reference_on_random_streams(ops, max_log_entries):
    certifier = Certifier(max_log_entries=max_log_entries)
    ref = _run_against_reference(certifier, ops, max_log_entries)
    assert certifier.stats.commits == ref.current_version


@settings(max_examples=100, deadline=None)
@given(_replicated_ops)
def test_replicated_log_matches_reference_across_fail_over(ops):
    log = ReplicatedCertifierLog.create(2)
    _run_against_reference(log, ops)
    for backup in log.backups:
        assert backup.current_version == log.current_version
