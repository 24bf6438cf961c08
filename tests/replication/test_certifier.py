"""Unit and property tests for the certifier."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.replication.certifier import Certifier
from repro.storage.engine import WriteItem, WriteSet


def ws(table, keys, txn="T"):
    return WriteSet(transaction_type=txn,
                    items=(WriteItem(relation=table, keys=tuple(keys), payload_bytes=100,
                                     pages_dirtied=1),))


def test_commit_assigns_increasing_versions():
    cert = Certifier()
    r1 = cert.certify(ws("a", [1]), snapshot_version=0)
    r2 = cert.certify(ws("a", [2]), snapshot_version=1)
    assert r1.committed and r2.committed
    assert (r1.version, r2.version) == (1, 2)
    assert cert.log_is_total_order()


def test_write_write_conflict_aborts():
    cert = Certifier()
    cert.certify(ws("a", [7]), snapshot_version=0)
    result = cert.certify(ws("a", [7]), snapshot_version=0)   # stale snapshot, same key
    assert not result.committed
    assert result.conflict_with == 1
    assert cert.stats.aborts == 1


def test_no_conflict_when_snapshot_is_current():
    cert = Certifier()
    cert.certify(ws("a", [7]), snapshot_version=0)
    result = cert.certify(ws("a", [7]), snapshot_version=1)   # saw the first commit
    assert result.committed


def test_disjoint_keys_do_not_conflict():
    cert = Certifier()
    cert.certify(ws("a", [1]), snapshot_version=0)
    assert cert.certify(ws("a", [2]), snapshot_version=0).committed
    assert cert.certify(ws("b", [1]), snapshot_version=0).committed


def test_writesets_since_and_lag_notifications():
    cert = Certifier(lag_notification_threshold=3)
    for i in range(5):
        cert.certify(ws("a", [i]), snapshot_version=i)
    entries = cert.writesets_since(2)
    assert [e.version for e in entries] == [3, 4, 5]
    assert cert.writesets_since(2, limit=1)[0].version == 3


def test_certify_batch_is_fifo_and_piggybacks_missed_writesets():
    cert = Certifier()
    cert.certify(ws("x", [1]), snapshot_version=0)            # v1, from elsewhere
    requests = [(ws("a", [1]), 1), (ws("b", [1]), 1), (ws("c", [1]), 1)]
    results, piggyback = cert.certify_batch(requests, since_version=0)
    assert [r.committed for r in results] == [True, True, True]
    # FIFO: commit versions follow the batch order.
    assert [r.version for r in results] == [2, 3, 4]
    # The piggyback covers everything since the requester's applied version,
    # including the batch's own commits.
    assert [e.version for e in piggyback] == [1, 2, 3, 4]
    assert cert.stats.batches == 1
    assert cert.stats.batched_requests == 3


def test_certify_batch_intra_batch_conflicts_abort():
    cert = Certifier()
    requests = [(ws("a", [7]), 0), (ws("a", [7]), 0), (ws("a", [8]), 0)]
    results, piggyback = cert.certify_batch(requests, since_version=0)
    # The second writeset conflicts with the first one's commit exactly as
    # if they had arrived as separate requests.
    assert [r.committed for r in results] == [True, False, True]
    assert results[1].conflict_with == 1
    assert [e.version for e in piggyback] == [1, 2]


def test_certify_batch_empty_piggyback_when_current():
    cert = Certifier()
    results, piggyback = cert.certify_batch([], since_version=0)
    assert results == [] and piggyback == []


def test_truncation_and_recovery_boundary():
    cert = Certifier()
    for i in range(10):
        cert.certify(ws("a", [i]), snapshot_version=i)
    dropped = cert.truncate(oldest_needed_version=5)
    assert dropped == 5
    assert [e.version for e in cert.writesets_since(5)] == [6, 7, 8, 9, 10]
    with pytest.raises(KeyError):
        cert.writesets_since(2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["t1", "t2", "t3"]),
                          st.integers(min_value=0, max_value=5)),
                min_size=1, max_size=40))
def test_log_is_always_a_dense_total_order(operations):
    cert = Certifier()
    for table, key in operations:
        snapshot = cert.current_version
        cert.certify(ws(table, [key]), snapshot_version=snapshot)
    assert cert.log_is_total_order()
    assert cert.stats.commits == len(cert.log)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30))
def test_conflicting_concurrent_writesets_never_both_commit(keys):
    cert = Certifier()
    committed_keys = {}
    for key in keys:
        snapshot = 0                      # everyone runs against the initial snapshot
        result = cert.certify(ws("t", [key]), snapshot_version=snapshot)
        if result.committed:
            # a second commit of the same key from snapshot 0 must be impossible
            assert key not in committed_keys
            committed_keys[key] = result.version


def test_oldest_available_version_tracks_truncation():
    cert = Certifier()
    assert cert.oldest_available_version == 1
    for i in range(10):
        cert.certify(ws("a", [i]), snapshot_version=i)
    cert.truncate(oldest_needed_version=6)
    assert cert.oldest_available_version == 7
    assert cert.current_version == 10


def test_conflict_index_is_swept_on_truncation():
    cert = Certifier()
    for i in range(10):
        cert.certify(ws("a", [i]), snapshot_version=i)
    assert len(cert._last_writer) == 10
    cert.truncate(oldest_needed_version=10)
    # Entries whose writesets left the log can never win a conflict check;
    # the sweep drops them so the index tracks the retained log only.
    assert len(cert._last_writer) == 0


def test_conflicts_below_the_truncation_horizon_are_forgotten():
    # Same semantics as the pre-index log scan: truncation drops history,
    # so a writeset against a snapshot older than the horizon only sees
    # conflicts from retained entries.
    cert = Certifier()
    cert.certify(ws("a", [7]), snapshot_version=0)
    cert.truncate(oldest_needed_version=1)
    result = cert.certify(ws("a", [7]), snapshot_version=0)
    assert result.committed


def test_repeated_writers_conflict_via_last_version():
    cert = Certifier()
    cert.certify(ws("a", [7]), snapshot_version=0)          # v1
    cert.certify(ws("a", [7]), snapshot_version=1)          # v2, same key
    result = cert.certify(ws("a", [7]), snapshot_version=1)  # saw v1 only
    assert not result.committed
    assert result.conflict_with == 2
