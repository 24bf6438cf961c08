"""Name-only residue of the removed multi-shard certifier.

The cluster certifies through the single :class:`~repro.replication.\
certifier.Certifier`, whose log is the one global commit order of the paper
(Section 4.1).  This class exists only because the traced benchmark pass's
probe table (``benchmarks/ledger/probes.py``) still names
``repro.replication.sharding.ShardedCertifier``; it goes with the next change
to that benchmark.  It defines no methods, so the probes wrap nothing here.
"""

from __future__ import annotations

from repro.replication.certifier import Certifier


class ShardedCertifier(Certifier):
    """Placeholder kept for the benchmark probe table; not used anywhere."""
