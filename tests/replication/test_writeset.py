"""Tests for writesets and certified writesets."""

import pytest

from repro.replication.writeset import CertifiedWriteSet
from repro.storage.engine import WriteItem, WriteSet


def make_ws(table_keys, txn="T", origin=None):
    items = tuple(
        WriteItem(relation=table, keys=tuple(keys), payload_bytes=10 * max(1, len(keys)),
                  pages_dirtied=1)
        for table, keys in table_keys.items())
    return WriteSet(transaction_type=txn, items=items, origin_replica=origin)


def test_certified_writeset_requires_positive_version():
    with pytest.raises(ValueError):
        CertifiedWriteSet(version=0, writeset=make_ws({"a": [1]}))


def test_writesets_compare_hash_and_print_by_value():
    a = make_ws({"a": [1, 2], "b": [3]}, origin=2)
    b = make_ws({"a": [1, 2], "b": [3]}, origin=2)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != make_ws({"a": [1, 2], "b": [3]}, origin=1)
    assert a.items[0] == b.items[0] and hash(a.items[0]) == hash(b.items[0])
    assert a != a.items[0]
    assert repr(a.items[1]) == ("WriteItem(relation='b', keys=(3,), "
                                "payload_bytes=10, pages_dirtied=1)")
    assert repr(a).startswith("WriteSet(transaction_type='T', items=(WriteItem(")
    assert repr(a).endswith("origin_replica=2, snapshot_version=0)")
    certified = CertifiedWriteSet(version=1, writeset=a)
    assert certified == CertifiedWriteSet(version=1, writeset=b)
    assert hash(certified) == hash(CertifiedWriteSet(version=1, writeset=b))
