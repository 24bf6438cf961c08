"""Guard for the traced benchmark pass (``benchmarks/ledger/run.py --trace 1``).

The traced pass wraps the classes named in the probe table by import path.
A rename or deletion in ``src/`` that leaves a stale entry would only fail
when someone runs the traced pass, so the table is checked here.  The test
only reads the table; it never installs the probes.
"""

import importlib
from collections import defaultdict

from benchmarks.ledger.probes import ENTRY_POINTS


def test_every_probe_entry_point_class_resolves():
    for _layer, _name, module, cls_name, _method in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        assert isinstance(cls, type), "%s.%s does not resolve" % (module, cls_name)


def test_every_probe_span_wraps_at_least_one_definition():
    defined = defaultdict(bool)
    for layer, name, module, cls_name, method in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        defined["%s.%s" % (layer, name)] |= method in cls.__dict__
    assert [span for span, found in defined.items() if not found] == []
