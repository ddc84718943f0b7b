"""The benchmark's tracer (bench/tracing.py) wraps package callables by name.

A refactor that renames or removes one of them would leave `--trace 1`
without that layer, so every name the tracer lists must exist.
"""

import importlib
import os

from superalg import core

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def test_traced_callables_exist(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracing = importlib.import_module("tracing")
    targets = ([(module, attr) for _, module, attr, _ in tracing.LAYERS]
               + [(module, attr) for _, module, attr in tracing.HOT])
    assert ("superalg.core", "bracket") in targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            (module, attr)
    # Element.__init__ is wrapped on the class itself
    assert "__init__" in vars(core.Element)
