"""The benchmark tracer's bindings: every name it rebinds exists and comes back.

``bench/tracer.py`` rebinds package attributes by name. Entering a tracer
here makes a renamed or removed attribute fail the test suite, not only a
benchmark run.
"""

import importlib
from pathlib import Path

from bachelier_symmetries import solutions

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_binds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    original = solutions.eval_term
    before = [getattr(namespace, attr) for namespace, attr, _, _ in tracer.BINDINGS]
    with tracer.Tracer():
        assert solutions.eval_term is not original
    assert solutions.eval_term is original
    after = [getattr(namespace, attr) for namespace, attr, _, _ in tracer.BINDINGS]
    assert all(a is b for a, b in zip(before, after))
