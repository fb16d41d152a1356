"""Tests of the benchmark's span tracer: self-time arithmetic, per-thread
isolation, and that installing the layer wrappers leaves no trace behind
once restored.

    python3 -m pytest perfbench/test_tracing.py -q
"""

import importlib
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, summarize  # noqa: E402


class FakeClock:
    """Returns the times it is given, in order."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_children_not_grandchildren():
    # outer [0, 10] > a [1, 4], b [5, 8] > c [6, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 8, 10]))
    tracer.begin("outer")
    tracer.begin("a")
    tracer.end()
    tracer.begin("b")
    tracer.begin("c")
    tracer.end()
    tracer.end()
    tracer.end()
    spans = {s.name: s for s in tracer.spans()}
    assert spans["outer"].duration == 10
    assert spans["outer"].self_s == 10 - 3 - 3
    assert spans["b"].self_s == 3 - 1
    assert spans["a"].self_s == spans["a"].duration == 3
    assert spans["c"].parent_id == spans["b"].span_id
    assert spans["b"].parent_id == spans["outer"].span_id
    assert spans["outer"].parent_id is None
    total_self = sum(s.self_s for s in spans.values())
    assert total_self == spans["outer"].duration


def test_summarize_sums_calls_and_times():
    tracer = Tracer(clock=FakeClock([0, 2, 3, 7]))
    for _ in range(2):
        tracer.begin("x")
        tracer.end()
    assert summarize(tracer.spans()) == {"x": {"calls": 2, "total_s": 6, "self_s": 6}}


def test_wrapper_records_span_even_when_call_raises():
    tracer = Tracer(clock=FakeClock([0, 1]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    (span,) = tracer.spans()
    assert (span.name, span.duration) == ("boom", 1)


def test_threads_keep_separate_stacks():
    # Thread A holds an open span while thread B opens and closes a nested
    # pair; B's spans must not become A's children, nor shorten A's self time.
    tracer = Tracer()
    a_open = threading.Event()
    b_done = threading.Event()

    def thread_a():
        tracer.begin("a.outer")
        a_open.set()
        assert b_done.wait(10)
        tracer.end()

    def thread_b():
        assert a_open.wait(10)
        tracer.begin("b.outer")
        tracer.begin("b.inner")
        tracer.end()
        tracer.end()
        b_done.set()

    workers = [threading.Thread(target=f) for f in (thread_a, thread_b)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(10)
        assert not w.is_alive()
    spans = {s.name: s for s in tracer.spans()}
    assert set(spans) == {"a.outer", "b.outer", "b.inner"}
    assert spans["a.outer"].self_s == spans["a.outer"].duration
    assert spans["a.outer"].thread != spans["b.outer"].thread
    assert spans["b.inner"].parent_id == spans["b.outer"].span_id
    assert spans["b.outer"].parent_id is None
    assert spans["b.outer"].self_s == pytest.approx(
        spans["b.outer"].duration - spans["b.inner"].duration)


def test_patch_keeps_method_kinds_and_restores_them():
    class Thing:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls

        @staticmethod
        def helper():
            return "s"

    raw = dict(Thing.__dict__)
    tracer = Tracer()
    for attr in ("method", "build", "helper"):
        tracer.patch(Thing, attr, f"thing.{attr}")
    assert (Thing().method(), Thing.build(), Thing.helper()) == ("m", Thing, "s")
    assert [s.name for s in tracer.spans()] == ["thing.method", "thing.build", "thing.helper"]
    tracer.restore()
    for attr in ("method", "build", "helper"):
        assert Thing.__dict__[attr] is raw[attr]


def test_patch_function_rebinds_every_import_site():
    def target():
        return 42

    owner = types.ModuleType("fakepkg.owner")
    user = types.ModuleType("fakepkg.user")
    owner.target = user.target = target
    sys.modules.update({"fakepkg.owner": owner, "fakepkg.user": user})
    try:
        tracer = Tracer()
        assert tracer.patch_function(target, "fake.target", package="fakepkg") == 2
        assert user.target() == 42 and owner.target() == 42
        assert len(tracer.spans()) == 2
        tracer.restore()
        assert owner.target is target and user.target is target
    finally:
        del sys.modules["fakepkg.owner"], sys.modules["fakepkg.user"]


def _bindings():
    """Every attribute of the package's modules and classes, plus numpy.fft."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "slipdisk" or name.startswith("slipdisk."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    for attr in ("rfft", "irfft"):
        out[("numpy.fft", attr)] = getattr(np.fft, attr)
    return out


def test_layer_install_is_undone_by_restore():
    pytest.importorskip("scipy")
    import layers

    importlib.import_module("slipdisk")
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) > 30
        ns = sys.modules["slipdisk.ns_solver"]
        grid = sys.modules["slipdisk.geometry"].build_grid(8, 8)
        psi = sys.modules["slipdisk.field"].ScalarField(grid, np.zeros(grid.shape))
        ns.perp_grad(psi)
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans()}
    assert {"field.perp_grad", "field.check_values", "numpy.fft.rfft"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
