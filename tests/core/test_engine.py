"""NBSMTEngine adapter: per-layer statistics and thread handling."""

import itertools

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import NBSMTEngine
from repro.quant.engine import ExactEngine, LayerContext
from repro.utils.rng import new_rng
from tests.conftest import make_quantized_pair


@pytest.fixture
def pair():
    return make_quantized_pair(new_rng(11), m=32, k=48, n=16)


def test_single_thread_context_is_exact(pair):
    x, w = pair
    engine = NBSMTEngine("S+A")
    ctx = LayerContext(name="layer0", threads=1)
    out = engine.matmul(x, w, ctx)
    assert np.array_equal(out, x @ w)
    assert ctx.stats["macs"] == x.shape[0] * x.shape[1] * w.shape[1]


def test_two_thread_context_matches_executor(pair):
    from repro.core.smt import NBSMTMatmul

    x, w = pair
    engine = NBSMTEngine("S+A")
    ctx = LayerContext(name="layer0", threads=2)
    out = engine.matmul(x, w, ctx)
    expected = NBSMTMatmul(2, "S+A").matmul(x, w)
    assert np.array_equal(out, expected)
    assert "layer0" in engine.layer_stats
    assert engine.layer_stats["layer0"].mac_total > 0


def test_engine_accumulates_stats_across_calls(pair):
    x, w = pair
    engine = NBSMTEngine("S+A")
    ctx = LayerContext(name="layer0", threads=2)
    engine.matmul(x, w, ctx)
    first_total = engine.layer_stats["layer0"].mac_total
    engine.matmul(x, w, ctx)
    assert engine.layer_stats["layer0"].mac_total == 2 * first_total
    engine.reset_stats()
    assert engine.layer_stats == {}


def test_engine_respects_permutation(pair):
    x, w = pair
    engine = NBSMTEngine("S+A")
    perm = new_rng(2).permutation(x.shape[1])
    ctx = LayerContext(name="layer0", threads=2, permutation=perm)
    out = engine.matmul(x, w, ctx)
    assert out.shape == (x.shape[0], w.shape[1])


def test_collect_stats_false_still_produces_output(pair):
    x, w = pair
    engine = NBSMTEngine("S+A", collect_stats=False)
    ctx = LayerContext(name="layer0", threads=2)
    out = engine.matmul(x, w, ctx)
    assert out.shape == (x.shape[0], w.shape[1])
    assert engine.layer_stats == {}


def test_exact_engine_reference(pair):
    x, w = pair
    engine = ExactEngine()
    ctx = LayerContext(name="ref")
    assert np.array_equal(engine.matmul(x, w, ctx), x @ w)


def test_layer_duration_ignores_wall_clock_steps(pair, monkeypatch):
    x, w = pair
    engine = NBSMTEngine("S+A")
    # Every wall-clock reading steps 100 s back.
    wall = itertools.count(1_000_000.0, -100.0)
    monkeypatch.setattr(engine_module.time, "time", lambda: next(wall))
    engine.matmul(x, w, LayerContext(name="layer0", threads=2))
    ((name, start, duration),) = engine.layer_times
    assert name == "layer0"
    assert start == 1_000_000.0
    assert 0.0 <= duration < 60.0


def test_layer_times_overflow_is_counted(pair):
    x, w = pair
    engine = NBSMTEngine("S+A")
    ctx = LayerContext(name="layer0", threads=2)
    capacity = engine_module._MAX_LAYER_TIMES
    engine.layer_times = [("earlier", 0.0, 0.0)] * capacity
    engine.matmul(x, w, ctx)
    assert len(engine.layer_times) == capacity
    assert engine.layer_times_dropped == 1
    engine.reset_stats()
    assert engine.layer_times_dropped == 0
