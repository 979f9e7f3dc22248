"""Functional NB-SMT executor: fast paths vs reference, invariants, stats."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import smt
from repro.core.policies import POLICY_NAMES, get_policy
from repro.core.smt import NBSMTMatmul, SMTStatistics, split_into_threads
from tests.conftest import make_quantized_pair
from repro.utils.rng import new_rng

ALL_POLICIES = ("min", "S", "A", "Aw", "S+A", "S+Aw", "W", "aW", "S+W", "S+aW")


# -- thread splitting -------------------------------------------------------------

def test_split_into_threads_shapes_and_padding():
    x = np.arange(2 * 7).reshape(2, 7)
    w = np.arange(7 * 3).reshape(7, 3)
    x_t, w_t = split_into_threads(x, w, 2)
    assert x_t.shape == (2, 2, 4)
    assert w_t.shape == (2, 4, 3)
    # Padded positions are zero.
    assert np.all(x_t[1, :, -1] == 0)
    assert np.all(w_t[1, -1, :] == 0)


def test_split_into_threads_reconstructs_matmul():
    rng = new_rng(0)
    x, w = make_quantized_pair(rng, m=10, k=13, n=5)
    x_t, w_t = split_into_threads(x, w, 4)
    total = sum(x_t[t] @ w_t[t] for t in range(4))
    assert np.array_equal(total, x @ w)


def test_split_requires_matching_inner_dims():
    with pytest.raises(ValueError):
        split_into_threads(np.zeros((2, 3)), np.zeros((4, 2)), 2)


# -- basic executor invariants --------------------------------------------------------

def test_single_thread_is_exact(quantized_pair):
    x, w = quantized_pair
    executor = NBSMTMatmul(1, "S+A")
    assert np.array_equal(executor.matmul(x, w), x @ w)
    assert executor.stats.mac_total == x.shape[0] * x.shape[1] * w.shape[1]


def test_invalid_thread_count():
    with pytest.raises(ValueError):
        NBSMTMatmul(3, "S+A")


def test_no_collisions_means_no_error(rng):
    """If thread 2's activations are all zero, S policies are exact."""
    x, w = make_quantized_pair(rng, m=24, k=32, n=12, act_sparsity=0.3)
    x[:, 16:] = 0  # the second thread never demands the MAC
    for policy in ("S", "S+A", "S+Aw"):
        executor = NBSMTMatmul(2, policy)
        assert np.array_equal(executor.matmul(x, w), x @ w), policy


def test_narrow_activations_are_error_free_with_width_policy(rng):
    x, w = make_quantized_pair(rng, m=24, k=32, n=12)
    x = np.clip(x, 0, 15)
    for policy in ("A", "S+A", "Aw", "S+Aw"):
        executor = NBSMTMatmul(2, policy)
        assert np.array_equal(executor.matmul(x, w), x @ w), policy


def test_narrow_weights_are_error_free_with_weight_policy(rng):
    x, w = make_quantized_pair(rng, m=24, k=32, n=12)
    w = np.clip(w, -8, 7)
    for policy in ("W", "S+W", "aW", "S+aW"):
        executor = NBSMTMatmul(2, policy)
        assert np.array_equal(executor.matmul(x, w), x @ w), policy


def test_min_policy_equals_whole_model_reduction(rng):
    """The 'min' policy reduces every activation, like the A4W8 sweep."""
    from repro.core.precision import act_fits_4bit, reduce_act_to_4bit_msb

    x, w = make_quantized_pair(rng, m=16, k=24, n=8)
    executor = NBSMTMatmul(2, "min")
    out = executor.matmul(x, w)
    x_reduced = reduce_act_to_4bit_msb(x)
    assert np.array_equal(out, x_reduced @ w)


def test_permutation_leaves_exact_result_unchanged(rng):
    x, w = make_quantized_pair(rng, m=16, k=24, n=8)
    executor = NBSMTMatmul(1, "S+A")
    perm = new_rng(3).permutation(24)
    assert np.array_equal(executor.matmul(x, w, permutation=perm), x @ w)


def test_permutation_changes_collisions_but_not_shape(rng):
    x, w = make_quantized_pair(rng, m=32, k=40, n=16)
    perm = new_rng(4).permutation(40)
    executor = NBSMTMatmul(2, "S+A")
    out = executor.matmul(x, w, permutation=perm)
    assert out.shape == (32, 16)


# -- fast vs reference equivalence ---------------------------------------------------

@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("threads", [2, 4])
def test_fast_path_matches_reference(rng, policy, threads):
    x, w = make_quantized_pair(rng, m=40, k=48, n=20)
    fast = NBSMTMatmul(threads, policy)
    reference = NBSMTMatmul(threads, policy, force_reference=True, chunk_rows=16)
    out_fast = fast.matmul(x, w)
    out_reference = reference.matmul(x, w)
    assert np.array_equal(out_fast, out_reference)
    assert fast.stats.mac_total == reference.stats.mac_total
    assert fast.stats.slots_total == reference.stats.slots_total
    assert fast.stats.slots_active == reference.stats.slots_active
    assert fast.stats.mac_active == reference.stats.mac_active
    assert fast.stats.sum_sq_error == pytest.approx(reference.stats.sum_sq_error)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    act_sparsity=st.floats(min_value=0.0, max_value=0.9),
    threads=st.sampled_from([2, 4]),
    policy=st.sampled_from(["min", "S", "S+A", "S+Aw", "S+W"]),
)
def test_fast_path_matches_reference_property(seed, act_sparsity, threads, policy):
    rng = new_rng(seed)
    x, w = make_quantized_pair(rng, m=12, k=16, n=6, act_sparsity=act_sparsity)
    fast = NBSMTMatmul(threads, policy, collect_stats=False)
    reference = NBSMTMatmul(threads, policy, collect_stats=False,
                            force_reference=True, chunk_rows=5)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))


def test_2t_reduced_count_matches_reference(rng):
    x, w = make_quantized_pair(rng, m=24, k=32, n=12)
    for policy in ("min", "S", "S+A", "S+Aw", "S+W"):
        fast = NBSMTMatmul(2, policy)
        reference = NBSMTMatmul(2, policy, force_reference=True)
        fast.matmul(x, w)
        reference.matmul(x, w)
        assert fast.stats.mac_reduced == reference.stats.mac_reduced, policy


# -- statistics ------------------------------------------------------------------------

def test_statistics_merge_and_derived_quantities():
    a = SMTStatistics(mac_total=100, mac_active=40, slots_total=50, slots_active=35,
                      act_values=100, act_nonzero=40, sum_sq_error=10.0,
                      sum_sq_exact=100.0, outputs=10)
    b = SMTStatistics(mac_total=100, mac_active=60, slots_total=50, slots_active=45,
                      act_values=100, act_nonzero=60, sum_sq_error=0.0,
                      sum_sq_exact=100.0, outputs=10)
    a.merge(b)
    assert a.mac_total == 200
    assert a.baseline_utilization == pytest.approx(0.5)
    assert a.smt_utilization == pytest.approx(0.8)
    assert a.utilization_gain == pytest.approx(1.6)
    assert a.activation_sparsity == pytest.approx(0.5)
    assert a.relative_mse == pytest.approx(0.05)
    assert a.mse == pytest.approx(0.5)
    assert set(a.as_dict()) >= {"mac_total", "utilization_gain", "relative_mse"}


def test_empty_statistics_are_safe():
    stats = SMTStatistics()
    assert stats.baseline_utilization == 0.0
    assert stats.utilization_gain == 1.0
    assert stats.relative_mse == 0.0
    assert stats.mse == 0.0
    assert stats.activation_sparsity == 0.0


def test_mse_increases_with_threads(rng):
    x, w = make_quantized_pair(rng, m=48, k=64, n=24)
    mse = {}
    for threads in (2, 4):
        executor = NBSMTMatmul(threads, "S+A")
        executor.matmul(x, w)
        mse[threads] = executor.stats.relative_mse
    assert mse[4] >= mse[2]


def test_policy_ordering_of_error(rng):
    """Combining sparsity and width must not be worse than either alone."""
    x, w = make_quantized_pair(rng, m=64, k=96, n=32)
    errors = {}
    for policy in ("min", "S", "A", "S+A"):
        executor = NBSMTMatmul(2, policy)
        executor.matmul(x, w)
        errors[policy] = executor.stats.sum_sq_error
    assert errors["S+A"] <= errors["S"]
    assert errors["S+A"] <= errors["A"]
    assert errors["S"] <= errors["min"]
    assert errors["A"] <= errors["min"]


def test_utilization_gain_close_to_eq8(rng):
    """With independent random threads, the measured gain tracks 1 + s."""
    x, w = make_quantized_pair(rng, m=96, k=128, n=32, act_sparsity=0.6,
                               wgt_sparsity=0.0)
    executor = NBSMTMatmul(2, "S+A")
    executor.matmul(x, w)
    sparsity = executor.stats.activation_sparsity
    assert executor.stats.utilization_gain == pytest.approx(1 + sparsity, abs=0.08)


def test_reset_stats(quantized_pair):
    x, w = quantized_pair
    executor = NBSMTMatmul(2, "S+A")
    executor.matmul(x, w)
    assert executor.stats.mac_total > 0
    executor.reset_stats()
    assert executor.stats.mac_total == 0


def test_collect_stats_false_skips_counters(quantized_pair):
    x, w = quantized_pair
    executor = NBSMTMatmul(2, "S+A", collect_stats=False)
    executor.matmul(x, w)
    assert executor.stats.mac_total == 0


def test_statistics_payload_roundtrip(rng):
    import json

    x, w = make_quantized_pair(rng, m=24, k=32, n=8)
    executor = NBSMTMatmul(4, "S+A", collect_stats=True)
    executor.matmul(x, w)
    payload = json.loads(json.dumps(executor.stats.to_payload()))
    rebuilt = SMTStatistics.from_payload(payload)
    assert rebuilt.as_dict() == executor.stats.as_dict()


# -- row-tiled error GEMM -------------------------------------------------------------

_INT_STATS = [f.name for f in dataclasses.fields(SMTStatistics) if f.type == "int"]


def _tiled_case(kind):
    rng = new_rng(21)
    if kind == "ragged":
        return make_quantized_pair(rng, m=37, k=8, n=5)
    if kind == "below-one-tile":
        return make_quantized_pair(rng, m=3, k=8, n=5)
    if kind == "float64-group":
        # Kt in the thousands pushes single error terms past the float32
        # exactness bound, so they form float64 groups.
        x, w = make_quantized_pair(rng, m=5, k=20_000, n=2, act_sparsity=0.2)
        x[0, :4] = 255
        w[:4, 0] = -127
        return x, w
    if kind == "very-sparse":
        return make_quantized_pair(new_rng(1234), m=40, k=48, n=16,
                                   act_sparsity=0.6, wgt_sparsity=0.5)
    if kind == "mixed-patterns":
        return _mixed_pattern_case()
    if kind == "narrow-acts":
        # Every activation fits 4 bits, so every activation reduction delta
        # is zero and the dx-based error blocks are all-zero.
        x, w = make_quantized_pair(new_rng(1234), m=48, k=64, n=24)
        return x % 16, w
    # "sparse": every other K column is empty; 4-bit weight rows have zero
    # reduction deltas.
    x, w = make_quantized_pair(rng, m=37, k=16, n=5, act_sparsity=0.3)
    x[:, ::2] = 0
    w[1::4] = np.clip(w[1::4], -7, 7)
    return x, w


@pytest.mark.parametrize("kind",
                         ["ragged", "below-one-tile", "float64-group", "sparse",
                          "very-sparse", "narrow-acts", "mixed-patterns"])
@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("threads", [2, 4])
def test_row_tiled_error_gemm_matches_reference(monkeypatch, threads, policy,
                                                kind):
    # A 768-byte tile holds 2 rows of the widest 4-thread operand at K=8 and
    # about 24 of the 2-thread one: M=37 splits into ragged tiles, M=3 can
    # fit in one.
    monkeypatch.setattr(smt, "_TILE_BYTES", 768)
    dtypes = []
    evaluate = smt._ErrorAccumulator._evaluate_group

    def spy_evaluate(self, group, dtype):
        dtypes.append(dtype)
        return evaluate(self, group, dtype)

    monkeypatch.setattr(smt._ErrorAccumulator, "_evaluate_group", spy_evaluate)
    x, w = _tiled_case(kind)
    fast = NBSMTMatmul(threads, policy)
    reference = NBSMTMatmul(threads, policy, force_reference=True)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))
    for name in _INT_STATS:
        assert getattr(fast.stats, name) == getattr(reference.stats, name), name
    assert fast.stats.as_dict() == reference.stats.as_dict()
    if kind == "float64-group":
        assert np.float64 in dtypes


#: Weight-side thread patterns of the mixed-pattern case, by K row of the
#: thread slices (Kt = 12): 15 and the two-thread 0b0011 fill more than a
#: third of the rows; the two-thread 0b0101 fills exactly a third, and
#: 0b1001 (two threads), 0b0111 and 0b1110 (three threads) two rows each.
_ROW_PATTERNS = (
    [(15, 3)] * 7
    + [(15, 3, 5), (15, 14, 1), (15, 7, 5), (15, 9, 5), (15, 3, 14, 7, 9, 5)]
)


def _mixed_pattern_case():
    kt, n = len(_ROW_PATTERNS), 10
    rng = new_rng(71)
    x, w = make_quantized_pair(rng, m=29, k=4 * kt, n=n, act_sparsity=0.3,
                               wgt_sparsity=0.0)
    w[w == 0] = 1
    for k, patterns in enumerate(_ROW_PATTERNS):
        beta = rng.choice(patterns, size=n)
        beta[:len(patterns)] = patterns  # every listed pattern occurs
        for t in range(4):
            w[t * kt + k] *= (beta >> t) & 1
    return x, w


def _left_widths(monkeypatch) -> list[int]:
    """Total left-operand width of every ``_ErrorAccumulator.total`` call."""
    widths = []
    total = smt._ErrorAccumulator.total

    def spy_total(self):
        widths.append(sum(term[1].shape[1] for term in self._terms))
        return total(self)

    monkeypatch.setattr(smt._ErrorAccumulator, "total", spy_total)
    return widths


@pytest.mark.parametrize("collect_stats", [True, False])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_weight_pattern_partition_matches_reference(policy, collect_stats):
    x, w = _mixed_pattern_case()
    _, w_t = split_into_threads(x, w, 4)
    beta = sum((w_t[t] != 0).astype(int) << t for t in range(4))
    kt = beta.shape[0]
    rows = {b: int((beta == b).any(axis=1).sum()) for b in range(16)}
    multi = [b for b in range(16) if bin(b).count("1") >= 2 and rows[b]]
    restricted = {bin(b).count("1") for b in multi if 3 * rows[b] <= kt}
    full = {bin(b).count("1") for b in multi if 3 * rows[b] > kt}
    assert restricted == {2, 3} and full == {2, 4}
    fast = NBSMTMatmul(4, policy, collect_stats=collect_stats)
    reference = NBSMTMatmul(4, policy, collect_stats=collect_stats,
                            force_reference=True)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))
    assert fast.stats == reference.stats


def test_zero_free_weights_take_eight_error_blocks(monkeypatch):
    # With no zero weight every (k, n) holds the all-threads pattern, the
    # demand depends on the activations alone, and S+A needs a dx and an
    # x4 block per thread: 8 * Kt columns (the inclusion-exclusion
    # expansion over thread subsets took 44 * Kt).
    widths = _left_widths(monkeypatch)
    x, w = make_quantized_pair(new_rng(61), m=40, k=48, n=16,
                               wgt_sparsity=0.0)
    w[w == 0] = -3
    fast = NBSMTMatmul(4, "S+A")
    reference = NBSMTMatmul(4, "S+A", force_reference=True)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))
    assert widths == [8 * 12]


def test_rare_patterns_take_only_their_rows(monkeypatch):
    # S+A, Kt = 12: patterns 15 and 0b0011 span all rows (8 and 2 blocks);
    # 0b0101 and 0b1001 take 2 blocks, over their 4 and 2 rows only, and
    # 0b0111 and 0b1110 take 6, over their 2 rows.
    widths = _left_widths(monkeypatch)
    x, w = _mixed_pattern_case()
    NBSMTMatmul(4, "S+A").matmul(x, w)
    assert widths == [8 * 12 + 2 * 12 + 2 * (4 + 2) + 6 * (2 + 2)]


@pytest.mark.parametrize(
    "policy", [name for name in POLICY_NAMES if get_policy(name).sparsity]
)
def test_pattern_partition_width_is_bounded(monkeypatch, policy):
    # Every multi-thread pattern at full width: 2 blocks per thread and
    # pattern, 3 per thread of a 3- or 4-thread pattern for the
    # width-secondary policies.
    widths = _left_widths(monkeypatch)
    x, w = _tiled_case("very-sparse")
    NBSMTMatmul(4, policy).matmul(x, w)
    blocks = 60 if get_policy(policy).width_secondary else 44
    assert len(widths) == 1 and 0 < widths[0] <= blocks * 12


@pytest.mark.parametrize("shape", [(0, 8, 3), (4, 0, 3), (4, 8, 0)])
@pytest.mark.parametrize("threads", [2, 4])
def test_empty_dimensions_match_reference(threads, shape):
    m, k, n = shape
    x = np.zeros((m, k), dtype=np.int64)
    w = np.zeros((k, n), dtype=np.int64)
    fast = NBSMTMatmul(threads, "S+A").matmul(x, w)
    reference = NBSMTMatmul(threads, "S+A", force_reference=True).matmul(x, w)
    assert fast.shape == (m, n)
    assert np.array_equal(fast, reference)


def test_error_gemm_never_materializes_the_wide_operand(monkeypatch):
    # The stacked left operand of this 4-thread case would be
    # 4096 x (60 * 36) float32 = 35 MB.
    x, w = make_quantized_pair(new_rng(5), m=4096, k=144, n=16)
    peaks = []
    total = smt._ErrorAccumulator.total

    def traced_total(self):
        tracemalloc.start()
        try:
            return total(self)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(smt._ErrorAccumulator, "total", traced_total)
    NBSMTMatmul(4, "S+A").matmul(x, w)
    assert peaks and max(peaks) < 8 * 2**20


def test_error_gemm_buffers_stay_bounded_for_wide_n(monkeypatch):
    # Wide N, narrow Kt: any per-block (M, N) float32 buffer, such as a
    # partial product kept for all M rows, would add 4 MB per block (up to
    # 44 blocks at 4 threads, 2 at 2 threads).
    m, k, n = 4096, 16, 256
    x, w = make_quantized_pair(new_rng(6), m=m, k=k, n=n)
    peaks = []
    total = smt._ErrorAccumulator.total

    def traced_total(self):
        tracemalloc.start()
        try:
            return total(self)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(smt._ErrorAccumulator, "total", traced_total)
    for threads in (2, 4):
        NBSMTMatmul(threads, "S+A").matmul(x, w)
    # total() holds a float64 sum plus either the int64 result or one
    # group's float32 output and its row tile.
    bound = max(16 * m * n, 12 * m * n + smt._TILE_BYTES) + 2**20
    assert len(peaks) == 2 and max(peaks) < bound


# -- operand contract ------------------------------------------------------------

@pytest.mark.parametrize("bad", ["act-negative", "act-wide", "wgt-low",
                                 "wgt-high"])
@pytest.mark.parametrize("threads,reference", [(1, False), (2, False),
                                               (4, False), (4, True)])
def test_out_of_contract_operands_raise(threads, reference, bad):
    # Out-of-range values used to reach the fast paths, whose lookup
    # tables clip while the nonzero and 4-bit-fit tests do not, so they
    # silently diverged from the reference.
    x, w = make_quantized_pair(new_rng(8), m=6, k=8, n=3)
    if bad == "act-negative":
        x[2, 3] = -1
    elif bad == "act-wide":
        x[0, 0] = 256
    elif bad == "wgt-low":
        w[1, 2] = -129
    else:
        w[4, 0] = 128
    executor = NBSMTMatmul(threads, "S+A", force_reference=reference)
    with pytest.raises(ValueError, match="must lie in"):
        executor.matmul(x, w)
    assert executor.stats == SMTStatistics()


def test_contract_range_ends_are_accepted():
    x = np.array([[0, 255, 17, 0]])
    w = np.array([[-128], [127], [-9], [8]])
    for threads in (1, 2, 4):
        fast = NBSMTMatmul(threads, "S+A").matmul(x, w)
        reference = NBSMTMatmul(threads, "S+A", force_reference=True)
        assert np.array_equal(fast, reference.matmul(x, w))


# -- 4-thread statistics from the joint activation code -------------------------

def _every_act_code_case(width_primary):
    """Operands in which every column holds every reachable 12-bit code.

    Each row picks one value class per thread (the class is the value's
    (nonzero, achg, afits) bits), so all class combinations appear in every
    K column of the four thread slices; the values come from the property
    tests' boundary values and no column is all zeros.
    """
    from tests.core.test_smt_properties import _ACT_SPECIALS, _WGT_SPECIALS

    act_code = smt._value_luts(width_primary)["act_code"]
    classes: dict[int, list[int]] = {}
    for value in _ACT_SPECIALS:
        classes.setdefault(int(act_code[0][value]), []).append(value)
    members = list(classes.values())
    rng = new_rng(31)
    kt, n = 3, 6
    combos = np.array(np.meshgrid(*[range(len(members))] * 4)).reshape(4, -1).T
    x = np.empty((len(combos), 4 * kt), dtype=np.int64)
    for row, combo in enumerate(combos):
        for t, cls in enumerate(combo):
            x[row, t * kt:(t + 1) * kt] = rng.choice(members[cls], size=kt)
    w = rng.choice(_WGT_SPECIALS, size=(4 * kt, n))

    reachable = {
        int(np.bitwise_or.reduce(
            [act_code[t][members[cls][0]] for t, cls in enumerate(combo)]))
        for combo in combos
    }
    x_t, _ = split_into_threads(x, w, 4)
    codes = np.bitwise_or.reduce(
        [act_code[t].take(x_t[t]) for t in range(4)])
    return x, w, reachable, codes


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_every_activation_code_matches_reference(policy):
    width = get_policy(policy).width_primary
    x, w, reachable, codes = _every_act_code_case(width)
    for column in codes.T:
        assert set(column.tolist()) == reachable
    assert (x.reshape(-1, 4, 3) != 0).any(axis=0).all()  # no zero columns
    fast = NBSMTMatmul(4, policy)
    reference = NBSMTMatmul(4, policy, force_reference=True)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))
    assert fast.stats == reference.stats


@pytest.mark.parametrize("collect_stats", [True, False])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_chunked_activation_histograms_match_reference(monkeypatch, policy,
                                                       collect_stats):
    # Two K columns per np.bincount: Kt=7 splits into ragged chunks of 2,
    # 2, 2 and 1 columns.  The thread slices are empty in different
    # columns, so the per-column histograms differ between chunks.
    monkeypatch.setattr(smt, "_HIST_BINS", 2 * 4096)
    x, w = make_quantized_pair(new_rng(51), m=40, k=28, n=6, act_sparsity=0.3)
    for t in range(4):
        x[:, [7 * t + k for k in range(7) if (k + t) % 3 == 0]] = 0
    fast = NBSMTMatmul(4, policy, collect_stats=collect_stats)
    reference = NBSMTMatmul(4, policy, collect_stats=collect_stats,
                            force_reference=True)
    assert np.array_equal(fast.matmul(x, w), reference.matmul(x, w))
    assert fast.stats.as_dict() == reference.stats.as_dict()
    # Compare the histograms themselves with one unchunked count too.
    xs = list(split_into_threads(x, w, 4)[0])
    act_code = smt._value_luts(get_policy(policy).width_primary)["act_code"]
    chunked = smt._act_histograms(xs, act_code)
    monkeypatch.setattr(smt, "_HIST_BINS", 1 << 20)
    whole = smt._act_histograms(xs, act_code)
    assert np.array_equal(chunked[0], whole[0])
    for chunked_a, whole_a in zip(chunked[1], whole[1], strict=True):
        assert np.array_equal(chunked_a, whole_a)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_4t_outputs_do_not_depend_on_collect_stats(policy):
    x, w = make_quantized_pair(new_rng(41), m=64, k=96, n=12, act_sparsity=0.4)
    with_stats = NBSMTMatmul(4, policy, collect_stats=True).matmul(x, w)
    without = NBSMTMatmul(4, policy, collect_stats=False).matmul(x, w)
    assert np.array_equal(with_stats, without)
