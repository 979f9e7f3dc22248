"""Functional NB-SMT matrix-multiply executor.

The SySMT hardware computes ``O = X @ W`` where each PE accumulates one
output element and the K dimension is split across T threads (output-register
sharing, Eq. (2)/(3)).  This module models that computation *functionally*:
it produces the exact integer accumulators the hardware would produce,
including the noise introduced when thread collisions force reduced-precision
products, together with per-layer statistics (collision breakdown,
utilization, MSE versus the error-free result).

Two implementations are provided and cross-checked by the test suite:

* a chunked **reference** path that materializes the per-position activity
  tensors and handles any thread count;
* a **factorized** fast path for two and four threads, which expresses the
  NB-SMT noise as extra matrix multiplications of masked deltas (with the
  right side partitioned by the weight-side thread pattern, the demand
  count at a position is a function of the activations alone, so every
  demand-gated error term is a separable product of an activation-side and
  a weight-side block; the blocks are stacked along the inner dimension and
  evaluated with a handful of BLAS calls).

The factorized paths also reconstruct the *exact* statistics (including the
per-position reduction count) without materializing activity tensors: every
counter is a sum over positions of a function of the 4-bit thread-activity
pattern plus a few per-thread value predicates, so it reduces to per-K-column
histograms of small integer codes contracted against precomputed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core import packing
from repro.core.policies import PackingPolicy, get_policy
from repro.core.precision import act_fits_4bit, wgt_fits_4bit

#: Largest product-sum magnitude exactly representable by a float32 GEMM.
#: (The float64 limit, 2**53, is out of reach: 8-bit operands would need
#: K above 10**11.)
_F32_EXACT_LIMIT = 1 << 24
#: Worst-case magnitude of a 4-bit reduction delta.  Rounding alone is
#: bounded by 8, but clipping at the representable range ends widens it
#: (255 -> 240, 127 -> 112); derived from the tables so it cannot drift.
_DELTA_MAX = int(
    max(np.abs(lut).max() for lut in packing._DELTA_LUTS.values())
)


@dataclass
class SMTStatistics:
    """Counters accumulated by the executor across calls.

    All counters refer to MAC *operations* (one per (m, k, n) position of the
    original matmul) or to PE issue *slots* (one per group of T MAC
    operations that share a PE cycle).
    """

    mac_total: int = 0
    mac_active: int = 0
    mac_collided: int = 0
    mac_reduced: int = 0
    slots_total: int = 0
    slots_active: int = 0
    act_values: int = 0
    act_nonzero: int = 0
    sum_sq_error: float = 0.0
    sum_sq_exact: float = 0.0
    outputs: int = 0

    def merge(self, other: "SMTStatistics") -> None:
        for name in (
            "mac_total",
            "mac_active",
            "mac_collided",
            "mac_reduced",
            "slots_total",
            "slots_active",
            "act_values",
            "act_nonzero",
            "sum_sq_error",
            "sum_sq_exact",
            "outputs",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    # -- derived quantities -------------------------------------------------
    @property
    def activation_sparsity(self) -> float:
        """Fraction of zero-valued quantized activations."""
        if self.act_values == 0:
            return 0.0
        return 1.0 - self.act_nonzero / self.act_values

    @property
    def baseline_utilization(self) -> float:
        """Fraction of conventional-SA MAC cycles doing useful work."""
        if self.mac_total == 0:
            return 0.0
        return self.mac_active / self.mac_total

    @property
    def smt_utilization(self) -> float:
        """Fraction of SySMT PE issue slots doing useful work."""
        if self.slots_total == 0:
            return 0.0
        return self.slots_active / self.slots_total

    @property
    def utilization_gain(self) -> float:
        """Utilization improvement of SySMT over the conventional SA (Fig. 9)."""
        if self.baseline_utilization == 0.0:
            return 1.0
        return self.smt_utilization / self.baseline_utilization

    @property
    def collision_rate(self) -> float:
        if self.mac_total == 0:
            return 0.0
        return self.mac_collided / self.mac_total

    @property
    def reduction_rate(self) -> float:
        if self.mac_total == 0:
            return 0.0
        return self.mac_reduced / self.mac_total

    @property
    def relative_mse(self) -> float:
        """MSE of the noisy output relative to the mean square of the exact output."""
        if self.sum_sq_exact == 0.0:
            return 0.0
        return self.sum_sq_error / self.sum_sq_exact

    @property
    def mse(self) -> float:
        if self.outputs == 0:
            return 0.0
        return self.sum_sq_error / self.outputs

    def to_payload(self) -> dict[str, float]:
        """Raw counters as a JSON-able dict (see :meth:`from_payload`)."""
        return {
            "mac_total": int(self.mac_total),
            "mac_active": int(self.mac_active),
            "mac_collided": int(self.mac_collided),
            "mac_reduced": int(self.mac_reduced),
            "slots_total": int(self.slots_total),
            "slots_active": int(self.slots_active),
            "act_values": int(self.act_values),
            "act_nonzero": int(self.act_nonzero),
            "sum_sq_error": float(self.sum_sq_error),
            "sum_sq_exact": float(self.sum_sq_exact),
            "outputs": int(self.outputs),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SMTStatistics":
        """Rebuild the counters from :meth:`to_payload` output.

        Integer counters survive a JSON round trip exactly, and the two
        float sums round-trip bit-exactly through ``json`` (repr-based), so
        ``from_payload(json.loads(json.dumps(s.to_payload())))`` reproduces
        every derived statistic bit-for-bit.
        """
        stats = cls()
        for name in (
            "mac_total", "mac_active", "mac_collided", "mac_reduced",
            "slots_total", "slots_active", "act_values", "act_nonzero",
            "outputs",
        ):
            setattr(stats, name, int(payload[name]))
        stats.sum_sq_error = float(payload["sum_sq_error"])
        stats.sum_sq_exact = float(payload["sum_sq_exact"])
        return stats

    def as_dict(self) -> dict[str, float]:
        return {
            "mac_total": float(self.mac_total),
            "mac_active": float(self.mac_active),
            "mac_collided": float(self.mac_collided),
            "mac_reduced": float(self.mac_reduced),
            "slots_total": float(self.slots_total),
            "slots_active": float(self.slots_active),
            "activation_sparsity": self.activation_sparsity,
            "baseline_utilization": self.baseline_utilization,
            "smt_utilization": self.smt_utilization,
            "utilization_gain": self.utilization_gain,
            "collision_rate": self.collision_rate,
            "reduction_rate": self.reduction_rate,
            "relative_mse": self.relative_mse,
            "mse": self.mse,
        }


def split_into_threads(
    x_q: np.ndarray, w_q: np.ndarray, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split the K dimension into ``threads`` contiguous slices (Eq. (2)).

    Returns arrays of shape ``(T, M, K/T)`` and ``(T, K/T, N)``; K is padded
    with zeros (inactive positions) when not divisible by the thread count.
    """
    m, k = x_q.shape
    k_w, n = w_q.shape
    if k != k_w:
        raise ValueError("inner dimensions of X and W differ")
    per_thread = -(-k // threads)  # ceil division
    padded_k = per_thread * threads
    if padded_k != k:
        x_pad = np.zeros((m, padded_k), dtype=x_q.dtype)
        x_pad[:, :k] = x_q
        w_pad = np.zeros((padded_k, n), dtype=w_q.dtype)
        w_pad[:k, :] = w_q
        x_q, w_q = x_pad, w_pad
    x_threads = x_q.reshape(m, threads, per_thread).transpose(1, 0, 2)
    w_threads = w_q.reshape(threads, per_thread, n)
    return np.ascontiguousarray(x_threads), np.ascontiguousarray(w_threads)


def _as_int64(a: np.ndarray) -> np.ndarray:
    """View the array as int64, copying only when the dtype actually differs."""
    return a if a.dtype == np.int64 else a.astype(np.int64)


def _int_gemm(
    lefts: list[np.ndarray], rights: list[np.ndarray], bound: float
) -> np.ndarray:
    """Exact ``concat(lefts, axis=1) @ concat(rights, axis=0)`` through BLAS.

    The operands are 8-bit-ranged integer matrices, concatenated straight
    into the GEMM dtype.  ``bound`` is an upper bound on
    ``sum_k |left[m, k] * right[k, n]|``; it decides whether float32
    accumulations stay lossless (every partial sum is an integer below the
    mantissa limit, so the result is exact regardless of the accumulation
    order); float64 covers the rest.
    """
    dtype = np.float32 if bound < _F32_EXACT_LIMIT else np.float64
    left = np.concatenate(lefts, axis=1, dtype=dtype)
    right = np.concatenate(rights, axis=0, dtype=dtype)
    return np.rint(left @ right).astype(np.int64)


def _exact_matmul(x_q: np.ndarray, w_q: np.ndarray) -> np.ndarray:
    """Exact product of 8-bit-ranged integer matrices (float64 path)."""
    return np.rint(x_q.astype(np.float64) @ w_q.astype(np.float64)).astype(np.int64)


#: Byte budget of the reused row tile in which :class:`_ErrorAccumulator`
#: assembles each GEMM's left operand: about 1 MB keeps the tile cache
#: resident while each tile still spans enough rows (about a hundred for
#: the widest operands) to amortize the per-tile Python and BLAS overhead.
_TILE_BYTES = 1 << 20


class _ErrorAccumulator:
    """Collects separable error terms and evaluates them with few GEMMs.

    Each term is ``(gate_l * val_l) @ (gate_r * val_r)`` for integer-valued
    matrices of shapes ``(M, B)`` and ``(B, N)``, where ``B`` is Kt or the
    number of K rows the term is restricted to.  Terms are only described by
    :meth:`add`; :meth:`total` partitions them into groups whose cumulative
    exactness bound fits a float32 GEMM (float64 for oversized single terms)
    and evaluates each group as one product of a wide left operand and a
    narrow stacked right operand.  The left operand is never materialized:
    it is assembled in row tiles of about ``_TILE_BYTES`` in one reused
    buffer, each tile followed by one BLAS call into its rows of the output.

    This is bit-exact: every partial sum of a group's product is an integer
    below the float mantissa limit, so the result is exact in any
    accumulation order and for any row split.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self._terms: list[tuple] = []

    def add(
        self,
        gate_left: np.ndarray | bool,
        values_left: np.ndarray,
        gate_right: np.ndarray | bool,
        values_right: np.ndarray,
        bound: float,
    ) -> None:
        """Record the term; ``bound`` upper-bounds its product-sum magnitude."""
        self._terms.append(
            (gate_left, values_left, gate_right, values_right, bound)
        )

    def _evaluate_group(self, group: list[tuple], dtype) -> np.ndarray:
        rights = np.concatenate(
            [np.multiply(gate_r, val_r, dtype=dtype, casting="unsafe")
             for _, _, gate_r, val_r, _ in group],
            axis=0,
        )
        width = rights.shape[0]
        row_bytes = max(1, width * np.dtype(dtype).itemsize)
        rows = max(1, min(self.m, _TILE_BYTES // row_bytes))  # M may be 0
        buffer = np.empty((rows, width), dtype=dtype)
        out = np.empty((self.m, self.n), dtype=dtype)
        for r0 in range(0, self.m, rows):
            r1 = min(r0 + rows, self.m)
            tile = buffer[: r1 - r0]
            pos = 0
            for gate_l, val_l, _, _, _ in group:
                if isinstance(gate_l, np.ndarray):
                    gate_l = gate_l[r0:r1]
                val_l = val_l[r0:r1]
                stop = pos + val_l.shape[1]
                np.multiply(gate_l, val_l, out=tile[:, pos:stop],
                            casting="unsafe")
                pos = stop
            np.matmul(tile, rights, out=out[r0:r1])
        return out

    def total(self) -> np.ndarray:
        """Evaluate all recorded terms; returns the integer error matrix."""
        if not self._terms:
            return np.zeros((self.m, self.n), dtype=np.int64)
        group: list[tuple] = []
        group_bound = 0.0
        groups: list[tuple[list[tuple], type]] = []
        for term in self._terms:
            bound = term[4]
            if bound >= _F32_EXACT_LIMIT:
                groups.append(([term], np.float64))
                continue
            if group and group_bound + bound >= _F32_EXACT_LIMIT:
                groups.append((group, np.float32))
                group, group_bound = [], 0.0
            group.append(term)
            group_bound += bound
        if group:
            groups.append((group, np.float32))
        total = np.zeros((self.m, self.n), dtype=np.float64)
        for members, dtype in groups:
            total += self._evaluate_group(members, dtype)
        self._terms = []
        return np.rint(total, out=total).astype(np.int64)


class NBSMTMatmul:
    """Functional NB-SMT executor for a fixed thread count and policy.

    Parameters
    ----------
    threads:
        Number of DNN threads sharing each PE (1, 2 or 4).  One thread is
        the conventional, error-free execution.
    policy:
        A :class:`PackingPolicy` or its Table III name.
    collect_stats:
        Maintain the :class:`SMTStatistics` counters (requires computing the
        exact result as well; disable for pure-speed runs).
    force_reference:
        Always use the chunked reference implementation (used by tests to
        validate the factorized fast paths).
    chunk_rows:
        Row chunk size of the reference implementation.
    """

    def __init__(
        self,
        threads: int = 2,
        policy: PackingPolicy | str = "S+A",
        collect_stats: bool = True,
        force_reference: bool = False,
        chunk_rows: int = 256,
    ):
        if threads not in (1, 2, 4):
            raise ValueError("NB-SMT supports 1, 2 or 4 threads")
        self.threads = threads
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.collect_stats = collect_stats
        self.force_reference = force_reference
        self.chunk_rows = chunk_rows
        self.stats = SMTStatistics()

    # -- public API -----------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = SMTStatistics()

    def matmul(
        self,
        x_q: np.ndarray,
        w_q: np.ndarray,
        permutation: np.ndarray | None = None,
    ) -> np.ndarray:
        """Integer accumulators of the NB-SMT execution of ``x_q @ w_q``.

        ``x_q`` holds unsigned 8-bit activations (shape ``(M, K)``), ``w_q``
        signed 8-bit weights (shape ``(K, N)``).  ``permutation`` optionally
        reorders the K dimension before the threads are formed (Section IV-B);
        the result is unchanged by any permutation when no noise is injected.
        """
        x_q = np.asarray(x_q)
        w_q = np.asarray(w_q)
        x_lo, amax = _value_range(x_q)
        w_lo, w_hi = _value_range(w_q)
        if x_lo < 0 or amax > 255:
            raise ValueError(
                f"activations must lie in [0, 255], got [{x_lo}, {amax}]"
            )
        if w_lo < -128 or w_hi > 127:
            raise ValueError(
                f"weights must lie in [-128, 127], got [{w_lo}, {w_hi}]"
            )
        wmax = max(-w_lo, w_hi)
        if permutation is not None:
            x_q = x_q[:, permutation]
            w_q = w_q[permutation, :]

        if self.threads == 1:
            out = _exact_matmul(x_q, w_q)
            if self.collect_stats:
                self._record_single_thread(x_q, w_q)
            return out

        x_t, w_t = split_into_threads(x_q, w_q, self.threads)
        if self.force_reference:
            out, stats = _reference_multi_t(
                x_t, w_t, self.policy, self.collect_stats, self.chunk_rows
            )
        elif self.threads == 2:
            out, stats = _fast_2t(x_t, w_t, self.policy, self.collect_stats,
                                  amax, wmax)
        else:
            out, stats = _fast_4t(x_t, w_t, self.policy, self.collect_stats,
                                  amax, wmax)
        if self.collect_stats and stats is not None:
            self.stats.merge(stats)
        return out

    # -- internals --------------------------------------------------------------
    def _record_single_thread(self, x_q: np.ndarray, w_q: np.ndarray) -> None:
        stats = SMTStatistics()
        active = _count_active(x_q, w_q)
        total = x_q.shape[0] * x_q.shape[1] * w_q.shape[1]
        stats.mac_total = total
        stats.mac_active = active
        stats.slots_total = total
        stats.slots_active = active
        stats.act_values = int(x_q.size)
        stats.act_nonzero = int(np.count_nonzero(x_q))
        stats.outputs = x_q.shape[0] * w_q.shape[1]
        self.stats.merge(stats)


def _count_active(x_q: np.ndarray, w_q: np.ndarray) -> int:
    """Number of (m, k, n) MAC positions where both operands are nonzero."""
    x_nonzero = (x_q != 0).astype(np.int64)
    w_nonzero = (w_q != 0).astype(np.int64)
    return int(x_nonzero.sum(axis=0) @ w_nonzero.sum(axis=1))


def _value_range(a: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of ``a`` widened to include 0, as Python ints."""
    return int(a.min(initial=0)), int(a.max(initial=0))


# ---------------------------------------------------------------------------
# Factorized 2-thread fast path
# ---------------------------------------------------------------------------

def _fast_2t(
    x_t: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
    amax: int,
    wmax: int,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Factorized 2-thread execution: exact matmul plus masked-delta matmuls.

    ``amax`` / ``wmax`` are the largest operand magnitudes.  The operands are
    narrowed to int16: the gated-GEMM assembly is memory bound, so 2-byte
    reads beat the int64 defaults.
    """
    x1, x2 = x_t.astype(np.int16, copy=False)
    w1, w2 = w_t.astype(np.int16, copy=False)
    m, kt = x1.shape
    n = w1.shape[1]

    exact = _int_gemm([x1, x2], [w1, w2], bound=2.0 * kt * amax * wmax)

    act_nonzero_1, act_nonzero_2 = x1 != 0, x2 != 0
    wgt_nonzero_1, wgt_nonzero_2 = w1 != 0, w2 != 0
    if policy.sparsity:
        collide_act = act_nonzero_1 & act_nonzero_2          # (M, Kt)
        collide_wgt = wgt_nonzero_1 & wgt_nonzero_2          # (Kt, N)
    else:
        collide_act = np.ones_like(act_nonzero_1, dtype=bool)
        collide_wgt = np.ones_like(wgt_nonzero_1, dtype=bool)

    accumulator = _ErrorAccumulator(m, n)
    reduced_positions = 0
    for x_self, w_self in ((x1, w1), (x2, w2)):
        if policy.reduce == "act":
            delta = packing.act_reduction_delta(x_self, policy)       # (M, Kt)
            right_values = w_self
            if policy.width_secondary:
                right_values = w_self * ~wgt_fits_4bit(w_self)
            accumulator.add(
                collide_act, delta, collide_wgt, right_values,
                bound=float(kt) * _DELTA_MAX * wmax,
            )
        else:
            delta = packing.wgt_reduction_delta(w_self, policy)       # (Kt, N)
            left_values = x_self
            if policy.width_secondary:
                left_values = x_self * ~act_fits_4bit(x_self)
            accumulator.add(
                collide_act, left_values, collide_wgt, delta,
                bound=float(kt) * amax * _DELTA_MAX,
            )
        if collect_stats:
            if policy.reduce == "act":
                err_cols = collide_act & (delta != 0)
                err_rows = collide_wgt & (w_self != 0)
                if policy.width_secondary:
                    err_rows = err_rows & (~wgt_fits_4bit(w_self))
            else:
                err_cols = collide_act & (x_self != 0)
                if policy.width_secondary:
                    err_cols = err_cols & (~act_fits_4bit(x_self))
                err_rows = collide_wgt & (delta != 0)
            reduced_positions += int(
                err_cols.sum(axis=0).astype(np.int64)
                @ err_rows.sum(axis=1).astype(np.int64)
            )

    out = exact + accumulator.total()

    if not collect_stats:
        return out, None

    stats = SMTStatistics()
    active_1 = int(act_nonzero_1.sum(axis=0).astype(np.int64)
                   @ wgt_nonzero_1.sum(axis=1).astype(np.int64))
    active_2 = int(act_nonzero_2.sum(axis=0).astype(np.int64)
                   @ wgt_nonzero_2.sum(axis=1).astype(np.int64))
    both_active = int(
        (act_nonzero_1 & act_nonzero_2).sum(axis=0).astype(np.int64)
        @ (wgt_nonzero_1 & wgt_nonzero_2).sum(axis=1).astype(np.int64)
    )
    stats.mac_total = 2 * m * kt * n
    stats.mac_active = active_1 + active_2
    stats.mac_collided = 2 * both_active
    stats.mac_reduced = reduced_positions
    stats.slots_total = m * kt * n
    stats.slots_active = active_1 + active_2 - both_active
    stats.act_values = int(x1.size + x2.size)
    stats.act_nonzero = int(act_nonzero_1.sum() + act_nonzero_2.sum())
    stats.sum_sq_error = float(((out - exact).astype(np.float64) ** 2).sum())
    stats.sum_sq_exact = float((exact.astype(np.float64) ** 2).sum())
    stats.outputs = int(exact.size)
    return out, stats


# ---------------------------------------------------------------------------
# Optimized factorized 4-thread fast path
# ---------------------------------------------------------------------------

#: The 4-bit weight-side thread patterns under which a collision (two or
#: more active threads) can occur.
_MULTI_THREAD_PATTERNS = tuple(b for b in range(16) if bin(b).count("1") >= 2)


@lru_cache(maxsize=None)
def _value_luts(width_primary: bool) -> dict[str, np.ndarray]:
    """Per-operand-value lookup tables of the many-way (4b-4b) reduction.

    Everything derives from the delta tables in :mod:`repro.core.packing`
    (the single source of the width-gated reduction semantics): the
    effective 4b-4b operand is ``value + delta`` and an operand changed iff
    its delta is nonzero.  The deltas keep packing's narrow int8 storage --
    the gated-GEMM assembly is memory bound.

    ``act_code[t]`` is thread ``t``'s share of the 12-bit joint activation
    code of :func:`_act_histograms`: ``x != 0`` at bit ``t``, ``achg`` (the
    4b-4b reduction changes ``x``) at bit ``4 + 2t`` and ``afits`` (``x``
    fits in 4 bits) at bit ``5 + 2t``.
    """
    act = np.arange(256, dtype=np.int64)
    dx = packing._DELTA_LUTS[("act", width_primary)]
    dw = packing._DELTA_LUTS[("wgt", width_primary)]
    nonzero = (act != 0).astype(np.int64)
    achg = (dx != 0).astype(np.int64)
    afits = act_fits_4bit(act).astype(np.int64)
    act_code = np.stack([
        (nonzero << t) | (achg << (4 + 2 * t)) | (afits << (5 + 2 * t))
        for t in range(4)
    ]).astype(np.uint16)
    return {"dx": dx, "dw": dw, "wchg": dw != 0, "act_code": act_code}


def _act_lut_take(lut: np.ndarray, x: np.ndarray) -> np.ndarray:
    return lut.take(x, mode="clip")


def _wgt_lut_take(lut: np.ndarray, w: np.ndarray) -> np.ndarray:
    return lut.take(w + 128, mode="clip")


def _popcount4(values: np.ndarray) -> np.ndarray:
    return (values & 1) + ((values >> 1) & 1) + ((values >> 2) & 1) + (
        (values >> 3) & 1
    )


@lru_cache(maxsize=None)
def _activity_tables() -> dict[str, np.ndarray]:
    """16x16 tables of the per-slot statistics as functions of (alpha, beta).

    ``alpha``/``beta`` are the 4-bit activation-side / weight-side nonzero
    patterns of the four threads at one (m, k) / (k, n) position; their AND
    is the joint activity pattern of the issue slot.
    """
    alpha = np.arange(16)[:, None]
    beta = np.arange(16)[None, :]
    joint = alpha & beta
    demand = _popcount4(joint)
    return {
        "active": demand.astype(np.int64),
        "slots": (demand > 0).astype(np.int64),
        "collided": np.where(demand >= 2, demand, 0).astype(np.int64),
    }


@lru_cache(maxsize=None)
def _reduced_tables(policy: PackingPolicy) -> tuple[np.ndarray, ...]:
    """Per-thread 64x64 tables counting reduced (noisy) MAC positions.

    Activation-side codes are ``alpha | achg << 4 | afits << 5`` and
    weight-side codes ``beta | wchg << 4 | wfits << 5``, where ``achg`` /
    ``wchg`` flag operands changed by the 4b-4b reduction and ``afits`` /
    ``wfits`` flag operands that fit in 4 bits.  Entry ``[ac, bc]`` of table
    ``t`` is 1 when thread ``t``'s effective product differs from its exact
    product at a position with those codes (there are no value coincidences:
    an 8-bit product never equals a different reduced product, which the
    property tests re-verify against the reference executor).
    """
    codes = np.arange(64)
    alpha = (codes & 15)[:, None]
    achg = ((codes >> 4) & 1)[:, None]
    afits = ((codes >> 5) & 1)[:, None]
    beta = (codes & 15)[None, :]
    wchg = ((codes >> 4) & 1)[None, :]
    wfits = ((codes >> 5) & 1)[None, :]

    joint = alpha & beta
    demand = _popcount4(joint)

    tables = []
    for t in range(4):
        xn = (alpha >> t) & 1
        wn = (beta >> t) & 1
        active_t = (joint >> t) & 1
        diff_many = (achg & wn) | (wchg & xn)
        if policy.reduce == "act":
            diff_pair = achg & wn
            if policy.width_secondary:
                diff_pair = diff_pair & (1 - wfits)
        else:
            diff_pair = wchg & xn
            if policy.width_secondary:
                diff_pair = diff_pair & (1 - afits)
        if policy.sparsity:
            table = active_t * (
                (demand == 2) * diff_pair + (demand >= 3) * diff_many
            )
        else:
            # Without sparsity detection every 4-thread position is a full
            # (>= 3-way) collision.
            table = diff_many
        tables.append(table.astype(np.int64))
    return tuple(tables)


#: Bin budget of one ``np.bincount`` in :func:`_act_histograms`: the K
#: columns are counted in chunks of ``_HIST_BINS // bins``, so a short-M,
#: huge-Kt operand never allocates a Kt x 4096 joint histogram at once.
_HIST_BINS = 1 << 20


def _act_histograms(
    xs: list[np.ndarray], act_code: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-K-column histograms of the activation side of a 4-thread call.

    Each ``(m, k)`` position gets one code, the 12-bit joint code that is the
    OR of four per-thread lookups in ``act_code`` (see :func:`_value_luts`).
    One ``np.bincount`` over ``code + 4096 * k`` counts them, and every
    histogram the statistics need is a marginal of it:

    * ``hist_alpha`` (``(Kt, 16)``): counts of the activity pattern
      ``alpha``;
    * ``hist_a[t]`` (``(Kt, 64)``): counts of
      ``alpha | achg_t << 4 | afits_t << 5``, the activation-side codes of
      :func:`_reduced_tables`.
    """
    code = _act_lut_take(act_code[0], xs[0])
    for t in range(1, 4):
        code |= _act_lut_take(act_code[t], xs[t])
    kt = code.shape[1]
    hist_alpha = np.empty((kt, 16), dtype=np.int64)
    hist_a = [np.empty((kt, 64), dtype=np.int64) for _ in range(4)]
    step = max(1, _HIST_BINS // 4096)
    for k0 in range(0, kt, step):
        k1 = min(k0 + step, kt)
        cols = k1 - k0
        keys = code[:, k0:k1] + 4096 * np.arange(cols, dtype=np.int64)
        counts = np.bincount(keys.ravel(), minlength=4096 * cols)
        # Axes (column, a3, a2, a1, a0, alpha), a_t = achg_t | afits_t << 1.
        counts = counts.reshape(cols, 4, 4, 4, 4, 16)
        low = counts.sum(axis=(1, 2))    # (column, a1, a0, alpha)
        high = counts.sum(axis=(3, 4))   # (column, a3, a2, alpha)
        hist_a[0][k0:k1] = low.sum(axis=1).reshape(cols, 64)
        hist_a[1][k0:k1] = low.sum(axis=2).reshape(cols, 64)
        hist_a[2][k0:k1] = high.sum(axis=1).reshape(cols, 64)
        hist_a[3][k0:k1] = high.sum(axis=2).reshape(cols, 64)
        hist_alpha[k0:k1] = low.sum(axis=(1, 2))
    return hist_alpha, hist_a


def _wgt_histograms(codes: np.ndarray, bins: int) -> np.ndarray:
    """Per-K-row histograms of ``(Kt, N)`` weight codes: ``(Kt, bins)``."""
    kt = codes.shape[0]
    keys = codes + bins * np.arange(kt, dtype=np.int64)[:, None]
    return np.bincount(keys.ravel(), minlength=bins * kt).reshape(kt, bins)


def _contract(
    hist_a: np.ndarray, table: np.ndarray, hist_b: np.ndarray
) -> int:
    """``sum_k hist_a[k] @ table @ hist_b[k]`` for per-K-column histograms."""
    return int(((hist_a @ table) * hist_b).sum())


def _add_pattern_terms(
    accumulator: _ErrorAccumulator,
    xs: list[np.ndarray],
    ws: list[np.ndarray],
    dxs: list[np.ndarray],
    dws: list[np.ndarray],
    beta: np.ndarray,
    hist_beta: np.ndarray,
    policy: PackingPolicy,
    amax: int,
    wmax: int,
) -> None:
    """Record the demand-gated error terms of a sparsity policy at 4 threads.

    The right side is partitioned by the weight-side pattern ``beta``.  Where
    ``beta == b``, only the threads in ``b`` can be active, and the demand
    is ``demand_b``, the number of them with a nonzero activation: a
    function of the activations alone.  Every error term is therefore one
    activation-side gate of ``demand_b`` times a per-thread value, against
    ``[beta == b]`` times a per-thread value.  Under activation reduction,
    thread ``t`` of ``b`` contributes
    ``[demand_b >= 2] dx_t (x) w_t + [demand_b >= 3] x4_t (x) dw_t``, since
    the pair error ``dx (x) w`` is the first part of the many-way one
    ``x4 (x) w4 - x (x) w = dx (x) w + x4 (x) dw``.  Weight reduction swaps
    the roles of ``x`` and ``w``.  The width-secondary policies keep the
    pair term apart, under ``demand_b == 2`` and against the operand
    masked to its wide values, and add the many-way term's first part
    under ``demand_b >= 3``.  Operands equal to zero have zero deltas, so
    threads outside ``b`` and inactive threads contribute nothing.

    A pattern that occurs in at most a third of the K rows contributes only
    those rows; otherwise all Kt.  Each restricted block gathers columns of
    a row-major ``(M, Kt)`` operand, which reads all of it, so above a third
    the gathers cost more than the width they save.  Patterns with fewer
    than two threads never collide.
    """
    kt = beta.shape[0]
    delta = float(_DELTA_MAX)
    rows_with = hist_beta > 0
    row_counts = rows_with.sum(axis=0)
    patterns = [b for b in _MULTI_THREAD_PATTERNS if row_counts[b]]
    secondary = policy.width_secondary
    if policy.reduce == "act":
        pair_rights = [w * ~wgt_fits_4bit(w) for w in ws] if secondary else ws
        pair = (dxs, pair_rights, delta * wmax)
        x4s = [x + dx for x, dx in zip(xs, dxs)]
        many = [(x4s, dws, (amax + delta) * delta)]  # |x4| <= amax + delta
        if secondary:
            many.append((dxs, ws, delta * wmax))
    else:
        pair_lefts = [x * ~act_fits_4bit(x) for x in xs] if secondary else xs
        pair = (pair_lefts, dws, amax * delta)
        w4s = [w + dw for w, dw in zip(ws, dws)]
        many = [(dxs, w4s, delta * (wmax + delta))]
        if secondary:
            many.append((xs, dws, amax * delta))
    act_masks = [x != 0 for x in xs]

    for b in patterns:
        members = [t for t in range(4) if b >> t & 1]
        restricted = 3 * row_counts[b] <= kt
        cols = np.flatnonzero(rows_with[:, b]) if restricted else slice(None)
        width = float(row_counts[b] if restricted else kt)
        masks = [act_masks[t][:, cols] for t in members]
        if len(members) == 2:
            # A thread's error values vanish where its activation is zero,
            # so "both active" is "the other one active": no gate to build.
            terms = [(masks[::-1], pair)]
        else:
            ones = [mask.view(np.uint8) for mask in masks]
            demand = ones[0] + ones[1]
            for one in ones[2:]:
                demand += one
            pair_gate = demand == 2 if secondary else demand >= 2
            many_gate = np.greater_equal(demand, 3, out=demand.view(bool))
            terms = [([pair_gate] * len(members), pair)]
            terms += [([many_gate] * len(members), factors) for factors in many]
        right_gate = beta[cols] == b
        for gates, (lefts, rights, bound) in terms:
            for gate, t in zip(gates, members):
                accumulator.add(gate, lefts[t][:, cols], right_gate,
                                rights[t][cols], width * bound)


def _fast_4t(
    x_t: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
    amax: int,
    wmax: int,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Optimized factorized 4-thread execution.

    The NB-SMT output equals the exact product plus error terms gated by the
    per-position demand count.  Partitioned by the weight-side thread
    pattern, the demand is a function of the activations alone, so each
    gated error term is separable (:func:`_add_pattern_terms`): trained
    weights are almost never zero, so nearly every ``(k, n)`` holds the
    all-threads pattern, and S+A needs 8 blocks of width Kt plus a few
    narrow ones.
    :class:`_ErrorAccumulator` evaluates the blocks with a few row-tiled BLAS
    GEMMs whose float dtype is chosen by exactness bounds.  Statistics are
    reconstructed exactly from per-K-column histograms of one joint
    activation code per position and of per-thread weight codes (see
    :func:`_act_histograms` and :func:`_reduced_tables`).  ``amax`` /
    ``wmax`` are the largest operand magnitudes; the operands are narrowed
    to int16 for the memory-bound assembly.
    """
    threads = 4
    xs = list(x_t.astype(np.int16, copy=False))
    ws = list(w_t.astype(np.int16, copy=False))
    m, kt = xs[0].shape
    n = ws[0].shape[1]

    exact = _int_gemm(xs, ws, bound=4.0 * kt * amax * wmax)

    luts = _value_luts(policy.width_primary)
    # Reduction deltas of the many-way (4b-4b) path: dx = x4 - x, dw = w4 - w.
    # Both are bounded by _DELTA_MAX, which keeps every error block in
    # small float32-friendly range; the pairwise-collision delta of the
    # reduced operand is the *same* delta (identical width handling).
    dxs = [_act_lut_take(luts["dx"], x) for x in xs]
    dws = [_wgt_lut_take(luts["dw"], w) for w in ws]
    if policy.sparsity or collect_stats:
        # Weight-side activity pattern: bit t is w_t != 0.
        beta = np.zeros((kt, n), dtype=np.uint8)
        for t in range(threads):
            beta |= (ws[t] != 0).view(np.uint8) << t
        hist_beta = _wgt_histograms(beta, 16)

    accumulator = _ErrorAccumulator(m, n)
    if policy.sparsity:
        _add_pattern_terms(accumulator, xs, ws, dxs, dws, beta, hist_beta,
                           policy, amax, wmax)
    else:
        # Every position is a full (>= 3-way) collision:
        # out = X4 @ W4 = exact + sum_t dx (x) w4 + x (x) dw.
        for t in range(threads):
            accumulator.add(True, dxs[t], True, ws[t] + dws[t],
                            float(kt) * _DELTA_MAX * (wmax + _DELTA_MAX))
            accumulator.add(True, xs[t], True, dws[t],
                            float(kt) * amax * _DELTA_MAX)
    out = exact + accumulator.total()

    if not collect_stats:
        return out, None

    stats = SMTStatistics()
    hist_alpha, hist_a = _act_histograms(xs, luts["act_code"])
    wchgs = [_wgt_lut_take(luts["wchg"], w) for w in ws]
    hist_b = [
        _wgt_histograms(beta + 16 * wchgs[t] + 32 * wgt_fits_4bit(ws[t]), 64)
        for t in range(threads)
    ]

    activity = _activity_tables()
    reduced_tables = _reduced_tables(policy)
    stats.mac_total = threads * m * kt * n
    stats.mac_active = _contract(hist_alpha, activity["active"], hist_beta)
    stats.mac_collided = _contract(hist_alpha, activity["collided"], hist_beta)
    stats.mac_reduced = int(
        sum(
            _contract(hist_a[t], reduced_tables[t], hist_b[t])
            for t in range(threads)
        )
    )
    stats.slots_total = m * kt * n
    stats.slots_active = _contract(hist_alpha, activity["slots"], hist_beta)
    stats.act_values = int(sum(x.size for x in xs))
    stats.act_nonzero = int(hist_alpha.sum(axis=0) @ _popcount4(np.arange(16)))
    stats.sum_sq_error = float(((out - exact).astype(np.float64) ** 2).sum())
    stats.sum_sq_exact = float((exact.astype(np.float64) ** 2).sum())
    stats.outputs = int(exact.size)
    return out, stats


# ---------------------------------------------------------------------------
# Reference implementation (any thread count)
# ---------------------------------------------------------------------------

@dataclass
class ChunkResult:
    """Outcome of one lane-level NB-SMT chunk execution."""

    out: np.ndarray
    exact: np.ndarray | None
    active_slots: int
    mac_active: int
    mac_collided: int
    reduced_positions: int


def nbsmt_effective_chunk(
    x_chunk: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool = False,
) -> ChunkResult:
    """Lane-level NB-SMT execution of one row chunk (Algorithm 1 semantics).

    ``x_chunk`` has shape ``(T, rows, Kt)`` and ``w_t`` shape ``(T, Kt, N)``.
    Materializes the per-position activity tensor, applies the collision
    rules of Algorithm 1 (and its 4-thread extension) exactly, and returns
    the chunk output together with activity/collision counters (the exact
    output and reduction count are only computed when ``collect_stats``;
    ``active_slots`` counts positions with at least one active thread and is
    always computed, as the explicit array simulator reports it as active MAC
    cycles).

    This helper is shared by the chunked reference executor and the
    vectorized explicit SySMT array simulator.
    """
    threads, rows, kt = x_chunk.shape
    n = w_t.shape[2]
    x_chunk = _as_int64(x_chunk)
    w_t = _as_int64(w_t)

    wgt_nonzero = w_t != 0                                   # (T, Kt, N)
    active = np.empty((threads, rows, kt, n), dtype=bool)
    for t in range(threads):
        act_nonzero = x_chunk[t] != 0                        # (rows, Kt)
        active[t] = act_nonzero[:, :, None] & wgt_nonzero[t][None, :, :]
    demand = active.sum(axis=0, dtype=np.int8)               # (rows, Kt, N)

    chunk_out = np.zeros((rows, n), dtype=np.int64)
    chunk_exact = np.zeros((rows, n), dtype=np.int64) if collect_stats else None
    reduced_positions = 0

    for t in range(threads):
        x_col = x_chunk[t][:, :, None]                       # (rows, Kt, 1)
        w_row = w_t[t][None, :, :]                           # (1, Kt, N)
        exact_prod = x_col * w_row                           # (rows, Kt, N)

        if policy.sparsity:
            collide_pair = active[t] & (demand == 2)
            collide_many = active[t] & (demand >= 3)
        elif threads == 2:
            # Without sparsity detection every thread always demands the
            # MAC, so every position is treated as a full collision.
            collide_pair = np.ones_like(active[t])
            collide_many = np.zeros_like(active[t])
        else:
            collide_pair = np.zeros_like(active[t])
            collide_many = np.ones_like(active[t])

        effective = exact_prod
        if np.any(collide_pair):
            pair_prod = packing.colliding_product_2t(x_col, w_row, policy)
            effective = np.where(collide_pair, pair_prod, effective)
        if np.any(collide_many):
            many_prod = packing.colliding_product_4t(x_col, w_row, policy)
            effective = np.where(collide_many, many_prod, effective)

        chunk_out += effective.sum(axis=1)
        if collect_stats:
            chunk_exact += exact_prod.sum(axis=1)
            reduced_positions += int(
                ((effective != exact_prod) & (collide_pair | collide_many)).sum()
            )

    return ChunkResult(
        out=chunk_out,
        exact=chunk_exact,
        active_slots=int(active.any(axis=0).sum()),
        mac_active=int(active.sum()),
        mac_collided=int((active & (demand >= 2)).sum()),
        reduced_positions=reduced_positions,
    )


def _reference_multi_t(
    x_t: np.ndarray,
    w_t: np.ndarray,
    policy: PackingPolicy,
    collect_stats: bool,
    chunk_rows: int,
) -> tuple[np.ndarray, SMTStatistics | None]:
    """Chunked reference implementation for any thread count.

    Materializes the per-position activity tensor chunk by chunk and applies
    the collision rules of Algorithm 1 (and its 4-thread extension) exactly.
    """
    threads, m, kt = x_t.shape
    n = w_t.shape[2]
    x_t = _as_int64(x_t)
    w_t = _as_int64(w_t)

    out = np.zeros((m, n), dtype=np.int64)
    exact = np.zeros((m, n), dtype=np.int64) if collect_stats else None
    stats = SMTStatistics() if collect_stats else None

    for start in range(0, m, chunk_rows):
        stop = min(start + chunk_rows, m)
        x_chunk = x_t[:, start:stop, :]                      # (T, rows, Kt)
        rows = stop - start

        chunk = nbsmt_effective_chunk(x_chunk, w_t, policy, collect_stats)
        out[start:stop] = chunk.out
        if collect_stats:
            exact[start:stop] = chunk.exact
            stats.mac_total += threads * rows * kt * n
            stats.mac_active += chunk.mac_active
            stats.mac_collided += chunk.mac_collided
            stats.mac_reduced += chunk.reduced_positions
            stats.slots_total += rows * kt * n
            stats.slots_active += chunk.active_slots

    if collect_stats:
        stats.act_values = int(x_t.size)
        stats.act_nonzero = int(np.count_nonzero(x_t))
        stats.sum_sq_error = float(((out - exact).astype(np.float64) ** 2).sum())
        stats.sum_sq_exact = float((exact.astype(np.float64) ** 2).sum())
        stats.outputs = int(out.size)
    return out, stats
