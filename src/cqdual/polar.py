"""Channel convolutions, synthesized polar channels, and polarization experiments.

The check convolution is the polar "worse" channel; for symmetric inputs the
variable convolution is equivalent to the polar "better" channel. Both commute
with the channel dual, exchanging roles, which is what the checks here verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from . import channels as _ch
from . import entropies as _en
from .linalg import diagonal_table, fidelity, hermitian_part, projector_onto_support

__all__ = [
    "VARIABLE",
    "CHECK",
    "convolve",
    "better",
    "worse",
    "ConvolutionDualityReport",
    "convolution_duality_check",
    "LevelStats",
    "Trajectory",
    "trajectory",
    "trajectory_duality_gap",
    "PolarizationReport",
    "polarization_experiment",
    "polynomial_threshold",
    "trajectory_to_csv_rows",
    "experiment_to_csv_rows",
]

VARIABLE = "variable"
CHECK = "check"

GENERIC_LEVEL_CAP = 4
DIM_CAP = 4096


def convolve(w: _ch.CqChannel, wp: _ch.CqChannel, kind: str) -> _ch.CqChannel:
    """Variable convolution z -> W(z) (x) W'(z); check convolution mixes shifts."""
    if w.input_size != 2 or wp.input_size != 2:
        raise ValueError("convolutions are defined for binary-input channels")
    if kind == VARIABLE:
        outs = tuple(np.kron(w.outputs[z], wp.outputs[z]) for z in range(2))
        witnesses = None
        if w.is_symmetric and wp.is_symmetric:
            witnesses = tuple(
                np.kron(w.witnesses[s], wp.witnesses[s]) for s in range(2)
            )
    elif kind == CHECK:
        outs = tuple(
            hermitian_part(
                0.5 * np.kron(w.outputs[z], wp.outputs[0])
                + 0.5 * np.kron(w.outputs[(z + 1) % 2], wp.outputs[1])
            )
            for z in range(2)
        )
        witnesses = None
        if w.is_symmetric:
            eye = np.eye(wp.dim, dtype=complex)
            witnesses = tuple(np.kron(w.witnesses[s], eye) for s in range(2))
    else:
        raise ValueError(f"unknown convolution kind {kind!r}")
    return _ch.CqChannel(outs, witnesses=witnesses, kind="convolution", params={})


def worse(w: _ch.CqChannel, wp: _ch.CqChannel) -> _ch.CqChannel:
    """Polar worse channel; exactly the check convolution."""
    return convolve(w, wp, CHECK)


def better(w: _ch.CqChannel, wp: _ch.CqChannel) -> _ch.CqChannel:
    """Polar better channel, realized as the variable convolution.

    The identification holds only up to equivalence and needs symmetry of the
    first factor, so channels without witnesses are refused.
    """
    if not w.is_symmetric:
        raise ValueError("better() requires symmetry witnesses on the first factor")
    return convolve(w, wp, VARIABLE)


@dataclass(frozen=True)
class ConvolutionDualityReport:
    variable_to_check_gap: float
    check_to_variable_gap: float

    @property
    def max_gap(self) -> float:
        return max(self.variable_to_check_gap, self.check_to_variable_gap)


def convolution_duality_check(
    w: _ch.CqChannel, wp: _ch.CqChannel, seed: int = 0
) -> ConvolutionDualityReport:
    """Profile gaps for dual(conv(W,W')) against conv(dual W, dual W'), both kinds.

    The check-to-variable direction holds for arbitrary binary-input channels
    (it only needs the automatic covariance of duals). The variable-to-check
    direction needs symmetric inputs: self-convolving a non-symmetric channel
    breaks it at the 1e-2 level, so pass witnessed channels for that leg.
    """
    wd, wpd = _ch.dual(w), _ch.dual(wp)
    gap_v = _ch.profile_gap(
        _ch.invariant_profile(_ch.dual(convolve(w, wp, VARIABLE)), seed=seed),
        _ch.invariant_profile(convolve(wd, wpd, CHECK), seed=seed),
    )
    gap_c = _ch.profile_gap(
        _ch.invariant_profile(_ch.dual(convolve(w, wp, CHECK)), seed=seed),
        _ch.invariant_profile(convolve(wd, wpd, VARIABLE), seed=seed),
    )
    return ConvolutionDualityReport(gap_v, gap_c)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelStats:
    level: int
    bit: int
    h: float
    hmin: float
    hmax: float
    bhattacharyya: float
    dim: int
    truncation_error: float


@dataclass(frozen=True)
class Trajectory:
    bits: tuple[int, ...]
    levels: tuple[LevelStats, ...]
    complete: bool
    final_channel: _ch.CqChannel | None = field(default=None, repr=False)


def _channel_stats(w: _ch.CqChannel, level: int, bit: int, trunc: float, seed: int) -> LevelStats:
    state = _en.from_channel(w)
    h = _en.cond_entropy(state, _en.VON_NEUMANN)
    hmin = _en.cond_entropy(state, _en.MIN_ENTROPY)
    hmax = _en.cond_entropy(state, _en.MAX_ENTROPY, seed=seed)
    b = fidelity(w.outputs[0], w.outputs[1])
    return LevelStats(level, bit, h, hmin, hmax, b, w.dim, trunc)


def _truncate_to_joint_support(w: _ch.CqChannel) -> tuple[_ch.CqChannel, float]:
    """Project outputs onto the support of the average output and renormalize."""
    table = diagonal_table(w.outputs)
    if table is not None:
        # diagonality-preserving path: drop zero-probability symbols, then
        # merge symbols with proportional likelihood columns (a sufficient
        # statistic, so every entropy quantity is unchanged)
        py = table.mean(axis=0)
        keep = np.where(py > TOL.rank_cut)[0]
        lost = float(max(0.0, 1.0 - table[:, keep].sum(axis=1).max()))
        table = table[:, keep]
        groups: dict[tuple, int] = {}
        merged = []
        for col in table.T:
            key = tuple(np.round(col / col.sum(), 12))
            if key in groups:
                merged[groups[key]] += col
            else:
                groups[key] = len(merged)
                merged.append(col.copy())
        table = np.stack(merged, axis=1)
        table /= table.sum(axis=1, keepdims=True)
        outs = tuple(np.diag(row).astype(complex) for row in table)
        return _ch.CqChannel(outs, kind=w.kind, params=dict(w.params)), lost
    avg = hermitian_part(sum(w.outputs) / w.input_size)
    iso = projector_onto_support(avg)
    if iso.shape[1] == w.dim:
        return w, 0.0
    lost = 0.0
    outs = []
    for o in w.outputs:
        c = hermitian_part(iso.conj().T @ o @ iso)
        tr = np.trace(c).real
        lost = max(lost, 1.0 - tr)
        outs.append(c / tr)
    wit = None
    if w.is_symmetric:
        wit_c = tuple(iso.conj().T @ u @ iso for u in w.witnesses)
        try:
            return _ch.CqChannel(tuple(outs), witnesses=wit_c, kind=w.kind, params=dict(w.params)), lost
        except ValueError:
            wit = None
    return _ch.CqChannel(tuple(outs), witnesses=wit, kind=w.kind, params=dict(w.params)), lost


def _bec_stats(eps: float, level: int, bit: int) -> LevelStats:
    # closed forms for the erasure channel: H = eps, B = eps,
    # Hmin = -log2(1 - eps/2), Hmax = log2(1 + eps)
    hmin = -np.log1p(-eps / 2.0) / np.log(2.0)
    hmax = np.log1p(eps) / np.log(2.0)
    return LevelStats(level, bit, float(eps), float(hmin), float(hmax), float(eps), 3, 0.0)


def _erasure_probability(w: _ch.CqChannel) -> float | None:
    """Mass of the output symbols both inputs see, if w has binary input and
    diagonal outputs whose every symbol is seen by one input only or equally
    likely under both (within TOL.diagonal); else None."""
    if w.input_size != 2:
        return None
    table = diagonal_table(w.outputs)
    if table is None:
        return None
    t0, t1 = table
    seen_by_one = np.minimum(t0, t1) <= TOL.diagonal
    if not np.all(seen_by_one | (np.abs(t0 - t1) <= TOL.diagonal)):
        return None
    return float(t0[~seen_by_one].sum())


def trajectory(w: _ch.CqChannel, bits, seed: int = 0) -> Trajectory:
    """Repeated self-convolution along a bit string (0 = variable, 1 = check).

    Erasure channels, recognised from their outputs, take an exact scalar
    path with no depth limit; every other channel takes _dense_trajectory.
    """
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 (variable) or 1 (check)")
    eps = _erasure_probability(w)
    if eps is None:
        return _dense_trajectory(w, bits, seed)
    levels = []
    for i, b in enumerate(bits):
        eps = eps * eps if b == 0 else eps * (2.0 - eps)
        levels.append(_bec_stats(eps, i + 1, b))
    return Trajectory(bits, tuple(levels), True, _ch.make_bec(min(1.0, eps)))


def _dense_trajectory(w: _ch.CqChannel, bits: tuple[int, ...], seed: int) -> Trajectory:
    """Self-convolution of the output matrices, capped at GENERIC_LEVEL_CAP
    levels and DIM_CAP dimensions; outputs are compressed to their joint
    support after each level, and the discarded mass is reported."""
    if len(bits) > GENERIC_LEVEL_CAP:
        raise ValueError(
            f"generic trajectories are capped at {GENERIC_LEVEL_CAP} levels; got {len(bits)}"
        )
    cur = w
    levels = []
    acc_trunc = 0.0
    for i, b in enumerate(bits):
        if cur.dim * cur.dim > DIM_CAP:
            return Trajectory(bits, tuple(levels), False, cur)
        nxt = convolve(cur, cur, VARIABLE if b == 0 else CHECK)
        nxt, lost = _truncate_to_joint_support(nxt)
        acc_trunc += lost
        levels.append(_channel_stats(nxt, i + 1, b, acc_trunc, seed))
        cur = nxt
    return Trajectory(bits, tuple(levels), True, cur)


def trajectory_duality_gap(w: _ch.CqChannel, bits, seed: int = 0) -> float:
    """Profile gap between dual(W_{bits}) and dual(W)_{complement(bits)}.

    The identity is stated for symmetric channels; non-symmetric inputs can
    produce genuine gaps through the variable-convolution leg.
    """
    t1 = trajectory(w, bits, seed=seed)
    comp = [1 - int(b) for b in bits]
    t2 = trajectory(_ch.dual(w), comp, seed=seed)
    if not (t1.complete and t2.complete):
        raise ValueError("trajectory hit the dimension cap; use fewer levels")
    return _ch.profile_gap(
        _ch.invariant_profile(_ch.dual(t1.final_channel), seed=seed),
        _ch.invariant_profile(t2.final_channel, seed=seed),
    )


# ---------------------------------------------------------------------------
# polarization experiments
# ---------------------------------------------------------------------------


def polynomial_threshold(n: int, beta: float) -> float:
    """f(n) = 2^(-n^beta), the threshold whose finite-n fractions sit near I(W)."""
    return float(2.0 ** -(float(n) ** beta))


@dataclass(frozen=True)
class PolarizationReport:
    n: int
    trials: int
    seed: int
    threshold: float
    complemented: bool
    capacity: float
    frac_hmin_small: float
    frac_hmax_large: float
    frac_b_small: float
    frac_b_large: float
    bridge_hmin_lower: float
    bridge_hmin_upper: float
    final_b: np.ndarray = field(repr=False, default=None)
    final_b_complement: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "threshold": self.threshold,
            "complemented": self.complemented,
            "capacity": self.capacity,
            "frac_hmin_small": self.frac_hmin_small,
            "frac_hmax_large": self.frac_hmax_large,
            "frac_b_small": self.frac_b_small,
            "frac_b_large": self.frac_b_large,
            "bridge_hmin_lower": self.bridge_hmin_lower,
            "bridge_hmin_upper": self.bridge_hmin_upper,
        }


def _sequence_bits(trials: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, 2, size=(trials, n), dtype=np.uint8)


def polarization_experiment(
    w: _ch.CqChannel,
    n: int,
    trials: int,
    beta: float = 0.4,
    seed: int = 0,
    complement: bool = False,
) -> PolarizationReport:
    """Monte-Carlo polarization fractions under uniformly random convolution bits.

    Uses a counter-based generator keyed by the seed, so the complemented run
    (complement=True) sees exactly the complements of the same bit sequences.
    Erasure channels, recognised from their outputs, run the exact scalar
    recursion; on other channels trajectory() refuses n > GENERIC_LEVEL_CAP.
    The threshold is 2^(-n^beta).
    """
    f = polynomial_threshold(n, beta)
    bits = _sequence_bits(trials, n, seed)
    if complement:
        bits = 1 - bits
    cap = _en.capacity(w) if w.is_symmetric else float("nan")
    erasure = _erasure_probability(w)
    if erasure is not None:
        eps = np.full(trials, erasure)
        delta = 1.0 - eps
        for j in range(n):
            b = bits[:, j]
            var = b == 0
            new_eps = np.where(var, eps * eps, eps * (2.0 - eps))
            new_delta = np.where(var, delta * (2.0 - delta), delta * delta)
            eps, delta = new_eps, new_delta
        thr_h = float(-2.0 * np.expm1(-f * np.log(2.0)))  # Hmin<=f iff eps<=thr_h
        frac_hmin = float(np.mean(eps <= thr_h))
        frac_hmax = float(np.mean(delta <= thr_h))
        frac_b_small = float(np.mean(eps <= f))
        frac_b_large = float(np.mean(delta <= f))
        bridge_lo = frac_b_small
        bridge_hi = float(np.mean(eps <= 2.0 * np.sqrt(f)))
        return PolarizationReport(
            n, trials, seed, f, complement, cap,
            frac_hmin, frac_hmax, frac_b_small, frac_b_large,
            bridge_lo, bridge_hi, final_b=eps, final_b_complement=delta,
        )
    hmins = np.empty(trials)
    hmaxs = np.empty(trials)
    bs = np.empty(trials)
    for t in range(trials):
        traj = trajectory(w, bits[t], seed=seed)
        last = traj.levels[-1]
        hmins[t], hmaxs[t], bs[t] = last.hmin, last.hmax, last.bhattacharyya
    return PolarizationReport(
        n, trials, seed, f, complement, cap,
        float(np.mean(hmins <= f)),
        float(np.mean(hmaxs >= 1.0 - f)),
        float(np.mean(bs <= f)),
        float(np.mean(bs >= 1.0 - f)),
        float(np.mean(bs <= f)),
        float(np.mean(bs <= 2.0 * np.sqrt(f))),
        final_b=bs,
        final_b_complement=1.0 - bs,
    )


def trajectory_to_csv_rows(traj: Trajectory) -> list[dict]:
    return [
        {
            "level": s.level,
            "bit": s.bit,
            "h": s.h,
            "hmin": s.hmin,
            "hmax": s.hmax,
            "bhattacharyya": s.bhattacharyya,
            "dim": s.dim,
            "truncation_error": s.truncation_error,
        }
        for s in traj.levels
    ]


def experiment_to_csv_rows(report: PolarizationReport) -> list[dict]:
    rows = []
    for t in range(report.trials):
        rows.append(
            {
                "trial": t,
                "b_final": float(report.final_b[t]),
                "one_minus_b_final": float(report.final_b_complement[t]),
            }
        )
    return rows
