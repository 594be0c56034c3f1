"""Channel convolutions, synthesized polar channels, and polarization experiments.

The check convolution is the polar "worse" channel; for symmetric inputs the
variable convolution is equivalent to the polar "better" channel. Both commute
with the channel dual, exchanging roles, which is what the checks here verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .config import TOL, Unsupported
from . import channels as _ch
from . import entropies as _en
from .linalg import _fidelity, _projector_onto_support, diagonal_table, hermitian_part

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
]

VARIABLE = "variable"
CHECK = "check"

GENERIC_LEVEL_CAP = 4
DIM_CAP = 4096


def convolve(w: _ch.CqChannel, wp: _ch.CqChannel, kind: str) -> _ch.CqChannel:
    """Variable convolution z -> W(z) (x) W'(z); check convolution mixes shifts."""
    if w.input_size != 2 or wp.input_size != 2:
        raise Unsupported("convolutions are defined for binary-input channels")
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
    return _ch.CqChannel(outs, witnesses=witnesses)


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


def convolution_duality_check(w: _ch.CqChannel, wp: _ch.CqChannel) -> ConvolutionDualityReport:
    """Profile gaps for dual(conv(W,W')) against conv(dual W, dual W'), both kinds.

    The check-to-variable direction holds for arbitrary binary-input channels
    (it only needs the automatic covariance of duals). The variable-to-check
    direction needs symmetric inputs: self-convolving a non-symmetric channel
    breaks it at the 1e-2 level, so pass witnessed channels for that leg.
    """
    wd, wpd = _ch.dual(w), _ch.dual(wp)
    gap_v = _ch.dual_profile_gap(convolve(w, wp, VARIABLE), convolve(wd, wpd, CHECK))
    gap_c = _ch.dual_profile_gap(convolve(w, wp, CHECK), convolve(wd, wpd, VARIABLE))
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


def _channel_stats(state: _en.CqState) -> tuple[float, float, float]:
    """(Hmin, Hmax, B) of a binary-input channel's uniform-input state: the
    statistics every polarization fraction reads."""
    hmin = _en.cond_entropy(state, _en.MIN_ENTROPY)
    hmax = _en.cond_entropy(state, _en.MAX_ENTROPY)
    return hmin, hmax, _fidelity(*state.conditionals)


def _truncate_to_joint_support(w: _ch.CqChannel) -> tuple[_ch.CqChannel, float]:
    """Project outputs onto the support of the average output and renormalize;
    the loss reported is the largest mass any one output loses."""
    table = diagonal_table(w.outputs)
    if table is not None:
        # diagonality-preserving path: drop zero-probability symbols, then
        # merge symbols with proportional likelihood columns (a sufficient
        # statistic, so every entropy quantity is unchanged)
        py = table.mean(axis=0)
        keep = np.where(py > TOL.rank_cut)[0]
        lost = float(max(0.0, 1.0 - table[:, keep].sum(axis=1).min()))
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
        return _ch.CqChannel(tuple(np.diag(row).astype(complex) for row in table)), lost
    avg = hermitian_part(sum(w.outputs) / w.input_size)
    iso = _projector_onto_support(avg)
    if iso.shape[1] == w.dim:
        return w, 0.0
    outs = [hermitian_part(iso.conj().T @ o @ iso) for o in w.outputs]
    kept = np.array([np.trace(c).real for c in outs])
    lost = float(max(0.0, 1.0 - kept.min()))
    return _ch.CqChannel(tuple(c / tr for c, tr in zip(outs, kept))), lost


def _erasure_stats(eps):
    """(H, Hmin, Hmax, B) of the erasure channel with erasure probability eps,
    elementwise: (eps, -log2(1 - eps/2), log2(1 + eps), eps)."""
    return eps, -np.log1p(-eps / 2.0) / np.log(2.0), np.log1p(eps) / np.log(2.0), eps


def _erasure_step(eps, bits):
    """Erasure probability after one level, elementwise over eps and bits: a
    variable convolution (0) squares it, a check convolution (1) takes it to
    eps (2 - eps)."""
    return np.where(bits == 0, eps * eps, eps * (2.0 - eps))


def _bit_tuple(bits) -> tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 (variable) or 1 (check)")
    return bits


def trajectory(w: _ch.CqChannel, bits) -> Trajectory:
    """Repeated self-convolution along a bit string (0 = variable, 1 = check).

    Erasure channels, recognised from their outputs, take an exact scalar
    path with no depth limit; every other channel takes _dense_trajectory.
    """
    bits = _bit_tuple(bits)
    eps = _ch._erasure_probability(w)
    if eps is None:
        return _dense_trajectory(w, bits)
    levels = []
    for i, b in enumerate(bits):
        eps = float(_erasure_step(eps, b))
        levels.append(LevelStats(i + 1, b, *map(float, _erasure_stats(eps)), 3, 0.0))
    return Trajectory(bits, tuple(levels))


def _self_convolutions(w: _ch.CqChannel, bits) -> list[tuple[_ch.CqChannel, float]]:
    """Each level's channel and the mass lost up to it, from self-convolving the
    output matrices; capped at GENERIC_LEVEL_CAP levels and DIM_CAP dimensions
    (Unsupported names the level reached). Outputs are compressed to their
    joint support after each level."""
    if len(bits) > GENERIC_LEVEL_CAP:
        raise Unsupported(
            f"trajectories of channels that are not erasure channels are capped at "
            f"{GENERIC_LEVEL_CAP} levels; got {len(bits)}"
        )
    cur = _ch.CqChannel(w.outputs)  # outputs alone, so no level builds witnesses
    levels = []
    lost = 0.0
    for i, b in enumerate(bits):
        if cur.dim * cur.dim > DIM_CAP:
            raise Unsupported(
                f"trajectory hit the dimension cap after level {i} of {len(bits)} "
                f"(dim {cur.dim}); use fewer levels"
            )
        cur, loss = _truncate_to_joint_support(convolve(cur, cur, VARIABLE if b == 0 else CHECK))
        lost += loss
        levels.append((cur, lost))
    return levels


def _dense_trajectory(w: _ch.CqChannel, bits: tuple[int, ...]) -> Trajectory:
    """H and the _channel_stats of every level of _self_convolutions."""
    levels = []
    for i, (b, (c, lost)) in enumerate(zip(bits, _self_convolutions(w, bits))):
        state = _en.from_channel(c)
        h = _en.cond_entropy(state, _en.VON_NEUMANN)
        levels.append(LevelStats(i + 1, b, h, *_channel_stats(state), c.dim, lost))
    return Trajectory(bits, tuple(levels))


def _final_channel(w: _ch.CqChannel, bits: tuple[int, ...]) -> _ch.CqChannel:
    """W_{bits}: BEC(eps_n) for erasure channels, else the last self-convolution."""
    eps = _ch._erasure_probability(w)
    if eps is None:
        levels = _self_convolutions(w, bits)
        return levels[-1][0] if levels else w
    for b in bits:
        eps = float(_erasure_step(eps, b))
    return _ch.make_bec(min(1.0, eps))


def trajectory_duality_gap(w: _ch.CqChannel, bits) -> float:
    """Profile gap between dual(W_{bits}) and dual(W)_{complement(bits)}.

    The identity is stated for symmetric channels; non-symmetric inputs can
    produce genuine gaps through the variable-convolution leg.
    """
    bits = _bit_tuple(bits)
    return _ch.dual_profile_gap(
        _final_channel(w, bits), _final_channel(_ch.dual(w), tuple(1 - b for b in bits))
    )


# ---------------------------------------------------------------------------
# polarization experiments
# ---------------------------------------------------------------------------


def polynomial_threshold(n: int, beta: float) -> float:
    """f(n) = 2^(-n^beta), the threshold whose finite-n fractions sit near I(W)."""
    return float(2.0 ** -(float(n) ** beta))


@dataclass(frozen=True)
class PolarizationReport:
    """Fractions of `trials` random depth-n bit sequences whose W_n has polarized.

    threshold is f = 2^(-n^beta), and complemented says every bit was flipped.
    capacity is log2(d) - H(X|B) of W, NaN (null in JSON) unless W has a
    symmetry witness or erasure outputs. frac_hmin_small, frac_hmax_large,
    frac_b_small and frac_b_large count Hmin <= f, Hmax >= 1 - f, B <= f and
    B >= 1 - f, B the fidelity of the two outputs of W_n. bridge_hmin_lower
    counts B <= f, so equals frac_b_small, and bounds frac_hmin_small below:
    P_guess >= 1 - B/2 makes B <= f imply Hmin <= f. bridge_hmin_upper counts
    B <= 2 sqrt(f), which bounds it above. final_b and final_b_complement, B
    and 1 - B per trial, stay out of to_dict.
    """

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
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        if np.isnan(self.capacity):
            doc["capacity"] = None  # JSON has no NaN
        return doc


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
    Every fraction is read off Hmin, Hmax and B of each trial's W_n: closed
    forms for erasure channels, recognised from their outputs, and otherwise
    the last of _self_convolutions, which refuses n > GENERIC_LEVEL_CAP or a
    stop at the dimension cap (Unsupported); n < 1 or trials < 1 is refused
    too. The threshold is 2^(-n^beta). The capacity log2(d) - H(W) is reported for channels with
    symmetry witnesses and for erasure channels, NaN otherwise.
    """
    if n < 1 or trials < 1:
        raise Unsupported(f"polarization needs n >= 1 and trials >= 1; got n={n}, trials={trials}")
    f = polynomial_threshold(n, beta)
    bits = _sequence_bits(trials, n, seed)
    if complement:
        bits = 1 - bits
    erasure = _ch._erasure_probability(w)
    cap = float("nan")
    if w.is_symmetric or erasure is not None:
        # an erasure channel is symmetric by its outputs, so the uniform input is optimal
        h = _en.cond_entropy(_en.from_channel(w), _en.VON_NEUMANN)
        cap = float(np.log2(w.input_size)) - h
    if erasure is not None:
        # the dual of BEC(eps) is BEC(1 - eps) with the convolutions swapped; its
        # recursion prints 1 - B without cancellation and feeds no fraction
        eps = np.full(trials, erasure)
        b_complement = 1.0 - eps
        for b in bits.T:
            eps, b_complement = _erasure_step(eps, b), _erasure_step(b_complement, 1 - b)
        _, hmins, hmaxs, bs = _erasure_stats(eps)
    else:
        # statistics of W_n for each distinct bit string (at most 2^n of them)
        distinct, inverse = np.unique(bits, axis=0, return_inverse=True)
        last = [
            _channel_stats(_en.from_channel(_self_convolutions(w, row)[-1][0]))
            for row in distinct
        ]
        hmins, hmaxs, bs = np.array(last)[inverse].T
        b_complement = 1.0 - bs
    return PolarizationReport(
        n, trials, seed, f, complement, cap,
        float(np.mean(hmins <= f)),
        float(np.mean(hmaxs >= 1.0 - f)),
        float(np.mean(bs <= f)),
        float(np.mean(bs >= 1.0 - f)),
        float(np.mean(bs <= f)),
        float(np.mean(bs <= 2.0 * np.sqrt(f))),
        final_b=bs,
        final_b_complement=b_complement,
    )
