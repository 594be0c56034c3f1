"""Conditional entropies of classical-quantum states and channel duality checks.

All entropies are reported in bits. The family covers the von Neumann
entropy, min- and max-entropy (via guessing probability and decoupling
quality), and the downarrow Renyi family built on the Petz divergence:
each member one EntropyFamily, read off a source through that source's
_Reader (_STATE, _TABLE, codedchannels._ENSEMBLE). Every function here reads
a CqState (defined in channels, re-exported here) and the table, spectra and
decompositions it keeps, guessing and decoupling results included. A
channel's entropies are those of its uniform-input state, from_channel(w).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .config import TOL, Unsupported
from . import channels as _ch
from .channels import CqState
from .linalg import (
    _compress_to_support,
    _eigh,
    _eigvalsh,
    _factor,
    _factorize,
    _spectral_fn,
    _vn_of_spectrum,
    hermitian_part,
)

__all__ = [
    "EntropyFamily",
    "VON_NEUMANN",
    "MIN_ENTROPY",
    "MAX_ENTROPY",
    "petz_down",
    "CqState",
    "DualityReport",
    "GuessResult",
    "QResult",
    "from_channel",
    "cond_entropy",
    "table_entropy",
    "petz_curve",
    "guessing_prob",
    "decoupling_q",
    "max_fidelity_sum",
    "dispersion",
    "dispersion_derivative_gap",
    "duality_check",
    "capacity",
    "capacity_duality_check",
    "np_beta",
    "state_disjointness_gap",
]

LOG2 = np.log(2.0)


# What the families are written in, read off one kind of source: its label
# count, von Neumann sum, Petz value at one order, GuessResult and decoupling
# value. An entry that reaches a function perfbench traces looks it up by name
# when called, so the tracer's replacement is the one called.
_Reader = namedtuple("_Reader", "count vn petz guess q")


@dataclass(frozen=True)
class EntropyFamily:
    """One member of the conditional entropy family: its label, its value read
    off a source through that source's _Reader, the family paired with it in
    the entropy-sum identity, and its Petz order (None outside that family).
    Families compare by label and order."""

    label: str
    of: Callable[[_Reader, Any], float] = field(compare=False, repr=False)
    dual: Callable[[], EntropyFamily] = field(compare=False, repr=False)
    alpha: float | None = None


VON_NEUMANN = EntropyFamily("von_neumann", lambda r, x: r.vn(x), lambda: VON_NEUMANN)
MIN_ENTROPY = EntropyFamily("min", lambda r, x: _min_entropy(r.guess(x)), lambda: MAX_ENTROPY)
MAX_ENTROPY = EntropyFamily("max", lambda r, x: float(np.log2(r.count(x)) + np.log2(r.q(x))),
                            lambda: MIN_ENTROPY)


def petz_down(alpha: float) -> EntropyFamily:
    """The downarrow Petz family at order alpha in (0, 1) or (1, 2], paired
    with order 2 - alpha: the one check of the Petz range."""
    a = float(alpha)
    if not (0.0 < a < 1.0 or 1.0 < a <= 2.0):
        raise ValueError(f"petz_down needs alpha in (0,1) or (1,2], got {a}")
    return EntropyFamily(f"petz_down({a:g})", lambda r, x: r.petz(x, a),
                         lambda: petz_down(2.0 - a), a)


class GuessResult(NamedTuple):
    value: float
    exact: bool
    method: str


@dataclass(frozen=True)
class QResult:
    """Result of a decoupling ascent (see max_fidelity_sum).

    converged is true exactly when the certified bracket [value, upper]
    closed within TOL.ascent_value; for a decoupling quality that is the
    bracket of the ascent before squaring. restarts counts the starts of the
    fixed-point map, the rescue burst's re-mix counted as one; closed forms
    report 0.
    """

    value: float
    converged: bool
    iterations: int
    restarts: int
    upper: float | None = None  # certified upper bound on value, if one was found


@dataclass(frozen=True)
class DualityReport:
    """Both legs of an entropy-sum identity, their sum, target and gap: the one
    two-leg report, for channel duality and for the EXIT sums of
    codedchannels.exit_duality_check alike."""

    family: EntropyFamily
    dual_side_family: EntropyFamily
    lhs: float
    rhs: float
    total: float
    target: float
    gap: float
    disjointness_gap: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "family": self.family.label,
            "dual_family": self.dual_side_family.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "sum": self.total,
            "target": self.target,
            "gap": self.gap,
        }
        if self.disjointness_gap is not None:
            doc["disjointness_gap"] = self.disjointness_gap
        return doc


def from_channel(w: _ch.CqChannel) -> CqState:
    """The channel's uniform-input cq state (1/d) sum_z |z><z| (x) W(z), which
    CqChannel built with the channel and which the paper's H(W) = H(Z|B) is
    defined on: returned as it is, so its conditionals are the channel's
    outputs and its kept table, spectra and decompositions are the channel's.
    A state under another prior is CqState(prior, w.outputs).
    """
    return w._state


# ---------------------------------------------------------------------------
# classical tables: closed forms for commuting states
# ---------------------------------------------------------------------------


def _xlog2x(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log2(v[pos])
    return out


def _table_guess(joint: np.ndarray) -> float:
    """Maximum-likelihood probability of guessing the row label of P(x, y)."""
    return float(joint.max(axis=0).sum())


def _table_decoupling(joint: np.ndarray) -> float:
    """Decoupling quality of the row label of P(x, y).

    The optimal sigma is diagonal here (pinching monotonicity of the
    fidelity), which leaves Q = sum_y (sum_x sqrt(P(x, y) / m))^2. Entries
    rounded below zero by at most TOL.diagonal count as zero; any lower (or
    NaN) entry is refused, since its square root would be NaN.
    """
    low = float(joint.min())
    if not low >= -TOL.diagonal:
        raise ValueError(f"joint table has a negative entry {low:.3e}")
    amp = np.sqrt(np.clip(joint, 0.0, None) / joint.shape[0]).sum(axis=0)
    return min(1.0, float((amp**2).sum()))


def _table_petz(joint: np.ndarray, alphas: Sequence[float]) -> list[float]:
    """Petz downarrow conditional entropies of the row label of P(x, y), in bits."""
    py = joint.sum(axis=0)
    cols = py > TOL.rank_cut
    out = []
    for alpha in alphas:
        total = float((joint[:, cols] ** alpha * py[cols] ** (1.0 - alpha)).sum())
        out.append(float(np.log2(total) / (1.0 - alpha)))
    return out


_TABLE = _Reader(lambda j: j.shape[0],
                 lambda j: float(-_xlog2x(j).sum() + _xlog2x(j.sum(axis=0)).sum()),
                 lambda j, a: _table_petz(j, [a])[0],
                 lambda j: GuessResult(_table_guess(j), True, "classical_ml"),
                 _table_decoupling)


def table_entropy(joint: np.ndarray, family: EntropyFamily) -> float:
    """Conditional entropy of the row label given the column of a joint table
    P(x, y), in bits: the exact value of every family on commuting states."""
    return family.of(_TABLE, joint)


def _classical_joint(state: CqState) -> np.ndarray | None:
    """Joint table P(x, y) when every conditional is diagonal, else None."""
    return None if state._table is None else state.prior[:, None] * state._table


# ---------------------------------------------------------------------------
# entropy family
# ---------------------------------------------------------------------------


def _vn_from_spectra(prior, spectra, average_spectrum: np.ndarray) -> float:
    """H(X) + sum_x p_x S(rho_x) - S(rho_bar) in bits, from the eigenvalues of
    each conditional and of the average state; zero-prior atoms are skipped.
    The one von Neumann sum: CqStates and Gram ensembles both call it."""
    sup = [(float(p), w) for p, w in zip(prior, spectra) if p > 0.0]
    h_prior = float(-sum(p * np.log2(p) for p, _ in sup))
    h_cond = sum(p * _vn_of_spectrum(w) for p, w in sup)
    return h_prior + h_cond - _vn_of_spectrum(average_spectrum)


def _vn_cond(state: CqState) -> float:
    joint = _classical_joint(state)
    if joint is not None:
        return _TABLE.vn(joint)
    return _vn_from_spectra(state.prior, state._spectra, state._average_spectrum)


def petz_curve(state: CqState, alphas: Sequence[float]) -> list[float]:
    """Petz downarrow conditional entropies at several orders, in bits.

    Reads the state's kept decompositions, shared across orders. Supports are
    handled by the 0**p := 0 convention; the conditionals always live inside
    the support of the average state, so no support violation can occur.
    """
    joint = _classical_joint(state)
    if joint is not None:
        return _table_petz(joint, alphas)
    mu, wvec = state._average_eigh
    keep = mu > TOL.rank_cut
    mu = mu[keep]
    wvec = wvec[:, keep]
    pieces = []
    for i, p in state._supported_indices():
        lam, v = state._cond_eigh(i)
        pos = lam > TOL.rank_cut
        lam = lam[pos]
        v = v[:, pos]
        ov = np.abs(v.conj().T @ wvec) ** 2  # |<v_i|w_j>|^2
        pieces.append((p, lam, ov))
    out = []
    for alpha in alphas:
        total = 0.0
        for p, lam, ov in pieces:
            total += p**alpha * float(lam**alpha @ ov @ mu ** (1.0 - alpha))
        out.append(float(np.log2(total) / (1.0 - alpha)))
    return out


def guessing_prob(state: CqState) -> GuessResult:
    """Optimal (or square-root-measurement) probability of guessing the symbol.

    Commuting conditionals take the exact classical maximum-likelihood value.
    Otherwise two supported symbols use the exact binary Helstrom value and
    more than two fall back to the square-root measurement, flagged
    exact=False: _srm on the Gram matrix of the stacked factors of p_x rho_x.
    The state keeps the result: a later call returns the same GuessResult.
    """
    if state._guess is None:
        object.__setattr__(state, "_guess", _guessing(state))
    return state._guess


def _guessing(state: CqState) -> GuessResult:
    joint = _classical_joint(state)
    if joint is not None:
        return _TABLE.guess(joint)
    sup = state.supported()
    if len(sup) == 1:
        return GuessResult(1.0, True, "trivial")
    if len(sup) == 2:
        (p0, r0), (p1, r1) = sup
        w = _eigvalsh(hermitian_part(p0 * r0 - p1 * r1))
        return GuessResult(float(0.5 * (1.0 + np.abs(w).sum())), True, "helstrom")
    ys = [_factorize(p * c) for p, c in sup]
    v = np.concatenate(ys, axis=1)
    labels = np.repeat(np.arange(len(ys)), [y.shape[1] for y in ys])
    return _srm(hermitian_part(v.conj().T @ v), labels)


def _srm(gram: np.ndarray, labels: np.ndarray) -> GuessResult:
    """Square-root-measurement probability of guessing the label of weighted
    vectors v_i from their Gram matrix G = V†V, held Hermitian by the caller.

    The measurement vectors rho_bar^(-1/2) v_i have overlaps (G^(1/2))_ij
    with the v_j, so the probability sums |G^(1/2)_ij|^2 over pairs sharing a
    label. G's eigenvalues at or below TOL.rank_cut count as zero, as those of
    rho_bar = V V† (the same nonzero spectrum) would: more stacked factors
    than dimensions leave rounding noise there, which a square root lifts to
    1e-8. The one SRM: CqStates and Gram ensembles both call it.
    """
    root = _spectral_fn(_eigh(gram), np.sqrt)
    val = 0.0
    for label in np.unique(labels):
        idx = np.where(labels == label)[0]
        val += float(np.sum(np.abs(root[np.ix_(idx, idx)]) ** 2))
    return GuessResult(val, False, "srm")


def _uhlmann_start(cs: np.ndarray, ys: list[np.ndarray]) -> np.ndarray | None:
    """Uhlmann's maximiser of c0 F(Y0 Y0†, sigma) + c1 F(Y1 Y1†, sigma).

    With both factors padded to a common width, Y0† Y1 = A S B† and U = B A†,
    phi = c0 Y0 + c1 Y1 U gives sigma* = phi phi† / |phi|_F^2. The optimum is
    |phi|_F = sqrt(c0^2 |Y0|^2 + c1^2 |Y1|^2 + 2 c0 c1 |Y0† Y1|_1). None if
    phi vanishes.
    """
    y0, y1 = np.zeros((2, ys[0].shape[0], max(y.shape[1] for y in ys)), dtype=complex)
    y0[:, : ys[0].shape[1]] = ys[0]
    y1[:, : ys[1].shape[1]] = ys[1]
    a, _, bh = np.linalg.svd(y0.conj().T @ y1)
    phi = cs[0] * y0 + cs[1] * (y1 @ (bh.conj().T @ a.conj().T))
    t = float(np.vdot(phi, phi).real)
    return hermitian_part(phi @ phi.conj().T) / t if t > TOL.underflow else None


def _ascent_terms(
    w: np.ndarray, v: np.ndarray, cs: np.ndarray, ys: list[np.ndarray]
) -> tuple[float, np.ndarray, bool]:
    """Objective g, summed gradient R and whether Alberti's bound holds.

    sigma = v diag(w) v† is given by its eigendecomposition.
    """
    root = np.where(w > TOL.nonzero, np.sqrt(w), 0.0)
    g = 0.0
    r_op = np.zeros((v.shape[0], v.shape[0]), dtype=complex)
    bounded = w[0] > TOL.nonzero
    for c, y in zip(cs, ys):
        vy = v.conj().T @ y
        b = root[:, None] * vy  # sqrt(sigma) y in the sigma eigenbasis
        wm, vm = _eigh(hermitian_part(b.conj().T @ b))
        wm = np.clip(wm, 0.0, None)
        sm = np.sqrt(wm)
        g += c * float(sm.sum())
        bounded = bounded and sm.min(initial=np.inf) > TOL.invertible
        # grad F = (proj y) vm diag(1/sm) vm† (proj y)†
        inv_sm = np.where(sm > TOL.invertible, 1.0 / np.maximum(sm, TOL.underflow), 0.0)
        proj_y = v @ (np.where(w > TOL.nonzero, 1.0, 0.0)[:, None] * vy)
        half = proj_y @ (vm * np.sqrt(inv_sm))
        r_op += c * (half @ half.conj().T)
    return g, r_op, bounded


def _alberti_bound(g: float, r_op: np.ndarray) -> float:
    """(g + lambda_max(R)) / 2, or inf when the eigensolver fails."""
    try:
        return 0.5 * (g + float(_eigvalsh(r_op)[-1]))
    except np.linalg.LinAlgError:
        return np.inf  # no bound from this step


def max_fidelity_sum(factors: Sequence[np.ndarray], coeffs: Sequence[float]) -> QResult:
    """max over density operators sigma of sum_i c_i F(Y_i Y_i†, sigma).

    Operators enter through low-rank factors (columns of Y_i), so each
    gradient step costs one eigendecomposition in the full dimension plus one
    per operator in its rank. The objective is concave in sigma; each step
    applies the fixed-point map sigma -> R sigma R / tr with R the summed
    gradient, which converges to the global optimum from interior points.
    Operators may be subnormalized. A factor with more columns than rows is
    replaced on entry by a full-rank factor of Y Y†, which leaves F unchanged
    and keeps Y_i† sigma Y_i invertible.

    Each step also certifies an upper bound. By Alberti's theorem,
    F(rho, tau) = min over X > 0 of (Tr rho X + Tr tau X^-1) / 2; taking X_i
    at the current sigma (the Fuchs-Caves operator) gives Tr rho_i X_i =
    F(rho_i, sigma) and sum_i c_i X_i^-1 = R, so for every density tau
    sum_i c_i F(rho_i, tau) <= (g + lambda_max(R)) / 2 with g the current
    value. The bound is used only where sigma is full rank and every
    Y_i† sigma Y_i is invertible. The ascent returns as soon as the lowest
    bound lies within TOL.ascent_value of the best value reached, with
    max(bound, value) as `upper`, so a crossing by rounding never puts
    `upper` below `value`.

    With exactly two operators the map starts at Uhlmann's maximiser
    sigma* (see _uhlmann_start), and the value is the objective evaluated
    there, never the closed form. The rank of sigma* is at most the wider
    factor's column count, so sigma* is often rank deficient and has no
    bound of its own; and a full-rank sigma* with eigenvalues near zero can
    have one too loose to close the bracket. Whenever the bracket is still
    open at sigma*, the bound is also taken at the full-rank mix
    sigma_delta = (1 - delta) sigma* + delta I/d with delta =
    TOL.bound_mix, and the lower bound kept; since delta/d >= 2.4e-14 stays
    above the rank test's TOL.nonzero = 1e-14 up to d = polar.DIM_CAP =
    4096, that bound exists at every dimension. Such a bracket closes at iteration 0. Other
    numbers of operators start at 0.7 sigma_avg + 0.3 I/d.

    Where the bracket does not close, as on optima at which sigma is rank
    deficient, components driven numerically to zero can park the map on a
    face of the cone slightly below the optimum. So on the first stall (a
    step moving the value by less than TOL.ascent_value) one rescue burst
    re-mixes a vanishing amount of the identity for 80 steps and lets the
    map resettle; the second stall ends the ascent. The result then reports
    converged=False, the best value reached, and as `upper` the lowest
    bound met, or None if no step allowed one. `restarts` counts the starts
    of the map, the burst's re-mix included: 1, or 2 once the burst ran.
    """
    ys = [np.asarray(y, dtype=complex) for y in factors]
    ys = [_factorize(y @ y.conj().T) if y.shape[1] > y.shape[0] else y for y in ys]
    cs = np.asarray(coeffs, dtype=float)
    dim = ys[0].shape[0]
    uhlmann = _uhlmann_start(cs, ys) if len(ys) == 2 else None
    if uhlmann is None:
        avg = hermitian_part(sum(c * (y @ y.conj().T) for c, y in zip(cs, ys)))
        tr = np.trace(avg).real
        base = avg / tr if tr > TOL.nonzero else np.eye(dim) / dim
        sigma = hermitian_part(0.7 * base + 0.3 * np.eye(dim) / dim)
    else:
        sigma = uhlmann
    eye = np.eye(dim, dtype=complex) / dim
    lower, upper = -np.inf, np.inf  # the certified bracket
    g_prev = -np.inf
    rescues, burst, mix = 1, 0, 0.0
    for it in range(TOL.ascent_max_iter):
        w, v = _eigh(sigma)
        w = np.clip(w, 0.0, None)
        g, r_op, bounded = _ascent_terms(w, v, cs, ys)
        lower = max(lower, g)
        if bounded:
            upper = min(upper, _alberti_bound(g, r_op))
        if uhlmann is not None and it == 0 and upper - lower > TOL.ascent_value:
            # the bound at sigma_delta, which shares sigma*'s eigenvectors
            w_mix = (1.0 - TOL.bound_mix) * w + TOL.bound_mix / dim
            g_mix, r_mix, mix_bounded = _ascent_terms(w_mix, v, cs, ys)
            if mix_bounded:
                upper = min(upper, _alberti_bound(g_mix, r_mix))
        if upper - lower <= TOL.ascent_value:
            break
        d = abs(g - g_prev)
        g_prev = g
        if burst == 0 and d < TOL.ascent_value:
            if rescues == 0:
                break
            rescues -= 1
            burst, mix = 80, 1e-5
        sigma = hermitian_part(r_op @ sigma @ r_op.conj().T)
        t = np.trace(sigma).real
        if t < TOL.underflow:
            break
        sigma = sigma / t
        if burst > 0:
            sigma = hermitian_part((1.0 - mix) * sigma + mix * eye)
            burst -= 1
            if burst == 40:
                mix = 1e-10
    return QResult(float(lower), bool(upper - lower <= TOL.ascent_value), it, 2 - rescues,
                   upper=None if upper == np.inf else float(max(upper, lower)))


def _compressed_factors(state: CqState) -> list[tuple[float, np.ndarray]]:
    """(p_x, Y_x) per supported symbol, Y_x Y_x† being rho_x restricted to the
    support of the average state and renormalised; a zero-prior conditional,
    possibly outside it, is dropped. When the support is the whole space each
    factor comes from the conditional's kept decomposition."""
    sup = state._supported_indices()
    cut = _compress_to_support([state.conditionals[i] for i, _ in sup],
                               state._average_eigh)
    if cut is None:
        return [(p, _factor(state._cond_eigh(i))) for i, p in sup]
    return [(p, _factorize(c / max(tr, TOL.underflow))) for (_, p), c, tr in zip(sup, *cut)]


def _decoupling(factors: Sequence[np.ndarray], coeffs: Sequence[float]) -> QResult:
    """Decoupling quality min(1, value^2) of the ascent on (factors, coeffs),
    its bound squared and clipped alike."""
    res = max_fidelity_sum(factors, coeffs)
    return replace(res, value=min(1.0, res.value**2),
                   upper=None if res.upper is None else min(1.0, res.upper**2))


def decoupling_q(state: CqState) -> QResult:
    """Decoupling quality Q(X|B): squared fidelity to the nearest product state.

    Computed by direct concave ascent over sigma, never through any duality
    shortcut. Commuting conditionals instead use the exact closed form of
    _table_decoupling. The state keeps the result: a later call returns the
    same QResult and runs no ascent.
    """
    if state._q is None:
        object.__setattr__(state, "_q", _decoupling_q(state))
    return state._q


def _decoupling_q(state: CqState) -> QResult:
    m = state.num_symbols
    joint = _classical_joint(state)
    if joint is not None:
        q = _table_decoupling(joint)
        return QResult(q, True, 0, 0, upper=q)
    sup = _compressed_factors(state)
    return _decoupling([y for _, y in sup], [np.sqrt(p / m) for p, _ in sup])


def _min_entropy(guess: GuessResult) -> float:
    """-log2 of an exact guessing probability. A square-root-measurement value
    (exact=False) is refused: it only bounds the optimum from below, so its
    -log2 would pass for a min-entropy it is not."""
    if not guess.exact:
        raise Unsupported(
            "the min-entropy is computed for commuting conditionals or at most two "
            "labels; more would need an optimal measurement, and the square-root "
            "measurement only bounds the guessing probability"
        )
    return -float(np.log2(guess.value))


_STATE = _Reader(lambda s: s.num_symbols, _vn_cond, lambda s, a: petz_curve(s, [a])[0],
                 lambda s: guessing_prob(s), lambda s: decoupling_q(s).value)


def cond_entropy(state: CqState, family: EntropyFamily) -> float:
    """Conditional entropy of the symbol given the quantum system, in bits.

    The min-entropy is refused (Unsupported) where guessing_prob falls back
    to the square-root measurement: more than two supported symbols whose
    conditionals do not commute."""
    return family.of(_STATE, state)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


def dispersion(state: CqState) -> tuple[float, float]:
    """(second_moment, variance) of the conditional log-likelihood, in bits^2.

    second_moment is Tr[psi (log psi - log(I (x) psi_B))^2] evaluated
    blockwise on the support; variance subtracts the squared conditional
    entropy. Only the variance form is invariant under the channel dual.
    """
    lbar = _spectral_fn(state._average_eigh, np.log2)
    second = 0.0
    for p, c in state.supported():
        block = p * c
        y = _spectral_fn(_eigh(hermitian_part(block)), np.log2) - lbar
        second += float(np.trace(block @ y @ y).real)
    h = _vn_cond(state)
    return second, second - h * h


def dispersion_derivative_gap(state: CqState) -> float:
    """Relative error between the Renyi-order derivative at 1 and variance/2.

    The derivative of the Petz divergence in alpha at alpha=1 equals half the
    variance (in matching log units); this evaluates both sides by central
    finite differences of step 1e-4 and returns the relative mismatch.
    """
    h = 1e-4
    lo, hi = petz_curve(state, [1.0 - h, 1.0 + h])
    fd_bits = (lo - hi) / (2.0 * h)  # derivative of the divergence, bits
    _, var = dispersion(state)
    target = var * LOG2 / 2.0
    return abs(fd_bits - target) / max(abs(target), TOL.rank_cut)


# ---------------------------------------------------------------------------
# duality checks
# ---------------------------------------------------------------------------


def state_disjointness_gap(w: _ch.CqChannel) -> float:
    """Max |sigma_z sigma_z'| over z != z' for the channel-state conditionals.

    These must vanish for the entropy-sum identity to apply; the dual
    construction guarantees it through the retained input register.
    """
    sigmas = _ch.channel_state(w).unnormalized_f_conditionals()
    gap = 0.0
    for i in range(len(sigmas)):
        for j in range(i + 1, len(sigmas)):
            gap = max(gap, float(np.max(np.abs(sigmas[i] @ sigmas[j]))))
    return gap


def duality_check(
    w: _ch.CqChannel,
    family: EntropyFamily,
    check_disjointness: bool = True,
    dual_channel: _ch.CqChannel | None = None,
) -> DualityReport:
    """Evaluate H(W) + H_dual(dual(W)) against log2(d).

    Both legs are computed independently; nothing is inferred from the
    identity being tested. A precomputed dual may be passed in when checking
    several families of the same channel. The min and max families are
    refused (Unsupported) for more than two inputs, where guessing_prob falls
    back to the square-root measurement, which is not optimal there.
    """
    dualf = family.dual()
    if MIN_ENTROPY in (family, dualf) and w.input_size > 2:
        raise Unsupported(
            f"the {family.label} entropy sum is checked for binary input only; "
            f"{w.input_size} inputs would need an optimal measurement"
        )
    lhs = cond_entropy(from_channel(w), family)
    wd = _ch.dual(w) if dual_channel is None else dual_channel
    rhs = cond_entropy(from_channel(wd), dualf)
    target = float(np.log2(w.input_size))
    total = lhs + rhs
    dis = state_disjointness_gap(w) if check_disjointness else None
    return DualityReport(family, dualf, lhs, rhs, total, target, abs(total - target), dis)


def capacity(w: _ch.CqChannel) -> float:
    """I(W) = log2(d) - H(W) for a channel symmetric by a witness or, as an
    erasure channel (channels._erasure_probability), by its outputs: either
    way the uniform input is optimal. The one capacity rule."""
    if not (w.is_symmetric or _ch._erasure_probability(w) is not None):
        raise Unsupported("capacity formula requires symmetry witnesses or erasure outputs")
    return float(np.log2(w.input_size)) - cond_entropy(from_channel(w), VON_NEUMANN)


def capacity_duality_check(w: _ch.CqChannel) -> DualityReport:
    """I(W) + I(dual(W)) against log2(d)."""
    lhs = capacity(w)
    rhs = capacity(_ch.dual(w))
    target = float(np.log2(w.input_size))
    total = lhs + rhs
    return DualityReport(VON_NEUMANN, VON_NEUMANN, lhs, rhs, total, target, abs(total - target))


# ---------------------------------------------------------------------------
# classical hypothesis testing
# ---------------------------------------------------------------------------


def np_beta(p: Sequence[float], q: Sequence[float], eps: float) -> float:
    """Exact randomized Neyman-Pearson minimum type-II error.

    Minimizes sum(test * q) over tests 0 <= t <= 1 with sum(test * p) >= 1-eps.
    Atoms are taken in decreasing likelihood-ratio order with the boundary
    atom accepted fractionally.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share an outcome space")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    need = 1.0 - eps
    with np.errstate(divide="ignore"):
        ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")
    beta = 0.0
    got = 0.0
    for idx in order:
        if need - got <= TOL.roundoff:
            break
        take_p = p[idx]
        if take_p <= 0.0:
            continue
        if got + take_p <= need:
            got += take_p
            beta += q[idx]
        else:
            frac = (need - got) / take_p
            beta += frac * q[idx]
            got = need
            break
    return float(beta)
