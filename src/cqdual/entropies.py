"""Conditional entropies of classical-quantum states and channel duality checks.

All entropies are reported in bits. The family covers the von Neumann
entropy, min- and max-entropy (via guessing probability and decoupling
quality), and the downarrow Renyi family built on the Petz divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import TOL
from . import channels as _ch
from .linalg import (
    _eigh,
    assert_density,
    diagonal_table,
    hermitian_eig,
    hermitian_part,
    projector_onto_support,
    spectral_fn,
    von_neumann_entropy,
)

__all__ = [
    "EntropyFamily",
    "VON_NEUMANN",
    "MIN_ENTROPY",
    "MAX_ENTROPY",
    "petz_down",
    "dual_family",
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
    "binary_entropy",
]

LOG2 = np.log(2.0)


def binary_entropy(p: float) -> float:
    """h2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


@dataclass(frozen=True)
class EntropyFamily:
    """Tag for one member of the conditional entropy family."""

    kind: str  # "von_neumann" | "min" | "max" | "petz_down"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind == "petz_down":
            a = self.alpha
            if a is None or not (0.0 < a < 1.0 or 1.0 < a <= 2.0):
                raise ValueError(f"petz_down needs alpha in (0,1) or (1,2], got {a}")
        elif self.kind not in ("von_neumann", "min", "max"):
            raise ValueError(f"unknown entropy kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "petz_down":
            return f"petz_down({self.alpha:g})"
        return self.kind


VON_NEUMANN = EntropyFamily("von_neumann")
MIN_ENTROPY = EntropyFamily("min")
MAX_ENTROPY = EntropyFamily("max")


def petz_down(alpha: float) -> EntropyFamily:
    return EntropyFamily("petz_down", float(alpha))


def dual_family(f: EntropyFamily) -> EntropyFamily:
    """The family paired with f in the entropy-sum identity."""
    if f.kind == "von_neumann":
        return VON_NEUMANN
    if f.kind == "min":
        return MAX_ENTROPY
    if f.kind == "max":
        return MIN_ENTROPY
    return petz_down(2.0 - float(f.alpha))


@dataclass(frozen=True)
class CqState:
    """Classical prior plus one conditional density operator per symbol."""

    prior: np.ndarray
    conditionals: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = np.asarray(self.prior, dtype=float)
        if p.min() < 0:
            raise ValueError("negative prior probability")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior sums to {p.sum()}, not 1 within 1e-12")
        conds = tuple(assert_density(c) for c in self.conditionals)
        if len(conds) != len(p):
            raise ValueError("need one conditional per prior atom")
        if len({c.shape[0] for c in conds}) != 1:
            raise ValueError("conditionals must share one dimension")
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        object.__setattr__(self, "prior", p)
        object.__setattr__(self, "conditionals", conds)

    @property
    def num_symbols(self) -> int:
        return len(self.prior)

    @property
    def dim(self) -> int:
        return self.conditionals[0].shape[0]

    def average(self) -> np.ndarray:
        out = np.zeros_like(self.conditionals[0])
        for p, c in zip(self.prior, self.conditionals):
            out = out + p * c
        return hermitian_part(out)

    def supported(self) -> list[tuple[float, np.ndarray]]:
        """(probability, conditional) pairs with zero-probability atoms dropped."""
        return [(float(p), c) for p, c in zip(self.prior, self.conditionals) if p > 0.0]


class GuessResult(NamedTuple):
    value: float
    exact: bool
    method: str


@dataclass(frozen=True)
class QResult:
    value: float
    converged: bool
    iterations: int
    restarts: int
    upper: float | None = None  # certified upper bound on value, if one was found


@dataclass(frozen=True)
class DualityReport:
    """Both legs of an entropy-sum identity, their sum, target and gap."""

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


def from_channel(w: _ch.CqChannel, prior: Sequence[float] | None = None) -> CqState:
    """CQ state of input-given-output for a channel; uniform prior by default."""
    if prior is None:
        p = np.full(w.input_size, 1.0 / w.input_size)
    else:
        p = np.asarray(prior, dtype=float)
        if len(p) != w.input_size:
            raise ValueError(
                f"prior length {len(p)} != input alphabet {w.input_size}"
            )
    return CqState(p, w.outputs)


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
    fidelity), which leaves Q = sum_y (sum_x sqrt(P(x, y) / m))^2.
    """
    amp = np.sqrt(joint / joint.shape[0]).sum(axis=0)
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


def table_entropy(joint: np.ndarray, family: EntropyFamily) -> float:
    """Conditional entropy of the row label given the column of a joint table
    P(x, y), in bits: the exact value of every family on commuting states."""
    if family.kind == "von_neumann":
        return float(-_xlog2x(joint).sum() + _xlog2x(joint.sum(axis=0)).sum())
    if family.kind == "min":
        return -float(np.log2(_table_guess(joint)))
    if family.kind == "max":
        return float(np.log2(joint.shape[0]) + np.log2(_table_decoupling(joint)))
    return _table_petz(joint, [family.alpha])[0]


def _classical_joint(state: CqState) -> np.ndarray | None:
    """Joint table P(x, y) when every conditional is diagonal, else None."""
    diags = diagonal_table(state.conditionals)
    return None if diags is None else state.prior[:, None] * diags


# ---------------------------------------------------------------------------
# entropy family
# ---------------------------------------------------------------------------


def _vn_cond(state: CqState) -> float:
    joint = _classical_joint(state)
    if joint is not None:
        return table_entropy(joint, VON_NEUMANN)
    sup = state.supported()
    h_prior = float(-sum(p * np.log2(p) for p, _ in sup))
    h_cond = sum(p * von_neumann_entropy(c) for p, c in sup)
    return h_prior + h_cond - von_neumann_entropy(state.average())


def petz_curve(state: CqState, alphas: Sequence[float]) -> list[float]:
    """Petz downarrow conditional entropies at several orders, in bits.

    Shares the spectral decompositions across orders. Supports are handled by
    the 0**p := 0 convention; the conditionals always live inside the support
    of the average state, so no support violation can occur.
    """
    joint = _classical_joint(state)
    if joint is not None:
        return _table_petz(joint, alphas)
    rbar = state.average()
    mu, wvec = hermitian_eig(rbar)
    keep = mu > TOL.rank_cut
    mu = mu[keep]
    wvec = wvec[:, keep]
    pieces = []
    for p, c in state.supported():
        lam, v = hermitian_eig(c)
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
    exact=False.
    """
    joint = _classical_joint(state)
    if joint is not None:
        return GuessResult(_table_guess(joint), True, "classical_ml")
    sup = state.supported()
    if len(sup) == 1:
        return GuessResult(1.0, True, "trivial")
    if len(sup) == 2:
        (p0, r0), (p1, r1) = sup
        w = np.linalg.eigvalsh(hermitian_part(p0 * r0 - p1 * r1))
        return GuessResult(float(0.5 * (1.0 + np.abs(w).sum())), True, "helstrom")
    rbar = state.average()
    inv_sqrt = spectral_fn(rbar, lambda w: 1.0 / np.sqrt(w))
    val = 0.0
    for p, c in sup:
        m = inv_sqrt @ c @ inv_sqrt
        val += p * p * float(np.trace(m @ c).real)
    return GuessResult(val, False, "srm")


def _factorize(a: np.ndarray) -> np.ndarray:
    """Low-rank factor Y with A = Y Y† for a PSD matrix."""
    w, v = _eigh(hermitian_part(np.asarray(a, dtype=complex)))
    keep = w > TOL.rank_cut
    return v[:, keep] * np.sqrt(w[keep])


def max_fidelity_sum(
    factors: Sequence[np.ndarray],
    coeffs: Sequence[float],
    seed: int = 0,
    restarts: int = TOL.ascent_restarts,
) -> QResult:
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
    bound lies within TOL.ascent_value of the best value reached, with that
    bound as `upper`.

    Where the bracket never closes, as on optima at which sigma is rank
    deficient, the earlier rules stop the ascent: components driven
    numerically to zero can park the iteration on a face of the cone slightly
    below the optimum, so on first apparent convergence (a step moving the
    value by less than TOL.ascent_value) a rescue cycle re-mixes a vanishing
    amount of the identity and lets the map resettle; random restarts remain
    as an extra guard. `upper` is then the lowest bound met, or None if no
    step allowed one.
    """
    ys = [np.asarray(y, dtype=complex) for y in factors]
    ys = [_factorize(y @ y.conj().T) if y.shape[1] > y.shape[0] else y for y in ys]
    cs = np.asarray(coeffs, dtype=float)
    dim = ys[0].shape[0]
    avg = hermitian_part(sum(c * (y @ y.conj().T) for c, y in zip(cs, ys)))
    tr = np.trace(avg).real
    base = avg / tr if tr > 1e-14 else np.eye(dim) / dim
    rng = np.random.default_rng(seed)
    starts = [hermitian_part(0.7 * base + 0.3 * np.eye(dim) / dim)]
    for _ in range(max(0, restarts - 1)):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        starts.append(hermitian_part(m / np.trace(m).real))
    eye = np.eye(dim, dtype=complex) / dim
    lower, upper = -np.inf, np.inf  # the certified bracket
    best = -np.inf
    best_iters = 0
    converged = False
    used = 0
    stale = 0
    for sigma in starts:
        used += 1
        g_prev = -np.inf
        ok = False
        it = 0
        g = 0.0
        rescues = 1
        burst = 0
        mix = 0.0
        for it in range(TOL.ascent_max_iter):
            w, v = _eigh(sigma)
            w = np.clip(w, 0.0, None)
            root = np.where(w > 1e-14, np.sqrt(w), 0.0)
            g = 0.0
            r_op = np.zeros((dim, dim), dtype=complex)
            bounded = w[0] > 1e-14
            for c, y in zip(cs, ys):
                vy = v.conj().T @ y
                b = root[:, None] * vy  # sqrt(sigma) y in the sigma eigenbasis
                wm, vm = _eigh(hermitian_part(b.conj().T @ b))
                wm = np.clip(wm, 0.0, None)
                sm = np.sqrt(wm)
                g += c * float(sm.sum())
                bounded = bounded and sm.min(initial=np.inf) > 1e-150
                # grad F = (proj y) vm diag(1/sm) vm† (proj y)†
                inv_sm = np.where(sm > 1e-150, 1.0 / np.maximum(sm, 1e-300), 0.0)
                proj_y = v @ (np.where(w > 1e-14, 1.0, 0.0)[:, None] * vy)
                half = proj_y @ (vm * np.sqrt(inv_sm))
                r_op += c * (half @ half.conj().T)
            lower = max(lower, g)
            if bounded:
                try:
                    upper = min(upper, 0.5 * (g + float(np.linalg.eigvalsh(r_op)[-1])))
                except np.linalg.LinAlgError:
                    pass  # no bound from this step
            if upper - lower <= TOL.ascent_value:
                return QResult(float(lower), True, it, used, upper=float(upper))
            d = abs(g - g_prev)
            g_prev = g
            if burst == 0 and d < TOL.ascent_value:
                if rescues > 0:
                    rescues -= 1
                    burst, mix = 80, 1e-5
                else:
                    ok = True
                    break
            sigma = hermitian_part(r_op @ sigma @ r_op.conj().T)
            t = np.trace(sigma).real
            if t < 1e-300:
                break
            sigma = sigma / t
            if burst > 0:
                sigma = hermitian_part((1.0 - mix) * sigma + mix * eye)
                burst -= 1
                if burst == 40:
                    mix = 1e-10
        if g > best + 1e-12:
            best = g
            best_iters = it
            converged = ok
            stale = 0
        else:
            stale += 1
        if used >= 2 and (stale >= 2 or (converged and used >= 2)):
            break
    return QResult(float(best), converged, best_iters, used,
                   upper=None if upper == np.inf else float(upper))


def _compressed(state: CqState) -> CqState:
    """Restrict the conditionals to the support of the average state."""
    iso = projector_onto_support(state.average())
    if iso.shape[1] == state.dim or iso.shape[1] == 0:
        return state
    conds = tuple(hermitian_part(iso.conj().T @ c @ iso) for c in state.conditionals)
    conds = tuple(c / max(np.trace(c).real, 1e-300) for c in conds)
    return CqState(state.prior, conds)


def _squared_upper(res: QResult) -> float | None:
    """Certified bound on a decoupling quality Q = min(1, value^2)."""
    return None if res.upper is None else min(1.0, res.upper**2)


def decoupling_q(state: CqState, seed: int = 0) -> QResult:
    """Decoupling quality Q(X|B): squared fidelity to the nearest product state.

    Computed by direct concave ascent over sigma, never through any duality
    shortcut. Commuting conditionals instead use the exact closed form of
    _table_decoupling.
    """
    m = state.num_symbols
    joint = _classical_joint(state)
    if joint is not None:
        q = _table_decoupling(joint)
        return QResult(q, True, 0, 0, upper=q)
    state = _compressed(state)
    sup = state.supported()
    factors = [_factorize(c) for _, c in sup]
    coeffs = [np.sqrt(p / m) for p, _ in sup]
    res = max_fidelity_sum(factors, coeffs, seed=seed)
    q = min(1.0, res.value**2)
    return QResult(q, res.converged, res.iterations, res.restarts, upper=_squared_upper(res))


def cond_entropy(state: CqState, family: EntropyFamily, seed: int = 0) -> float:
    """Conditional entropy of the symbol given the quantum system, in bits."""
    if family.kind == "von_neumann":
        return _vn_cond(state)
    if family.kind == "petz_down":
        return petz_curve(state, [family.alpha])[0]
    if family.kind == "min":
        return -float(np.log2(guessing_prob(state).value))
    q = decoupling_q(state, seed=seed).value
    return float(np.log2(state.num_symbols) + np.log2(q))


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


def dispersion(state: CqState) -> tuple[float, float]:
    """(second_moment, variance) of the conditional log-likelihood, in bits^2.

    second_moment is Tr[psi (log psi - log(I (x) psi_B))^2] evaluated
    blockwise on the support; variance subtracts the squared conditional
    entropy. Only the variance form is invariant under the channel dual.
    """
    lbar = spectral_fn(state.average(), np.log2)
    second = 0.0
    for p, c in state.supported():
        block = p * c
        y = spectral_fn(block, np.log2) - lbar
        second += float(np.trace(block @ y @ y).real)
    h = _vn_cond(state)
    return second, second - h * h


def dispersion_derivative_gap(state: CqState, h: float = 1e-4) -> float:
    """Relative error between the Renyi-order derivative at 1 and variance/2.

    The derivative of the Petz divergence in alpha at alpha=1 equals half the
    variance (in matching log units); this evaluates both sides by central
    finite differences and returns the relative mismatch.
    """
    lo, hi = petz_curve(state, [1.0 - h, 1.0 + h])
    fd_bits = (lo - hi) / (2.0 * h)  # derivative of the divergence, bits
    _, var = dispersion(state)
    target = var * LOG2 / 2.0
    return abs(fd_bits - target) / max(abs(target), 1e-12)


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
    seed: int = 0,
    check_disjointness: bool = True,
    dual_channel: _ch.CqChannel | None = None,
) -> DualityReport:
    """Evaluate H(W) + H_dual(dual(W)) against log2(d).

    Both legs are computed independently; nothing is inferred from the
    identity being tested. A precomputed dual may be passed in when checking
    several families of the same channel.
    """
    dualf = dual_family(family)
    lhs = cond_entropy(from_channel(w), family, seed=seed)
    wd = _ch.dual(w) if dual_channel is None else dual_channel
    rhs = cond_entropy(from_channel(wd), dualf, seed=seed)
    target = float(np.log2(w.input_size))
    total = lhs + rhs
    dis = state_disjointness_gap(w) if check_disjointness else None
    return DualityReport(family, dualf, lhs, rhs, total, target, abs(total - target), dis)


def capacity(w: _ch.CqChannel) -> float:
    """I(W) = log2(d) - H(W) for symmetric channels (uniform input optimal)."""
    if not w.is_symmetric:
        raise ValueError("capacity formula requires symmetry witnesses")
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
        if need - got <= 1e-15:
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
