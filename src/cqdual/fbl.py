"""Finite-blocklength coding bounds for the BSC and their extractor counterparts.

The converse is the hypothesis-testing bound with the uniform output
distribution; the achievability is a random-linear-code union bound with
maximum-likelihood ties split evenly. Extraction bounds follow from the exact
blocklength sum rule: the best extractable length and the best compression
length add to n, with the error parameter squared on the coding side.

Binomial coefficients come from a table of ln k!, a port of Cephes' lgam (the
function behind scipy.special.gammaln) restricted to integers, so this module
needs numpy alone and its tables match gammaln's bit for bit.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass

import numpy as np

from .config import SCHEMA_VERSION, TOL, Unsupported

__all__ = [
    "log2_beta_bsc",
    "bsc_metaconverse",
    "bsc_union_achievability",
    "extractor_bounds",
    "BoundCurve",
    "compute_curves",
    "emit_curves",
    "CSV_HEADER",
]

LN2 = np.log(2.0)

CSV_HEADER = (
    "n,p,epsilon,metaconverse_bits,union_achievability_bits,"
    "extractor_upper_bits,extractor_lower_bits"
)


# Cephes lgam: ln sqrt(2 pi), and the Stirling-series coefficients for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, as Cephes lgam(k + 1) computes it.

    Below lgam's x = 13 the factorial is exact, so its log is taken directly;
    above, the Stirling series with lgam's coefficients, and its shorter
    series from x = 1000 on. The logs are math.log's (the C library's), since
    numpy's vectorised log may differ from it in the last bit.
    """
    small = [math.log(math.factorial(k)) for k in range(min(n, 11) + 1)]
    x = np.arange(13.0, n + 2.0)  # x = k + 1 for k = 12..n
    q = (x - 0.5) * np.fromiter(map(math.log, range(13, n + 2)), float) - x + _LS2PI
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _STIRLING
    series = (((a0 * p + a1) * p + a2) * p + a3) * p + a4
    far = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
           + 0.0833333333333333333333)
    q += np.where(x >= 1000.0, far, series) / x
    return np.concatenate((small, q))


def _log2_binom(n: int, lnfact: np.ndarray | None = None) -> np.ndarray:
    """log2 C(n, t) for t = 0..n, from a table of ln k! holding at least k = 0..n."""
    g = _log_factorials(n) if lnfact is None else lnfact[: n + 1]
    return (g[n] - g - g[::-1]) / LN2


def _log2_tie_split_sums(lb: np.ndarray) -> np.ndarray:
    """log2(sum_{s<t} C(n,s) + C(n,t)/2) for t = 0..n, from lb = log2 C(n, t).

    The running sum is accumulated left to right, in the order of a scalar
    loop, so the result is bit-identical to one.
    """
    prev = np.concatenate(([-np.inf], np.logaddexp2.accumulate(lb)[:-1]))
    return np.logaddexp2(prev, lb - 1.0)


@dataclass(frozen=True)
class _Table:
    """What the bounds at one (n, p) read, whatever their eps.

    w[t] = P(t flips) and lq[t] = log2 C(n,t) - n, the uniform mass of the
    weight class, for t = 0..n; tail[t] sums w over the classes from t up and
    log2_q[t] sums 2^lq over the classes below t, for t = 0..n+1; u[k] is the
    union bound for k = 0..n.
    """

    w: np.ndarray
    lq: np.ndarray
    tail: np.ndarray
    log2_q: np.ndarray
    u: np.ndarray


def _table(n: int, p: float, lnfact: np.ndarray | None = None) -> _Table:
    t = np.arange(n + 1)
    lb = _log2_binom(n, lnfact)
    with np.errstate(divide="ignore"):
        lw = (lb + np.where(t > 0, t * np.log2(max(p, TOL.underflow)), 0.0)
              + np.where(n - t > 0, (n - t) * np.log2(max(1.0 - p, TOL.underflow)), 0.0))
    # scalar pow: numpy's vectorised 2.0 ** x differs from it in the last bit
    w = np.array([2.0**x for x in lw.tolist()])
    # c increases, so min(1, 2^(k-n+c_t)) is 1 exactly from t*(k) on; the
    # terms below t* are summed as logs, since 2^(lw + c) overflows
    c = _log2_tie_split_sums(lb)
    below = np.concatenate(([-np.inf], np.logaddexp2.accumulate(lw + c)))
    above = np.concatenate((np.add.accumulate(w[::-1])[::-1], [0.0]))
    tstar = np.searchsorted(c, n - t)
    u = 2.0 ** (t - n + below[tstar]) + above[tstar]
    # runs left to right, in the order of a scalar loop
    log2_q = np.concatenate(([-np.inf], np.logaddexp2.accumulate(lb - n)))
    return _Table(w, lb - n, above, log2_q, u)


def _check_n(n: int) -> None:
    if n < 1 or n > 10**4:
        raise Unsupported("n must be in [1, 10^4]")


def _check_beta(p: float, eps: float) -> None:
    if not 0.0 < p < 0.5:
        raise Unsupported("p must lie in (0, 1/2)")
    if not 0.0 <= eps < 1.0:
        raise Unsupported("eps must lie in [0, 1)")


def _check_union(p: float, eps: float) -> None:
    if not 0.0 <= p < 0.5:
        raise Unsupported("p must lie in [0, 1/2)")
    if not 0.0 < eps < 1.0:
        raise Unsupported("eps must lie in (0, 1)")


def _log2_beta(tab: _Table, eps: float) -> float:
    # reject whole weight classes, heaviest first, while their mass stays at
    # most eps, then the fraction of the boundary class that brings the
    # rejected mass to eps; the rest is accepted. The cut reads the upper
    # tail, summed from its small masses up, so it holds at any eps, where one
    # on 1 - eps would meet the rounding error of the whole pmf's sum.
    t = max(int(np.count_nonzero(tab.tail > eps)) - 1, 0)
    frac = min(1.0, (tab.tail[t] - eps) / max(tab.w[t], TOL.underflow))
    return float(np.logaddexp2(tab.log2_q[t], tab.lq[t] + np.log2(max(frac, TOL.underflow))))


def _metaconverse(tab: _Table, eps: float) -> float:
    return float(min(float(len(tab.w) - 1), -_log2_beta(tab, eps)))


def _union_dimension(tab: _Table, eps: float) -> int:
    # the last k of the initial run of u[k] <= eps; u is nondecreasing in k
    over = tab.u > eps
    return max(int(over.argmax()) - 1, 0) if over.any() else len(tab.u) - 1


def log2_beta_bsc(n: int, p: float, eps: float) -> float:
    """log2 of the minimum type-II error between Bern(p)^n and Bern(1/2)^n.

    For p < 1/2 the likelihood ratio is monotone in the flip count, so the
    optimal randomized test accepts low-weight classes first, splitting the
    boundary class fractionally. Everything is accumulated in the log domain.
    """
    if n < 0:
        raise ValueError(f"blocklength {n} is negative")
    _check_beta(p, eps)
    return _log2_beta(_table(n, p), eps)


def bsc_metaconverse(n: int, p: float, eps: float) -> float:
    """Upper bound on log2 M for (n, eps) codes over BSC(p), in bits.

    This is -log2 beta_eps against the uniform output distribution, clipped at
    the trivial n bits; nondecreasing in eps.
    """
    _check_n(n)
    _check_beta(p, eps)
    return _metaconverse(_table(n, p), eps)


def bsc_union_achievability(n: int, p: float, eps: float) -> int:
    """Largest k with the random-linear-code union bound at most eps.

    The bound sums over flip weights t the probability of that weight times
    min(1, 2^(k-n) (sum_{s<t} C(n,s) + C(n,t)/2)): competitors strictly closer
    than the true word plus an even split of distance ties.
    """
    _check_n(n)
    _check_union(p, eps)
    return _union_dimension(_table(n, p), eps)


def _check_args(n: int, p: float, *eps: float) -> None:
    """Refuse n, or p with any eps, outside what both bounds take."""
    _check_n(n)
    for e in eps:
        _check_beta(p, e)
        _check_union(p, e)


def extractor_bounds(n: int, p: float, eps: float) -> tuple[float, float]:
    """(upper, lower) bounds in bits on linear randomness extraction.

    By the blocklength sum rule, extractable length = n - compression length
    with the coding error eps^2; the coding converse therefore upper-bounds and
    the union achievability lower-bounds the extractable length.
    """
    e2 = eps * eps
    _check_args(n, p, e2)
    tab = _table(n, p)
    return _metaconverse(tab, e2), float(_union_dimension(tab, e2))


@dataclass(frozen=True)
class BoundCurve:
    n: int
    p: float
    eps: float
    metaconverse: float
    union_achievability: float
    extractor_upper: float
    extractor_lower: float

    def csv_row(self) -> str:
        """The fields in CSV_HEADER's order, each as its repr."""
        return ",".join(repr(v) for v in astuple(self))


def compute_curves(ns, p: float, eps: float) -> list[BoundCurve]:
    """Bounds at each n in ns; n, p, eps and eps^2 are all checked before any table is built."""
    e2 = eps * eps
    for n in ns:
        _check_args(int(n), p, e2, eps)
    lnfact = _log_factorials(max((int(n) for n in ns), default=0))
    out = []
    for n in ns:
        tab = _table(int(n), p, lnfact)
        out.append(BoundCurve(int(n), p, eps, _metaconverse(tab, eps),
                              float(_union_dimension(tab, eps)), _metaconverse(tab, e2),
                              float(_union_dimension(tab, e2))))
    return out


def emit_curves(ns, p: float, eps: float, seed: int = 0) -> str:
    """Deterministic CSV with one row per blocklength and a metadata comment."""
    buf = io.StringIO()
    buf.write(f"# cqdual={SCHEMA_VERSION} seed={seed} p={p!r} eps={eps!r}\n")
    buf.write(CSV_HEADER + "\n")
    for row in compute_curves(ns, p, eps):
        buf.write(row.csv_row() + "\n")
    return buf.getvalue()
