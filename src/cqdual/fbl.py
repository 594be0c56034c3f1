"""Finite-blocklength coding bounds for the BSC and their extractor counterparts.

The converse is the hypothesis-testing bound with the uniform output
distribution; the achievability is a random-linear-code union bound with
maximum-likelihood ties split evenly. Extraction bounds follow from the exact
blocklength sum rule: the best extractable length and the best compression
length add to n, with the error parameter squared on the coding side.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .config import SCHEMA_VERSION

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


def _log2_binom(n: int) -> np.ndarray:
    # imported here so that only the bounds pay for loading scipy
    from scipy.special import gammaln

    t = np.arange(n + 1)
    return (gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)) / LN2


def _log2_pmf(n: int, p: float) -> np.ndarray:
    t = np.arange(n + 1)
    lb = _log2_binom(n)
    with np.errstate(divide="ignore"):
        lp = np.where(t > 0, t * np.log2(max(p, 1e-300)), 0.0)
        lq = np.where(n - t > 0, (n - t) * np.log2(max(1.0 - p, 1e-300)), 0.0)
    return lb + lp + lq


def log2_beta_bsc(n: int, p: float, eps: float) -> float:
    """log2 of the minimum type-II error between Bern(p)^n and Bern(1/2)^n.

    For p < 1/2 the likelihood ratio is monotone in the flip count, so the
    optimal randomized test accepts low-weight classes first, splitting the
    boundary class fractionally. Everything is accumulated in the log domain.
    """
    if not 0.0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2)")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    lb = _log2_binom(n)
    lw = _log2_pmf(n, p)
    need = 1.0 - eps
    got = 0.0
    log2_beta = -np.inf
    for t in range(n + 1):
        w = 2.0 ** lw[t]
        lq = lb[t] - n
        if got + w < need:
            got += w
            log2_beta = np.logaddexp2(log2_beta, lq)
        else:
            frac = (need - got) / max(w, 1e-300)
            log2_beta = np.logaddexp2(log2_beta, lq + np.log2(max(frac, 1e-300)))
            break
    return float(log2_beta)


def bsc_metaconverse(n: int, p: float, eps: float) -> float:
    """Upper bound on log2 M for (n, eps) codes over BSC(p), in bits.

    This is -log2 beta_eps against the uniform output distribution, clipped at
    the trivial n bits; nondecreasing in eps.
    """
    if n < 1 or n > 10**4:
        raise ValueError("n must be in [1, 10^4]")
    return float(min(float(n), -log2_beta_bsc(n, p, eps)))


def _log2_tie_split_sums(n: int) -> np.ndarray:
    """log2(sum_{s<t} C(n,s) + C(n,t)/2) for t = 0..n.

    The running sum is accumulated left to right, in the order of a scalar
    loop, so the result is bit-identical to one.
    """
    lb = _log2_binom(n)
    prev = np.concatenate(([-np.inf], np.logaddexp2.accumulate(lb)[:-1]))
    return np.logaddexp2(prev, lb - 1.0)


def _union_bound(n: int, k: int, lw: np.ndarray, log2_cum: np.ndarray) -> float:
    inner = np.minimum(0.0, k - n + log2_cum)
    return float(np.sum(2.0 ** (lw + inner)))


def bsc_union_achievability(n: int, p: float, eps: float) -> int:
    """Largest k with the random-linear-code union bound at most eps.

    The bound sums over flip weights t the probability of that weight times
    min(1, 2^(k-n) (sum_{s<t} C(n,s) + C(n,t)/2)): competitors strictly closer
    than the true word plus an even split of distance ties.
    """
    if n < 1 or n > 10**4:
        raise ValueError("n must be in [1, 10^4]")
    if not 0.0 <= p < 0.5:
        raise ValueError("p must lie in [0, 1/2)")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    lw = _log2_pmf(n, p)
    log2_cum = _log2_tie_split_sums(n)
    lo, hi = 0, n  # bound is monotone nondecreasing in k
    if _union_bound(n, 0, lw, log2_cum) > eps:
        return 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _union_bound(n, mid, lw, log2_cum) <= eps:
            lo = mid
        else:
            hi = mid - 1
    return int(lo)


def extractor_bounds(n: int, p: float, eps: float) -> tuple[float, float]:
    """(upper, lower) bounds in bits on linear randomness extraction.

    By the blocklength sum rule, extractable length = n - compression length
    with the coding error eps^2; the coding converse therefore upper-bounds and
    the union achievability lower-bounds the extractable length.
    """
    e2 = eps * eps
    upper = bsc_metaconverse(n, p, e2)
    lower = float(bsc_union_achievability(n, p, e2))
    return upper, lower


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
        return ",".join(
            repr(v)
            for v in (
                self.n,
                self.p,
                self.eps,
                self.metaconverse,
                self.union_achievability,
                self.extractor_upper,
                self.extractor_lower,
            )
        )


def compute_curves(ns, p: float, eps: float) -> list[BoundCurve]:
    out = []
    for n in ns:
        up, lo = extractor_bounds(int(n), p, eps)
        out.append(
            BoundCurve(
                int(n),
                p,
                eps,
                bsc_metaconverse(int(n), p, eps),
                float(bsc_union_achievability(int(n), p, eps)),
                up,
                lo,
            )
        )
    return out


def emit_curves(ns, p: float, eps: float, seed: int = 0) -> str:
    """Deterministic CSV with one row per blocklength and a metadata comment."""
    buf = io.StringIO()
    buf.write(f"# cqdual={SCHEMA_VERSION} seed={seed} p={p!r} eps={eps!r}\n")
    buf.write(CSV_HEADER + "\n")
    for row in compute_curves(ns, p, eps):
        buf.write(row.csv_row() + "\n")
    return buf.getvalue()
