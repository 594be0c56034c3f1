import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from cqdual import channels as ch
from cqdual import cli
from cqdual import entropies as en
from cqdual import fbl


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def _beta_exhaustive(n, p, eps):
    outs = list(itertools.product((0, 1), repeat=n))
    pvec = np.array([p ** sum(o) * (1 - p) ** (n - sum(o)) for o in outs])
    qvec = np.full(len(outs), 2.0**-n)
    return en.np_beta(pvec, qvec, eps)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_beta_kernel_matches_exhaustive(n):
    for eps in (0.05, 0.11, 0.5):
        kernel = 2.0 ** fbl.log2_beta_bsc(n, 0.11, eps)
        exact = _beta_exhaustive(n, 0.11, eps)
        assert abs(kernel - exact) <= 1e-12 * max(exact, 1e-6)


def test_beta_single_use_half():
    # accept the no-flip outcome exactly: beta = 1/2
    assert abs(2.0 ** fbl.log2_beta_bsc(1, 0.11, 0.11) - 0.5) < 1e-12


def test_metaconverse_single_use_is_one_bit():
    assert abs(fbl.bsc_metaconverse(1, 0.11, 0.11) - 1.0) < 1e-12


def test_metaconverse_vacuous_eps():
    assert fbl.bsc_metaconverse(60, 0.11, 1 - 1e-9) == 60.0


def test_metaconverse_monotone_in_eps():
    vals = [fbl.bsc_metaconverse(200, 0.11, e) for e in (1e-4, 1e-3, 1e-2, 0.1)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_achievability_monotone_in_eps():
    vals = [fbl.bsc_union_achievability(200, 0.11, e) for e in (1e-4, 1e-3, 1e-2, 0.1)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_achievability_small_p_approaches_n():
    # at tiny p only the random-code tie term survives, costing
    # about log2(1/eps) + 1 bits below the trivial n
    n, eps = 100, 1e-3
    k = fbl.bsc_union_achievability(n, 1e-12, eps)
    assert n - 12 <= k < n


def test_log_factorials_match_gammaln_bit_for_bit():
    # the port of Cephes lgam covers every k! the bounds take (n <= 10^4)
    from scipy.special import gammaln

    assert np.array_equal(fbl._log_factorials(10_000), gammaln(np.arange(10_001) + 1.0))


def test_log2_binom_matches_gammaln_expression():
    from scipy.special import gammaln

    for n in [*range(1, 301), *range(301, 10_001, 97), 10_000]:
        t = np.arange(n + 1)
        want = (gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)) / fbl.LN2
        assert np.array_equal(fbl._log2_binom(n), want), n


GRID_N = [1, 2, 7, 59, 100, 1000, 9999]
GRID_P = [1e-9, 0.05, 0.11, 0.3, 0.499]
GRID_EPS = [0.5, 0.1, 1e-2, 1e-3, 1e-6]


def _log2_pmf_reference(n, p):
    t = np.arange(n + 1)
    with np.errstate(divide="ignore"):
        lp = np.where(t > 0, t * np.log2(max(p, 1e-300)), 0.0)
        lq = np.where(n - t > 0, (n - t) * np.log2(max(1.0 - p, 1e-300)), 0.0)
    return fbl._log2_binom(n) + lp + lq


def _tie_split_reference(n):
    lb = fbl._log2_binom(n)
    ref = np.empty(n + 1)
    run = -np.inf
    for t in range(n + 1):
        ref[t] = np.logaddexp2(run, lb[t] - 1.0)
        run = np.logaddexp2(run, lb[t])
    return ref


def _log2_beta_loop_reference(n, p, eps):
    # reject weight classes one at a time, heaviest first, while the rejected
    # mass stays at most eps; accept the rest, splitting the boundary class
    lb = fbl._log2_binom(n)
    lw = _log2_pmf_reference(n, p)
    rejected = 0.0
    t = n
    while t > 0 and rejected + 2.0 ** lw[t] <= eps:
        rejected += 2.0 ** lw[t]
        t -= 1
    w = 2.0 ** lw[t]
    frac = min(1.0, (rejected + w - eps) / max(w, 1e-300))
    log2_beta = -np.inf
    for s in range(t):
        log2_beta = np.logaddexp2(log2_beta, lb[s] - n)
    return float(np.logaddexp2(log2_beta, lb[t] - n + np.log2(max(frac, 1e-300))))


def _union_bound_reference(n, k, lw, log2_cum):
    inner = np.minimum(0.0, k - n + log2_cum)
    return float(np.sum(2.0 ** (lw + inner)))


def _union_bisection_reference(n, lw, log2_cum, eps):
    # largest k with the union bound at most eps, by bisection on k
    if _union_bound_reference(n, 0, lw, log2_cum) > eps:
        return 0
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _union_bound_reference(n, mid, lw, log2_cum) <= eps:
            lo = mid
        else:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("n", GRID_N)
def test_tie_split_sums_match_scalar_loop(n):
    # the accumulate form keeps the loop's order of operations, so bit for bit
    assert np.array_equal(fbl._log2_tie_split_sums(fbl._log2_binom(n)), _tie_split_reference(n))


@pytest.mark.parametrize("n", GRID_N)
def test_beta_matches_scalar_loop(n):
    # both running sums keep the loop's order of operations, so bit for bit
    for p in GRID_P:
        for eps in [0.0, *GRID_EPS]:
            assert fbl.log2_beta_bsc(n, p, eps) == _log2_beta_loop_reference(n, p, eps)


@pytest.mark.parametrize("n", GRID_N)
def test_union_threshold_matches_bisection(n):
    log2_cum = _tie_split_reference(n)
    for p in [0.0, *GRID_P]:
        lw = _log2_pmf_reference(n, p)
        for eps in GRID_EPS:
            ref = _union_bisection_reference(n, lw, log2_cum, eps)
            assert fbl.bsc_union_achievability(n, p, eps) == ref


@pytest.mark.parametrize("n", GRID_N)
def test_union_curve_nondecreasing(n):
    for p in [0.0, *GRID_P]:
        u = fbl._table(n, p).u
        step = np.diff(u)
        assert len(u) == n + 1 and np.all(step[u[:-1] < 0.5] >= 0.0)
        # where the bound saturates, the total mass sum_t w_t, rounded in two
        # orders, may differ by one unit in the last place
        assert np.all(step >= -np.spacing(u[1:]))


def test_union_bound_dominates_specific_code_error():
    # the random-code union bound cannot beat the exact [3,1] ML error
    ml_error = 1 - 0.966362  # repetition code on BSC(0.11), majority vote
    assert fbl._table(3, 0.11).u[1] >= ml_error - 1e-12


def test_curve_rows_equal_the_public_bounds():
    for p in (0.01, 0.11, 0.45):
        for eps in (0.3, 1e-3):
            e2 = eps * eps
            for c in fbl.compute_curves([1, 7, 100, 1000], p, eps):
                assert c.metaconverse == fbl.bsc_metaconverse(c.n, p, eps)
                assert c.union_achievability == float(fbl.bsc_union_achievability(c.n, p, eps))
                assert c.extractor_upper == fbl.bsc_metaconverse(c.n, p, e2)
                assert c.extractor_lower == float(fbl.bsc_union_achievability(c.n, p, e2))
                assert (c.extractor_upper, c.extractor_lower) == fbl.extractor_bounds(c.n, p, eps)


def test_parameter_validation():
    n_range, p_open, p_half_open = "n must be in", r"p must lie in \(0, 1/2\)", r"p must lie in \[0, 1/2\)"
    eps_beta, eps_union = r"eps must lie in \[0, 1\)", r"eps must lie in \(0, 1\)"
    cases = [
        (lambda: fbl.bsc_metaconverse(0, 0.11, 0.1), n_range),
        (lambda: fbl.bsc_metaconverse(10**4 + 1, 0.11, 0.1), n_range),
        (lambda: fbl.bsc_metaconverse(100, 0.6, 0.1), p_open),
        (lambda: fbl.bsc_metaconverse(100, 0.0, 0.1), p_open),
        (lambda: fbl.bsc_metaconverse(100, 0.11, 1.0), eps_beta),
        (lambda: fbl.log2_beta_bsc(10, 0.5, 0.1), p_open),
        (lambda: fbl.log2_beta_bsc(10, 0.11, -0.1), eps_beta),
        (lambda: fbl.log2_beta_bsc(-1, 0.11, 0.1), "blocklength -1 is negative"),
        (lambda: fbl.bsc_union_achievability(0, 0.11, 0.1), n_range),
        (lambda: fbl.bsc_union_achievability(100, 0.5, 0.1), p_half_open),
        (lambda: fbl.bsc_union_achievability(100, 0.11, 0.0), eps_union),
        (lambda: fbl.bsc_union_achievability(100, 0.11, 1.0), eps_union),
        (lambda: fbl.extractor_bounds(10**5, 0.11, 0.1), n_range),
        (lambda: fbl.extractor_bounds(100, 0.0, 0.1), p_open),
        (lambda: fbl.extractor_bounds(100, 0.11, 0.0), eps_union),
        (lambda: fbl.compute_curves([100, 0], 0.11, 0.1), n_range),
        (lambda: fbl.compute_curves([100], 7.0, 0.1), p_open),
        (lambda: fbl.compute_curves([100], 0.11, 1.5), eps_beta),
        (lambda: fbl.compute_curves([100], 0.11, 0.0), eps_union),
        (lambda: fbl.compute_curves([100], 0.11, -0.1), eps_beta),
    ]
    for call, match in cases:
        with pytest.raises(ValueError, match=match):
            call()


def test_gap_at_500():
    mc = fbl.bsc_metaconverse(500, 0.11, 1e-3)
    ua = fbl.bsc_union_achievability(500, 0.11, 1e-3)
    assert 0 <= mc - ua <= 8.0


def _metaconverse_exact(n, p, eps):
    # beta in exact rationals, every mass scaled by scale = den(p)^n den(eps)
    p, eps = Fraction(p), Fraction(eps)
    num, den = p.numerator, p.denominator
    w = [math.comb(n, t) * num**t * (den - num) ** (n - t) * eps.denominator
         for t in range(n + 1)]
    budget = eps.numerator * den**n  # eps * scale
    t, rejected = n, 0
    while rejected + w[t] <= budget:
        rejected += w[t]
        t -= 1
    accepted = Fraction(rejected + w[t] - budget, w[t])
    beta = (sum(math.comb(n, s) for s in range(t)) + math.comb(n, t) * accepted) / 2**n
    return min(n, math.log2(beta.denominator) - math.log2(beta.numerator))


def test_metaconverse_exact_at_tiny_eps():
    # at eps = 1e-12 the cut on 1 - eps would meet the rounding error of the
    # whole pmf's sum (-1.35e-13 at n = 500); the upper-tail cut does not
    assert abs(fbl.bsc_metaconverse(500, 0.11, 1e-12) - _metaconverse_exact(500, 0.11, 1e-12)) <= 1e-6


def test_extractor_bounds_ordered_at_tiny_eps(capsys):
    # eps^2 = 9e-14 lies below that rounding error
    assert cli.main(["fbl", "--n-grid", "400:600:100", "--p", "0.11", "--eps", "3e-7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[2:]]
    assert [r["n"] for r in rows] == [400, 500, 600]
    for r in rows:
        assert r["extractor_upper_bits"] >= r["extractor_lower_bits"]


def test_extractor_bounds_sum_rule():
    # extractor bounds are exactly the coding bounds at the squared error
    n, p, eps = 300, 0.11, 1e-2
    up, lo = fbl.extractor_bounds(n, p, eps)
    assert up == fbl.bsc_metaconverse(n, p, eps * eps)
    assert lo == float(fbl.bsc_union_achievability(n, p, eps * eps))
    assert up >= lo


def test_extractor_edge_parameters():
    # near-identical conditional states: the side information is almost
    # independent of the string, so nearly everything is extractable
    up, lo = fbl.extractor_bounds(200, 1e-9, 1e-2)
    assert up > 190 and lo > 180
    # near-orthogonal states: the side information reads the string, so at
    # most a few slack bits survive
    up, _ = fbl.extractor_bounds(200, 0.499, 1e-2)
    assert up < 20


def test_ordering_on_grid():
    for c in fbl.compute_curves(range(100, 2001, 100), 0.11, 1e-3):
        assert c.metaconverse >= c.union_achievability
        assert c.extractor_upper >= c.extractor_lower


def test_normal_approximation_agreement():
    n, p, eps = 2000, 0.11, 1e-3
    _, var = en.dispersion(en.from_channel(ch.make_bsc(p)))
    approx = n * (1 - h2(p)) - np.sqrt(n * var) * norm.isf(eps)
    mc = fbl.bsc_metaconverse(n, p, eps)
    assert abs(mc - approx) / n <= 0.01


def test_emit_curves_deterministic():
    a = fbl.emit_curves([100, 200, 300], 0.11, 1e-3)
    b = fbl.emit_curves([100, 200, 300], 0.11, 1e-3)
    assert a == b
    lines = a.strip().split("\n")
    assert lines[1] == fbl.CSV_HEADER
    assert len(lines) == 5


def test_csv_row_has_a_column_per_header_name():
    (curve,) = fbl.compute_curves([100], 0.11, 1e-3)
    assert len(curve.csv_row().split(",")) == len(fbl.CSV_HEADER.split(","))


def test_emit_curves_empty_grid():
    text = fbl.emit_curves([], 0.11, 1e-3)
    assert text.strip().split("\n")[-1] == fbl.CSV_HEADER
