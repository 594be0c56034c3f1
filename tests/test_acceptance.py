"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them inline). Every
quantity on both sides of an identity is computed independently; nothing is
derived from the identity under test.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import norm

from cqdual import channels as ch
from cqdual import codedchannels as cc
from cqdual import codes
from cqdual import corpus
from cqdual import entropies as en
from cqdual import fbl
from cqdual import polar

SEED = 20240811


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. entropy-sum identity across the family, 200 random channels
# ---------------------------------------------------------------------------


def test_criterion_1_entropy_sums(acceptance_corpus):
    start = time.time()
    worst_core = worst_minmax = 0.0
    for w in acceptance_corpus:
        wd = ch.dual(w)
        fams = [en.VON_NEUMANN] + [en.petz_down(a) for a in (0.5, 0.75, 1.25, 1.5)]
        for fam in fams:
            rep = en.duality_check(w, fam, dual_channel=wd, check_disjointness=False)
            worst_core = max(worst_core, rep.gap)
        for fam in (en.MIN_ENTROPY, en.MAX_ENTROPY):
            rep = en.duality_check(w, fam, dual_channel=wd, check_disjointness=False)
            worst_minmax = max(worst_minmax, rep.gap)
    elapsed = time.time() - start
    ok = worst_core <= 1e-6 and worst_minmax <= 1e-4 and elapsed <= 60.0
    _report(
        1,
        ok,
        f"200 channels: core gap {worst_core:.2e} (tol 1e-6), "
        f"min/max gap {worst_minmax:.2e} (tol 1e-4), {elapsed:.1f}s (cap 60s)",
    )


# ---------------------------------------------------------------------------
# 2. guessing probability vs decoupling quality exchange
# ---------------------------------------------------------------------------


def test_criterion_2_guess_decouple_exchange(acceptance_corpus):
    worst = 0.0
    for w in acceptance_corpus:
        wd = ch.dual(w)
        p_w = en.guessing_prob(en.from_channel(w)).value
        q_wd = en.decoupling_q(en.from_channel(wd)).value
        q_w = en.decoupling_q(en.from_channel(w)).value
        p_wd = en.guessing_prob(en.from_channel(wd)).value
        worst = max(worst, abs(p_w - q_wd), abs(q_w - p_wd))
    ok = worst <= 1e-4
    _report(2, ok, f"max |P - Q| across 200 channels and both directions: {worst:.2e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 3. capacity sums for the BSC family
# ---------------------------------------------------------------------------


def test_criterion_3_capacity_sums():
    worst = 0.0
    for p in (0.05, 0.11, 0.25, 0.45):
        worst = max(worst, en.capacity_duality_check(ch.make_bsc(p)).gap)
    anchor = abs(en.capacity(ch.make_bsc(0.11)) - 0.50009)
    ok = worst <= 1e-8 and anchor <= 1e-4
    _report(3, ok, f"capacity sum gap {worst:.2e} (tol 1e-8), h2 anchor offset {anchor:.2e} (tol 1e-4)")


# ---------------------------------------------------------------------------
# 4. dispersion equality and the order-derivative identity
# ---------------------------------------------------------------------------


def test_criterion_4_dispersion(acceptance_corpus):
    worst = 0.0
    for w in acceptance_corpus:
        _, v = en.dispersion(en.from_channel(w))
        _, vd = en.dispersion(en.from_channel(ch.dual(w)))
        worst = max(worst, abs(v - vd))
    fd_worst = en.dispersion_derivative_gap(en.from_channel(ch.make_bsc(0.11)))
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        s = en.from_channel(corpus.random_channel(rng, 3))
        if en.dispersion(s)[1] > 1e-2:
            fd_worst = max(fd_worst, en.dispersion_derivative_gap(s))
    ok = worst <= 1e-5 and fd_worst <= 1e-3
    _report(
        4,
        ok,
        f"variance-dispersion dual gap {worst:.2e} (tol 1e-5), "
        f"derivative check rel err {fd_worst:.2e} (tol 1e-3)",
    )


# ---------------------------------------------------------------------------
# 5. convolution duality on 50 pairs, and the two-level trajectory check
# ---------------------------------------------------------------------------


def _symmetric_pool(seed, count):
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(count):
        style = i % 4
        if style == 0:
            pool.append(ch.make_bsc(float(rng.uniform(0.02, 0.5))))
        elif style == 1:
            pool.append(ch.make_bec(float(rng.uniform(0.05, 0.95))))
        elif style == 2:
            pool.append(ch.make_bsc_dual(float(rng.uniform(0.02, 0.5))))
        else:
            pool.append(corpus.random_symmetric_channel(rng, int(rng.integers(2, 4))))
    return pool


def test_criterion_5_convolution_duality():
    pool = _symmetric_pool(SEED, 100)
    worst = 0.0
    for i in range(50):
        rep = polar.convolution_duality_check(pool[2 * i], pool[2 * i + 1])
        worst = max(worst, rep.max_gap)
    traj_worst = 0.0
    for w in pool[:6]:
        for bits in ([0, 1], [1, 0], [1, 1]):
            traj_worst = max(traj_worst, polar.trajectory_duality_gap(w, bits))
    ok = worst <= 1e-6 and traj_worst <= 1e-5
    _report(
        5,
        ok,
        f"50 pairs, both convolution legs: gap {worst:.2e} (tol 1e-6); "
        f"two-level trajectory gap {traj_worst:.2e} (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# 6. polarization fractions at depth 16
# ---------------------------------------------------------------------------


def test_criterion_6_polarization():
    start = time.time()
    rep = polar.polarization_experiment(ch.make_bec(0.3), 16, 10_000, beta=0.4, seed=SEED)
    dual_rep = polar.polarization_experiment(
        ch.make_bec(0.7), 16, 10_000, beta=0.4, seed=SEED, complement=True
    )
    elapsed = time.time() - start
    ok = (
        abs(rep.frac_b_small - 0.70) <= 0.05
        and abs(dual_rep.frac_b_small - 0.30) <= 0.05
        and elapsed <= 10.0
    )
    _report(
        6,
        ok,
        f"good fraction {rep.frac_b_small:.4f} (0.70±0.05), "
        f"dual-complement fraction {dual_rep.frac_b_small:.4f} (0.30±0.05), "
        f"{elapsed:.1f}s (cap 10s)",
    )


# ---------------------------------------------------------------------------
# 7. coded entropy sums for the Hamming pair, with the dense oracle
# ---------------------------------------------------------------------------


def test_criterion_7_coded_sums():
    cp = codes.hamming74_pair()
    ana = cc.coded_duality_check(0.11, cp)
    q = ana.quantities
    gap_vn = abs(q["vn_sum"] - 4.0)
    gap_mm = max(abs(q["minmax_sum"] - 4.0), abs(q["maxmin_sum"] - 4.0))
    gap_vn2 = abs(q["vn_sum_2"] - 3.0)
    gap_mm2 = abs(q["minmax_sum_2"] - 3.0)
    srm_gap = max(q["srm_cross_gap"], q["srm_cross_gap_2"])
    # dense-matrix oracle at n = 7 against the Gram-only computation
    dual_cp = cp.dual()
    e = cc.dual_coded_ensemble(0.11, dual_cp, "deterministic")
    cols = cc.dual_coded_states_dense(0.11, dual_cp.codewords())
    dense = en.CqState(
        np.full(8, 1 / 8),
        tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(8)),
    )
    oracle_gap = abs(
        cc.ensemble_cond_entropy(e, en.VON_NEUMANN)
        - en.cond_entropy(dense, en.VON_NEUMANN)
    )
    ok = (
        gap_vn <= 1e-6
        and gap_mm <= 1e-5
        and gap_vn2 <= 1e-6
        and gap_mm2 <= 1e-5
        and srm_gap <= 1e-5
        and oracle_gap <= 1e-8
    )
    _report(
        7,
        ok,
        f"sum gaps vn {gap_vn:.2e}/{gap_vn2:.2e} (tol 1e-6), "
        f"min-max {gap_mm:.2e}/{gap_mm2:.2e} (tol 1e-5), "
        f"srm cross {srm_gap:.2e} (tol 1e-5), dense oracle {oracle_gap:.2e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 8. exhaustive blocklength sum rule
# ---------------------------------------------------------------------------


def test_criterion_8_blocklength_sums():
    start = time.time()
    src = en.from_channel(ch.make_bsc(0.11))
    bad = []
    for n in (2, 3, 4):
        tables = cc.compression_extraction_tables(src, n, seed=SEED)
        for eps in (0.2, 0.3, 0.5):
            m, l, total = cc.compression_extraction_bruteforce(src, n, eps, tables)
            if total != n:
                bad.append((n, eps, m, l))
    elapsed = time.time() - start
    ok = not bad and elapsed <= 120.0
    _report(
        8,
        ok,
        f"m + l = n exactly for n in 2..4, eps in {{0.2,0.3,0.5}} "
        f"(violations: {bad}), {elapsed:.1f}s (cap 120s)",
    )


# ---------------------------------------------------------------------------
# 9. EXIT-function sums
# ---------------------------------------------------------------------------


def test_criterion_9_exit_sums():
    cp = codes.hamming74_pair()
    worst_bec = 0.0
    for p in np.arange(0.1, 0.91, 0.1):
        worst_bec = max(worst_bec, cc.exit_duality_check(float(p), cp, channel_family="bec").gap)
    worst_bsc = 0.0
    for preset in ("rep31", "hamming74"):
        worst_bsc = max(
            worst_bsc,
            cc.exit_duality_check(0.11, codes.preset_pair(preset), channel_family="bsc").gap,
        )
    ok = worst_bec <= 1e-10 and worst_bsc <= 1e-6
    _report(
        9,
        ok,
        f"erasure-leg gap {worst_bec:.2e} (tol 1e-10), BSC-leg gap {worst_bsc:.2e} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# 10. finite-blocklength bounds
# ---------------------------------------------------------------------------


def test_criterion_10_blocklength_bounds():
    start = time.time()
    mc = fbl.bsc_metaconverse(500, 0.11, 1e-3)
    ua = fbl.bsc_union_achievability(500, 0.11, 1e-3)
    gap = mc - ua
    order_ok = True
    for c in fbl.compute_curves(range(100, 2001, 100), 0.11, 1e-3):
        order_ok &= c.metaconverse >= c.union_achievability
        order_ok &= c.extractor_upper >= c.extractor_lower
    beta_worst = 0.0
    for n in (6, 10, 12):
        outs = list(itertools.product((0, 1), repeat=n))
        pv = np.array([0.11 ** sum(o) * 0.89 ** (n - sum(o)) for o in outs])
        qv = np.full(len(outs), 2.0**-n)
        exact = en.np_beta(pv, qv, 1e-1)
        kern = 2.0 ** fbl.log2_beta_bsc(n, 0.11, 1e-1)
        beta_worst = max(beta_worst, abs(exact - kern) / exact)
    elapsed = time.time() - start
    ok = 0 <= gap <= 8.0 and order_ok and beta_worst <= 1e-12 and elapsed <= 60.0
    _report(
        10,
        ok,
        f"converse-achievability gap at n=500: {gap:.2f} bits (cap 8); orderings "
        f"{'hold' if order_ok else 'violated'} on 100..2000; beta kernel rel err "
        f"{beta_worst:.1e}; {elapsed:.1f}s (cap 60s)",
    )


# ---------------------------------------------------------------------------
# 11. state-level identities behind everything above
# ---------------------------------------------------------------------------


def test_criterion_11_state_identities(acceptance_corpus):
    worst_dis = worst_sum = 0.0
    for w in acceptance_corpus:
        rep = en.duality_check(w, en.VON_NEUMANN)
        worst_dis = max(worst_dis, rep.disjointness_gap)
        worst_sum = max(worst_sum, rep.gap)
    rng = np.random.default_rng(SEED)
    worst_struct = 0.0
    for _ in range(100):
        py = rng.dirichlet([1.0, 1.0])
        sigmas = [corpus.random_density(rng, 2) for _ in range(2)]
        worst_struct = max(worst_struct, cc.structured_state_gap(py, sigmas))
    ok = worst_dis <= 1e-9 and worst_sum <= 1e-6 and worst_struct < 1e-7
    _report(
        11,
        ok,
        f"conditional-state disjointness {worst_dis:.2e} (tol 1e-9), "
        f"uncertainty equality {worst_sum:.2e} (tol 1e-6), "
        f"shift-structured identity {worst_struct:.2e} (tol 1e-7, 100 instances)",
    )
