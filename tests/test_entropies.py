import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cqdual
from cqdual import channels as ch
from cqdual import entropies as en
from cqdual import polar
from cqdual.config import TOL
from cqdual.corpus import binary_channel_corpus, random_channel, random_density
from cqdual.linalg import fidelity, partial_trace, tensor


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_from_channel_defaults_uniform():
    s = en.from_channel(ch.make_bsc(0.11))
    assert np.allclose(s.prior, [0.5, 0.5])
    assert np.allclose(s.conditionals[0], np.diag([0.89, 0.11]))


def test_from_channel_explicit_prior():
    s = en.from_channel(ch.make_bsc(0.11), prior=[0.6, 0.4])
    assert np.allclose(s.prior, [0.6, 0.4])
    with pytest.raises(ValueError):
        en.from_channel(ch.make_bsc(0.11), prior=[1.0])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _from_channel_cases():
    rng = np.random.default_rng(1701)
    chans = binary_channel_corpus(20240811, 24) + [random_channel(rng, 3) for _ in range(4)]
    for w in chans:
        yield w, None
        yield w, rng.dirichlet(np.ones(w.input_size))


def test_from_channel_matches_the_validating_constructor():
    # from_channel shares the channel's validated outputs instead of
    # re-validating them; the state must be the one CqState builds, bit for bit
    for w, prior in _from_channel_cases():
        p = np.full(w.input_size, 1.0 / w.input_size) if prior is None else prior
        fast, slow = en.from_channel(w, prior), en.CqState(p, w.outputs)
        assert np.array_equal(fast.prior, slow.prior) and _same_bits(fast.prior, slow.prior)
        assert len(fast.conditionals) == len(slow.conditionals)
        for a, b in zip(fast.conditionals, slow.conditionals):
            assert np.array_equal(a, b) and _same_bits(a, b)
        for a, b in zip(fast._spectra, slow._spectra, strict=True):
            assert _same_bits(a, b)
        assert not fast.prior.flags.writeable
        assert not any(c.flags.writeable for c in slow.conditionals)


def test_from_channel_shares_the_read_only_outputs():
    w = ch.make_bsc_dual(0.11)
    s = en.from_channel(w)
    assert all(c is o for c, o in zip(s.conditionals, w.outputs))
    assert s._spectra is w._spectra
    with pytest.raises(ValueError, match="read-only"):
        s.conditionals[0][0, 0] = 1.0


@pytest.mark.parametrize(
    "prior, message",
    [
        ([1.5, -0.5], "negative prior probability"),
        ([0.6, 0.6], "prior sums to 1.2, not 1 within 1e-12"),
        ([0.5, 0.25, 0.25], "prior length 3 != input alphabet 2"),
    ],
)
def test_from_channel_refuses_a_bad_prior(prior, message):
    w = ch.make_bsc(0.11)
    with pytest.raises(ValueError, match=re.escape(message)):
        en.from_channel(w, prior)
    if len(prior) == w.input_size:  # the constructor's own checks, same message
        with pytest.raises(ValueError, match=re.escape(message)):
            en.CqState(np.asarray(prior), w.outputs)


def test_from_channel_runs_no_eigensolver(monkeypatch):
    chans = [w for w, _ in _from_channel_cases()]
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for w in chans:
        en.from_channel(w)
        en.from_channel(w, np.full(w.input_size, 1.0 / w.input_size))
    assert calls == []
    en.CqState(np.array([0.5, 0.5]), chans[0].outputs)  # the counter counts
    assert calls == ["eigvalsh", "eigvalsh"]


def test_cq_state_refuses_non_hermitian_and_negative_conditionals():
    ok = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="not Hermitian"):
        en.CqState(np.array([0.5, 0.5]), (ok, np.array([[0.5, 0.5], [0.0, 0.5]])))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        en.CqState(np.array([0.5, 0.5]), (ok, np.diag([1.5, -0.5]).astype(complex)))


def test_vn_cond_entropy_bsc():
    s = en.from_channel(ch.make_bsc(0.11))
    val = en.cond_entropy(s, en.VON_NEUMANN)
    assert abs(val - h2(0.11)) < 1e-12
    assert abs(val - 0.49991) < 1e-5


def test_vn_cond_entropy_bec():
    s = en.from_channel(ch.make_bec(0.37))
    assert abs(en.cond_entropy(s, en.VON_NEUMANN) - 0.37) < 1e-12


def test_petz_continuity_at_one(rng):
    w = random_channel(rng, 3)
    s = en.from_channel(w)
    vn = en.cond_entropy(s, en.VON_NEUMANN)
    for a in (1 - 1e-4, 1 + 1e-4):
        assert abs(en.cond_entropy(s, en.petz_down(a)) - vn) < 1e-3


def test_petz_alpha_validation():
    with pytest.raises(ValueError):
        en.petz_down(0.0)
    with pytest.raises(ValueError):
        en.petz_down(2.5)
    assert en.petz_down(2.0).alpha == 2.0


def test_petz_monotone_in_alpha(rng):
    for _ in range(5):
        s = en.from_channel(random_channel(rng, 3))
        alphas = (0.3, 0.6, 0.9, 1.1, 1.5, 2.0)
        vals = en.petz_curve(s, alphas)
        for lo, hi in zip(vals, vals[1:]):
            assert lo >= hi - 1e-10


# ---------------------------------------------------------------------------
# guessing probability and decoupling quality
# ---------------------------------------------------------------------------


def test_guessing_bsc():
    for p in (0.0, 0.11, 0.5):
        res = en.guessing_prob(en.from_channel(ch.make_bsc(p)))
        assert res.exact
        assert abs(res.value - (1 - min(p, 1 - p))) < 1e-12


def test_guessing_bec():
    res = en.guessing_prob(en.from_channel(ch.make_bec(0.4)))
    assert abs(res.value - 0.8) < 1e-12


def test_guessing_pure_pair():
    res = en.guessing_prob(en.from_channel(ch.make_bsc_dual(0.11)))
    assert abs(res.value - 0.5 * (1 + 0.6257795139)) < 1e-9
    assert abs(res.value - 0.81289) < 1e-5


def test_guessing_three_symbols_flagged(rng):
    s = en.CqState(np.full(3, 1 / 3), tuple(random_density(rng, 2) for _ in range(3)))
    res = en.guessing_prob(s)
    assert not res.exact and res.method == "srm"
    assert 1 / 3 <= res.value <= 1.0


def test_decoupling_identical_conditionals(rng):
    rho = random_density(rng, 3)
    s = en.CqState(np.array([0.5, 0.5]), (rho, rho.copy()))
    assert abs(en.decoupling_q(s).value - 1.0) < 1e-9


def test_decoupling_orthogonal_pure_bloch_grid_oracle():
    # brute-force grid over the Bloch ball as an independent oracle
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    s = en.CqState(np.array([0.5, 0.5]), (z0, z1))
    q = en.decoupling_q(s).value
    assert abs(q - 0.5) < 1e-9
    best = 0.0
    paulis = [
        np.array([[0, 1], [1, 0]], complex),
        np.array([[0, -1j], [1j, 0]], complex),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    for th in np.linspace(0, np.pi, 25):
        for phi in np.linspace(0, 2 * np.pi, 50):
            for r in np.linspace(0, 1, 21):
                nvec = r * np.array(
                    [np.sin(th) * np.cos(phi), np.sin(th) * np.sin(phi), np.cos(th)]
                )
                sig = 0.5 * (np.eye(2) + sum(c * pm for c, pm in zip(nvec, paulis)))
                g = 0.5 * (fidelity(z0, sig) + fidelity(z1, sig))
                best = max(best, g * g)
    assert q >= best - 1e-9
    assert abs(q - best) < 1e-3  # grid resolution


def test_decoupling_bec_closed_form():
    # optimum sigma is diagonal by symmetry; maximizing the two-branch
    # fidelity sum gives Q = (1 + p) / 2
    for p in (0.2, 0.5, 0.8):
        q = en.decoupling_q(en.from_channel(ch.make_bec(p))).value
        assert abs(q - (1 + p) / 2) < 1e-9


def test_decoupling_drops_a_zero_prior_conditional_outside_the_support():
    # |-> has prior 0 and lies outside the support |+> of the average state,
    # so projecting it would leave a conditional of trace 0
    s = np.sqrt(0.5)
    state = en.from_channel(ch.make_pure([np.array([s, s]), np.array([s, -s])]), [1.0, 0.0])
    assert abs(en.cond_entropy(state, en.MAX_ENTROPY)) < 1e-12
    assert abs(en.cond_entropy(state, en.MIN_ENTROPY)) < 1e-12


def test_decoupling_q_deterministic_and_flagged(rng):
    s = en.from_channel(random_channel(rng, 3))
    a = en.decoupling_q(s)
    b = en.decoupling_q(s)
    assert a.value == b.value
    assert a.converged


def test_ascent_recovers_from_eigensolver_failure(rng, monkeypatch):
    # the LAPACK fallback in linalg._eigh must leave the ascent's value unchanged
    s = en.from_channel(random_channel(rng, 3))
    factors = [en._factorize(c) for c in s.conditionals]
    coeffs = [np.sqrt(0.25)] * 2
    clean = en.max_fidelity_sum(factors, coeffs)
    orig = np.linalg.eigh
    calls = []

    def flaky(a):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return orig(a)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    patched = en.max_fidelity_sum(factors, coeffs)
    assert len(calls) > 1
    assert abs(patched.value - clean.value) < 1e-12
    assert patched.converged == clean.converged


@pytest.mark.parametrize("s", [0.0, 0.02, 0.05, 0.1, 0.3, 0.6])
def test_ascent_bracket_holds_pure_pair_oracle(s):
    # two pure qubit states with overlap s, equal weights: the optimal sigma is
    # the pure state on their bisector, with value sqrt((1 + s) / 2)
    a = np.array([[1.0], [0.0]], dtype=complex)
    b = np.array([[s], [np.sqrt(1.0 - s * s)]], dtype=complex)
    res = en.max_fidelity_sum([a, b], [0.5, 0.5])
    oracle = np.sqrt((1.0 + s) / 2.0)
    assert res.upper is not None
    assert res.value <= oracle + 1e-13 <= res.upper + 2e-13
    assert res.upper - res.value <= TOL.ascent_value
    assert abs(res.value - oracle) <= 1e-13


def _random_ascent_problem(r, dim, num_ops):
    factors, coeffs = [], []
    for _ in range(num_ops):
        rank = int(r.integers(1, dim + 1))
        y = r.normal(size=(dim, rank)) + 1j * r.normal(size=(dim, rank))
        scale = 1.0 if r.random() < 0.5 else r.uniform(0.2, 1.0)  # some subnormalized
        factors.append(np.sqrt(scale) * y / np.linalg.norm(y))
        coeffs.append(r.uniform(0.1, 1.0))
    return factors, coeffs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 4))
def test_ascent_bracket_is_certified(seed, dim, num_ops):
    r = np.random.default_rng(seed)
    factors, coeffs = _random_ascent_problem(r, dim, num_ops)
    res = en.max_fidelity_sum(factors, coeffs)
    if res.upper is not None:
        assert res.value <= res.upper + 1e-12
        for _ in range(3):
            tau = random_density(r, dim)
            objective = sum(c * fidelity(y @ y.conj().T, tau) for c, y in zip(coeffs, factors))
            assert objective <= res.upper + 1e-12
    closed = res.upper is not None and res.upper - res.value <= TOL.ascent_value
    assert res.converged == closed
    if num_ops == 2:
        # Uhlmann: the optimum is sqrt(c0^2 |Y0|^2 + c1^2 |Y1|^2 + 2 c0 c1 |Y0† Y1|_1)
        (y0, y1), (c0, c1) = factors, coeffs
        cross = np.linalg.svd(y0.conj().T @ y1, compute_uv=False).sum()
        optimum = np.sqrt(c0**2 * np.linalg.norm(y0) ** 2 + c1**2 * np.linalg.norm(y1) ** 2
                          + 2 * c0 * c1 * cross)
        assert abs(res.value - optimum) <= 1e-12
        assert res.converged and res.restarts == 1



@pytest.mark.parametrize("seed, dim", [(74, 6), (252, 5), (462, 6), (780, 4)])
def test_two_label_start_certifies_near_rank_deficient_optimum(seed, dim):
    # sigma* is full rank here, with least eigenvalue 2-4e-6, and its own bound
    # sits 1e-8 to 1e-7 above the value; the bound at sigma_delta closes it
    factors, coeffs = _random_ascent_problem(np.random.default_rng(seed), dim, 2)
    res = en.max_fidelity_sum(factors, coeffs)
    assert res.converged and res.restarts == 1 and res.iterations == 0

def test_ascent_certified_stop_skips_burst_and_restarts():
    res = en.decoupling_q(en.from_channel(ch.dual(ch.make_bsc(0.11))))
    assert res.restarts == 1
    assert res.iterations < 80  # the rescue burst alone runs 80 steps
    assert res.value <= res.upper <= res.value + 1e-9


def test_ascent_without_bound_falls_back(rng, monkeypatch):
    # a failing lambda_max solve only removes the bound, never the result
    s = en.from_channel(random_channel(rng, 3))
    factors = [en._factorize(c) for c in s.conditionals]
    coeffs = [np.sqrt(0.25)] * 2
    certified = en.max_fidelity_sum(factors, coeffs)

    def broken(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    plain = en.max_fidelity_sum(factors, coeffs)
    assert plain.upper is None and not plain.converged
    assert abs(plain.value - certified.value) < 1e-9


def test_ascent_fallback_on_open_brackets():
    # criterion 5's pool[2]: its brackets do not close, so the rescue burst
    # and the stall rule decide the stop
    gap = polar.trajectory_duality_gap(ch.make_bsc_dual(0.4894482978221381), [0, 1])
    assert gap <= 1e-5


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_table_kernel_matches_dense_path(seed, num_outputs):
    # a classical channel conjugated by one unitary keeps every entropy but
    # sends the state down the dense spectral path
    r = np.random.default_rng(seed)
    t = r.random(size=(2, num_outputs)) + 0.05
    t /= t.sum(axis=1, keepdims=True)
    joint = 0.5 * t
    u, _ = np.linalg.qr(r.normal(size=(num_outputs,) * 2) + 1j * r.normal(size=(num_outputs,) * 2))
    dense = en.CqState(np.array([0.5, 0.5]), tuple(u @ np.diag(row) @ u.conj().T for row in t))
    assert en._classical_joint(dense) is None
    for fam in (en.VON_NEUMANN, en.petz_down(0.5), en.petz_down(1.5), en.MIN_ENTROPY):
        assert abs(en.table_entropy(joint, fam) - en.cond_entropy(dense, fam)) < 1e-10
    assert abs(en.table_entropy(joint, en.MAX_ENTROPY) - en.cond_entropy(dense, en.MAX_ENTROPY)) < 1e-8



def test_table_decoupling_clips_rounding_negatives():
    # an entry rounded just below zero counts as zero; a truly negative or NaN
    # entry is refused, not turned into a certain Q = 1 through sqrt's NaN
    clipped = en._table_decoupling(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert clipped == 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert en._table_decoupling(np.array([[0.5, -1e-16], [0.0, 0.5]])) == clipped
    for bad in (-1e-3, np.nan):
        with pytest.raises(ValueError, match="negative entry"):
            en._table_decoupling(np.array([[0.5, bad], [0.0, 0.5]]))


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


def test_dispersion_noiseless_channel():
    _, var = en.dispersion(en.from_channel(ch.make_bsc(0.0)))
    assert abs(var) < 1e-12


def test_dispersion_bsc_analytic():
    p = 0.11
    second, var = en.dispersion(en.from_channel(ch.make_bsc(p)))
    expected_var = p * (1 - p) * np.log2((1 - p) / p) ** 2
    assert abs(var - expected_var) < 1e-10
    assert abs(var - 0.8907) < 1e-4
    expected_second = (1 - p) * np.log2(1 - p) ** 2 + p * np.log2(p) ** 2
    assert abs(second - expected_second) < 1e-10


def test_dispersion_derivative_identity(rng):
    s = en.from_channel(ch.make_bsc(0.11))
    assert en.dispersion_derivative_gap(s) < 1e-3
    for _ in range(5):
        s = en.from_channel(random_channel(rng, 3))
        if en.dispersion(s)[1] > 1e-2:
            assert en.dispersion_derivative_gap(s) < 1e-3


def test_second_moment_not_dual_invariant():
    # regression: only the variance form carries over to the dual; the raw
    # second moments differ by the square-entropy mismatch
    w = ch.make_bsc(0.2)
    s, sd = en.from_channel(w), en.from_channel(ch.dual(w))
    m1, v1 = en.dispersion(s)
    m2, v2 = en.dispersion(sd)
    assert abs(v1 - v2) < 1e-8
    assert abs(m1 - m2) > 0.4


# ---------------------------------------------------------------------------
# duality checks
# ---------------------------------------------------------------------------


def test_duality_check_bsc_von_neumann():
    rep = en.duality_check(ch.make_bsc(0.11), en.VON_NEUMANN)
    assert abs(rep.lhs - h2(0.11)) < 1e-10
    assert abs(rep.rhs - (1 - h2(0.11))) < 1e-6
    assert rep.gap < 1e-10
    assert rep.disjointness_gap < 1e-12


def test_duality_check_bec_min_max():
    p = 0.3
    rep = en.duality_check(ch.make_bec(p), en.MIN_ENTROPY)
    assert abs(rep.lhs + np.log2(1 - p / 2)) < 1e-12
    assert rep.gap < 1e-8


def test_duality_check_petz_pair_random(small_corpus):
    for w in small_corpus[:10]:
        for a in (0.5, 1.5):
            rep = en.duality_check(w, en.petz_down(a))
            assert rep.dual_side_family.alpha == 2.0 - a
            assert rep.gap < 1e-7


def test_duality_check_refuses_min_max_beyond_binary_input():
    # for three inputs guessing_prob falls back to the square-root
    # measurement, which is not optimal, so the min/max sums are refused
    w = random_channel(np.random.default_rng(1), 2, d=3)
    for fam in (en.MIN_ENTROPY, en.MAX_ENTROPY):
        with pytest.raises(cqdual.Unsupported, match="binary input only"):
            en.duality_check(w, fam)
    assert en.duality_check(w, en.VON_NEUMANN).gap < 1e-6


def test_duality_report_serialization():
    rep = en.duality_check(ch.make_bsc(0.2), en.MIN_ENTROPY)
    doc = rep.to_dict()
    assert doc["family"] == "min" and doc["dual_family"] == "max"
    assert set(doc) >= {"lhs", "rhs", "sum", "target", "gap"}


def test_capacity_bsc_and_bec():
    assert abs(en.capacity(ch.make_bsc(0.11)) - (1 - h2(0.11))) < 1e-12
    assert abs(en.capacity(ch.make_bec(0.25)) - 0.75) < 1e-12


def test_capacity_requires_witnesses(rng):
    with pytest.raises(ValueError):
        en.capacity(random_channel(rng, 2))


def test_capacity_duality(small_corpus):
    for p in (0.05, 0.11, 0.25, 0.45):
        assert en.capacity_duality_check(ch.make_bsc(p)).gap < 1e-8


# ---------------------------------------------------------------------------
# data processing and composite systems
# ---------------------------------------------------------------------------


def test_data_processing_under_partial_trace(rng):
    for _ in range(5):
        conds = tuple(
            tensor(random_density(rng, 2), random_density(rng, 2)) for _ in range(2)
        )
        # correlate the two factors so tracing genuinely loses information
        conds = tuple(0.7 * c + 0.3 * random_density(rng, 4) for c in conds)
        joint = en.CqState(np.array([0.5, 0.5]), conds)
        reduced = en.CqState(
            joint.prior, tuple(partial_trace(c, (2, 2), 0) for c in conds)
        )
        for fam in (en.VON_NEUMANN, en.MIN_ENTROPY):
            assert (
                en.cond_entropy(reduced, fam)
                >= en.cond_entropy(joint, fam) - 1e-9
            )


# ---------------------------------------------------------------------------
# classical hypothesis testing
# ---------------------------------------------------------------------------


def test_np_beta_identical_distributions():
    p = np.array([0.3, 0.7])
    for eps in (0.0, 0.25, 0.9):
        assert abs(en.np_beta(p, p, eps) - (1 - eps)) < 1e-12


def test_np_beta_point_mass_vs_uniform():
    assert abs(en.np_beta([1.0, 0.0], [0.5, 0.5], 0.0) - 0.5) < 1e-15


def test_np_beta_fractional_boundary():
    # accept half of the second atom: beta = q1 + 0.5 q2
    p = np.array([0.5, 0.5])
    q = np.array([0.1, 0.9])
    assert abs(en.np_beta(p, q, 0.25) - (0.1 + 0.5 * 0.9)) < 1e-12


def test_np_beta_product_matches_exhaustive():
    n, p, eps = 10, 0.11, 0.1
    outs = list(itertools.product([0, 1], repeat=n))
    pvec = np.array([p ** sum(o) * (1 - p) ** (n - sum(o)) for o in outs])
    qvec = np.array([0.5**n] * len(outs))
    got = en.np_beta(pvec, qvec, eps)
    # independent oracle: optimal tests accept whole weight classes in order
    lows = []
    for t in range(n + 1):
        cnt = len([o for o in outs if sum(o) == t])
        lows.append((p**t * (1 - p) ** (n - t), cnt))
    need, beta = 1 - eps, 0.0
    for w, cnt in lows:
        take = min(cnt, need / w) if w > 0 else 0
        beta += take * 0.5**n
        need -= min(cnt * w, need)
        if need <= 1e-15:
            break
    assert abs(got - beta) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 0.95))
def test_np_beta_monotone_in_eps(seed, eps):
    r = np.random.default_rng(seed)
    p = r.dirichlet(np.ones(6))
    q = r.dirichlet(np.ones(6))
    assert en.np_beta(p, q, eps) >= en.np_beta(p, q, min(eps + 0.04, 0.99)) - 1e-12
