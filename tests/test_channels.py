import json
from dataclasses import fields

import numpy as np
import pytest

from cqdual import channels as ch
from cqdual import entropies as en
from cqdual.config import TOL
from cqdual.corpus import random_channel, random_density, random_symmetric_channel
from cqdual.linalg import fidelity, partial_trace, trace_distance


def test_bsc_noiseless_outputs():
    w = ch.make_bsc(0.0)
    assert np.allclose(w.outputs[0], np.diag([1.0, 0.0]))
    assert np.allclose(w.outputs[1], np.diag([0.0, 1.0]))


def test_bsc_dual_overlap():
    for p in (0.0, 0.11, 0.3, 0.5, 0.9):
        w = ch.make_bsc_dual(p)
        ov = abs(np.trace(w.outputs[0] @ w.outputs[1]).real)
        assert abs(np.sqrt(ov) - abs(1 - 2 * p)) < 1e-10


def test_bec_profile_entries():
    w = ch.make_bec(0.3)
    assert abs(trace_distance(w.outputs[0], w.outputs[1]) - 0.7) < 1e-12
    assert abs(fidelity(w.outputs[0], w.outputs[1]) - 0.3) < 1e-10


def test_profile_serializes_its_fields():
    prof = ch.invariant_profile(ch.make_bsc(0.11))
    assert set(prof.to_dict()) == {f.name for f in fields(prof) if f.repr}
    assert prof.as_array().shape == (5 + len(ch.PROFILE_ALPHAS),)


def test_parameter_range_rejected():
    with pytest.raises(ValueError):
        ch.make_bsc(1.2)
    with pytest.raises(ValueError):
        ch.make_bec(-0.1)


def test_bad_witness_rejected():
    out = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        ch.CqChannel(out, witnesses=(np.eye(2, dtype=complex),) * 2)


@pytest.mark.parametrize(
    "transition, symmetric",
    [
        ([[0.89, 0.11], [0.11, 0.89]], True),
        ([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]], True),
        ([[0.1, 0.4, 0.2, 0.3], [0.2, 0.3, 0.1, 0.4]], True),
        ([[0.5, 0.5], [0.5, 0.5]], True),
        ([[1.0, 0.0], [0.3, 0.7]], False),
        ([[0.2, 0.3, 0.5], [0.3, 0.1, 0.6]], False),
    ],
)
def test_classical_swap_witness(transition, symmetric):
    # the witness is checked by CqChannel itself; here only its presence
    w = ch.make_classical(transition)
    assert w.is_symmetric == symmetric
    if symmetric:
        assert np.array_equal(w.witnesses[0], np.eye(w.dim))


# ---------------------------------------------------------------------------
# channel state
# ---------------------------------------------------------------------------


def test_channel_state_recovers_outputs():
    w = ch.make_bsc(0.17)
    state = ch.channel_state(w)
    for z in range(2):
        assert np.max(np.abs(state.conditional_on_standard(z) - w.outputs[z])) < 1e-10


def test_channel_state_a_marginal_is_uniform(rng):
    w = random_channel(rng, 3)
    st = ch.channel_state(w)
    red = partial_trace(st.psi.amplitudes, st.dims, 0)
    assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-10


def test_channel_state_bec0_has_trivial_d():
    st = ch.channel_state(ch.make_bec(0.0))
    assert st.dims == (2, 3, 2, 1)


def test_state_disjointness(small_corpus):
    for w in small_corpus[:8]:
        assert en.state_disjointness_gap(w) <= 1e-12


# ---------------------------------------------------------------------------
# dual construction
# ---------------------------------------------------------------------------


def test_dual_bec_is_mirrored_bec():
    for p in (0.2, 0.5, 0.8):
        gap = ch.profile_gap(
            ch.invariant_profile(ch.dual(ch.make_bec(p))),
            ch.invariant_profile(ch.make_bec(1 - p)),
        )
        assert gap <= 1e-8


def test_dual_bsc_matches_pure_form():
    for p in (0.05, 0.11, 0.4):
        gap = ch.profile_gap(
            ch.invariant_profile(ch.dual(ch.make_bsc(p))),
            ch.invariant_profile(ch.make_bsc_dual(p)),
        )
        assert gap <= 1e-8


def test_dual_covariance_even_for_asymmetric_input():
    zch = ch.make_classical(np.array([[1.0, 0.0], [0.3, 0.7]]))
    wd = ch.dual(zch)
    assert wd.is_symmetric
    u = wd.witnesses[1]
    shifted = u @ wd.outputs[0] @ u.conj().T
    assert np.max(np.abs(shifted - wd.outputs[1])) <= 1e-9


def test_dual_of_degenerate_channel_is_noiseless(rng):
    rho = random_density(rng, 3)
    w = ch.CqChannel((rho, rho.copy()))
    wd = ch.dual(w)
    assert abs(trace_distance(wd.outputs[0], wd.outputs[1]) - 1.0) < 1e-9
    assert fidelity(wd.outputs[0], wd.outputs[1]) < 1e-7


def test_equivalent_channels_have_equivalent_duals(rng):
    w = random_channel(rng, 3)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(g)
    w2 = ch.CqChannel(tuple(u @ o @ u.conj().T for o in w.outputs))
    gap = ch.profile_gap(
        ch.invariant_profile(ch.dual(w)), ch.invariant_profile(ch.dual(w2))
    )
    assert gap <= 1e-7


def test_classical_dual_overlaps_bec():
    vals = ch.classical_dual_overlaps(ch.make_classical(
        np.array([[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])
    ))
    erase, keep0, keep1 = vals[2], vals[0], vals[1]
    assert abs(erase[0] - 0.3) < 1e-12 and abs(erase[1] - 0.0) < 1e-12
    for py, cos in (keep0, keep1):
        assert abs(py - 0.35) < 1e-12 and abs(cos - 1.0) < 1e-12


def test_classical_dual_overlaps_bsc():
    p = 0.23
    vals = ch.classical_dual_overlaps(ch.make_classical(
        np.array([[1 - p, p], [p, 1 - p]])
    ))
    for _, cos in vals:
        assert abs(cos - abs(1 - 2 * p)) < 1e-12


def test_classical_dual_block_structure():
    # dual of a classical channel: block diagonal over the recorded symbol,
    # with rank-one blocks Z^x |eta_y><eta_y| Z^-x of weight P_Y(y)
    q = 0.35
    t = np.array([[1.0, 0.0], [q, 1 - q]])
    w = ch.make_classical(t)
    wd = ch.dual(w)
    d, r = w.input_size, wd.dim // w.input_size
    etas = [np.sqrt(t[:, y] / 2.0).astype(complex) for y in range(r)]
    zop = np.diag([1.0, -1.0]).astype(complex)
    for x in range(2):
        expected = np.zeros((d * r, d * r), dtype=complex)
        for y in range(r):
            mod = np.linalg.matrix_power(zop, x) @ etas[y]
            block = np.outer(mod, mod.conj())
            for a in range(d):
                for b in range(d):
                    expected[a * r + y, b * r + y] = block[a, b]
        assert np.max(np.abs(wd.outputs[x] - expected)) <= 1e-9
    # the formula overlaps match the constructed block overlaps
    for (py, cos), eta in zip(ch.classical_dual_overlaps(w), etas):
        n2 = float(np.vdot(eta, eta).real)
        assert abs(n2 - py) < 1e-12
        got = abs(np.vdot(eta, zop @ eta)) / n2
        assert abs(got - cos) <= 1e-9


# ---------------------------------------------------------------------------
# symmetrize / double dual
# ---------------------------------------------------------------------------


def test_symmetrize_preserves_profile_of_symmetric(rng):
    w = random_symmetric_channel(rng, 3)
    gap = ch.profile_gap(
        ch.invariant_profile(ch.symmetrize(w)), ch.invariant_profile(w)
    )
    assert gap <= 1e-7


def test_symmetrize_keeps_conditional_entropy():
    zch = ch.make_classical(np.array([[1.0, 0.0], [0.3, 0.7]]))
    h1 = en.cond_entropy(en.from_channel(zch), en.VON_NEUMANN)
    h2 = en.cond_entropy(en.from_channel(ch.symmetrize(zch)), en.VON_NEUMANN)
    assert abs(h1 - h2) < 1e-10


def test_double_dual_is_symmetrization():
    from cqdual.corpus import binary_channel_corpus

    worst = 0.0
    for w in binary_channel_corpus(4242, 100, dims=(2, 3)):
        gap = ch.profile_gap(
            ch.invariant_profile(ch.dual(ch.dual(w))),
            ch.invariant_profile(ch.symmetrize(w)),
        )
        worst = max(worst, gap)
    assert worst <= 1e-7


# ---------------------------------------------------------------------------
# degrade / upgrade extremality
# ---------------------------------------------------------------------------


def test_degrade_bsc_fixed_point():
    _, c = ch.degrade_to_bsc(ch.make_bsc(0.2))
    assert abs(c - 0.2) < 1e-12


def test_degrade_pure_pair():
    _, c = ch.degrade_to_bsc(ch.make_bsc_dual(0.11))
    delta = 2 * np.sqrt(0.11 * 0.89)
    assert abs(delta - 0.6257795139) < 1e-9
    assert abs(c - 0.5 * (1 - delta)) < 1e-9


def test_degrade_bec():
    _, c = ch.degrade_to_bsc(ch.make_bec(0.4))
    assert abs(c - 0.2) < 1e-12


def test_upgrade_pure_is_fixed_point(rng):
    from cqdual.corpus import random_pure_vector

    w = ch.make_pure([random_pure_vector(rng, 2) for _ in range(2)])
    gap = ch.profile_gap(
        ch.invariant_profile(ch.upgrade_to_pure(w)), ch.invariant_profile(w)
    )
    assert gap <= 1e-7


def test_upgrade_bsc_overlap():
    up = ch.upgrade_to_pure(ch.make_bsc(0.11))
    b = fidelity(up.outputs[0], up.outputs[1])
    assert abs(b - 2 * np.sqrt(0.11 * 0.89)) < 1e-9


def test_extremality_chain(small_corpus):
    # upgrading W matches dualizing the BSC-degradation of the dual of W
    for w in small_corpus[:4]:
        classical, crossover = ch.degrade_to_bsc(ch.dual(w))
        lhs = ch.invariant_profile(ch.upgrade_to_pure(w))
        rhs = ch.invariant_profile(ch.dual(ch.make_bsc(crossover)))
        assert ch.profile_gap(lhs, rhs) <= 1e-7
        del classical


# ---------------------------------------------------------------------------
# profiles and delta = F(dual)
# ---------------------------------------------------------------------------


def test_profiles_match_reflexive():
    prof = ch.invariant_profile(ch.make_bsc(0.11))
    assert ch.profile_gap(prof, prof) <= TOL.profile_match


def test_profiles_match_relabeling():
    gap = ch.profile_gap(ch.invariant_profile(ch.make_bsc(0.1)),
                         ch.invariant_profile(ch.make_bsc(0.9)))
    assert gap <= TOL.profile_match


def test_profiles_distinguish_parameters():
    gap = ch.profile_gap(ch.invariant_profile(ch.make_bsc(0.1)),
                         ch.invariant_profile(ch.make_bsc(0.2)))
    assert gap > TOL.profile_match


def test_trace_distance_equals_dual_fidelity():
    for p in (0.11, 0.3):
        d, f = ch.trace_distance_vs_dual_fidelity(ch.make_bsc(p))
        assert abs(d - abs(1 - 2 * p)) < 1e-10
        assert abs(d - f) < 1e-8
    for p in (0.25, 0.6):
        d, f = ch.trace_distance_vs_dual_fidelity(ch.make_bec(p))
        assert abs(d - (1 - p)) < 1e-10
        assert abs(d - f) < 1e-8


def test_trace_distance_equals_dual_fidelity_random(rng):
    for _ in range(10):
        w = random_symmetric_channel(rng, 2)
        d, f = ch.trace_distance_vs_dual_fidelity(w)
        assert abs(d - f) < 1e-8


def test_trace_distance_equals_dual_fidelity_on_acceptance_corpus(acceptance_corpus):
    # fidelity drops the roundoff eigenvalues of Y†σY before their square
    # roots; two of 2.8e-18 and 1.3e-17 once added 5.3e-9 on channel 161
    gaps = [abs(d - f) for d, f in map(ch.trace_distance_vs_dual_fidelity, acceptance_corpus)]
    assert max(gaps) <= 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_channel_json_roundtrip_bit_exact(rng):
    w = random_symmetric_channel(rng, 3)
    doc = ch.channel_to_json(w)
    back = ch.channel_from_json(doc)
    for a, b in zip(w.outputs, back.outputs):
        assert (a == b).all()
    for a, b in zip(w.witnesses, back.witnesses):
        assert (a == b).all()
    assert json.loads(doc)["d"] == 2
    assert ch.channel_to_json(back) == doc


def test_channel_dict_holds_outputs_and_witnesses_only():
    base = {"schema", "d", "dim", "outputs"}
    assert set(ch.channel_to_dict(ch.make_bsc(0.11))) == base | {"witnesses"}
    assert set(ch.channel_to_dict(ch.dual(ch.make_bec(0.3)))) == base | {"witnesses"}
    assert set(ch.channel_to_dict(random_channel(np.random.default_rng(2), 3))) == base
