from dataclasses import fields

import numpy as np
import pytest

from cqdual import channels as ch
from cqdual import entropies as en
from cqdual import polar
from cqdual.corpus import random_channel, random_pure_vector, random_symmetric_channel
from cqdual.linalg import fidelity


def test_bec_check_and_variable_close_in_family():
    p = 0.35
    wc = polar.convolve(ch.make_bec(p), ch.make_bec(p), polar.CHECK)
    wv = polar.convolve(ch.make_bec(p), ch.make_bec(p), polar.VARIABLE)
    assert ch.profile_gap(
        ch.invariant_profile(wc), ch.invariant_profile(ch.make_bec(2 * p - p * p))
    ) <= 1e-8
    assert ch.profile_gap(
        ch.invariant_profile(wv), ch.invariant_profile(ch.make_bec(p * p))
    ) <= 1e-8


def test_variable_bhattacharyya_multiplicative(rng):
    w = ch.make_pure([random_pure_vector(rng, 2) for _ in range(2)])
    wp = ch.make_pure([random_pure_vector(rng, 3) for _ in range(2)])
    conv = polar.convolve(w, wp, polar.VARIABLE)
    b = fidelity(conv.outputs[0], conv.outputs[1])
    b1 = fidelity(w.outputs[0], w.outputs[1])
    b2 = fidelity(wp.outputs[0], wp.outputs[1])
    assert abs(b - b1 * b2) < 1e-9


def test_bsc_worse_profile():
    p = 0.2
    worse = polar.worse(ch.make_bsc(p), ch.make_bsc(p))
    target = ch.make_bsc(2 * p * (1 - p))
    assert ch.profile_gap(
        ch.invariant_profile(worse), ch.invariant_profile(target)
    ) <= 1e-8


def test_bec_half_better_worse():
    w = ch.make_bec(0.5)
    assert ch.profile_gap(
        ch.invariant_profile(polar.better(w, w)), ch.invariant_profile(ch.make_bec(0.25))
    ) <= 1e-8
    assert ch.profile_gap(
        ch.invariant_profile(polar.worse(w, w)), ch.invariant_profile(ch.make_bec(0.75))
    ) <= 1e-8


def test_better_requires_witnesses(rng):
    w = random_channel(rng, 2)
    with pytest.raises(ValueError):
        polar.better(w, w)


def test_entropy_conservation_symmetric(rng):
    for _ in range(5):
        w = random_symmetric_channel(rng, 3)
        h = en.cond_entropy(en.from_channel(w), en.VON_NEUMANN)
        hc = en.cond_entropy(
            en.from_channel(polar.convolve(w, w, polar.CHECK)), en.VON_NEUMANN
        )
        hv = en.cond_entropy(
            en.from_channel(polar.convolve(w, w, polar.VARIABLE)), en.VON_NEUMANN
        )
        assert abs(hc + hv - 2 * h) < 1e-7


# ---------------------------------------------------------------------------
# convolution duality
# ---------------------------------------------------------------------------


def test_convolution_duality_bec_pair():
    rep = polar.convolution_duality_check(ch.make_bec(0.4), ch.make_bec(0.4))
    assert rep.max_gap <= 1e-6


def test_convolution_duality_bsc_pair():
    rep = polar.convolution_duality_check(ch.make_bsc(0.11), ch.make_bsc(0.3))
    assert rep.max_gap <= 1e-6


def test_convolution_duality_pure_with_classical(rng):
    w = ch.make_pure([random_pure_vector(rng, 2) for _ in range(2)])
    wp = ch.make_classical(np.array([[0.8, 0.1, 0.1], [0.2, 0.5, 0.3]]))
    rep = polar.convolution_duality_check(w, wp)
    assert rep.max_gap <= 1e-6


def test_check_to_variable_direction_needs_no_symmetry(rng):
    # this leg rests only on the automatic covariance of dual channels
    for _ in range(3):
        w, wp = random_channel(rng, 2), random_channel(rng, 3)
        rep = polar.convolution_duality_check(w, wp)
        assert rep.check_to_variable_gap <= 1e-6


def test_variable_to_check_direction_needs_symmetry(rng):
    # regression: self-convolving a non-symmetric channel breaks this leg
    w = random_channel(np.random.default_rng(0), 2)
    rep = polar.convolution_duality_check(w, w)
    assert rep.variable_to_check_gap > 1e-3
    assert rep.check_to_variable_gap <= 1e-6


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_bec_trajectory_levels():
    traj = polar.trajectory(ch.make_bec(0.5), [0, 1])
    assert [round(s.h, 6) for s in traj.levels] == [0.25, 0.4375]


def test_trajectory_raises_at_the_dimension_cap():
    # dual(BEC(0.3)) reaches dim 196 by level 2, and 196^2 > DIM_CAP
    with pytest.raises(ValueError, match=r"dimension cap after level 2 of 3 \(dim 196\)"):
        polar.trajectory(ch.dual(ch.make_bec(0.3)), [0, 1, 0])


def test_trajectory_pure_channel_multiplicativity(rng):
    w = ch.make_pure([random_pure_vector(rng, 2) for _ in range(2)])
    b = fidelity(w.outputs[0], w.outputs[1])
    traj = polar.trajectory(w, [0, 0])
    assert abs(traj.levels[-1].bhattacharyya - b**4) < 1e-8


def test_bec_scalar_matches_generic_path():
    # the same transition probabilities pushed through the dense matrix
    # machinery must reproduce the scalar recursion at every level
    p = 0.45
    scalar = polar.trajectory(ch.make_bec(p), [0, 1, 1, 0])
    generic = polar._dense_trajectory(
        ch.make_classical(np.array([[1 - p, 0, p], [0, 1 - p, p]])), (0, 1, 1, 0)
    )
    for a, b in zip(scalar.levels, generic.levels):
        assert abs(a.h - b.h) < 1e-9
        assert abs(a.hmin - b.hmin) < 1e-9
        assert abs(a.hmax - b.hmax) < 1e-9
        assert abs(a.bhattacharyya - b.bhattacharyya) < 1e-9
        assert b.truncation_error <= 1e-11


def test_erasure_path_follows_the_outputs_not_the_label():
    # a channel file with the label keys of older files, kind and params,
    # saying BEC(0.3) over the outputs of BSC(0.11)
    doc = ch.channel_to_dict(ch.make_bsc(0.11))
    doc.update(kind="bec", params={"p": 0.3})
    mislabelled = polar.trajectory(ch.channel_from_dict(doc), [0, 1])
    real = polar.trajectory(ch.make_bsc(0.11), [0, 1])
    assert mislabelled.levels == real.levels
    # an erasure channel without the label still takes the exact scalar path
    unlabelled = polar.trajectory(ch.make_classical([[0.7, 0, 0.3], [0, 0.7, 0.3]]), [0, 1])
    assert unlabelled.levels == polar.trajectory(ch.make_bec(0.3), [0, 1]).levels


def test_trajectory_duality_small(rng):
    channels = [
        ch.make_bsc(0.11),
        ch.make_bec(0.4),
        random_symmetric_channel(rng, 2),
    ]
    for w in channels:
        for bits in ([0, 1], [1, 1]):
            assert polar.trajectory_duality_gap(w, bits) <= 1e-5


def _no_stats(*args, **kwargs):
    raise AssertionError("level statistics computed")


@pytest.mark.parametrize("make, bits", [
    (lambda: ch.make_bsc(0.11), [1, 1]),
    (lambda: random_symmetric_channel(np.random.default_rng(3), 2), [1, 0]),
], ids=["bsc", "random_symmetric"])
def test_trajectory_duality_gap_reads_only_the_final_channels(monkeypatch, make, bits):
    # the gap compares two final channels; no level's statistics enter it,
    # and skipping them leaves the value unchanged to the last bit
    w = make()
    gap = polar.trajectory_duality_gap(w, bits)
    monkeypatch.setattr(polar, "_channel_stats", _no_stats)
    assert polar.trajectory_duality_gap(w, bits) == gap


def test_truncation_keeps_outputs_and_reports_the_worst_loss():
    # symbol 2 is below the rank cut on average; only output 0 loses its mass
    w = ch.make_classical(np.array([[1 - 1e-13, 0.0, 1e-13], [0.0, 1.0, 0.0]]))
    cut, lost = polar._truncate_to_joint_support(w)
    assert cut.dim == 2 and cut.witnesses is None
    assert lost == pytest.approx(1e-13, rel=1e-3)


def test_trajectory_level_cap(rng):
    with pytest.raises(ValueError):
        polar.trajectory(random_channel(rng, 2), [0] * 7)


def test_bhattacharyya_bridges(small_corpus):
    for w in small_corpus[:12]:
        s = en.from_channel(w)
        hmin = en.cond_entropy(s, en.MIN_ENTROPY)
        b = fidelity(w.outputs[0], w.outputs[1])
        assert hmin <= b + 1e-9
        assert hmin >= b * b / 4 - 1e-9


def test_fidelity_uncertainty(small_corpus):
    for w in small_corpus[:12]:
        wd = ch.dual(w)
        b = fidelity(w.outputs[0], w.outputs[1])
        bd = fidelity(wd.outputs[0], wd.outputs[1])
        assert b + bd >= 1 - 1e-9


# ---------------------------------------------------------------------------
# polarization experiments
# ---------------------------------------------------------------------------


def test_polarization_deterministic_per_seed():
    a = polar.polarization_experiment(ch.make_bec(0.3), 12, 500, seed=9)
    b = polar.polarization_experiment(ch.make_bec(0.3), 12, 500, seed=9)
    assert a.frac_b_small == b.frac_b_small
    assert np.array_equal(a.final_b, b.final_b)


def test_polarization_complement_mirrors_dual():
    # same seed, complemented sequences on the dual erasure channel reproduce
    # exactly the complements of the primal trajectories
    a = polar.polarization_experiment(ch.make_bec(0.3), 10, 400, seed=5)
    b = polar.polarization_experiment(
        ch.make_bec(0.7), 10, 400, seed=5, complement=True
    )
    assert np.max(np.abs(a.final_b - b.final_b_complement)) < 1e-12
    # independently of that recursion, the dual run's own B(W_n dual) is 1 - B(W_n)
    assert np.max(np.abs(a.final_b - (1.0 - b.final_b))) < 1e-12


def _fractions(stats, f):
    hmin = np.array([s.hmin for s in stats])
    hmax = np.array([s.hmax for s in stats])
    b = np.array([s.bhattacharyya for s in stats])
    return [
        float(np.mean(hmin <= f)), float(np.mean(hmax >= 1.0 - f)),
        float(np.mean(b <= f)), float(np.mean(b >= 1.0 - f)),
        float(np.mean(b <= f)), float(np.mean(b <= 2.0 * np.sqrt(f))),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polarization_fractions_come_from_each_trajectory(n):
    # every fraction is a statistic of W_n: the experiment must agree with
    # the last level of each trial's own trajectory, scalar and dense alike
    p, trials, seed = 0.45, 24, 11
    rep = polar.polarization_experiment(ch.make_bec(p), n, trials, seed=seed)
    got = [rep.frac_hmin_small, rep.frac_hmax_large, rep.frac_b_small,
           rep.frac_b_large, rep.bridge_hmin_lower, rep.bridge_hmin_upper]
    bits = polar._sequence_bits(trials, n, seed)
    scalar = [polar.trajectory(ch.make_bec(p), row).levels[-1] for row in bits]
    assert got == _fractions(scalar, rep.threshold)
    table = ch.make_classical(np.array([[1 - p, 0, p], [0, 1 - p, p]]))
    dense = [polar._dense_trajectory(table, tuple(int(b) for b in row)).levels[-1] for row in bits]
    assert got == _fractions(dense, rep.threshold)


def test_dense_polarization_takes_statistics_of_w_n_only(monkeypatch):
    n, trials, seed = 3, 40, 2
    stats = polar._channel_stats
    calls = []

    def counted(w):
        calls.append(w)
        return stats(w)

    monkeypatch.setattr(polar, "_channel_stats", counted)
    polar.polarization_experiment(ch.make_bsc(0.11), n, trials, seed=seed)
    distinct = np.unique(polar._sequence_bits(trials, n, seed), axis=0)
    assert len(calls) == len(distinct)


def test_dense_polarization_takes_no_von_neumann_entropy(monkeypatch):
    # no fraction reads H; the BSC outputs without witnesses report no capacity
    # either, so no von Neumann entropy is due at all
    cond_entropy = en.cond_entropy
    families = []

    def recorded(state, family):
        families.append(family)
        return cond_entropy(state, family)

    monkeypatch.setattr(en, "cond_entropy", recorded)
    w = ch.CqChannel(ch.make_bsc(0.11).outputs)
    polar.polarization_experiment(w, 2, 8, seed=1)
    assert families and en.VON_NEUMANN not in families
    # trajectories keep H, one per level
    polar.trajectory(w, [0, 1])
    assert families.count(en.VON_NEUMANN) == 2


def test_polarization_refuses_a_trajectory_cut_at_the_dimension_cap():
    # dual(BEC(0.3)) outgrows DIM_CAP before level 4: no fractions of a shallower level
    with pytest.raises(ValueError, match="dimension cap after level 2 of 4"):
        polar.polarization_experiment(ch.dual(ch.make_bec(0.3)), 4, 3, seed=1)


@pytest.mark.parametrize("w", [ch.make_bsc(0.11), ch.make_bec(0.3)], ids=["dense", "erasure"])
@pytest.mark.parametrize("n, trials", [(2, 0), (2, -3), (0, 5), (-1, 5)])
def test_polarization_refuses_empty_runs(w, n, trials):
    # no trial or no level leaves no fraction to report
    with pytest.raises(ValueError, match="n >= 1 and trials >= 1"):
        polar.polarization_experiment(w, n, trials)


def test_polarization_dense_trials_share_trajectories():
    # one dense trajectory per distinct bit string: the fractions and final B
    # match a trial-by-trial run
    w, n, trials, seed = ch.make_bsc(0.11), 2, 40, 4
    rep = polar.polarization_experiment(w, n, trials, seed=seed)
    bits = polar._sequence_bits(trials, n, seed)
    last = [polar.trajectory(w, row).levels[-1] for row in bits]
    assert rep.final_b.tolist() == [s.bhattacharyya for s in last]
    assert [rep.frac_hmin_small, rep.frac_hmax_large, rep.frac_b_small, rep.frac_b_large,
            rep.bridge_hmin_lower, rep.bridge_hmin_upper] == _fractions(last, rep.threshold)


def test_polarization_capacity_split():
    rep = polar.polarization_experiment(ch.make_bec(0.3), 16, 10_000, beta=0.4, seed=1)
    assert abs(rep.frac_b_small - 0.7) <= 0.05
    assert abs(rep.frac_hmin_small - 0.7) <= 0.05


def test_polarization_generic_channel_small():
    rep = polar.polarization_experiment(ch.make_bsc(0.11), 2, 16, seed=3)
    assert 0.0 <= rep.frac_b_small <= 1.0
    with pytest.raises(ValueError):
        polar.polarization_experiment(ch.make_bsc(0.11), 8, 4, seed=3)


def test_polarization_unbiased_erasure_split():
    rep = polar.polarization_experiment(ch.make_bec(0.5), 16, 10_000, beta=0.4, seed=2)
    assert abs(rep.frac_b_small - 0.5) <= 0.05
    assert abs(rep.frac_b_large - 0.5) <= 0.05


def test_report_serializes_its_repr_fields_with_nan_as_none():
    # a Z-channel has no capacity here; the per-trial arrays stay out of the dict
    z = ch.make_classical([[1.0, 0.0], [0.3, 0.7]])
    rep = polar.polarization_experiment(z, 2, 8, seed=1)
    doc = rep.to_dict()
    assert set(doc) == {f.name for f in fields(rep) if f.repr}
    assert "final_b" not in doc and doc["capacity"] is None


def _eager_b_complement(erasure, bits):
    """1 - B per trial as polarization_experiment computed it before it was
    derived on first read: the dual erasure recursion run beside the primal
    one, over the bits the trials used."""
    eps = np.full(bits.shape[0], erasure)
    b_complement = 1.0 - eps
    for b in bits.T:
        eps, b_complement = polar._erasure_step(eps, b), polar._erasure_step(b_complement, 1 - b)
    return b_complement


@pytest.mark.parametrize("n", [1, 10, 16])
@pytest.mark.parametrize("complement", [False, True])
def test_final_b_complement_keeps_the_bits_of_the_eager_recursion(n, complement):
    trials, seed = 300, 11
    rep = polar.polarization_experiment(ch.make_bec(0.3), n, trials, seed=seed,
                                        complement=complement)
    bits = polar._sequence_bits(trials, n, seed)
    want = _eager_b_complement(0.3, 1 - bits if complement else bits)
    got = rep.final_b_complement
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rep.final_b_complement is got  # derived once, then kept


def test_final_b_complement_of_a_dense_channel_is_one_minus_b():
    rep = polar.polarization_experiment(ch.make_bsc(0.11), 2, 16, seed=3)
    assert rep.final_b_complement.tobytes() == (1.0 - rep.final_b).tobytes()

