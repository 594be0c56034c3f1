import itertools
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from cqdual import channels as ch
from cqdual import codedchannels as cc
from cqdual import codes
from cqdual import entropies as en
from cqdual.cli import parse_grid
from cqdual.config import TOL, Unsupported
from cqdual.corpus import random_channel, random_density
from cqdual.linalg import gram_embed, partial_trace


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


# ---------------------------------------------------------------------------
# classical coded tables
# ---------------------------------------------------------------------------


def test_noiseless_channel_zero_entropy():
    table = cc.classical_coded_table(ch.make_bsc(0.0), codes.hamming74_pair(), "deterministic")
    assert abs(en.table_entropy(table, en.VON_NEUMANN)) < 1e-12


def test_useless_channel_full_entropy():
    table = cc.classical_coded_table(ch.make_bsc(0.5), codes.hamming74_pair(), "deterministic")
    assert abs(en.table_entropy(table, en.VON_NEUMANN) - 4.0) < 1e-12


def _rep2_direct_table(p):
    """Brute force over the 4 output pairs of the [2,1] code on BSC(p)."""
    direct = np.zeros((2, 4))
    for m, word in ((0, (0, 0)), (1, (1, 1))):
        for i, y in enumerate(itertools.product((0, 1), repeat=2)):
            pr = 1.0
            for c, yy in zip(word, y):
                pr *= (1 - p) if c == yy else p
            direct[m, i] = pr / 2
    return direct


def test_repetition2_matches_direct_enumeration():
    p = 0.23
    cp = codes.repetition_pair(2)
    table = cc.classical_coded_table(ch.make_bsc(p), cp, "deterministic")
    direct = _rep2_direct_table(p)
    assert np.max(np.abs(np.sort(table, axis=1) - np.sort(direct, axis=1))) < 1e-15
    assert abs(table.max(axis=0).sum() - direct.max(axis=0).sum()) < 1e-15


def test_repetition3_ml_value():
    # 1 - (3p^2 - 2p^3) at p = 0.11, derived from the majority-vote rule
    table = cc.classical_coded_table(ch.make_bsc(0.11), codes.repetition_pair(3), "deterministic")
    p_ml = table.max(axis=0).sum()
    assert abs(p_ml - 0.966362) < 1e-9
    assert abs(p_ml - (1 - (3 * 0.11**2 - 2 * 0.11**3))) < 1e-12


def test_syndrome_independence_n3():
    # conditioning on any fixed syndrome of a symmetric channel gives the
    # same conditional entropy as the zero syndrome
    cp = codes.repetition_pair(3)
    p = 0.2
    t = np.array([[1 - p, p], [p, 1 - p]])
    ys = codes.all_vectors(2, 3)
    base = None
    for s in codes.all_vectors(2, 2):
        lik = cc._product_likelihood(cp.coset(s), ys, t) / 2
        val = en.table_entropy(lik, en.VON_NEUMANN)
        if base is None:
            base = val
        assert abs(val - base) < 1e-12


def test_mixed_outputs_refused(rng):
    # outputs that are neither diagonal nor a pure pair have no exact path
    w = random_channel(rng)
    cp = codes.repetition_pair(3)
    with pytest.raises(ValueError):
        cc.classical_coded_table(w, cp, "deterministic")
    with pytest.raises(ValueError):
        cc.exit_function(w, cp, en.VON_NEUMANN)


def test_blocklength_cap():
    with pytest.raises(ValueError):
        cc.classical_coded_table(ch.make_bsc(0.1), codes.repetition_pair(15), "deterministic")


# ---------------------------------------------------------------------------
# dual coded ensembles
# ---------------------------------------------------------------------------


def test_ensemble_gram_extremes():
    cp = codes.repetition_pair(2)
    assert np.allclose(cc.dual_coded_ensemble(0.5, cp, "deterministic").gram, np.eye(2))
    assert np.allclose(cc.dual_coded_ensemble(0.0, cp, "deterministic").gram, np.ones((2, 2)))


def test_ensemble_gram_repetition_offdiagonal():
    e = cc.dual_coded_ensemble(0.11, codes.repetition_pair(2), "deterministic")
    assert abs(e.gram[0, 1] - (1 - 0.22) ** 2) < 1e-12
    assert abs(e.gram[0, 1] - 0.6084) < 1e-12


def test_gram_matches_dense_tensor_construction():
    # entropy agreement between the closed-form Gram and explicit states
    cp = codes.repetition_pair(2)
    e = cc.dual_coded_ensemble(0.11, cp, "deterministic")
    cols = cc.dual_coded_states_dense(0.11, cp.codewords())
    dense_state = en.CqState(
        np.full(2, 0.5),
        tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(2)),
    )
    for fam in (en.VON_NEUMANN, en.MIN_ENTROPY, en.MAX_ENTROPY, en.petz_down(0.5),
                en.petz_down(1.5)):
        assert abs(
            cc.ensemble_cond_entropy(e, fam) - en.cond_entropy(dense_state, fam)
        ) < 1e-10


def test_ensemble_entropy_edges():
    cp = codes.repetition_pair(2)
    orth = cc.dual_coded_ensemble(0.5, cp, "deterministic")
    assert abs(cc.ensemble_cond_entropy(orth, en.VON_NEUMANN)) < 1e-10
    same = cc.dual_coded_ensemble(0.0, cp, "deterministic")
    assert abs(cc.ensemble_cond_entropy(same, en.VON_NEUMANN) - 1.0) < 1e-10


def test_hamming_gram_vs_dense_oracle():
    # 128-dimensional dense evaluation against the Gram-only path, n = 7
    cp = codes.hamming74_pair().dual()  # simplex [7, 3]
    e = cc.dual_coded_ensemble(0.11, cp, "deterministic")
    cols = cc.dual_coded_states_dense(0.11, cp.codewords())
    conds = tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(cols.shape[1]))
    dense_state = en.CqState(np.full(8, 1 / 8), conds)
    vn_gram = cc.ensemble_cond_entropy(e, en.VON_NEUMANN)
    vn_dense = en.cond_entropy(dense_state, en.VON_NEUMANN)
    assert abs(vn_gram - vn_dense) <= 1e-8


def _kron_states(p, xs):
    """The reference: one Kronecker product per position, word by word."""
    eta = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
    zeta = np.array([np.sqrt(p), -np.sqrt(1 - p)], dtype=complex)
    cols = []
    for x in xs:
        v = np.array([1.0 + 0j])
        for b in x:
            v = np.kron(v, eta if b == 0 else zeta)
        cols.append(v)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("name", ["rep21", "rep31", "parity32", "hamming74", "rm13"])
def test_dense_states_have_the_bits_of_the_kron_loop(name):
    for cp in (codes.preset_pair(name), codes.preset_pair(name).dual()):
        xs = cp.codewords()
        for p in (0.0, 0.11, 0.3, 0.5):
            got, want = cc.dual_coded_states_dense(p, xs), _kron_states(p, xs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_dense_oracle_decomposes_only_the_average(monkeypatch):
    # the conditionals' spectra are the ones validation computed; H(X|B)
    # decomposes the 128-dim average state and nothing else
    cp = codes.hamming74_pair().dual()
    cols = cc.dual_coded_states_dense(0.11, cp.codewords())
    state = en.CqState(np.full(8, 1 / 8),
                       tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(8)))
    calls = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _f=orig, _n=name: calls.append((_n, a.shape)) or _f(a, *args))
    en.cond_entropy(state, en.VON_NEUMANN)
    assert calls == [("eigvalsh", (128, 128))]


def test_ensemble_memory_guard():
    # 2^15 words of length 16: the distance array alone would take 16 GiB
    with pytest.raises(ValueError):
        cc.dual_coded_ensemble(0.11, codes.single_parity_pair(16), "deterministic")


def test_empty_ensemble_is_refused_by_name():
    with pytest.raises(ValueError, match="^need at least one word"):
        cc.PureEnsemble(np.zeros((0, 3), dtype=np.int64), [], 0.5)


OVERLAPS = [-1.0, -0.4, 0.0, 0.3, 1.0, 1.0 + 6.7e-16]


@pytest.mark.parametrize("overlap", OVERLAPS)
def test_a_word_gram_is_psd_by_construction(overlap):
    # prod_j o_j^[x_j != x'_j] is a Schur product of PSD 2 x 2 Grams, so the
    # constructor checks only |o_j| <= 1 (a fidelity of identical states
    # rounds up to 6.7e-16 past 1), and every Gram it implies is PSD and
    # embeds: for one overlap, and for per-position overlaps drawn around it
    rng = np.random.default_rng(40)
    for _ in range(12):
        m, n = int(rng.integers(1, 33)), int(rng.integers(1, 9))
        words, labels = rng.integers(0, 2, size=(m, n)), rng.integers(0, 3, size=m)
        per_position = np.append(rng.choice(OVERLAPS, size=n - 1), overlap)
        for o in (overlap, rng.permutation(per_position)):
            g = cc.PureEnsemble(words, labels, o).gram
            assert np.linalg.eigvalsh(g).min() >= -TOL.gram_psd * max(1.0, np.linalg.norm(g, 2))
            assert gram_embed(g).shape[0] == m


def test_per_position_overlaps_multiply_over_the_differing_positions():
    words = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0]])
    a, b = 0.5, -0.25
    e = cc.PureEnsemble(words, [0, 0, 1, 1], [a, b, a])
    # positions 0 and 2 carry a, position 1 carries b
    want = np.array([
        [1, a, b * a, a * b],
        [a, 1, a * b * a, b],
        [b * a, a * b * a, 1, a * a],
        [a * b, b, a * a, 1],
    ])
    assert np.array_equal(e.gram, want.astype(complex))
    assert np.array_equal(cc.PureEnsemble(words, [0, 0, 1, 1], [a, a, a]).gram,
                          cc.PureEnsemble(words, [0, 0, 1, 1], a).gram)


def test_building_an_ensemble_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    e = cc.dual_coded_ensemble(0.11, codes.hamming74_pair(), "randomized")
    assert e.num_states == 128 and not e.gram.flags.writeable


@pytest.mark.parametrize("labels", [[0, 0, 2, 2]], ids=["skipped_label"])
def test_a_label_without_weight_changes_no_entropy(labels):
    # label 1 carries no word, so it is left out of the label states
    words = np.array([[0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0]])
    e = cc.PureEnsemble(words, labels, 0.3)
    same = cc.PureEnsemble(words, [0, 0, 1, 1], 0.3)
    for fam in (en.VON_NEUMANN, en.MIN_ENTROPY, en.petz_down(0.5), en.petz_down(1.5)):
        assert abs(cc.ensemble_cond_entropy(e, fam) - cc.ensemble_cond_entropy(same, fam)) <= 1e-12
    assert cc.ensemble_guessing(e).exact  # two labels carry weight: Helstrom, not the SRM


def test_ensemble_srm_is_the_states_srm():
    # one square-root measurement: a Gram ensemble with four labels and the
    # CqState of its label conditionals give the same guessing probability
    e = cc.dual_coded_ensemble(0.11, codes.preset_pair("parity32"), "deterministic")
    res = cc.ensemble_guessing(e)
    assert e.num_labels == 4 and res.method == "srm" and not res.exact
    assert abs(res.value - en.guessing_prob(cc.ensemble_to_cqstate(e)).value) <= 1e-12


def test_an_ensemble_embeds_its_gram_once(monkeypatch):
    # decoupling and two-label guessing share one embedding, and every family
    # reads one kept label state; its kept arrays are read-only
    e = cc.dual_coded_ensemble(0.11, codes.repetition_pair(2).dual_complement(), "randomized")
    embeds = []
    monkeypatch.setattr(cc, "gram_embed", lambda g: embeds.append(g) or gram_embed(g))
    state = cc.ensemble_to_cqstate(e)
    for fam in (en.VON_NEUMANN, en.MIN_ENTROPY, en.MAX_ENTROPY, en.petz_down(0.5),
                en.petz_down(1.5)):
        cc.ensemble_cond_entropy(e, fam)
    assert len(embeds) == 1 and cc.ensemble_to_cqstate(e) is state
    assert all(not a.flags.writeable for a in (e._mixture_gram, e._factors[0], *e._factors[1]))
    fresh = cc.PureEnsemble(e.words, e.labels, e.overlap)
    assert cc.ensemble_decoupling(fresh) == cc.ensemble_decoupling(e)
    assert len(embeds) == 2


def test_srm_of_identical_states_is_a_uniform_guess():
    # at p = 0 every word has the same state, so the weighted Gram has rank 1
    # and its rounding noise (lifted to 1e-9 by a bare square root) is cut
    e = cc.dual_coded_ensemble(0.0, codes.preset_pair("parity32").dual_complement(), "randomized")
    assert e.num_labels == 4
    assert abs(cc.ensemble_guessing(e).value - 0.25) <= 1e-12


def test_randomized_ensemble_block_structure():
    e = cc.dual_coded_ensemble(0.11, codes.repetition_pair(2).dual_complement(), "randomized")
    assert e.num_states == 4 and e.num_labels == 2
    assert sorted(e.labels.tolist()) == [0, 0, 1, 1]


# ---------------------------------------------------------------------------
# coded duality sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["rep21", "rep31", "parity32", "hamming74", "rm13"])
@pytest.mark.parametrize("p", [0.05, 0.11, 0.25, 0.4])
def test_coded_duality_sums(preset, p):
    cp = codes.preset_pair(preset)
    ana = cc.coded_duality_check(p, cp)
    q = ana.quantities
    assert abs(q["vn_sum"] - cp.k) <= 1e-6
    assert abs(q["minmax_sum"] - cp.k) <= 1e-5
    assert abs(q["maxmin_sum"] - cp.k) <= 1e-5
    assert abs(q["vn_sum_2"] - (cp.n - cp.k)) <= 1e-6
    assert abs(q["minmax_sum_2"] - (cp.n - cp.k)) <= 1e-5
    assert q["srm_cross_gap"] <= 1e-5


@pytest.mark.parametrize("preset", ["hamming74", "rm13"])
def test_open_bracket_reported_unconverged(preset):
    # at p = 0.4 the ascents over the 8 (hamming74) and 16 (rm13) dual-code
    # labels stall with the bracket open; a stall is not convergence
    e = cc.dual_coded_ensemble(0.4, codes.preset_pair(preset).dual(), "deterministic")
    res = cc.ensemble_decoupling(e)
    assert not res.converged
    assert res.upper is not None and res.upper > res.value


def test_coded_duality_noiseless_edges():
    cp = codes.repetition_pair(3)
    ana = cc.coded_duality_check(0.0, cp)
    q = ana.quantities
    assert abs(q["vn_message_leg"]) < 1e-9 and abs(q["vn_dual_leg"] - cp.k) < 1e-9
    assert abs(q["vn_syndrome_leg"]) < 1e-9 and abs(q["vn_dual_det_leg"] - (cp.n - cp.k)) < 1e-9


def test_repetition3_guess_equals_decouple():
    ana = cc.coded_duality_check(0.11, codes.repetition_pair(3))
    assert abs(ana.quantities["guess_message_leg"] - 0.966362) < 1e-9
    assert abs(
        ana.quantities["guess_message_leg"] - ana.quantities["decouple_dual_leg"]
    ) <= 1e-6


@pytest.mark.parametrize(
    "report",
    [lambda: cc.coded_duality_check(0.11, codes.repetition_pair(3)),
     lambda: cc.exit_scan("bec", codes.repetition_pair(3), [0.3, 0.7])],
    ids=["coded_analysis", "exit_scan"],
)
def test_report_serializes_its_fields(report):
    rep = report()
    assert set(rep.to_dict()) == {f.name for f in fields(rep) if f.repr}


# ---------------------------------------------------------------------------
# encoder duality (deterministic <-> randomized)
# ---------------------------------------------------------------------------


def test_encoder_duality_bec():
    rep = cc.encoder_duality_check(ch.make_bec(0.3), codes.repetition_pair(2))
    assert rep.max_gap <= 1e-5


def test_encoder_duality_bsc():
    rep = cc.encoder_duality_check(ch.make_bsc(0.2), codes.repetition_pair(2))
    assert rep.max_gap <= 1e-5


def test_encoder_duality_trivial_code():
    # the identity transformation reduces to plain channel duality
    cp = codes.build_code(np.eye(1, dtype=int), 1, 2, name="trivial")
    rep = cc.encoder_duality_check(ch.make_bsc(0.11), cp)
    assert rep.max_gap <= 1e-5


# ---------------------------------------------------------------------------
# EXIT functions
# ---------------------------------------------------------------------------


def _bec_exit_rank_oracle(p, cp):
    """Per-position erasure EXIT by erasure-pattern/codeword enumeration."""
    words = cp.codewords()
    total = 0.0
    for i in range(cp.n):
        others = [j for j in range(cp.n) if j != i]
        for pattern in itertools.product((0, 1), repeat=cp.n - 1):
            prob = 1.0
            for e in pattern:
                prob *= p if e else (1 - p)
            unerased = [j for j, e in zip(others, pattern) if not e]
            ambiguous = any(
                w[i] == 1 and all(w[j] == 0 for j in unerased) for w in words
            )
            total += prob * (1.0 if ambiguous else 0.0)
    return total / cp.n


def test_exit_bec_matches_rank_oracle():
    p = 0.35
    cp = codes.single_parity_pair(3)
    got = cc.exit_function(ch.make_bec(p), cp, en.VON_NEUMANN)
    assert abs(got - _bec_exit_rank_oracle(p, cp)) < 1e-12
    cp = codes.hamming74_pair()
    got = cc.exit_function(ch.make_bec(p), cp, en.VON_NEUMANN)
    assert abs(got - _bec_exit_rank_oracle(p, cp)) < 1e-12


def test_exit_extreme_erasure_rates():
    cp = codes.hamming74_pair()
    assert abs(cc.exit_function(ch.make_bec(0.0), cp, en.VON_NEUMANN)) < 1e-12
    assert abs(cc.exit_function(ch.make_bec(1.0), cp, en.VON_NEUMANN) - 1.0) < 1e-12


def _diagonal_exit_terms(t, cp, family=en.VON_NEUMANN):
    """Per-position H(X_i | Y without Y_i) of a binary code on the channel with
    transition table t, by enumeration of every output string."""
    words = cp.codewords()
    ys = codes.all_vectors(t.shape[1], cp.n - 1)
    vals = []
    for i in range(cp.n):
        others = np.delete(words, i, axis=1)
        lik = cc._product_likelihood(others, ys, t)
        joint = np.zeros((2, ys.shape[0]))
        np.add.at(joint, words[:, i], lik / words.shape[0])
        vals.append(en.table_entropy(joint, family))
    return vals


def _rm_pair_16():
    """RM(1,4) [16,5] against RM(2,4) [16,11]: the parity rows are the monomials
    of degree <= 2 in four variables, completed by those of degree 3 and 4."""
    pts = codes.all_vectors(2, 4)
    monomials = sorted(
        (s for r in range(5) for s in itertools.combinations(range(4), r)), key=len
    )
    m = np.array([[int(all(x[j] for j in s)) for x in pts] for s in monomials])
    return codes.build_code(m, 5, name="rm14")


@pytest.mark.parametrize(
    "make", [codes.hamming74_pair, codes.rm13_pair, _rm_pair_16], ids=["hamming74", "rm13", "rm14"]
)
def test_erasure_counts_satisfy_the_integer_identity(make):
    # N_i^C(s) + N_i^{C-dual}(n-1-s) = C(n-1, s), each side counted on its own code
    cp = make()
    n = cp.n
    assert (cp.k, cp.dual().k) == {7: (4, 3), 8: (4, 4), 16: (5, 11)}[n]
    mine, theirs = cc._undetermined_counts(cp), cc._undetermined_counts(cp.dual())
    binom = np.array([math.comb(n - 1, s) for s in range(n)])
    assert (mine + theirs[:, ::-1] == binom).all()
    rep = cc.exit_duality_check(0.37, cp, channel_family="bec")
    assert rep.gap <= 1e-13


@pytest.mark.parametrize("name", sorted(codes.PRESETS))
def test_erasure_counts_satisfy_the_area_theorem(name):
    # on the BEC the EXIT function integrates to the rate (Ashikhmin-Kramer-
    # ten Brink); with the integral of (1-e)^s e^(n-1-s) over [0, 1] equal to
    # s!(n-1-s)!/n!, that is an exact rational identity in the counts alone
    for cp in (codes.preset_pair(name), codes.preset_pair(name).dual()):
        n, counts = cp.n, cc._undetermined_counts(cp)
        area = sum(
            Fraction(int(counts[i, s]) * math.factorial(s) * math.factorial(n - 1 - s),
                     math.factorial(n))
            for i in range(n) for s in range(n)
        ) / n
        assert area == Fraction(cp.k, n)


_FAMILIES = (en.VON_NEUMANN, en.MIN_ENTROPY, en.MAX_ENTROPY, en.petz_down(0.5))
_EPS_GRID = (0.0, 0.1, 0.37, 0.9, 1.0)


def _no_enumeration(*args):
    raise AssertionError("output strings enumerated")


def _enumerated_erasure_exit(cp):
    """{(eps, family): EXIT value} over _EPS_GRID x _FAMILIES by _diagonal_exit_terms."""
    out = {}
    for eps in _EPS_GRID:
        t = np.array([[1 - eps, 0, eps], [0, 1 - eps, eps]])
        for fam in _FAMILIES:
            out[eps, fam] = sum(_diagonal_exit_terms(t, cp, fam)) / cp.n
    return out


@pytest.mark.parametrize("name", ["rep31", "parity32", "hamming74", "rm13"])
@pytest.mark.parametrize("dual", [False, True], ids=["code", "dual"])
def test_erasure_exit_matches_enumeration(monkeypatch, name, dual):
    # the library enumerates no output string, so the two values are independent
    cp = codes.preset_pair(name)
    cp = cp.dual() if dual else cp
    want = _enumerated_erasure_exit(cp)
    monkeypatch.setattr(cc, "_product_likelihood", _no_enumeration)
    for (eps, fam), value in want.items():
        assert abs(cc.exit_function(ch.make_bec(eps), cp, fam) - value) <= 1e-13


@pytest.mark.parametrize("k, value", [(0, 0.0), (4, 1.0)])
def test_erasure_exit_of_trivial_codes(monkeypatch, k, value):
    # the zero code leaves nothing to learn; the full code leaves every digit
    # independent of the others
    cp = codes.build_code(np.eye(4, dtype=np.int64), k)
    want = _enumerated_erasure_exit(cp)
    monkeypatch.setattr(cc, "_product_likelihood", _no_enumeration)
    for (eps, fam), enumerated in want.items():
        got = cc.exit_function(ch.make_bec(eps), cp, fam)
        assert abs(got - value) <= 1e-13 and abs(got - enumerated) <= 1e-13


@pytest.mark.parametrize("k, value", [(0, 0.0), (4, 1.0)])
@pytest.mark.parametrize("make", [ch.make_bsc, ch.make_bsc_dual], ids=["diagonal", "pure"])
def test_exit_of_trivial_codes(make, k, value):
    # as on the erasure path: the zero code leaves nothing to learn, and no
    # word carries the digit 1; the full code leaves every digit independent
    # of the others
    cp = codes.build_code(np.eye(4, dtype=np.int64), k)
    for fam in _FAMILIES:
        assert abs(cc.exit_function(make(0.11), cp, fam) - value) <= 1e-12, fam.label


def test_erasure_exit_is_chosen_from_the_outputs(monkeypatch):
    monkeypatch.setattr(cc, "_product_likelihood", _no_enumeration)
    cp = codes.hamming74_pair()
    assert cc.exit_duality_check(0.4, cp, channel_family="bec").gap <= 1e-13
    # an erasure symbol split in two is still an erasure channel
    split = ch.make_classical(np.array([[0.6, 0, 0.1, 0.3], [0, 0.6, 0.1, 0.3]]))
    for fam in _FAMILIES:
        want = cc.exit_function(ch.make_bec(0.4), cp, fam)
        assert abs(cc.exit_function(split, cp, fam) - want) <= 1e-15
    assert abs(cc.exit_function(split, cp, en.VON_NEUMANN) - _bec_exit_rank_oracle(0.4, cp)) <= 1e-13


def test_exit_caps():
    # the erasure path refuses 2^40 masks before it allocates them
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memory cap"):
            cc.exit_function(ch.make_bec(0.3), codes.repetition_pair(40), en.VON_NEUMANN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # other diagonal channels still enumerate 3^(n-1) strings, up to n = 12
    with pytest.raises(ValueError, match="capped at 12"):
        cc.exit_function(ch.make_bsc(0.11), codes.repetition_pair(13), en.VON_NEUMANN)


def test_exit_caps_refuse_before_enumerating(monkeypatch):
    # a parity code of length 20 has 2^19 codewords; both caps refuse it
    # without listing them
    def enumerated(self):
        raise AssertionError("codewords enumerated before the cap")

    monkeypatch.setattr(codes.CodePair, "codewords", enumerated)
    cp = codes.single_parity_pair(20)
    with pytest.raises(Unsupported, match="^classical EXIT blocklength capped at 12$"):
        cc.exit_function(ch.make_bsc(0.11), cp, en.VON_NEUMANN)
    with pytest.raises(Unsupported, match="^pure-dual EXIT blocklength capped at 10$"):
        cc.exit_function(ch.make_bsc_dual(0.11), cp, en.VON_NEUMANN)
    # and one position past each cap
    with pytest.raises(Unsupported, match="^classical EXIT blocklength capped at 12$"):
        cc.exit_function(ch.make_bsc(0.11), codes.repetition_pair(13), en.VON_NEUMANN)
    with pytest.raises(Unsupported, match="^pure-dual EXIT blocklength capped at 10$"):
        cc.exit_function(ch.make_bsc_dual(0.11), codes.repetition_pair(11), en.VON_NEUMANN)


def _bsc_exit_terms(p, cp):
    return _diagonal_exit_terms(np.array([[1 - p, p], [p, 1 - p]]), cp)


def test_exit_positions_equal_for_hamming():
    # doubly transitive code: every position contributes the same term
    vals = _bsc_exit_terms(0.11, codes.hamming74_pair())
    assert max(vals) - min(vals) < 1e-10


@pytest.mark.parametrize(
    "bsc",
    [ch.make_bsc, lambda p: ch.make_classical(np.array([[1 - p, p], [p, 1 - p]]))],
    ids=["make_bsc", "make_classical"],
)
def test_diagonal_outputs_take_the_classical_paths(bsc):
    # a classical channel is a CqChannel with diagonal outputs, however it is built
    table = cc.classical_coded_table(bsc(0.23), codes.repetition_pair(2), "deterministic")
    direct = _rep2_direct_table(0.23)
    assert np.max(np.abs(np.sort(table, axis=1) - np.sort(direct, axis=1))) < 1e-15
    cp = codes.hamming74_pair()
    want = sum(_bsc_exit_terms(0.11, cp)) / cp.n
    assert abs(cc.exit_function(bsc(0.11), cp, en.VON_NEUMANN) - want) < 1e-12


def test_exit_deletes_rather_than_conditions():
    # conditioning on all n outputs is strictly more informative
    p = 0.11
    cp = codes.hamming74_pair()
    t = np.array([[1 - p, p], [p, 1 - p]])
    words = cp.codewords()
    ys = codes.all_vectors(2, 7)
    conditioned = 0.0
    for i in range(7):
        lik = cc._product_likelihood(words, ys, t)
        joint = np.zeros((2, ys.shape[0]))
        np.add.at(joint, words[:, i], lik / 16)
        conditioned += en.table_entropy(joint, en.VON_NEUMANN) / 7
    deleted = cc.exit_function(ch.make_bsc(p), cp, en.VON_NEUMANN)
    assert conditioned < deleted - 1e-3


def test_exit_duality_bec_exact():
    for p in np.arange(0.1, 0.91, 0.1):
        rep = cc.exit_duality_check(float(p), codes.hamming74_pair(), channel_family="bec")
        assert rep.gap <= 1e-10


def test_exit_pure_channel_matches_bsc_dual():
    # the Gram path is chosen from the outputs: any two pure states with
    # overlap 1 - 2p give the EXIT function of the BSC(p) dual
    p = 0.11
    c = 1.0 - 2.0 * p
    phase = np.exp(0.7j)
    w = ch.make_pure([np.array([1.0, 0.0, 0.0]), phase * np.array([c, 0.0, np.sqrt(1 - c * c)])])
    for fam in (en.VON_NEUMANN, en.MIN_ENTROPY, en.MAX_ENTROPY):
        want = cc.exit_function(ch.make_bsc_dual(p), codes.repetition_pair(3), fam)
        got = cc.exit_function(w, codes.repetition_pair(3), fam)
        assert abs(got - want) < 1e-12


def test_exit_duality_bsc():
    for preset in ("rep31", "hamming74"):
        rep = cc.exit_duality_check(0.11, codes.preset_pair(preset), channel_family="bsc")
        assert rep.gap <= 1e-6


def test_exit_duality_minmax_family():
    rep = cc.exit_duality_check(
        0.11, codes.repetition_pair(3), family=en.MIN_ENTROPY, channel_family="bsc"
    )
    assert rep.gap <= 1e-6
    # the two-leg report of every entropy sum, naming each leg's family
    assert isinstance(rep, en.DualityReport)
    assert (rep.family, rep.dual_side_family) == (en.MIN_ENTROPY, en.MAX_ENTROPY)
    assert rep.to_dict()["dual_family"] == "max" and rep.target == 1.0


def test_exit_scan_transition_near_capacity():
    scan = cc.exit_scan("bsc", codes.rm13_pair(), np.arange(0.02, 0.5, 0.02))
    assert scan.transition is not None and 0.0 < scan.transition < 0.5
    for _, lhs, rhs, total in scan.rows:
        assert abs(total - 1.0) <= 1e-6
    # rate-1/2 code: the capacity residual is reported, not asserted sharp;
    # for this short code it lands within a modest band
    assert scan.capacity_residual < 0.25


@pytest.mark.parametrize(
    "family, make, grid",
    [("bsc", ch.make_bsc, "0.05:0.45:0.05"), ("bec", ch.make_bec, "0.05:0.95:0.05")],
)
def test_exit_scan_capacity_is_the_scanned_channels(family, make, grid):
    # the capacity at the transition is entropies.capacity of the scanned
    # channel there, not a closed form chosen by the family name
    cp = codes.hamming74_pair()
    scan = cc.exit_scan(family, cp, parse_grid(grid))
    cap = en.capacity(make(scan.transition))
    assert scan.capacity_at_transition == cap
    assert scan.capacity_residual == abs(cap - cp.k / cp.n)


# ---------------------------------------------------------------------------
# blocklength sum rule brute force
# ---------------------------------------------------------------------------


def test_bruteforce_noiseless_source():
    src = en.from_channel(ch.make_bsc(0.0))
    for eps in (0.1, 0.5, 1.0):
        m, l, total = cc.compression_extraction_bruteforce(src, 2, eps)
        assert (m, l, total) == (0, 2, 2)


def test_bruteforce_noiseless_ascents_certify(monkeypatch):
    # wide factors (more columns than rows) are compressed on entry, so every
    # bracket of the noiseless source closes in the first start
    results = []
    ascent = en.max_fidelity_sum

    def recording(*args, **kwargs):
        results.append(ascent(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(en, "max_fidelity_sum", recording)
    cc.compression_extraction_tables(en.from_channel(ch.make_bsc(0.0)), 2)
    assert results
    assert all(r.upper is not None and r.restarts == 1 for r in results)


def test_bruteforce_sums(acceptance_corpus):
    src = en.from_channel(ch.make_bsc(0.11))
    for n in (2, 3):
        tables = cc.compression_extraction_tables(src, n)
        for eps in (0.2, 0.3, 0.5):
            m, l, total = cc.compression_extraction_bruteforce(src, n, eps, tables)
            assert total == n


def _spanned_coset_labels(n):
    """Every subspace's coset labels by dimension, found by spanning every
    basis and dropping repeated spans: the reference for the parity-matrix
    enumeration of codedchannels._coset_labels_by_dim."""
    found = {frozenset({0})}
    nonzero = list(range(1, 1 << n))
    for size in range(1, n + 1):
        for basis in itertools.combinations(nonzero, size):
            span = {0}
            for v in basis:
                span |= {m ^ v for m in span}
            found.add(frozenset(span))
    xs = np.arange(1 << n)
    out = {}
    for span in sorted(tuple(sorted(s)) for s in found):
        smallest = (xs[:, None] ^ np.array(span)[None, :]).min(axis=1)
        labels = np.unique(smallest, return_inverse=True)[1]
        out.setdefault(len(span).bit_length() - 1, []).append(labels)
    return out


@pytest.mark.parametrize("n, counts", [
    (0, [1]), (1, [1, 1]), (2, [1, 3, 1]), (3, [1, 7, 7, 1]), (4, [1, 15, 35, 15, 1]),
])
def test_parity_matrices_list_each_subspace_once(n, counts):
    # one reduced row-echelon parity matrix per subspace: the Gaussian binomial
    # count per dimension, no repeats, and the same label arrays as the spans
    got = cc._coset_labels_by_dim(n)
    want = _spanned_coset_labels(n)
    assert list(got) == list(want) == list(range(n + 1))
    assert [len(spans) for spans in got.values()] == counts
    for dim, spans in got.items():
        assert all(labels.dtype == want[dim][0].dtype for labels in spans)
        as_set = {tuple(labels.tolist()) for labels in spans}
        assert len(as_set) == len(spans)
        assert as_set == {tuple(labels.tolist()) for labels in want[dim]}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_bruteforce_small_eps(n, eps):
    # a code of dimension 0 has one word per coset and guesses exactly, so the
    # syndrome side meets 1 - eps^2 however small eps is
    src = en.from_channel(ch.make_bsc(0.3))
    assert cc.compression_extraction_tables(src, n).best_guess_by_k[0] == 1.0
    assert cc.compression_extraction_bruteforce(src, n, eps) == (n, 0, n)


@pytest.mark.xfail(strict=True, reason="m and l compare float table values with 1 - eps^2, "
                   "so the sum breaks where 1 - eps^2 is a table value")
@pytest.mark.parametrize("n, value", [(1, 0.89), (2, 0.7921)])
def test_bruteforce_sum_at_eps_on_a_table_value(n, value):
    # the size-n entries of both tables are value in exact arithmetic; at n = 2
    # the decoupling one reads 0.7920999997366647 (the ascent's bracket)
    # against a guessing 0.7921, so one side meets 1 - eps^2 and the other not.
    # Today the result is (0, 0, 0) at n = 1 and (0, 1, 1) at n = 2
    src = en.from_channel(ch.make_bsc(0.11))
    assert cc.compression_extraction_bruteforce(src, n, np.sqrt(1.0 - value))[2] == n


def _per_block_decouple(source, n):
    """The decoupling table by one ensemble per output block y, of overlaps
    |mod[y_i]| / py[y_i] and weighted by w_y: the reference for the grouped
    ascents of codedchannels._decouple_value."""
    t = cc._source_table(source)
    prior = source.prior
    py = prior @ t
    mod = prior[0] * t[0] - prior[1] * t[1]
    xs = codes.all_vectors(2, n)
    blocks = [(np.abs(mod[y]) / py[y], float(np.prod(py[y]))) for y in codes.all_vectors(2, n)]
    best = {}
    for dim, spans in cc._coset_labels_by_dim(n).items():
        if dim == n:
            best[0] = 1.0
            continue
        top = 0.0
        for labels in spans:
            q = sum(w * cc.ensemble_decoupling(cc.PureEnsemble(xs, labels, r)).value
                    for r, w in blocks)
            top = max(top, q)
        best[n - dim] = min(1.0, top)
    return best


ASYMMETRIC = ch.make_classical([[0.8, 0.2], [0.3, 0.7]])


@pytest.mark.parametrize("source, n", [
    (lambda: en.from_channel(ASYMMETRIC), 2),
    (lambda: en.from_channel(ASYMMETRIC), 3),
    (lambda: en.CqState([0.7, 0.3], (np.diag([0.9, 0.1]), np.diag([0.2, 0.8]))), 2),
], ids=["asymmetric_n2", "asymmetric_n3", "nonuniform_prior_n2"])
def test_bruteforce_sums_beyond_the_bsc(source, n):
    src = source()
    tables = cc.compression_extraction_tables(src, n)
    for eps in (0.2, 0.3, 0.5, 0.7):
        assert cc.compression_extraction_bruteforce(src, n, eps, tables)[2] == n


@pytest.mark.parametrize("n", [2, 3])
def test_grouped_blocks_match_the_per_block_ascents(n):
    # a uniform-prior BSC collapses to one group of blocks, equal up to rounding;
    # the asymmetric source keeps one block per group, counted exactly once
    bsc = en.from_channel(ch.make_bsc(0.11))
    tables = cc.compression_extraction_tables(bsc, n)
    reference = _per_block_decouple(bsc, n)
    assert tables.best_decouple_by_k.keys() == reference.keys()
    for k, q in reference.items():
        assert abs(tables.best_decouple_by_k[k] - q) <= 1e-12
    asym = en.from_channel(ASYMMETRIC)
    asym_tables = cc.compression_extraction_tables(asym, n)
    assert asym_tables.best_decouple_by_k == _per_block_decouple(asym, n)
    assert asym_tables.ascents == (1 << n) * tables.ascents


@pytest.mark.parametrize("n, ascents", [(2, 4), (3, 15), (4, 66)])
def test_bsc_runs_one_ascent_per_subspace(n, ascents):
    tables = cc.compression_extraction_tables(en.from_channel(ch.make_bsc(0.11)), n)
    assert (tables.ascents, tables.unconverged) == (ascents, 0)


@pytest.mark.parametrize("n", [2, 3])
def test_the_frontier_tables_meet_within_the_certificate(n):
    # each group's bracket on F <= 1 closes within ascent_value, so its
    # quality is exact within 2 ascent_value; the group masses sum to 1, and
    # the guessing side is exact, so the two tables meet within that much
    tables = cc.compression_extraction_tables(en.from_channel(ch.make_bsc(0.11)), n)
    assert tables.unconverged == 0
    for k in range(n + 1):
        assert abs(tables.best_decouple_by_k[k] - tables.best_guess_by_k[k]) <= 2 * TOL.ascent_value


def test_bruteforce_zero_probability_output():
    # the output symbol 1 never occurs: its blocks have weight 0 and no state
    src = en.from_channel(ch.make_classical([[1, 0], [1, 0]]))
    for n in (2, 3):
        tables = cc.compression_extraction_tables(src, n)
        for eps in (0.2, 0.3, 0.5):
            assert cc.compression_extraction_bruteforce(src, n, eps, tables) == (n, 0, n)


@pytest.mark.parametrize("call, message", [
    (lambda src: cc.compression_extraction_bruteforce(src, 2, float("nan")), "eps must be in"),
    (lambda src: cc.compression_extraction_bruteforce(src, 2, -0.1), "eps must be in"),
    (lambda src: cc.compression_extraction_bruteforce(src, 2, 1.5), "eps must be in"),
    (lambda src: cc.compression_extraction_tables(src, -1), "n must be a nonnegative integer"),
    (lambda src: cc.compression_extraction_tables(src, 2.0), "n must be a nonnegative integer"),
    (lambda src: cc.compression_extraction_bruteforce(
        src, 3, 0.2, cc.compression_extraction_tables(src, 2)), "n = 3 but the tables are for n = 2"),
], ids=["eps_nan", "eps_negative", "eps_above_one", "n_negative", "n_float", "n_tables"])
def test_bruteforce_refuses_bad_input_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}") as exc:
        call(en.from_channel(ch.make_bsc(0.11)))
    assert not isinstance(exc.value, Unsupported)


def test_bruteforce_monotone_tables():
    src = en.from_channel(ch.make_bsc(0.11))
    tables = cc.compression_extraction_tables(src, 3)
    for k in range(3):
        assert tables.best_guess_by_k[k] >= tables.best_guess_by_k[k + 1] - 1e-12
        assert tables.best_decouple_by_k[k] >= tables.best_decouple_by_k[k + 1] - 1e-9


# ---------------------------------------------------------------------------
# shift-structured state identity
# ---------------------------------------------------------------------------


def test_structured_state_equal_sides():
    sig = np.eye(2, dtype=complex) / 2
    gap = cc.structured_state_gap(np.array([0.3, 0.7]), [sig, sig.copy()])
    assert gap < 1e-9


def test_structured_state_orthogonal_pure():
    sig0 = np.diag([1.0, 0.0]).astype(complex)
    sig1 = np.diag([0.0, 1.0]).astype(complex)
    gap = cc.structured_state_gap(
        np.array([0.4, 0.6]), [sig0, sig1], families=(en.VON_NEUMANN,)
    )
    assert gap < 1e-9


def test_structured_state_random_instances(rng):
    worst = 0.0
    for _ in range(10):
        py = rng.dirichlet([1.0, 1.0])
        sigmas = [random_density(rng, 2) for _ in range(2)]
        worst = max(worst, cc.structured_state_gap(py, sigmas))
    assert worst < 1e-7
