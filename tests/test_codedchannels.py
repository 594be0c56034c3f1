import itertools

import numpy as np
import pytest

from cqdual import channels as ch
from cqdual import codedchannels as cc
from cqdual import codes
from cqdual import entropies as en
from cqdual.corpus import random_density
from cqdual.linalg import partial_trace


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


# ---------------------------------------------------------------------------
# classical coded tables
# ---------------------------------------------------------------------------


def test_noiseless_channel_zero_entropy():
    table = cc.classical_coded_table(cc.bsc_classical(0.0), codes.hamming74_pair(), "deterministic")
    assert abs(en.table_entropy(table, en.VON_NEUMANN)) < 1e-12


def test_useless_channel_full_entropy():
    table = cc.classical_coded_table(cc.bsc_classical(0.5), codes.hamming74_pair(), "deterministic")
    assert abs(en.table_entropy(table, en.VON_NEUMANN) - 4.0) < 1e-12


def test_repetition2_matches_direct_enumeration():
    # brute force over the 4 output pairs of the [2,1] code on BSC(p)
    p = 0.23
    cp = codes.repetition_pair(2)
    table = cc.classical_coded_table(cc.bsc_classical(p), cp, "deterministic")
    direct = np.zeros((2, 4))
    for m, word in ((0, (0, 0)), (1, (1, 1))):
        for i, y in enumerate(itertools.product((0, 1), repeat=2)):
            pr = 1.0
            for c, yy in zip(word, y):
                pr *= (1 - p) if c == yy else p
            direct[m, i] = pr / 2
    assert np.max(np.abs(np.sort(table, axis=1) - np.sort(direct, axis=1))) < 1e-15
    assert abs(table.max(axis=0).sum() - direct.max(axis=0).sum()) < 1e-15


def test_repetition3_ml_value():
    # 1 - (3p^2 - 2p^3) at p = 0.11, derived from the majority-vote rule
    table = cc.classical_coded_table(cc.bsc_classical(0.11), codes.repetition_pair(3), "deterministic")
    p_ml = table.max(axis=0).sum()
    assert abs(p_ml - 0.966362) < 1e-9
    assert abs(p_ml - (1 - (3 * 0.11**2 - 2 * 0.11**3))) < 1e-12


def test_syndrome_independence_n3():
    # conditioning on any fixed syndrome of a symmetric channel gives the
    # same conditional entropy as the zero syndrome
    cp = codes.repetition_pair(3)
    p = 0.2
    t = cc.bsc_classical(p).transition
    ys = codes.all_vectors(2, 3)
    base = None
    for s in codes.all_vectors(2, 2):
        lik = cc._product_likelihood(cp.coset(s), ys, t) / 2
        val = en.table_entropy(lik, en.VON_NEUMANN)
        if base is None:
            base = val
        assert abs(val - base) < 1e-12


def test_blocklength_cap():
    with pytest.raises(ValueError):
        cc.classical_coded_table(cc.bsc_classical(0.1), codes.repetition_pair(15), "deterministic")


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
    for fam in (en.VON_NEUMANN, en.MIN_ENTROPY):
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
    got = cc.exit_function(cc.bec_classical(p), cp, en.VON_NEUMANN)
    assert abs(got - _bec_exit_rank_oracle(p, cp)) < 1e-12
    cp = codes.hamming74_pair()
    got = cc.exit_function(cc.bec_classical(p), cp, en.VON_NEUMANN)
    assert abs(got - _bec_exit_rank_oracle(p, cp)) < 1e-12


def test_exit_extreme_erasure_rates():
    cp = codes.hamming74_pair()
    assert abs(cc.exit_function(cc.bec_classical(0.0), cp, en.VON_NEUMANN)) < 1e-12
    assert abs(cc.exit_function(cc.bec_classical(1.0), cp, en.VON_NEUMANN) - 1.0) < 1e-12


def test_exit_positions_equal_for_hamming():
    # doubly transitive code: every position contributes the same term
    p = 0.11
    cp = codes.hamming74_pair()
    t = cc.bsc_classical(p).transition
    words = cp.codewords()
    ys = codes.all_vectors(2, 6)
    vals = []
    for i in range(7):
        others = np.delete(words, i, axis=1)
        lik = cc._product_likelihood(others, ys, t)
        joint = np.zeros((2, ys.shape[0]))
        np.add.at(joint, words[:, i], lik / 16)
        vals.append(en.table_entropy(joint, en.VON_NEUMANN))
    assert max(vals) - min(vals) < 1e-10


def test_exit_deletes_rather_than_conditions():
    # conditioning on all n outputs is strictly more informative
    p = 0.11
    cp = codes.hamming74_pair()
    t = cc.bsc_classical(p).transition
    words = cp.codewords()
    ys = codes.all_vectors(2, 7)
    conditioned = 0.0
    for i in range(7):
        lik = cc._product_likelihood(words, ys, t)
        joint = np.zeros((2, ys.shape[0]))
        np.add.at(joint, words[:, i], lik / 16)
        conditioned += en.table_entropy(joint, en.VON_NEUMANN) / 7
    deleted = cc.exit_function(cc.bsc_classical(p), cp, en.VON_NEUMANN)
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


def test_exit_scan_transition_near_capacity():
    scan = cc.exit_scan("bsc", codes.rm13_pair(), np.arange(0.02, 0.5, 0.02))
    assert scan.transition is not None and 0.0 < scan.transition < 0.5
    for _, lhs, rhs, total in scan.rows:
        assert abs(total - 1.0) <= 1e-6
    # rate-1/2 code: the capacity residual is reported, not asserted sharp;
    # for this short code it lands within a modest band
    assert scan.capacity_residual < 0.25


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
