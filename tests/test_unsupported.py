"""Every refusal of a well-formed request past a cap, or outside what a
computation takes, raises cqdual.Unsupported (a ValueError), which the CLI
reports as a usage error; malformed input stays a plain ValueError."""

import numpy as np
import pytest

import cqdual
from cqdual import channels as ch, cli, codedchannels as cc, codes, entropies as en, fbl, linalg
from cqdual import polar
from cqdual.linalg import PureState

BSC = ch.make_bsc(0.11)
THREE = ch.make_classical(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
MIXED = ch.CqChannel((np.diag([0.9, 0.1]).astype(complex), np.full((2, 2), 0.5, dtype=complex)))
Q3 = codes.build_code(np.eye(3, dtype=int), 1, q=3)
WIDE = ch.make_classical(np.random.default_rng(0).dirichlet(np.ones(65), size=2))
TRINE = ch.make_pure([[np.cos(np.pi * k / 3), np.sin(np.pi * k / 3)] for k in range(3)])
SRM = ("the min-entropy is computed for commuting conditionals or at most two labels; "
       "more would need an optimal measurement, and the square-root measurement")

REFUSALS = {  # id: (start of the message, the refused call)
    "convolve_non_binary": ("convolutions are defined for binary-input",
                            lambda: polar.convolve(THREE, BSC, polar.VARIABLE)),
    "better_without_witnesses": ("better\\(\\) requires symmetry witnesses",
                                 lambda: polar.better(MIXED, BSC)),
    "trajectory_level_cap": ("trajectories of channels that are not erasure channels are capped",
                             lambda: polar.trajectory(BSC, [0] * (polar.GENERIC_LEVEL_CAP + 1))),
    "trajectory_dim_cap": ("trajectory hit the dimension cap", lambda: polar.trajectory(WIDE, [0])),
    "polarization_depth": ("polarization needs n >= 1",
                           lambda: polar.polarization_experiment(BSC, 0, 5)),
    "polarization_trials": ("polarization needs n >= 1",
                            lambda: polar.polarization_experiment(BSC, 2, 0)),
    # refused before the trials x n bits are drawn: unguarded, this asks for a petabyte
    "polarization_cells": ("polarization of 1000000000000000 trials at n=16 exceeds the cap",
                           lambda: polar.polarization_experiment(ch.make_bec(0.3), 16, 10**15)),
    "grid_points": ("grid '0:1:1e-12' has 1000000000001 points",
                    lambda: cli.parse_grid("0:1:1e-12")),
    "coded_table_alphabet": ("channel input alphabet must match",
                             lambda: cc.classical_coded_table(BSC, Q3, "deterministic")),
    "coded_table_not_diagonal": ("exhaustive tables need diagonal", lambda: cc.classical_coded_table(
        ch.dual(BSC), codes.repetition_pair(3), "deterministic")),
    "coded_table_blocklength": ("blocklength capped at 14", lambda: cc.classical_coded_table(
        BSC, codes.repetition_pair(15), "deterministic")),
    "coded_table_memory": ("joint table would exceed", lambda: cc.classical_coded_table(
        WIDE, codes.repetition_pair(5), "deterministic")),
    "word_gram_memory": ("Gram matrix of 5000 words", lambda: cc.PureEnsemble(
        np.zeros((5000, 30), dtype=np.int64), np.zeros(5000, dtype=np.int64), 0.5)),
    "dual_ensemble_field": ("pure dual ensembles are built for binary codes",
                            lambda: cc.dual_coded_ensemble(0.11, Q3, "deterministic")),
    "coded_channel_alphabet": ("channel alphabet must match",
                               lambda: cc.coded_channel(BSC, Q3, False)),
    "coded_channel_dimension": ("coded channel output dimension", lambda: cc.coded_channel(
        ch.dual(BSC), codes.repetition_pair(10), False)),
    "encoder_duality_messages": ("profile comparison needs exactly two messages",
                                 lambda: cc.encoder_duality_check(BSC, codes.hamming74_pair())),
    "erasure_exit_masks": ("erasure EXIT needs 2\\^30 mask words", lambda: cc.exit_function(
        ch.make_bec(0.3), codes.repetition_pair(30), en.VON_NEUMANN)),
    "exit_alphabet": ("channel alphabet must match",
                      lambda: cc.exit_function(BSC, Q3, en.VON_NEUMANN)),
    "classical_exit_blocklength": ("classical EXIT blocklength capped", lambda: cc.exit_function(
        BSC, codes.repetition_pair(13), en.VON_NEUMANN)),
    "pure_exit_blocklength": ("pure-dual EXIT blocklength capped", lambda: cc.exit_function(
        ch.make_bsc_dual(0.11), codes.repetition_pair(11), en.VON_NEUMANN)),
    "exit_channel_shape": ("EXIT functions need diagonal outputs", lambda: cc.exit_function(
        MIXED, codes.repetition_pair(3), en.VON_NEUMANN)),
    "subspace_enumeration": ("subspace enumeration capped",
                             lambda: cc.compression_extraction_tables(en.from_channel(BSC), 5)),
    "source_binary_qubit": ("brute force expects a binary source",
                            lambda: cc.compression_extraction_tables(en.from_channel(THREE), 2)),
    "source_diagonal": ("brute force supports diagonal", lambda: cc.compression_extraction_tables(
        en.from_channel(ch.make_bsc_dual(0.11)), 2)),
    "all_vectors_cap": ("enumeration of 2\\^25 vectors", lambda: codes.all_vectors(2, 25)),
    "weight_enumerator_cap": ("weight enumeration capped",
                              lambda: codes.weight_enumerator(codes.repetition_pair(25))),
    "min_max_beyond_binary": ("the min entropy sum is checked for binary input only",
                              lambda: en.duality_check(THREE, en.MIN_ENTROPY)),
    # guessing_prob flags these exact=False: the square-root measurement
    "min_entropy_srm": (SRM, lambda: en.cond_entropy(en.from_channel(TRINE), en.MIN_ENTROPY)),
    "ensemble_min_entropy_srm": (SRM, lambda: cc.ensemble_cond_entropy(
        cc.dual_coded_ensemble(0.11, codes.preset_pair("parity32"), "deterministic"),
        en.MIN_ENTROPY)),
    "petz_order_2_dual": ("Petz order 2 pairs with order 0, which is not computed$",
                          lambda: en.duality_check(BSC, en.petz_down(2.0))),
    "exit_petz_order_2_dual": ("Petz order 2 pairs with order 0, which is not computed$",
                               lambda: cc.exit_duality_check(0.3, codes.repetition_pair(3),
                                                             en.petz_down(2.0))),
    "capacity_without_witnesses": ("capacity formula requires symmetry witnesses",
                                   lambda: en.capacity(MIXED)),
    "dual_overlaps_binary": ("overlap formula requires binary input",
                             lambda: ch.classical_dual_overlaps(THREE)),
    "degrade_binary": ("degradation to a BSC needs", lambda: ch.degrade_to_bsc(THREE)),
    "upgrade_binary": ("upgrade needs", lambda: ch.upgrade_to_pure(THREE)),
    "profile_binary": ("invariant profiles are defined", lambda: ch.invariant_profile(THREE)),
    "trace_distance_binary": ("needs a binary-input channel",
                              lambda: ch.trace_distance_vs_dual_fidelity(THREE)),
    "fbl_blocklength": ("n must be", lambda: fbl.bsc_metaconverse(0, 0.11, 1e-3)),
    "fbl_crossover": ("p must lie", lambda: fbl.bsc_union_achievability(100, 0.5, 1e-3)),
    "fbl_eps": ("eps must lie", lambda: fbl.compute_curves([100], 0.11, 1.0)),
}


@pytest.mark.parametrize("message, refusal", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_raise_unsupported(message, refusal):
    with pytest.raises(cqdual.Unsupported, match=f"^{message}"):
        refusal()



@pytest.mark.parametrize(
    "malformed",
    [
        lambda: polar.convolve(BSC, BSC, "sideways"),
        lambda: polar.trajectory(BSC, [2]),
        lambda: cc.classical_coded_table(BSC, codes.repetition_pair(3), "sideways"),
        lambda: en.CqState([0.7, 0.7], BSC.outputs),
        lambda: en.petz_down(3.0),
        lambda: ch.make_bsc(1.5),
        # a NaN passes every comparison written as `x > tol`
        lambda: en.CqState([np.nan, np.nan], BSC.outputs),
        lambda: en.CqState([np.nan, 1.0], BSC.outputs),
        lambda: PureState(np.array([np.nan, 0.0]), (2,)),
        lambda: ch.CqChannel((np.eye(2) / 2, np.eye(3) / 3)),
        lambda: en.CqState([0.5, 0.5], (np.eye(2) / 2, np.eye(3) / 3)),
        lambda: en.CqState([1.0], (np.eye(2) / 2, np.eye(2) / 2)),
        lambda: ch.CqChannel(BSC.outputs, witnesses=(np.eye(2),)),
        lambda: ch.CqChannel(BSC.outputs, witnesses=(np.eye(2), 2 * np.eye(2))),
        lambda: ch.CqChannel(BSC.outputs, witnesses=(np.eye(2), np.eye(2))),
        lambda: ch.make_bsc_dual(1.5),
        lambda: cc.dual_coded_ensemble(2.0, codes.repetition_pair(3), "deterministic"),
        lambda: cc.dual_coded_ensemble(-0.5, codes.repetition_pair(3), "deterministic"),
        lambda: cc.dual_coded_ensemble(np.nan, codes.repetition_pair(3), "deterministic"),
        lambda: cc.PureEnsemble(np.zeros((0, 3), dtype=np.int64), [], 0.5),
        lambda: cc.PureEnsemble([[0, 2], [1, 0]], [0, 1], 0.5),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, 1, 1], 0.5),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, -1], 0.5),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, 1], -1.5),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, 1], np.nan),
        lambda: ch.make_pure([[1.0, 1.0], [1.0, 0.0]]),
        lambda: codes.CodePair(2, 2, 1, np.eye(2), np.array([[1, 1], [0, 1]])),
        lambda: codes.CodePair(2, 2, 3, np.eye(2), np.eye(2)),
        lambda: codes.build_code(np.ones((2, 2)), 1),
        lambda: codes.build_from_parity(np.ones((2, 3))),
        lambda: codes.preset_pair("golay"),
        lambda: en.np_beta([0.5, 0.5], [1.0], 0.1),
        lambda: en.np_beta([0.5, 0.5], [0.5, 0.5], 1.0),
        lambda: en.petz_down(0.0),
        lambda: PureState(np.array([1.0, 0.0]), (3,)),
        lambda: linalg.assert_hermitian(np.ones(3)),
        lambda: linalg.assert_density(np.eye(2)),
        lambda: linalg.fidelity(np.eye(2) / 2, np.eye(3) / 3),
        lambda: linalg.trace_distance(np.eye(2) / 2, np.eye(3) / 3),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, 1], [0.5, 0.5, 0.5]),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, 1], [0.5, 1.5]),
        lambda: cc.PureEnsemble([[0, 1], [1, 0]], [0, 1], [np.nan, 0.5]),
    ],
)
def test_malformed_input_is_not_unsupported(malformed):
    with pytest.raises(ValueError) as exc:
        malformed()
    assert not isinstance(exc.value, cqdual.Unsupported)


@pytest.mark.parametrize("p", [2.0, -0.5, np.nan])
def test_a_coded_ensemble_refuses_a_bad_p_by_name(p):
    cp = codes.repetition_pair(3)
    with pytest.raises(ValueError, match=f"^parameter {p} outside \\[0, 1\\]$"):
        cc.dual_coded_ensemble(p, cp, "deterministic")
    with pytest.raises(ValueError, match=f"^parameter {p} outside \\[0, 1\\]$"):
        cc.dual_coded_states_dense(p, cp.codewords())


def test_compute_curves_checks_every_blocklength_before_building_a_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built before the checks")

    monkeypatch.setattr(fbl, "_table", no_table)
    with pytest.raises(cqdual.Unsupported, match="n must be"):
        fbl.compute_curves([100, 20000], 0.11, 1e-3)
