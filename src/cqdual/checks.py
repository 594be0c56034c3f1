"""The paper's identities as one table: `cqdual selftest` and the acceptance suite run these rows.

Each row checks one identity. It names the claim and the acceptance criteria
it belongs to, holds how many instances it draws for `selftest --fast`, the
full selftest and the acceptance suite, and holds the one tolerance every gap
it yields is held to. Its function yields (label, gap) for an instance count
and a seed; a row whose instances are fixed ignores both.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import channels as _ch
from . import codedchannels as _cc
from . import codes as _codes
from . import corpus as _corpus
from . import entropies as _en
from . import fbl as _fbl
from . import polar as _polar
from .config import TOL

__all__ = ["Row", "ROWS"]

Gaps = Iterator[tuple[str, float]]


@dataclass(frozen=True)
class Row:
    name: str
    claim: str
    criteria: tuple[int, ...]
    fast: int  # instances drawn by `selftest --fast`
    full: int  # by the full selftest
    accept: int  # by the acceptance suite
    tol: float
    gaps: Callable[[int, int], Gaps]


ROWS: list[Row] = []
_FIXED = (1, 1, 1)  # the counts of a row whose instances are fixed


def _row(claim: str, criteria: tuple[int, ...], sizes: tuple[int, int, int], tol: float):
    def register(fn: Callable[[int, int], Gaps]) -> Callable[[int, int], Gaps]:
        ROWS.append(Row(fn.__name__, claim, criteria, *sizes, tol, fn))
        return fn

    return register


@functools.lru_cache(maxsize=None)
def _channels(seed: int, count: int) -> tuple[tuple[_ch.CqChannel, _ch.CqChannel], ...]:
    """(W, W⊥) for the first count channels of the seeded binary-input corpus."""
    return tuple((w, _ch.dual(w)) for w in _corpus.binary_channel_corpus(seed, count))


def _symmetric_pool(seed: int, count: int) -> list[_ch.CqChannel]:
    """BSCs, BECs, pure BSC duals and random symmetric channels, in turn."""
    rng = np.random.default_rng(seed)
    makers = (lambda: _ch.make_bsc(float(rng.uniform(0.02, 0.5))),
              lambda: _ch.make_bec(float(rng.uniform(0.05, 0.95))),
              lambda: _ch.make_bsc_dual(float(rng.uniform(0.02, 0.5))),
              lambda: _corpus.random_symmetric_channel(rng, int(rng.integers(2, 4))))
    return [makers[i % 4]() for i in range(count)]


@functools.lru_cache(maxsize=1)
def _hamming_analysis() -> _cc.CodedAnalysis:
    return _cc.coded_duality_check(0.11, _codes.hamming74_pair())


# ---------------------------------------------------------------------------
# entropy sums and channel identities (criteria 1, 2, 4, 11)
# ---------------------------------------------------------------------------


@_row("H(Z|B)_W + H(X|C)_W⊥ = log2 d, von Neumann", (1, 11), (8, 20, 200), 1e-6)
def entropy_sum_vn(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        rep = _en.duality_check(w, _en.VON_NEUMANN, check_disjointness=False, dual_channel=wd)
        yield f"entropy_sum_vn[{i}]", rep.gap


@_row("the channel state's conditionals are mutually orthogonal", (11,), (8, 20, 200), 1e-9)
def state_disjointness(size: int, seed: int) -> Gaps:
    for i, (w, _) in enumerate(_channels(seed, size)):
        yield f"state_disjointness[{i}]", _en.state_disjointness_gap(w)


@_row("entropy sum for Petz orders α and 2 − α", (1,), (4, 10, 200), 1e-6)
def entropy_sum_petz(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        for fam in (_en.petz_down(a) for a in _ch.PROFILE_ALPHAS):
            rep = _en.duality_check(w, fam, check_disjointness=False, dual_channel=wd)
            yield f"entropy_sum_{fam.label}[{i}]", rep.gap


@_row("Hmin(W) + Hmax(W⊥) = 1 and Hmax(W) + Hmin(W⊥) = 1", (1,), (4, 10, 200), 1e-4)
def entropy_sum_minmax(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        for tag, fam in (("minmax", _en.MIN_ENTROPY), ("maxmin", _en.MAX_ENTROPY)):
            rep = _en.duality_check(w, fam, check_disjointness=False, dual_channel=wd)
            yield f"entropy_sum_{tag}[{i}]", rep.gap


@_row("P_guess(W) = Q(W⊥) and Q(W) = P_guess(W⊥)", (2,), (4, 10, 200), 1e-4)
def guess_decouple_exchange(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        st, std = _en.from_channel(w), _en.from_channel(wd)
        gap = max(abs(_en.guessing_prob(st).value - _en.decoupling_q(std).value),
                  abs(_en.decoupling_q(st).value - _en.guessing_prob(std).value))
        yield f"guess_decouple_exchange[{i}]", gap


@_row("V(W) = V(W⊥) for the variance form of the dispersion", (4,), (4, 10, 200), 1e-5)
def dispersion_match(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        gap = abs(_en.dispersion(_en.from_channel(w))[1] - _en.dispersion(_en.from_channel(wd))[1])
        yield f"dispersion_match[{i}]", gap


@_row("d/dα of the Petz divergence at α = 1 is V/2 (relative error)", (4,), (3, 10, 10), 1e-3)
def dispersion_derivative(size: int, seed: int) -> Gaps:
    yield "dispersion_derivative_bsc(0.11)", _en.dispersion_derivative_gap(
        _en.from_channel(_ch.make_bsc(0.11)))
    rng = np.random.default_rng(seed)
    for i in range(size):
        st = _en.from_channel(_corpus.random_channel(rng, 3))
        if _en.dispersion(st)[1] > 1e-2:  # the relative error of a vanishing V is noise
            yield f"dispersion_derivative[{i}]", _en.dispersion_derivative_gap(st)


@_row("δ(W) = F(W⊥): trace distance of W is the output fidelity of its dual",
      (11,), (8, 20, 200), 1e-8)
def trace_distance_dual_fidelity(size: int, seed: int) -> Gaps:
    for i, (w, _) in enumerate(_channels(seed, size)):
        delta, fid = _ch.trace_distance_vs_dual_fidelity(w)
        yield f"trace_distance_dual_fidelity[{i}]", abs(delta - fid)


@_row("(W⊥)⊥ is the symmetrization of W (profile gap)", (11,), (4, 10, 200), TOL.profile_match)
def double_dual_symmetrization(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        gap = _ch.profile_gap(_ch.invariant_profile(_ch.dual(wd)),
                              _ch.invariant_profile(_ch.symmetrize(w)))
        yield f"double_dual_symmetrization[{i}]", gap


@_row("upgrading W to a pure channel is the dual of degrading W⊥ to a BSC (profile gap)",
      (11,), (4, 10, 200), TOL.profile_match)
def extremality_chain(size: int, seed: int) -> Gaps:
    for i, (w, wd) in enumerate(_channels(seed, size)):
        _, crossover = _ch.degrade_to_bsc(wd)
        gap = _ch.profile_gap(_ch.invariant_profile(_ch.upgrade_to_pure(w)),
                              _ch.invariant_profile(_ch.dual(_ch.make_bsc(crossover))))
        yield f"extremality_chain[{i}]", gap


# ---------------------------------------------------------------------------
# capacities, convolutions and polarization (criteria 3, 5, 6)
# ---------------------------------------------------------------------------


@_row("I(W) + I(W⊥) = 1 for the BSC", (3,), _FIXED, 1e-8)
def capacity_sum(size: int, seed: int) -> Gaps:
    for p in (0.05, 0.11, 0.25, 0.45):
        yield f"capacity_sum_bsc({p})", _en.capacity_duality_check(_ch.make_bsc(p)).gap


@_row("I(BSC(0.11)) = 1 − h2(0.11) ≈ 0.50009", (3,), _FIXED, 1e-4)
def capacity_anchor(size: int, seed: int) -> Gaps:
    yield "capacity_anchor_bsc(0.11)", abs(_en.capacity(_ch.make_bsc(0.11)) - 0.50009)


@_row("(W ⊛ W')⊥ ≅ W⊥ ⊛' W'⊥ for both convolutions (profile gap)",
      (5,), (3, 6, 50), 1e-6)
def convolution_duality(size: int, seed: int) -> Gaps:
    rng = np.random.default_rng(seed)
    for i in range(size):  # a generic first channel
        w, wp = _corpus.random_channel(rng, 2), _corpus.random_symmetric_channel(rng, 2)
        yield f"convolution_duality[{i}]", _polar.convolution_duality_check(w, wp).max_gap
    pool = _symmetric_pool(seed, 2 * size)
    for i in range(size):
        gap = _polar.convolution_duality_check(pool[2 * i], pool[2 * i + 1]).max_gap
        yield f"convolution_duality_symmetric[{i}]", gap


@_row("two-level trajectories of W and W⊥ are dual (profile gap)", (5,), (0, 3, 6), 1e-5)
def trajectory_duality(size: int, seed: int) -> Gaps:
    yield "trajectory_duality_bsc", _polar.trajectory_duality_gap(_ch.make_bsc(0.11), [0, 1])
    for i, w in enumerate(_symmetric_pool(seed, size)):
        gap = max(_polar.trajectory_duality_gap(w, bits) for bits in ([0, 1], [1, 0], [1, 1]))
        yield f"trajectory_duality[{i}]", gap


@_row("depth-16 good fraction of BEC(0.3) is 0.7, bad fraction of its dual 0.3",
      (6,), (10_000, 10_000, 10_000), 0.05)
def polarization_fraction(size: int, seed: int) -> Gaps:
    rep = _polar.polarization_experiment(_ch.make_bec(0.3), 16, size, beta=0.4, seed=seed)
    yield "polarization_good_fraction", abs(rep.frac_b_small - 0.7)
    rep = _polar.polarization_experiment(_ch.make_bec(0.7), 16, size, beta=0.4, seed=seed,
                                         complement=True)
    yield "polarization_dual_fraction", abs(rep.frac_b_small - 0.3)


# ---------------------------------------------------------------------------
# codes, blocklength sums and structured states (criteria 7, 8, 9, 11)
# ---------------------------------------------------------------------------


@_row("von Neumann coded sums for Hamming(7,4) over BSC(0.11): k = 4, and n − k = 3 for the "
      "second pair of legs", (7,), _FIXED, 1e-6)
def coded_sum_vn(size: int, seed: int) -> Gaps:
    q = _hamming_analysis().quantities
    yield "coded_sum_vn", abs(q["vn_sum"] - 4.0)
    yield "coded_sum_vn_2", abs(q["vn_sum_2"] - 3.0)


@_row("min/max coded sums for Hamming(7,4) over BSC(0.11)", (7,), _FIXED, 1e-5)
def coded_sum_minmax(size: int, seed: int) -> Gaps:
    q = _hamming_analysis().quantities
    yield "coded_sum_minmax", abs(q["minmax_sum"] - 4.0)
    yield "coded_sum_maxmin", abs(q["maxmin_sum"] - 4.0)
    yield "coded_sum_minmax_2", abs(q["minmax_sum_2"] - 3.0)


@_row("square-root-measurement legs against the sum they should produce", (7,), _FIXED, 1e-5)
def coded_srm_cross(size: int, seed: int) -> Gaps:
    q = _hamming_analysis().quantities
    yield "coded_srm_cross", q["srm_cross_gap"]
    yield "coded_srm_cross_2", q["srm_cross_gap_2"]


@_row("Gram-only coded entropy equals the dense-matrix one at n = 7", (7,), _FIXED, 1e-8)
def coded_dense_oracle(size: int, seed: int) -> Gaps:
    dual_cp = _codes.hamming74_pair().dual()
    ens = _cc.dual_coded_ensemble(0.11, dual_cp, "deterministic")
    cols = _cc.dual_coded_states_dense(0.11, dual_cp.codewords())
    dense = _en.CqState(np.full(8, 1 / 8),
                        tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(8)))
    yield "coded_dense_oracle", abs(_cc.ensemble_cond_entropy(ens, _en.VON_NEUMANN)
                                    - _en.cond_entropy(dense, _en.VON_NEUMANN))


@_row("deterministic encoding dualizes to randomized encoding and back (profile gap)",
      (7,), _FIXED, 1e-5)
def encoder_duality(size: int, seed: int) -> Gaps:
    rep2 = _codes.repetition_pair(2)
    for label, w in (("bec(0.3)", _ch.make_bec(0.3)), ("bsc(0.2)", _ch.make_bsc(0.2))):
        yield f"encoder_duality_{label}", _cc.encoder_duality_check(w, rep2).max_gap


@_row("EXIT(BEC) + EXIT⊥ = 1 for Hamming(7,4)", (9,), _FIXED, 1e-10)
def exit_sum_bec(size: int, seed: int) -> Gaps:
    cp = _codes.hamming74_pair()
    yield "exit_sum_bec", _cc.exit_duality_check(0.4, cp, channel_family="bec").gap
    for p in np.arange(0.1, 0.91, 0.1):
        gap = _cc.exit_duality_check(float(p), cp, channel_family="bec").gap
        yield f"exit_sum_bec({p:.1f})", gap


@_row("EXIT(BSC) + EXIT⊥ = 1 at p = 0.11", (9,), _FIXED, 1e-6)
def exit_sum_bsc(size: int, seed: int) -> Gaps:
    for label, cp in (("", _codes.repetition_pair(3)), ("(hamming74)", _codes.hamming74_pair())):
        yield f"exit_sum_bsc{label}", _cc.exit_duality_check(0.11, cp, channel_family="bsc").gap


@_row("m + l = n for optimal compression and extraction of BSC(0.11) blocks",
      (8,), (3, 4, 4), 0.5)
def blocklength_sum(size: int, seed: int) -> Gaps:
    src = _en.from_channel(_ch.make_bsc(0.11))
    for n in range(2, size + 1):
        tables = _cc.compression_extraction_tables(src, n)
        for eps in (0.2, 0.3, 0.5):
            _, _, total = _cc.compression_extraction_bruteforce(src, n, eps, tables)
            yield f"blocklength_sum_n{n}_eps{eps}", abs(total - n)


@_row("shift-structured states satisfy the entropy sum", (11,), (5, 20, 100), 1e-7)
def structured_state_identity(size: int, seed: int) -> Gaps:
    rng = np.random.default_rng(seed)
    gap = 0.0
    for _ in range(size):
        py = rng.dirichlet([1.0, 1.0])
        sigmas = [_corpus.random_density(rng, 2) for _ in range(2)]
        gap = max(gap, _cc.structured_state_gap(py, sigmas))
    yield "structured_state_identity", gap


# ---------------------------------------------------------------------------
# finite blocklength (criterion 10)
# ---------------------------------------------------------------------------


@_row("metaconverse ≥ union achievability and extractor upper ≥ lower, n = 100, 200, ...",
      (10,), (5, 20, 20), 0.0)
def fbl_ordering(size: int, seed: int) -> Gaps:
    curves = _fbl.compute_curves(range(100, 100 * size + 1, 100), 0.11, 1e-3)
    yield "fbl_ordering", max([0.0] + [c.union_achievability - c.metaconverse for c in curves])
    yield "fbl_extractor_ordering", max(
        [0.0] + [c.extractor_lower - c.extractor_upper for c in curves])


@_row("0 ≤ metaconverse − union achievability ≤ 8 bits at n = 500", (10,), _FIXED, 0.0)
def fbl_gap_500(size: int, seed: int) -> Gaps:
    gap = _fbl.bsc_metaconverse(500, 0.11, 1e-3) - _fbl.bsc_union_achievability(500, 0.11, 1e-3)
    yield "fbl_gap_500", max(0.0, gap - 8.0, -gap)


@_row("closed-form β_ε of the BSC equals Neyman–Pearson over all outputs (relative error)",
      (10,), _FIXED, 1e-12)
def beta_kernel_vs_enumeration(size: int, seed: int) -> Gaps:
    worst = 0.0
    for n in (6, 10, 12):
        flips = [sum(o) for o in itertools.product((0, 1), repeat=n)]
        pv = np.array([0.11**k * 0.89 ** (n - k) for k in flips])
        exact = _en.np_beta(pv, np.full(len(flips), 2.0**-n), 0.1)
        worst = max(worst, abs(exact - 2.0 ** _fbl.log2_beta_bsc(n, 0.11, 0.1)) / exact)
    yield "beta_kernel_vs_enumeration", worst
