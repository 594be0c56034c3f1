"""Codes composed with channels: exact coded entropies on both sides of the dual.

The classical side is handled by exhaustive enumeration of messages and output
strings. The dual side works with pure-state ensembles represented by their
Gram matrices, which is exact: the nonzero spectrum of a weighted pure mixture
equals the spectrum of its weighted Gram matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .config import TOL, Unsupported
from . import channels as _ch
from . import entropies as _en
from .codes import CodePair, all_vectors
from .linalg import _eigvalsh, _fidelity, gram_embed, hermitian_part, tensor

__all__ = [
    "PureEnsemble",
    "CodedAnalysis",
    "classical_coded_table",
    "dual_coded_ensemble",
    "dual_coded_states_dense",
    "ensemble_cond_entropy",
    "ensemble_guessing",
    "ensemble_decoupling",
    "ensemble_to_cqstate",
    "coded_channel",
    "coded_duality_check",
    "encoder_duality_check",
    "exit_function",
    "exit_duality_check",
    "ExitScan",
    "exit_scan",
    "BruteForceTables",
    "compression_extraction_tables",
    "compression_extraction_bruteforce",
    "structured_state_gap",
]

_TABLE_CAP = 1 << 26


# ---------------------------------------------------------------------------
# classical side: exhaustive tables
# ---------------------------------------------------------------------------


def _product_likelihood(words: np.ndarray, ys: np.ndarray, t: np.ndarray) -> np.ndarray:
    """P(y^n | x^n) for all rows of words (inputs) and ys (outputs)."""
    out = np.ones((words.shape[0], ys.shape[0]))
    for i in range(words.shape[1]):
        out *= t[words[:, i]][:, ys[:, i]]
    return out


def _encoding(cp: CodePair, randomized: bool) -> tuple[np.ndarray, np.ndarray]:
    """(words, message labels) of an encoding, one coset of q^k words at a time,
    each coset indexed by the message: the zero-syndrome coset alone, or every
    syndrome's coset in enumeration order when the syndrome is randomized."""
    r = cp.n - cp.k
    syndromes = all_vectors(cp.q, r) if randomized else np.zeros((1, r), dtype=np.int64)
    words = np.concatenate([cp.coset(s) for s in syndromes], axis=0)
    return words, np.tile(np.arange(cp.q**cp.k), len(syndromes))


def classical_coded_table(channel: _ch.CqChannel, cp: CodePair, leg: str) -> np.ndarray:
    """Joint distribution J[message, y^n] for a code over a channel with
    diagonal (classical) outputs.

    leg="deterministic": syndrome fixed to zero, messages uniform.
    leg="randomized": syndrome uniform as well, marginalized out.
    The likelihoods are accumulated one coset at a time.
    """
    if channel.input_size != cp.q:
        raise Unsupported("channel input alphabet must match the code field")
    t = channel._state._table
    if t is None:
        raise Unsupported("exhaustive tables need diagonal (classical) outputs")
    if cp.n > 14:
        raise Unsupported("blocklength capped at 14 for exhaustive tables")
    ny = t.shape[1]
    if (cp.q**cp.k) * (ny**cp.n) > _TABLE_CAP:
        raise Unsupported("joint table would exceed the memory cap")
    if leg not in ("deterministic", "randomized"):
        raise ValueError(f"unknown leg {leg!r}")
    ys = all_vectors(ny, cp.n)
    words, _ = _encoding(cp, leg == "randomized")
    acc = np.zeros((cp.q**cp.k, ys.shape[0]))
    for coset in words.reshape(-1, cp.q**cp.k, cp.n):
        acc += _product_likelihood(coset, ys, t)
    return acc / len(words)


# ---------------------------------------------------------------------------
# dual side: pure ensembles via Gram matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureEnsemble:
    """Weighted pure-state family known through its Gram matrix.

    labels partition the states into hypotheses (e.g. the message); the
    underlying vectors never need to be materialized.
    """

    weights: np.ndarray
    gram: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if np.size(self.weights) == 0:
            raise ValueError("need at least one state")
        w = _ch._checked_prior(self.weights)
        g = np.asarray(self.gram, dtype=complex)
        lab = np.asarray(self.labels, dtype=np.int64)
        m = len(w)
        if g.shape != (m, m) or lab.shape != (m,):
            raise ValueError("weights, gram and labels sizes disagree")
        if lab.min() < 0:  # a negative label would drop its states from every label
            raise ValueError("labels must be nonnegative")
        if not np.max(np.abs(np.diag(g) - 1.0)) <= TOL.gram_diagonal:
            raise ValueError(f"Gram diagonal must be 1 within {TOL.gram_diagonal}")
        scale = max(1.0, float(np.max(np.abs(g))))
        wmin = float(_eigvalsh(hermitian_part(g)).min())
        if not wmin >= -TOL.gram_psd * scale:
            raise ValueError(f"Gram matrix not PSD: eigenvalue {wmin:.3e}")
        for a in (w, g, lab):
            a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "gram", hermitian_part(g))
        object.__setattr__(self, "labels", lab)

    @property
    def num_states(self) -> int:
        return len(self.weights)

    @property
    def num_labels(self) -> int:
        return int(self.labels.max()) + 1


def _word_gram(xs: np.ndarray, overlap: float) -> np.ndarray:
    """Gram matrix overlap^hamming(x, x') of the product states of the words xs,
    for per-position states with real overlap. Word sets whose m x m x n
    distance array would exceed _TABLE_CAP entries are refused up front."""
    m, n = xs.shape
    if m * m * n > _TABLE_CAP:
        raise Unsupported(f"Gram matrix of {m} words of length {n} would exceed the memory cap")
    ham = (xs[:, None, :] != xs[None, :, :]).sum(axis=2)
    return (overlap**ham).astype(complex)


def dual_coded_ensemble(p: float, cp: CodePair, mode: str) -> PureEnsemble:
    """Coded ensemble of modulated pure dual-channel states.

    Per position the two states have overlap 1-2p, so the Gram matrix is
    (1-2p)^hamming over the encoded words: the zero-syndrome coset in
    deterministic mode, every word (grouped by message) in randomized mode.
    """
    if cp.q != 2:
        raise Unsupported("pure dual ensembles are built for binary codes")
    if mode not in ("deterministic", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    xs, labels = _encoding(cp, mode == "randomized")
    m = xs.shape[0]
    return PureEnsemble(np.full(m, 1.0 / m), _word_gram(xs, 1.0 - 2.0 * p), labels)


def dual_coded_states_dense(p: float, xs: np.ndarray) -> np.ndarray:
    """Explicit tensor-product state vectors (columns) for the encoded words:
    column j is the Kronecker product, first position most significant, of
    eta for each 0 and zeta for each 1 of word j, built for all words at once
    with one broadcast product per position."""
    eta = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
    zeta = np.array([np.sqrt(p), -np.sqrt(1 - p)], dtype=complex)
    xs = np.asarray(xs)
    cols = np.ones((1, xs.shape[0]), dtype=complex)
    for bits in xs.T:
        factor = np.where(bits == 0, eta[:, None], zeta[:, None])  # (2, words)
        cols = (cols[:, None, :] * factor[None, :, :]).reshape(-1, xs.shape[0])
    return cols


def _weighted_gram(e: PureEnsemble) -> np.ndarray:
    root = np.sqrt(e.weights)
    return hermitian_part(root[:, None] * e.gram * root[None, :])


def _labels(e: PureEnsemble) -> list[tuple[float, np.ndarray]]:
    """(prior, member indices) of each label with nonzero prior, in label order."""
    members = (np.where(e.labels == label)[0] for label in range(e.num_labels))
    return [(pl, idx) for idx in members if (pl := e.weights[idx].sum()) > 0]


def _label_factors(e: PureEnsemble) -> tuple[np.ndarray, list[np.ndarray]]:
    """(prior, factors) of the labels with nonzero prior, in Gram-embedding
    coordinates: the columns of a label's factor Y are its member vectors times
    sqrt(weight / prior), so Y Y† is the label's conditional state. The one
    label grouping: ensemble_decoupling and ensemble_to_cqstate both call it."""
    vecs = gram_embed(e.gram)
    groups = _labels(e)
    factors = [
        np.ascontiguousarray((vecs[idx] * np.sqrt(e.weights[idx] / pl)[:, None]).T)
        for pl, idx in groups
    ]
    return np.array([pl for pl, _ in groups]), factors


def ensemble_to_cqstate(e: PureEnsemble) -> _en.CqState:
    """Label-conditional state in Gram-embedding coordinates, over the labels
    with nonzero prior."""
    prior, factors = _label_factors(e)
    return _en.CqState(prior, tuple(hermitian_part(y @ y.conj().T) for y in factors))


def ensemble_guessing(e: PureEnsemble) -> _en.GuessResult:
    """Probability of guessing the label; exact for two labels with nonzero
    prior, else SRM."""
    if len(_labels(e)) <= 2:
        return _en.guessing_prob(ensemble_to_cqstate(e))
    return _en._srm(_weighted_gram(e), e.labels)


def ensemble_decoupling(e: PureEnsemble) -> _en.QResult:
    """Decoupling quality of the label, by ascent in embedding coordinates.

    The label conditionals enter the ascent through their natural low-rank
    factors (the member state vectors), never as dense matrices.
    """
    prior, factors = _label_factors(e)
    return _en._decoupling(factors, np.sqrt(prior / e.num_labels))


def _ensemble_vn(e: PureEnsemble) -> float:
    s = _weighted_gram(e)
    groups = _labels(e)
    spectra = [_eigvalsh(hermitian_part(s[np.ix_(idx, idx)] / pl)) for pl, idx in groups]
    return _en._vn_from_spectra([pl for pl, _ in groups], spectra, _eigvalsh(s))


_ENSEMBLE = _en._Reader(lambda e: e.num_labels, _ensemble_vn,
                        lambda e, a: _en.petz_curve(ensemble_to_cqstate(e), [a])[0],
                        lambda e: ensemble_guessing(e), lambda e: ensemble_decoupling(e).value)


def ensemble_cond_entropy(e: PureEnsemble, family: _en.EntropyFamily) -> float:
    """Conditional entropy of the label given the quantum states, in bits; the
    min-entropy of more than two labels, an SRM estimate, is refused
    (Unsupported) as in entropies.cond_entropy."""
    return family.of(_ENSEMBLE, e)


# ---------------------------------------------------------------------------
# coded channels as CQ channels (small blocklengths)
# ---------------------------------------------------------------------------


def coded_channel(w: _ch.CqChannel, cp: CodePair, randomized: bool) -> _ch.CqChannel:
    """The channel message -> W^n(encoded word), optionally syndrome-randomized."""
    if w.input_size != cp.q:
        raise Unsupported("channel alphabet must match the code field")
    if w.dim**cp.n > 512:
        raise Unsupported("coded channel output dimension too large")
    words, labels = _encoding(cp, randomized)
    outs = []
    for m in range(cp.q**cp.k):
        ops = [tensor(*(w.outputs[int(z)] for z in x)) for x in words[labels == m]]
        outs.append(sum(ops[1:], ops[0]) / len(ops))
    return _ch.CqChannel(tuple(outs))


@dataclass(frozen=True)
class CodedAnalysis:
    """Named coded-entropy functionals for a channel/code pair."""

    n: int
    k: int
    channel: str
    code: str
    quantities: Mapping[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


def coded_duality_check(p: float, cp: CodePair, seed: int | None = None) -> CodedAnalysis:
    """Coded entropy sums for a BSC against the dual code on the dual channel.

    First pairing: message-given-syndrome on the channel plus the randomized
    dual-complement encoding on the dual channel, which must sum to k bits.
    Second pairing: syndrome-randomized complement encoding plus deterministic
    dual-code encoding, summing to n-k. Min/max legs are evaluated in both
    orders; square-root-measurement values are cross-validated against the
    sum they should produce and the gap is reported, never patched. seed is
    accepted and ignored: every computation here is deterministic.
    """
    ch = _ch.make_bsc(p)
    n, k = cp.n, cp.k
    q: dict[str, float] = {}

    # ---- first pairing (target k)
    det = classical_coded_table(ch, cp, "deterministic")
    ens1 = dual_coded_ensemble(p, cp.dual_complement(), "randomized")
    q["vn_message_leg"] = _en.table_entropy(det, _en.VON_NEUMANN)
    q["vn_dual_leg"] = ensemble_cond_entropy(ens1, _en.VON_NEUMANN)
    q["vn_sum"] = q["vn_message_leg"] + q["vn_dual_leg"]
    p_ml = _en._table_guess(det)
    q_dual = ensemble_decoupling(ens1).value
    q["guess_message_leg"] = p_ml
    q["decouple_dual_leg"] = q_dual
    q["minmax_sum"] = -np.log2(p_ml) + np.log2(ens1.num_labels * q_dual)
    hmax_cls = _en.table_entropy(det, _en.MAX_ENTROPY)
    srm = ensemble_guessing(ens1)
    q["maxmin_sum"] = hmax_cls + (-np.log2(srm.value))
    q["srm_cross_gap"] = abs((-np.log2(srm.value)) - (k - hmax_cls))
    q["srm_exact"] = float(srm.exact)

    # ---- second pairing (target n - k)
    rand = classical_coded_table(ch, cp.complement(), "randomized")
    ens2 = dual_coded_ensemble(p, cp.dual(), "deterministic")
    q["vn_syndrome_leg"] = _en.table_entropy(rand, _en.VON_NEUMANN)
    q["vn_dual_det_leg"] = ensemble_cond_entropy(ens2, _en.VON_NEUMANN)
    q["vn_sum_2"] = q["vn_syndrome_leg"] + q["vn_dual_det_leg"]
    p_ml2 = _en._table_guess(rand)
    q_dual2 = ensemble_decoupling(ens2).value
    q["minmax_sum_2"] = -np.log2(p_ml2) + np.log2(ens2.num_labels * q_dual2)
    hmax_cls2 = _en.table_entropy(rand, _en.MAX_ENTROPY)
    srm2 = ensemble_guessing(ens2)
    q["maxmin_sum_2"] = hmax_cls2 + (-np.log2(srm2.value))
    q["srm_cross_gap_2"] = abs((-np.log2(srm2.value)) - ((n - k) - hmax_cls2))
    return CodedAnalysis(n, k, f"bsc({p})", cp.name or "custom", q)


@dataclass(frozen=True)
class EncoderDualityReport:
    deterministic_to_randomized_gap: float
    randomized_to_deterministic_gap: float

    @property
    def max_gap(self) -> float:
        return max(
            self.deterministic_to_randomized_gap,
            self.randomized_to_deterministic_gap,
        )


def encoder_duality_check(w: _ch.CqChannel, cp: CodePair) -> EncoderDualityReport:
    """Dual of an encoded channel against the opposite encoding of the dual.

    Deterministic encoding dualizes to randomized encoding over the
    dual-complement code and vice versa; compared at the profile level, so the
    code must carry a single message digit (q^k = 2).
    """
    if cp.q**cp.k != 2:
        raise Unsupported("profile comparison needs exactly two messages (k=1, q=2)")
    wd = _ch.dual(w)
    cpd = cp.dual_complement()
    gap_det = _ch.dual_profile_gap(
        coded_channel(w, cp, randomized=False), coded_channel(wd, cpd, randomized=True)
    )
    gap_rand = _ch.dual_profile_gap(
        coded_channel(w, cp, randomized=True), coded_channel(wd, cpd, randomized=False)
    )
    return EncoderDualityReport(gap_det, gap_rand)


# ---------------------------------------------------------------------------
# EXIT functions
# ---------------------------------------------------------------------------


def _undetermined_counts(cp: CodePair) -> np.ndarray:
    """N[i, s]: how many sets S of s positions other than i leave x_i
    undetermined by x_S on the binary code of cp, i.e. some codeword is 1 at
    i and 0 on S.

    With U(T) the OR of the codewords whose support lies inside the mask T
    (bit j for position j), x_i is undetermined by x_S exactly when bit i of
    U([n] minus S) is set. One subset-OR (zeta) transform over the 2^n masks
    gives U for every mask; codes whose 2^n mask words would exceed
    _TABLE_CAP are refused before anything is allocated.
    """
    n = cp.n
    if 1 << n > _TABLE_CAP:
        raise Unsupported(f"erasure EXIT needs 2^{n} mask words, over the memory cap")
    words = np.zeros(1, dtype=np.uint32)  # the codewords as masks, spanned row by row
    for row in cp.dual_parity_rows:  # the generator matrix of the code
        words = np.concatenate([words, words ^ np.uint32(row @ (1 << np.arange(n)))])
    union = np.zeros(1 << n, dtype=np.uint32)
    union[words] = words
    for j in range(n):
        pairs = union.reshape(-1, 2, 1 << j)  # axis 1 is bit j of the mask
        pairs[:, 1] |= pairs[:, 0]
    size = np.zeros(1, dtype=np.uint8)  # popcount of every mask
    for _ in range(n):
        size = np.concatenate([size, size + 1])
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        by_size = np.bincount(size[(union >> i) & 1 == 1], minlength=n + 1)
        counts[i] = by_size[:0:-1]  # |[n] minus S| = n - s
    return counts


def _erasure_exit(eps: float, cp: CodePair, family: _en.EntropyFamily) -> float:
    """EXIT function of a binary code on an erasure channel with erasure
    probability eps, from _undetermined_counts.

    Given the other outputs, x_i is determined (0 or 1) or undetermined, and
    undetermined with probability sum_s N[i, s] (1-eps)^s eps^(n-1-s),
    whatever x_i is. The 2x3 joint over (determined 0, determined 1,
    undetermined) merges proportional columns of the full joint table, so
    every entropy family takes the same value on it.
    """
    n = cp.n
    counts = _undetermined_counts(cp)
    s = np.arange(n)
    # a probability: rounding can take a full count's sum a hair past 1
    undetermined = np.clip(counts @ ((1.0 - eps) ** s * eps ** (n - 1 - s)), 0.0, 1.0)
    ones = 0.5 * (counts[:, 0] > 0)  # P(x_i = 1): 1/2 unless x_i is always 0
    total = 0.0
    for p1, u in zip(ones, undetermined):
        joint = np.array(
            [[(1.0 - p1) * (1.0 - u), 0.0, (1.0 - p1) * u], [0.0, p1 * (1.0 - u), p1 * u]]
        )
        total += _en.table_entropy(joint, family)
    return total / n


def exit_function(channel: _ch.CqChannel, cp: CodePair, family: _en.EntropyFamily) -> float:
    """Average per-position entropy of a codeword digit given the other outputs.

    The position's own output is deleted, not conditioned on. The path is
    chosen from the outputs: erasure channels (channels._erasure_probability)
    take exact counts of undetermined positions, with a memory cap on the 2^n
    masks; other diagonal (classical) outputs are enumerated exactly, up to
    n = 12; a binary-input channel with pure outputs (such as the dual of the
    BSC) goes through Gram-matrix ensembles, since up to phases its two states
    have the real overlap F(W(0), W(1)). Any other channel is refused.
    """
    if channel.input_size != cp.q:
        raise Unsupported("channel alphabet must match the code field")
    eps = _ch._erasure_probability(channel)
    if eps is not None:
        return _erasure_exit(eps, cp, family)
    # each path refuses past its cap before it enumerates the q^k codewords
    state = channel._state
    t = state._table
    if t is not None:
        if cp.n > 12:
            raise Unsupported("classical EXIT blocklength capped at 12")
        words = cp.codewords()
        mcount = words.shape[0]
        total = 0.0
        ys = all_vectors(t.shape[1], cp.n - 1)
        for i in range(cp.n):
            others = np.delete(words, i, axis=1)
            lik = _product_likelihood(others, ys, t)
            joint = np.zeros((cp.q, ys.shape[0]))
            np.add.at(joint, words[:, i], lik / mcount)
            total += _en.table_entropy(joint, family)
        return total / cp.n
    # pure outputs: validation found one eigenvalue above the rank cut in each
    if channel.input_size == 2 and all((w > TOL.rank_cut).sum() == 1 for w in state._spectra):
        if cp.n > 10:
            raise Unsupported("pure-dual EXIT blocklength capped at 10")
        words = cp.codewords()
        mcount = words.shape[0]
        overlap = _fidelity(state._cond_eigh(0), channel.outputs[1])
        total = 0.0
        for i in range(cp.n):
            gram = _word_gram(np.delete(words, i, axis=1), overlap)
            ens = PureEnsemble(np.full(mcount, 1.0 / mcount), gram, words[:, i])
            total += ensemble_cond_entropy(ens, family)
        return total / cp.n
    raise Unsupported("EXIT functions need diagonal outputs, or binary input and pure outputs")


# each channel family's W(p) and its dual W(p)⊥
_EXIT_CHANNELS = {
    "bec": lambda p: (_ch.make_bec(p), _ch.make_bec(1.0 - p)),
    "bsc": lambda p: (_ch.make_bsc(p), _ch.make_bsc_dual(p)),
}


def exit_duality_check(
    p: float,
    cp: CodePair,
    family: _en.EntropyFamily = _en.VON_NEUMANN,
    channel_family: str = "bec",
) -> _en.DualityReport:
    """EXIT function of (W(p), C) plus the dual-family EXIT of (W(p) dual, C dual),
    against one bit."""
    if channel_family not in _EXIT_CHANNELS:
        raise ValueError("channel_family must be 'bec' or 'bsc'")
    w, wd = _EXIT_CHANNELS[channel_family](p)
    dualf = family.dual()
    lhs = float(exit_function(w, cp, family))
    rhs = float(exit_function(wd, cp.dual(), dualf))
    total = lhs + rhs
    return _en.DualityReport(family, dualf, lhs, rhs, total, 1.0, abs(total - 1.0))


@dataclass(frozen=True)
class ExitScan:
    channel_family: str
    code: str
    rate: float
    rows: tuple[tuple[float, float, float, float], ...]  # p, lhs, rhs, sum
    transition: float | None
    capacity_at_transition: float | None
    capacity_residual: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def exit_scan(channel_family: str, cp: CodePair, grid) -> ExitScan:
    """Von Neumann EXIT curve over a grid with the half-bit crossing located.

    The crossing estimate is linear interpolation; the residual compares the
    capacity of the scanned channel there (entropies.capacity) with the code
    rate and is reported, not asserted.
    """
    rows = []
    for p in grid:
        rep = exit_duality_check(float(p), cp, channel_family=channel_family)
        rows.append((float(p), rep.lhs, rep.rhs, rep.total))
    ps = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    transition = None
    for i in range(len(ps) - 1):
        lo, hi = vals[i], vals[i + 1]
        if (lo - 0.5) * (hi - 0.5) <= 0 and lo != hi:
            transition = float(ps[i] + (0.5 - lo) * (ps[i + 1] - ps[i]) / (hi - lo))
            break
    rate = cp.k / cp.n
    cap = res = None
    if transition is not None:
        cap = _en.capacity(_EXIT_CHANNELS[channel_family](transition)[0])
        res = abs(cap - rate)
    return ExitScan(
        channel_family, cp.name or "custom", rate, tuple(rows), transition, cap, res
    )


# ---------------------------------------------------------------------------
# brute-force compression/extraction frontier
# ---------------------------------------------------------------------------


_Subspaces = dict[int, list[np.ndarray]]  # dimension -> each subspace's coset labels


def _coset_labels_by_dim(n: int) -> _Subspaces:
    """Every subspace of GF(2)^n by dimension, in order of its sorted members,
    as an array that maps each x in 0..2^n-1 to the number of its coset; cosets
    are numbered smallest member first."""
    if n > 4:
        raise Unsupported("subspace enumeration capped at n=4")
    from itertools import combinations

    found: set[frozenset[int]] = {frozenset({0})}
    nonzero = list(range(1, 1 << n))
    for size in range(1, n + 1):
        for basis in combinations(nonzero, size):
            span = {0}
            for v in basis:
                span |= {m ^ v for m in span}
            found.add(frozenset(span))
    xs = np.arange(1 << n)
    out: _Subspaces = {}
    for span in sorted(tuple(sorted(s)) for s in found):
        smallest = (xs[:, None] ^ np.array(span)[None, :]).min(axis=1)
        labels = np.unique(smallest, return_inverse=True)[1]
        out.setdefault(len(span).bit_length() - 1, []).append(labels)
    return out


def _source_table(source: _en.CqState) -> np.ndarray:
    """Transition table of a binary source with diagonal qubit conditionals."""
    if source.num_symbols != 2 or source.dim != 2:
        raise Unsupported("brute force expects a binary source with qubit conditionals")
    if source._table is None:
        raise Unsupported("brute force supports diagonal (classical) sources only")
    return source._table


def _best_guess_by_dim(source: _en.CqState, n: int, subspaces: _Subspaces) -> dict[int, float]:
    """Best achievable P(message | outputs, syndrome) over codes of each dimension."""
    t = _source_table(source)
    prior = source.prior
    xs = all_vectors(2, n)
    ys = all_vectors(2, n)
    px = np.ones(1 << n)
    for i in range(n):
        px *= prior[xs[:, i]]
    lik = _product_likelihood(xs, ys, t) * px[:, None]  # joint P(x, y)
    best: dict[int, float] = {}
    for dim, spans in subspaces.items():
        top = 0.0
        for labels in spans:
            val = 0.0
            for c in range(1 << (n - dim)):
                val += _en._table_guess(lik[labels == c])
            top = max(top, val)
        best[dim] = top
    return best


def _block_gram(y: np.ndarray, xs: np.ndarray, py: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Gram of the modulated block states for one output string y."""
    m = xs.shape[0]
    g = np.ones((m, m))
    for i, yi in enumerate(y):
        eq = xs[:, None, i] == xs[None, :, i]
        g = g * np.where(eq, py[yi], mod[yi])
    return g


def _best_decouple_by_dim(
    source: _en.CqState, n: int, subspaces: _Subspaces
) -> tuple[dict[int, float], int, int]:
    """Best decoupling quality over linear extractions with each kernel
    dimension, with the number of ascents run and of those whose bracket
    stayed open.

    The conjugate-side states are block diagonal over the classical output
    record, so the decoupling optimization splits into per-block ascents whose
    squared optima add up. Block y's Gram is w_y D_y K D_y: the weight
    w_y = prod_i py[y_i], a diagonal D_y of signs +-1 fixed by the signs of
    mod[y_i], and a matrix K that depends on the ratios
    r[y_i] = |mod[y_i]| / py[y_i] alone. A sign flip on a state leaves each
    label's Y_c Y_c† unchanged, and F(w rho, sigma) = sqrt(w) F(rho, sigma),
    so a block's squared optimum is w_y / w_rep times that of any block with
    the same tuple of ratios. The blocks are therefore grouped by that tuple,
    read off the source's table; each subspace runs one ascent per group, on
    its first block, and counts its squared optimum (sum of the group's w) /
    w_rep times. A block of weight 0 holds no state and is skipped.
    """
    t = _source_table(source)
    prior = source.prior
    py = prior @ t  # per-copy output distribution
    mod = prior[0] * t[0] - prior[1] * t[1]  # <eta_y| Z |eta_y>
    xs = all_vectors(2, n)  # row r encodes integer r, most significant bit first
    groups: dict[tuple[float, ...], list[tuple[np.ndarray, float]]] = {}  # ratios -> (y, w_y)
    for y in all_vectors(2, n):
        if (py[y] > 0).all():
            key = tuple((np.abs(mod[y]) / py[y]).tolist())
            groups.setdefault(key, []).append((y, float(np.prod(py[y]))))
    embeds = [(gram_embed(_block_gram(blocks[0][0], xs, py, mod).astype(complex)),
               sum(w for _, w in blocks) / blocks[0][1]) for blocks in groups.values()]
    best: dict[int, float] = {}
    ascents = unconverged = 0
    for dim, spans in subspaces.items():
        nlab = 1 << (n - dim)
        if nlab == 1:
            best[dim] = 1.0
            continue
        top = 0.0
        for labels in spans:
            q = 0.0
            scale = 1.0 / np.sqrt(1 << dim)
            for vecs, mult in embeds:
                factors = [
                    np.ascontiguousarray(scale * vecs[labels == c].T) for c in range(nlab)
                ]
                res = _en.max_fidelity_sum(factors, [1.0 / nlab] * nlab)
                ascents += 1
                unconverged += not res.converged
                q += mult * res.value**2
            top = max(top, q)
        best[dim] = min(1.0, top)
    return best, ascents, unconverged


@dataclass(frozen=True)
class BruteForceTables:
    """Exhaustive best values by size, and the work behind the decoupling
    table: the number of ascents run and of those whose certified bracket did
    not close (0 when every decoupling value is certified)."""

    n: int
    best_guess_by_k: dict[int, float]  # code dimension k -> best P
    best_decouple_by_k: dict[int, float]  # output size k -> best Q
    ascents: int
    unconverged: int


def compression_extraction_tables(
    source: _en.CqState, n: int, seed: int | None = None
) -> BruteForceTables:
    """Exhaustive best guessing/decoupling values over all linear codes.

    seed is accepted and ignored: every computation here is deterministic.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    subspaces = _coset_labels_by_dim(n)
    guess = _best_guess_by_dim(source, n, subspaces)
    dec_by_kernel, ascents, unconverged = _best_decouple_by_dim(source, n, subspaces)
    decouple = {n - kdim: v for kdim, v in dec_by_kernel.items()}
    return BruteForceTables(n, guess, decouple, ascents, unconverged)


def compression_extraction_bruteforce(
    source: _en.CqState,
    n: int,
    eps: float,
    tables: BruteForceTables | None = None,
) -> tuple[int, int, int]:
    """(smallest syndrome size, largest extractable size, their sum).

    The syndrome side asks for guessing probability at least 1 - eps^2; the
    extraction side for decoupling quality at least 1 - eps^2. Both searches
    are exhaustive and independent.
    """
    if not 0.0 <= eps <= 1.0:  # NaN included
        raise ValueError(f"eps must be in [0, 1], got {eps!r}")
    if tables is None:
        tables = compression_extraction_tables(source, n)
    elif tables.n != n:
        raise ValueError(f"n = {n} but the tables are for n = {tables.n}")
    thr = 1.0 - eps * eps
    ks = [k for k in range(n + 1) if tables.best_guess_by_k[k] >= thr]
    m_len = n - max(ks)
    ls = [k for k in range(n + 1) if tables.best_decouple_by_k[k] >= thr]
    l_len = max(ls)
    return m_len, l_len, m_len + l_len


# ---------------------------------------------------------------------------
# shift-structured state identity (self-test)
# ---------------------------------------------------------------------------


def structured_state_gap(
    p_y: np.ndarray,
    sigmas,
    families=(_en.VON_NEUMANN, _en.MIN_ENTROPY, _en.MAX_ENTROPY),
) -> float:
    """Max gap in H(X | Y B) = H(Y | B) for shift-structured states.

    The state couples a uniform X to Y = X + Z with Z ~ p_y and side
    information sigma_z; both sides are evaluated independently for each
    requested family.
    """
    p_y = np.asarray(p_y, dtype=float)
    d = len(p_y)
    lhs_state = _en.CqState(np.full(d, 1.0 / d), _ch._shift_blocks(sigmas, p_y))
    rhs_state = _en.CqState(p_y, tuple(sigmas))
    gap = 0.0
    for fam in families:
        lhs = _en.cond_entropy(lhs_state, fam)
        rhs = _en.cond_entropy(rhs_state, fam)
        gap = max(gap, abs(lhs - rhs))
    return gap
