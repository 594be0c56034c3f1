"""Classical-input quantum-output channels and their duals.

A CQ channel maps z in {0, .., d-1} to a density operator. Embedding the
channel into a quantum channel that measures its input in the standard basis
and reading the complementary output in the Fourier-conjugate basis yields the
dual channel. The dual always carries a cyclic phase-operator symmetry on the
retained copy of the input register, whatever the original channel looks like.

CqState, a prior with one density operator per symbol, is the one validator
of such families and the one keeper of their decompositions: each CqChannel
holds its uniform-input state, which the channel's entropies are defined on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .config import TOL, SCHEMA_VERSION, Unsupported
from .linalg import (
    PureState,
    _density_spectrum,
    _eigh,
    _eigvalsh,
    _fidelity,
    _kron,
    _purify,
    diagonal_table,
    hermitian_part,
    partial_trace,
    trace_distance,
)

__all__ = [
    "CqChannel",
    "CqState",
    "ChannelState",
    "InvariantProfile",
    "PROFILE_ALPHAS",
    "make_bsc",
    "make_bec",
    "make_bsc_dual",
    "make_pure",
    "make_classical",
    "channel_state",
    "dual",
    "classical_dual_overlaps",
    "symmetrize",
    "degrade_to_bsc",
    "upgrade_to_pure",
    "invariant_profile",
    "profile_gap",
    "dual_profile_gap",
    "trace_distance_vs_dual_fidelity",
    "channel_to_dict",
    "channel_from_dict",
    "channel_to_json",
    "channel_from_json",
]

PROFILE_ALPHAS = (0.5, 0.75, 1.25, 1.5)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _checked_prior(prior) -> np.ndarray:
    """prior as a float array, refused when negative, NaN or not summing to 1:
    the one prior check. A copy, so freezing it leaves the caller's array
    writable."""
    p = np.array(prior, dtype=float)
    if not p.min() >= 0:  # a NaN entry fails both tests
        raise ValueError("negative prior probability")
    if not abs(p.sum() - 1.0) <= TOL.prior_sum:
        raise ValueError(f"prior sums to {p.sum()}, not 1 within {TOL.prior_sum}")
    return p


@dataclass(frozen=True, eq=False)
class CqState:
    """Classical prior plus one conditional density operator per symbol, the
    cq state sum_x p_x |x><x| (x) rho_x; every CqChannel holds its
    uniform-input one.

    The one density-family validator: the constructor refuses an empty family
    and a count that differs from the prior's, checks the prior, and keeps each
    conditional's Hermitian part, read-only, once its eigenvalue floor, unit
    trace and shared dimension hold. It keeps what it found: _spectra, the
    eigenvalues, and _table, the diagonal_table of the conditionals or None,
    which every classical path reads instead of testing again.

    Every value derived from the state is a cached property, derived on first
    read and then kept, its arrays read-only: the conditionals' _eigh and
    purifications, the classical joint table, the average with its spectrum
    and _eigh, the Petz overlaps, the output fidelity of a two-symbol state,
    and the results of the state's two optimisations, _guess and _q, which
    entropies.guessing_prob and entropies.decoupling_q alone read. Validated
    operators are exactly Hermitian, so a kept decomposition has the bits of
    a fresh one.
    """

    prior: np.ndarray
    conditionals: tuple[np.ndarray, ...]
    _spectra: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _table: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.conditionals) == 0:
            raise ValueError("need at least one output")
        if len(self.prior) != len(self.conditionals):
            raise ValueError("need one conditional per prior atom")
        p = _checked_prior(self.prior)
        checked = [_density_spectrum(a) for a in self.conditionals]
        conds = tuple(_freeze(a) for a, _ in checked)
        dims = {a.shape[0] for a in conds}
        if len(dims) != 1:
            raise ValueError(f"outputs have mixed dimensions {sorted(dims)}")
        table = diagonal_table(conds)
        object.__setattr__(self, "prior", _freeze(p))
        object.__setattr__(self, "conditionals", conds)
        object.__setattr__(self, "_spectra", tuple(_freeze(w) for _, w in checked))
        object.__setattr__(self, "_table", None if table is None else _freeze(table))

    @property
    def num_symbols(self) -> int:
        return len(self.prior)

    @property
    def dim(self) -> int:
        return self.conditionals[0].shape[0]

    def average(self) -> np.ndarray:
        """sum_x p_x rho_x, held Hermitian; the kept array, read-only."""
        return self._average

    def supported(self) -> list[tuple[float, np.ndarray]]:
        """(probability, conditional) pairs with zero-probability atoms dropped."""
        return [(p, self.conditionals[i]) for i, p in self._supported_indices()]

    def _supported_indices(self) -> list[tuple[int, float]]:
        """(x, p_x) for each symbol of nonzero prior: the one support rule, which
        supported(), petz_curve and the decoupling factors read."""
        return [(i, float(p)) for i, p in enumerate(self.prior) if p > 0.0]

    @cached_property
    def _cond_eighs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(tuple(_freeze(a) for a in _eigh(c)) for c in self.conditionals)

    @cached_property
    def _purifications(self) -> tuple[PureState, ...]:
        """linalg.purify of each conditional, from its kept decomposition; the
        dual and the channel state both read them."""
        pures = tuple(_purify(eig) for eig in self._cond_eighs)
        for pure in pures:
            pure.amplitudes.setflags(write=False)
        return pures

    @cached_property
    def _joint(self) -> np.ndarray | None:
        """Joint table P(x, y) when every conditional is diagonal, else None."""
        return None if self._table is None else _freeze(self.prior[:, None] * self._table)

    @cached_property
    def _average(self) -> np.ndarray:
        out = np.zeros_like(self.conditionals[0])
        for p, c in zip(self.prior, self.conditionals):
            out = out + p * c
        return _freeze(hermitian_part(out))

    @cached_property
    def _average_spectrum(self) -> np.ndarray:
        return _freeze(_eigvalsh(self._average))

    @cached_property
    def _average_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_freeze(a) for a in _eigh(self._average))

    @cached_property
    def _petz_overlaps(self) -> tuple[np.ndarray, tuple]:
        """(mu, terms): mu holds the average's eigenvalues above TOL.rank_cut;
        terms holds (p_x, lam, ov) per supported symbol, with lam the
        conditional's eigenvalues above TOL.rank_cut and ov[i, j] the overlap
        |<v_i|w_j>|^2 of their eigenvectors with those of mu. What
        entropies.petz_curve reads at every order."""
        mu, wvec = self._average_eigh
        keep = mu > TOL.rank_cut
        wvec = wvec[:, keep]
        terms = []
        for i, p in self._supported_indices():
            lam, v = self._cond_eighs[i]
            pos = lam > TOL.rank_cut
            ov = np.abs(v[:, pos].conj().T @ wvec) ** 2
            terms.append((p, _freeze(lam[pos]), _freeze(ov)))
        return _freeze(mu[keep]), tuple(terms)

    @cached_property
    def _output_fidelity(self) -> float:
        """F(rho_0, rho_1) of a two-symbol state, from rho_0's kept _eigh."""
        return _fidelity(self._cond_eighs[0], self.conditionals[1])

    @cached_property
    def _guess(self):  # GuessResult
        from . import entropies  # local import: entropies depends on this module

        return entropies._guessing(self)

    @cached_property
    def _q(self):  # QResult
        from . import entropies

        return entropies._decoupling_q(self)


@dataclass(frozen=True, eq=False)
class CqChannel:
    """Finite-alphabet channel with density-operator outputs.

    witnesses, when present, are unitaries U_s with U_s W(z) U_s† = W(z+s)
    for all z (addition mod d); they certify the channel is symmetric.
    _state is the uniform-input cq state (1/d) sum_z |z><z| (x) W(z), built
    with the channel: its validation is the channel's, its conditionals are
    the outputs, and dual, channel_state, the output fidelity and every
    entropy of the channel read its kept table, spectra and decompositions.
    """

    outputs: tuple[np.ndarray, ...]
    witnesses: tuple[np.ndarray, ...] | None = None
    _state: CqState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.outputs)
        state = CqState(np.ones(d) / d, self.outputs)  # not 1 / d: CqState refuses d = 0
        outs = state.conditionals
        object.__setattr__(self, "_state", state)
        object.__setattr__(self, "outputs", outs)
        if self.witnesses is not None:
            wit = tuple(_freeze(np.asarray(u, dtype=complex)) for u in self.witnesses)
            if len(wit) != len(outs):
                raise ValueError("need one witness per input symbol")
            for u in wit:
                if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > TOL.witness:
                    raise ValueError("witness is not unitary")
            for s in range(d):
                for z in range(d):
                    lhs = wit[s] @ outs[z] @ wit[s].conj().T
                    if np.max(np.abs(lhs - outs[(z + s) % d])) > TOL.witness:
                        raise ValueError(
                            f"witness {s} does not shift output {z} to {(z + s) % d}"
                        )
            object.__setattr__(self, "witnesses", wit)

    @property
    def input_size(self) -> int:
        return len(self.outputs)

    @property
    def dim(self) -> int:
        return self.outputs[0].shape[0]

    @property
    def is_symmetric(self) -> bool:
        return self.witnesses is not None


@dataclass(frozen=True)
class ChannelState:
    """Maximally-entangled four-party pure state generating a channel and its dual.

    psi has subsystem order (A, B, C, D): measuring A in the standard basis and
    tracing C, D leaves W(z)/d; measuring A in the conjugate basis and tracing
    B leaves the dual outputs.
    """

    psi: PureState

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.psi.dims  # type: ignore[return-value]

    def conditional_on_standard(self, z: int) -> np.ndarray:
        """Normalized B-state after measuring A -> z and tracing C, D."""
        d_a, d_b, d_c, d_d = self.dims
        amp = self.psi.amplitudes.reshape(d_a, d_b, d_c, d_d)
        block = amp[z].reshape(-1)
        nrm = np.linalg.norm(block)
        if nrm < TOL.roundoff:
            raise ValueError(f"outcome {z} has zero probability")
        block = block / nrm
        return partial_trace(block, (d_b, d_c * d_d), 0)

    def unnormalized_f_conditionals(self) -> list[np.ndarray]:
        """sigma_z = Tr_AB[|z><z|_A psi] on C (x) D, not normalized."""
        d_a, d_b, d_c, d_d = self.dims
        amp = self.psi.amplitudes.reshape(d_a, d_b, d_c, d_d)
        out = []
        for z in range(d_a):
            block = amp[z].reshape(d_b, d_c * d_d)
            out.append(block.conj().T @ block)  # trace over B
        return out


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------


def make_bsc(p: float) -> CqChannel:
    """Binary symmetric channel with crossover p, as diagonal qubit outputs."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover {p} outside [0, 1]")
    outs = (np.diag([1 - p, p]).astype(complex), np.diag([p, 1 - p]).astype(complex))
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    return CqChannel(outs, witnesses=(np.eye(2, dtype=complex), swap))


def make_bec(p: float) -> CqChannel:
    """Binary erasure channel with erasure probability p over basis (0, 1, ?)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} outside [0, 1]")
    outs = (
        np.diag([1 - p, 0, p]).astype(complex),
        np.diag([0, 1 - p, p]).astype(complex),
    )
    swap01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    return CqChannel(outs, witnesses=(np.eye(3, dtype=complex), swap01))


def make_bsc_dual(p: float) -> CqChannel:
    """Pure-output channel x -> sqrt(p)|0> + (-1)^x sqrt(1-p)|1>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"parameter {p} outside [0, 1]")
    eta0 = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
    eta1 = np.array([np.sqrt(p), -np.sqrt(1 - p)], dtype=complex)
    outs = (np.outer(eta0, eta0.conj()), np.outer(eta1, eta1.conj()))
    zop = np.diag([1.0, -1.0]).astype(complex)
    return CqChannel(outs, witnesses=(np.eye(2, dtype=complex), zop))


def _pure_swap_witness(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Reflection unitary exchanging the projectors of two pure states."""
    dim = a.shape[0]
    overlap = np.vdot(a, b)
    bb = b if abs(overlap) < TOL.nonzero else b * np.exp(-1j * np.angle(overlap))
    c = np.vdot(a, bb).real
    u = bb - c * a
    s = np.linalg.norm(u)
    if s < TOL.rank_cut:
        return np.eye(dim, dtype=complex)
    e1, e2 = a, u / s
    refl = (
        c * np.outer(e1, e1.conj())
        + s * np.outer(e1, e2.conj())
        + s * np.outer(e2, e1.conj())
        - c * np.outer(e2, e2.conj())
    )
    span = np.outer(e1, e1.conj()) + np.outer(e2, e2.conj())
    return refl + (np.eye(dim, dtype=complex) - span)


def make_pure(vectors) -> CqChannel:
    """Channel whose outputs are the projectors onto the given unit vectors."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    for v in vecs:
        if abs(np.linalg.norm(v) - 1.0) > TOL.unit_norm:
            raise ValueError("pure-channel vectors must be normalized")
    outs = tuple(np.outer(v, v.conj()) for v in vecs)
    witnesses = None
    if len(vecs) == 2:
        w1 = _pure_swap_witness(vecs[0], vecs[1])
        if w1 is not None:
            witnesses = (np.eye(vecs[0].shape[0], dtype=complex), w1)
    return CqChannel(outs, witnesses=witnesses)


def _classical_swap_witness(t: np.ndarray) -> np.ndarray | None:
    """Permutation matrix of the output symbols that maps row 0 of a binary
    transition table onto row 1 and row 1 onto row 0, or None if none does."""
    # pair the k-th symbol in (t0, t1) order with the k-th in (t1, t0) order
    rows = np.lexsort((t[1], t[0]))
    swapped = np.lexsort((t[0], t[1]))
    if np.max(np.abs(t[:, rows] - t[::-1, swapped])) > TOL.witness:
        return None
    perm = np.zeros((t.shape[1], t.shape[1]), dtype=complex)
    perm[rows, swapped] = 1.0
    return perm


def make_classical(transition) -> CqChannel:
    """CQ form of a classical channel: diagonal outputs over the Y alphabet.

    A binary-input channel whose rows are exchanged by a permutation of the
    output symbols gets that permutation as its symmetry witness.
    """
    t = np.asarray(transition, dtype=float)
    outs = tuple(np.diag(row).astype(complex) for row in t)
    witnesses = None
    if t.shape[0] == 2:
        swap = _classical_swap_witness(t)
        if swap is not None:
            witnesses = (np.eye(t.shape[1], dtype=complex), swap)
    return CqChannel(outs, witnesses=witnesses)


# ---------------------------------------------------------------------------
# dual construction
# ---------------------------------------------------------------------------


def _common_purifications(w: CqChannel, classical_canonical: bool = False) -> np.ndarray:
    """Purifications phi_z as a (d, dim, r) array sharing one D dimension.

    With classical_canonical, channels with all-diagonal outputs take the
    diagonal purification |phi_z> = sum_y sqrt(P(y|z)) |y>_B |y>_D, so that
    the D register of the dual literally records the classical output symbol.
    Otherwise D is kept at the minimal common rank.
    """
    d, dim = w.input_size, w.dim
    table = w._state._table if classical_canonical else None
    if table is not None:
        phis = np.zeros((d, dim, dim), dtype=complex)
        phis[:, np.arange(dim), np.arange(dim)] = np.sqrt(table)
        return phis
    pures = w._state._purifications
    r = max(p.dims[1] for p in pures)
    phis = np.zeros((d, dim, r), dtype=complex)
    for z, p in enumerate(pures):
        phis[z, :, : p.dims[1]] = p.amplitudes.reshape(p.dims)
    return phis


def channel_state(w: CqChannel) -> ChannelState:
    """The four-party state d^{-1/2} sum_z |z>_A |z>_C |phi_z>_{BD}."""
    d, dim = w.input_size, w.dim
    phis = _common_purifications(w)
    r = phis.shape[2]
    amp = np.zeros((d, dim, d, r), dtype=complex)
    for z in range(d):
        amp[z, :, z, :] = phis[z] / np.sqrt(d)
    return ChannelState(PureState(amp.reshape(-1), (d, dim, d, r)))


@lru_cache(maxsize=16)
def _roots_of_unity(d: int) -> np.ndarray:
    """omega^k = exp(2 pi i k / d) for k = 0, .., d-1, the quarter turns 1, i, -1
    and -i exact: np.exp(1j * pi) carries an imaginary part of 1.2e-16, which
    would make the dual of every real binary-input channel complex. Built once
    per d, read-only."""
    k = np.arange(d)
    roots = np.exp(2j * np.pi * k / d)
    for quarter, exact in enumerate((1, 1j, -1, 0 - 1j)):  # -1j's real part is -0.0
        roots[4 * k == quarter * d] = exact
    return _freeze(roots)


def dual(w: CqChannel) -> CqChannel:
    """Dual channel: conjugate-basis input, complementary (C, D) output.

    Output x is Tr_B |theta_x><theta_x| with
    theta_x = d^{-1/2} sum_z omega^{xz} |z>_C |phi_z>_{BD}. The result carries
    the phase-operator witnesses Z^x on C regardless of the symmetry of w.
    Every phase omega^{xz} is read from one table, _roots_of_unity(d), at
    xz mod d. Binary-input phases are exactly +-1, so the dual of a
    binary-input channel with real outputs has real outputs, which LAPACK's
    real solver then decomposes.
    """
    d = w.input_size
    phis = _common_purifications(w, classical_canonical=True)
    r = phis.shape[2]
    roots, z = _roots_of_unity(d), np.arange(d)
    outs = []
    for x in range(d):
        # index order (C, B, D)
        theta = roots[x * z % d][:, None, None] / np.sqrt(d) * phis
        out = np.einsum("cbd,ebf->cdef", theta, theta.conj()).reshape(d * r, d * r)
        outs.append(hermitian_part(out))
    witnesses = tuple(
        _kron(np.diag(roots[x * z % d]), np.eye(r, dtype=complex)) for x in range(d)
    )
    return CqChannel(tuple(outs), witnesses=witnesses)


def classical_dual_overlaps(w: CqChannel) -> list[tuple[float, float]]:
    """Per-output-symbol (P_Y(y), cos theta_y) for a binary-input channel
    with diagonal (classical) outputs.

    cos theta_y = |P(Z=0|y) - P(Z=1|y)| under a uniform input; symbols with
    zero probability are skipped.
    """
    t = w._state._table
    if t is None or t.shape[0] != 2:
        raise Unsupported("overlap formula requires binary input and diagonal outputs")
    out = []
    for y in range(t.shape[1]):
        py = 0.5 * (t[0, y] + t[1, y])
        if py <= 0:
            continue
        cos = abs(0.5 * t[0, y] - 0.5 * t[1, y]) / py
        out.append((float(py), float(cos)))
    return out


def _erasure_probability(w: CqChannel) -> float | None:
    """Mass of the output symbols both inputs see, if w has binary input and
    diagonal outputs whose every symbol is seen by one input only or equally
    likely under both (within TOL.diagonal); else None."""
    if w.input_size != 2 or w._state._table is None:
        return None
    t0, t1 = w._state._table
    seen_by_one = np.minimum(t0, t1) <= TOL.diagonal
    if not np.all(seen_by_one | (np.abs(t0 - t1) <= TOL.diagonal)):
        return None
    return float(t0[~seen_by_one].sum())


def _shift_blocks(ops, weights) -> tuple[np.ndarray, ...]:
    """For each x in 0..d-1, the block-diagonal operator holding weights[z] * ops[z]
    in block (x + z) mod d: the joint state of Y = x + Z and the side information
    of Z. The one shift-block builder: symmetrize and the shift-structured state
    identity (codedchannels.structured_state_gap) both call it."""
    d, dim = len(ops), ops[0].shape[0]
    out = []
    for x in range(d):
        rho = np.zeros((d * dim, d * dim), dtype=complex)
        for z in range(d):
            y = (x + z) % d
            rho[y * dim : (y + 1) * dim, y * dim : (y + 1) * dim] = weights[z] * ops[z]
        out.append(rho)
    return tuple(out)


def symmetrize(w: CqChannel) -> CqChannel:
    """Record a uniformly random input shift next to the shifted output."""
    d, dim = w.input_size, w.dim
    outs = _shift_blocks(w.outputs, np.full(d, 1.0 / d))
    shift = np.zeros((d, d), dtype=complex)
    for u in range(d):
        shift[(u + 1) % d, u] = 1.0
    witnesses = tuple(
        _kron(np.linalg.matrix_power(shift, s), np.eye(dim, dtype=complex))
        for s in range(d)
    )
    return CqChannel(outs, witnesses=witnesses)


def degrade_to_bsc(w: CqChannel) -> tuple[CqChannel, float]:
    """Optimal binary measurement turns w into a BSC with crossover (1-delta)/2."""
    if w.input_size != 2:
        raise Unsupported("degradation to a BSC needs a binary-input channel")
    delta = trace_distance(w.outputs[0], w.outputs[1])
    crossover = float(0.5 * (1.0 - delta))
    return make_bsc(crossover), crossover


def upgrade_to_pure(w: CqChannel) -> CqChannel:
    """Pure-output channel whose overlap equals the output fidelity of w."""
    if w.input_size != 2:
        raise Unsupported("upgrade needs a binary-input channel")
    f = min(1.0, w._state._output_fidelity)
    return make_bsc_dual((1.0 - f) / 2.0)


# ---------------------------------------------------------------------------
# invariant profiles (equivalence proxy)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantProfile:
    """Equivalence-invariant summary of a binary-input channel.

    Every entry is preserved by two-way output degradation and input
    relabeling, so matching profiles is a necessary condition for channel
    equivalence (and the strongest proxy used here).
    """

    trace_distance: float
    bhattacharyya: float
    von_neumann: float
    hmin: float
    hmax: float
    petz_points: tuple[tuple[float, float], ...]

    def as_array(self) -> np.ndarray:
        """The five scalars in field order, then the Petz values at PROFILE_ALPHAS."""
        return np.asarray([self.trace_distance, self.bhattacharyya, self.von_neumann,
                           self.hmin, self.hmax, *(v for _, v in self.petz_points)])

    def to_dict(self) -> dict:
        return asdict(self)


def invariant_profile(w: CqChannel) -> InvariantProfile:
    """Profile of a binary-input channel under the uniform input."""
    from . import entropies  # local import: entropies depends on this module

    if w.input_size != 2:
        raise Unsupported("invariant profiles are defined for binary-input channels")
    state = w._state
    delta = trace_distance(w.outputs[0], w.outputs[1])
    bhat = state._output_fidelity
    h = entropies.cond_entropy(state, entropies.VON_NEUMANN)
    hmin = entropies.cond_entropy(state, entropies.MIN_ENTROPY)
    hmax = entropies.cond_entropy(state, entropies.MAX_ENTROPY)
    petz = tuple(zip(PROFILE_ALPHAS, entropies.petz_curve(state, PROFILE_ALPHAS)))
    return InvariantProfile(float(delta), float(bhat), h, hmin, hmax, petz)


def profile_gap(a: InvariantProfile, b: InvariantProfile) -> float:
    return float(np.max(np.abs(a.as_array() - b.as_array())))


def dual_profile_gap(w: CqChannel, v: CqChannel) -> float:
    """Profile gap between dual(w) and v: how far v is from looking like w's dual."""
    return profile_gap(invariant_profile(dual(w)), invariant_profile(v))


def trace_distance_vs_dual_fidelity(w: CqChannel) -> tuple[float, float]:
    """Return (delta(W), F(dual(W))); the two agree for binary-input channels."""
    if w.input_size != 2:
        raise Unsupported("needs a binary-input channel")
    delta = trace_distance(w.outputs[0], w.outputs[1])
    return float(delta), float(dual(w)._state._output_fidelity)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _decode_matrix(rows: list) -> np.ndarray:
    """Matrix from rows of [re, im] pairs; ValueError on any other shape."""
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except TypeError as exc:  # a number where a row or a pair belongs
        raise ValueError(f"expected rows of [re, im] pairs ({exc})") from exc


def _json_list(doc, key: str) -> list:
    """doc[key] of a channel file's JSON, or a ValueError naming the key."""
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise ValueError(f"channel JSON needs an object with a list under {key!r}")
    return doc[key]


def channel_to_dict(w: CqChannel) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "d": w.input_size,
        "dim": w.dim,
        "outputs": [_encode_matrix(o) for o in w.outputs],
    }
    if w.witnesses is not None:
        doc["witnesses"] = [_encode_matrix(u) for u in w.witnesses]
    return doc


def channel_from_dict(doc: dict) -> CqChannel:
    """Channel from its outputs and optional witnesses; other keys are ignored."""
    outputs = tuple(_decode_matrix(o) for o in _json_list(doc, "outputs"))
    witnesses = None
    if "witnesses" in doc:
        witnesses = tuple(_decode_matrix(u) for u in _json_list(doc, "witnesses"))
    return CqChannel(outputs, witnesses=witnesses)


def channel_to_json(w: CqChannel) -> str:
    return json.dumps(channel_to_dict(w), sort_keys=True)


def channel_from_json(text: str) -> CqChannel:
    return channel_from_dict(json.loads(text))
