"""Complex dense linear algebra kernels for density operators and pure states.

All operators are numpy complex arrays. Density operators are Hermitian PSD
with unit trace; pure states are unit vectors with declared subsystem
dimensions. Everything here is a pure function on immutable inputs.

Every eigensolve goes through two private kernels, _eigh and _eigvalsh. A
complex matrix whose imaginary part is exactly zero is handed to LAPACK's real
symmetric solver, which is 2-3x faster than the complex one at dimension 128
and up; eigenvectors still come back complex. Such are the operators of a
real binary-input channel (BSC, BEC, BSC dual, classical table), of its codes,
convolutions and truncations, and of its dual, whose phases are exactly +-1
(channels.dual), with every average, purification and fidelity built on them.
Validation keeps the eigenvalues it computes (_density_spectrum), so a caller
that holds a validated density need not decompose it again. The private
kernels below that need a full decomposition (_spectral_fn, _fidelity,
_factor, _purify, _compress_to_support) take it as a (w, v) pair from the
caller: the public fronts pass a fresh _eigh, and the library passes the one
that channels.CqState keeps for its validated operators and average (a
channel's are those of its uniform-input state), so each such matrix is
decomposed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL

__all__ = [
    "PureState",
    "hermitian_part",
    "assert_hermitian",
    "assert_density",
    "hermitian_eig",
    "diagonal_table",
    "spectral_fn",
    "psd_sqrt",
    "fidelity",
    "trace_distance",
    "trace_norm",
    "tensor",
    "partial_trace",
    "purify",
    "gram_embed",
    "von_neumann_entropy",
]


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector together with the dimensions of its tensor factors."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.size != int(np.prod(self.dims)):
            raise ValueError(f"amplitude length {v.size} != prod{self.dims}")
        n = np.linalg.norm(v)
        if not abs(n - 1.0) <= TOL.unit_norm:  # a NaN norm fails too
            raise ValueError(f"state norm {n} not 1 within {TOL.unit_norm}")
        object.__setattr__(self, "amplitudes", v)

    def density(self) -> np.ndarray:
        v = self.amplitudes
        return np.outer(v, v.conj())

    def reduced(self, keep) -> np.ndarray:
        return partial_trace(self.density(), self.dims, keep)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2."""
    return (a + a.conj().T) / 2


def assert_hermitian(a: np.ndarray, tol: float = TOL.hermiticity) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    gap = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if not gap <= tol:  # a NaN or inf entry makes the gap NaN
        raise ValueError(f"matrix not Hermitian: max |A - A†| = {gap:.3e}")
    return hermitian_part(a)


def assert_density(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace; return the Hermitian part."""
    return _density_spectrum(rho)[0]


def _density_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """assert_density, returning the Hermitian part and its eigenvalues."""
    rho = assert_hermitian(rho)
    w = _eigvalsh(rho)
    if w.min() < TOL.density_eigenvalue_floor:
        raise ValueError(f"negative eigenvalue {w.min():.3e} below floor")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TOL.trace_one:
        raise ValueError(f"trace {tr} not 1 within {TOL.trace_one}")
    return rho, w


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a.real when a is complex with an imaginary part that is exactly zero, else a."""
    # count_nonzero is the cheapest exact zero test on the tiny matrices that
    # make up most calls: about 1 us at dimension 2, against 4 us for np.any
    if a.dtype.kind == "c" and not np.count_nonzero(a.imag):
        return a.real
    return a


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix the caller already holds Hermitian.

    A complex matrix with an exactly zero imaginary part goes to the real
    symmetric solver; its eigenvectors are returned complex all the same.
    Uses LAPACK's default routine; when that fails to converge (seen with
    single-threaded OpenBLAS on some rank-deficient inputs of dimension ~200)
    it retries once with the MRRR routine (evr) on the same matrix.
    """
    r = _real_if_exact(a)
    try:
        w, v = np.linalg.eigh(r)
    except np.linalg.LinAlgError:
        import scipy.linalg

        w, v = scipy.linalg.eigh(r, driver="evr")
    return (w, v.astype(complex)) if r is not a else (w, v)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a matrix the caller already holds Hermitian,
    from the real solver when its imaginary part is exactly zero."""
    return np.linalg.eigvalsh(_real_if_exact(a))


def _vn_of_spectrum(w: np.ndarray) -> float:
    """-sum w log2 w over the eigenvalues above TOL.rank_cut, in bits."""
    w = w[w > TOL.rank_cut]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and orthonormal eigenvectors as
    columns, so that A = V diag(w) V†.
    """
    return _eigh(assert_hermitian(a))


def diagonal_table(ops) -> np.ndarray | None:
    """(len(ops), dim) table of the diagonals, clipped at 0, when every
    operator is diagonal in the standard basis within TOL.diagonal; else None.
    Lets commuting (classical) families take exact closed-form paths."""
    rows = []
    for a in ops:
        off = a - np.diag(np.diag(a))
        if np.max(np.abs(off)) > TOL.diagonal:
            return None
        rows.append(np.clip(np.diag(a).real, 0.0, None))
    return np.asarray(rows)


def spectral_fn(a: np.ndarray, fn) -> np.ndarray:
    """Apply fn to eigenvalues above TOL.rank_cut; the rest map to 0."""
    return _spectral_fn(_eigh(assert_hermitian(a)), fn)


def _spectral_fn(eig: tuple[np.ndarray, np.ndarray], fn) -> np.ndarray:
    """spectral_fn of a Hermitian matrix given by its eigendecomposition (w, v)."""
    w, v = eig
    fw = np.where(w > TOL.rank_cut, fn(np.maximum(w, TOL.rank_cut)), 0.0)
    return (v * fw) @ v.conj().T


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix; eigenvalues in
    [-TOL.psd_clamp * scale, 0) are clamped, with scale = max(1, |a|_2)."""
    w, v = _eigh(assert_hermitian(a))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if w.min() < -TOL.psd_clamp * scale:
        raise ValueError(f"matrix not PSD: eigenvalue {w.min():.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1, in [0, 1] for density operators.

    Evaluated on the support factor of rho: with rho = Y Y†, the nonzero
    spectrum of sqrt(rho) sigma sqrt(rho) equals that of Y† sigma Y, which
    avoids square-rooting null-space noise (and is exact for pure states).
    Eigenvalues of either at or below TOL.roundoff * max(1, largest) are
    rounding noise and left out: the square root would lift 1e-17 to 3e-9.
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    return _fidelity(_eigh(assert_hermitian(rho)), sigma)


def _fidelity(rho_eig: tuple[np.ndarray, np.ndarray], sigma: np.ndarray) -> float:
    """fidelity of a Hermitian rho given by its eigendecomposition (w, v) and a
    sigma of its shape."""
    w, v = rho_eig
    scale = max(1.0, float(w.max())) if w.size else 1.0
    keep = w > TOL.roundoff * scale  # numeric noise floor, not the rank decision
    y = v[:, keep] * np.sqrt(w[keep])
    m = hermitian_part(y.conj().T @ sigma @ y)
    if not m.size:
        return 0.0
    ev = _eigvalsh(m)
    return float(np.sum(np.sqrt(ev[ev > TOL.roundoff * max(1.0, float(ev[-1]))])))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(_eigvalsh(assert_hermitian(a)))))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """delta(rho, sigma) = ||rho - sigma||_1 / 2."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch {rho.shape} vs {sigma.shape}")
    return 0.5 * trace_norm(rho - sigma)


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors)."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = _kron(out, np.asarray(op, dtype=complex))
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or matrices, a vector beside a matrix counting as
    one row, by one broadcast product. It forms the same products a_ij b_kl in
    the same operand order, so its bits are np.kron's, -0.0 included; it skips
    np.kron's general shape handling, which costs five times the product on
    the small operators of dual, convolve and symmetrize. The one Kronecker
    kernel."""
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    if a.ndim == 1 or b.ndim == 1:
        a, b = np.atleast_2d(a), np.atleast_2d(b)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def partial_trace(state: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in keep.

    state may be a density matrix of shape (prod(dims), prod(dims)) or a pure
    state vector of length prod(dims). keep is an int or iterable of subsystem
    indices; their relative order is preserved in the output.
    """
    dims = tuple(int(d) for d in dims)
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(int(k) for k in keep)
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    total = int(np.prod(dims))
    state = np.asarray(state, dtype=complex)
    dkeep = int(np.prod([dims[k] for k in keep])) if keep else 1
    traced = [i for i in range(n) if i not in keep]
    if state.ndim == 1:
        psi = state.reshape(dims)
        perm = list(keep) + traced
        psi = np.transpose(psi, perm).reshape(dkeep, total // dkeep)
        return psi @ psi.conj().T
    rho = state.reshape(dims + dims)
    perm = list(keep) + traced
    rho = np.transpose(rho, perm + [n + p for p in perm])
    rho = rho.reshape(dkeep, total // dkeep, dkeep, total // dkeep)
    return np.einsum("ajbj->ab", rho)


def purify(rho: np.ndarray) -> PureState:
    """Purification of rho on B (x) D with |D| equal to the numerical rank.

    The returned state satisfies Tr_D |phi><phi| = rho and has subsystem
    dims (dim(rho), rank).
    """
    return _purify(_eigh(assert_density(rho)))


def _purify(eig: tuple[np.ndarray, np.ndarray]) -> PureState:
    """purify of a validated density operator given by its eigendecomposition (w, v)."""
    y = _factor(eig)[:, ::-1]  # descending weight
    flat = y.reshape(-1)
    return PureState(flat / np.linalg.norm(flat), y.shape)


def _factorize(a: np.ndarray) -> np.ndarray:
    """Low-rank factor Y with A = Y Y† for a PSD matrix, columns in ascending weight."""
    return _factor(_eigh(hermitian_part(np.asarray(a, dtype=complex))))


def _factor(eig: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """_factorize of a PSD matrix given by its eigendecomposition (w, v)."""
    w, v = eig
    keep = w > TOL.rank_cut
    return v[:, keep] * np.sqrt(w[keep])


def gram_embed(gram: np.ndarray) -> np.ndarray:
    """Coordinate vectors reproducing a PSD Gram matrix.

    Returns an (m, r) array with r = rank(gram) such that
    vdot(vecs[i], vecs[j]) == gram[i, j] within 1e-8. Uses the
    eigendecomposition of the Gram matrix, which stays robust on
    rank-deficient inputs.
    """
    gram = assert_hermitian(gram, tol=TOL.gram_psd)
    w, v = _eigh(gram)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if w.min() < -TOL.gram_psd * scale:
        raise ValueError(f"Gram matrix indefinite: eigenvalue {w.min():.3e}")
    keep = np.where(w > TOL.rank_cut * scale)[0]
    # columns of X are the embedded vectors: X†X = gram
    x = (np.sqrt(w[keep])[:, None]) * v[:, keep].conj().T
    return np.ascontiguousarray(x.T)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) in bits."""
    return _vn_of_spectrum(_eigvalsh(assert_hermitian(rho)))


def _compress_to_support(
    ops, average_eig: tuple[np.ndarray, np.ndarray]
) -> tuple[list[np.ndarray], list[float]] | None:
    """Each operator compressed to the support of a Hermitian PSD average given by
    its eigendecomposition (w, v) (the eigenvectors with eigenvalues above
    TOL.rank_cut), and the traces of the compressed operators; None when that
    support is the whole space. The one support compression: entropies and polar
    both call it."""
    w, v = average_eig
    keep = w > TOL.rank_cut
    if keep.all():
        return None
    iso = np.ascontiguousarray(v[:, keep])
    out = [hermitian_part(iso.conj().T @ a @ iso) for a in ops]
    return out, [float(np.trace(c).real) for c in out]
