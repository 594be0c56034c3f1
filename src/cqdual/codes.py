"""Linear algebra over prime fields and the paired-code formalism.

A code pair is an invertible n x n matrix M over GF(q): its first n-k rows are
the parity checks of a code C, the last k rows read off the message. The
inverse-transpose M' plays the same role for the dual code, and swapping the
two row blocks yields the complement code. Encoders act on column vectors,
matrices multiply from the left.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Unsupported

__all__ = [
    "gf_invert",
    "gf_rank",
    "all_vectors",
    "CodePair",
    "build_code",
    "build_from_parity",
    "repetition_pair",
    "single_parity_pair",
    "hamming74_pair",
    "rm13_pair",
    "preset_pair",
    "PRESETS",
    "weight_enumerator",
    "macwilliams_transform",
    "save_code_pair",
    "load_code_pair",
]

_ENUM_CAP_N = 24
_ENUM_CAP_WORDS = 1 << 24


def _as_field(m, q: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.int64) % q
    return a


def _check_prime(q: int):
    if q < 2 or any(q % r == 0 for r in range(2, int(q**0.5) + 1)):
        raise ValueError(f"field size {q} is not prime")


def _row_reduce(aug: np.ndarray, q: int, ncols: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination over GF(q), pivoting within the first ncols columns.

    Returns the reduced row-echelon copy of aug and its pivot columns; the
    columns past ncols (an identity block or a right-hand side) are carried
    along by the row operations.
    """
    a = aug.copy()
    rows = a.shape[0]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == rows:
            break
        nonzero = np.nonzero(a[row:, col])[0]
        if nonzero.size == 0:
            continue
        piv = row + int(nonzero[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        a[row] = (a[row] * pow(int(a[row, col]), q - 2, q)) % q
        for r in range(rows):
            if r != row and a[r, col] != 0:
                a[r] = (a[r] - a[r, col] * a[row]) % q
        pivots.append(col)
    return a, pivots


def gf_invert(m, q: int = 2) -> np.ndarray | None:
    """Inverse over GF(q) by Gauss-Jordan elimination; None when singular."""
    _check_prime(q)
    a = _as_field(m, q)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug, pivots = _row_reduce(np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1), q, n)
    return aug[:, n:] if len(pivots) == n else None


def gf_rank(m, q: int = 2) -> int:
    """Rank over GF(q)."""
    _check_prime(q)
    a = _as_field(m, q)
    return len(_row_reduce(a, q, a.shape[1])[1])


@lru_cache(maxsize=64)
def _all_vectors_cached(q: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    if q**k > _ENUM_CAP_WORDS:
        raise Unsupported(f"enumeration of {q}^{k} vectors exceeds the cap")
    idx = np.arange(q**k)
    cols = []
    for pos in range(k):
        cols.append((idx // q ** (k - 1 - pos)) % q)
    out = np.stack(cols, axis=1).astype(np.int64)
    out.setflags(write=False)
    return out


def all_vectors(q: int, k: int) -> np.ndarray:
    """All q^k vectors of length k, most significant coordinate first."""
    return _all_vectors_cached(int(q), int(k))


@dataclass(frozen=True, eq=False)
class CodePair:
    """Invertible matrix over GF(q) split into parity and message row blocks."""

    q: int
    n: int
    k: int
    matrix: np.ndarray
    inverse: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = _as_field(self.matrix, self.q)
        inv = _as_field(self.inverse, self.q)
        if (m @ inv % self.q != np.eye(self.n, dtype=np.int64)).any():
            raise ValueError("matrix and inverse do not multiply to identity")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k={self.k} outside [0, n]")
        m.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", inv)

    # row blocks -----------------------------------------------------------
    @property
    def parity_rows(self) -> np.ndarray:
        """Parity-check matrix of the code (first n-k rows of M)."""
        return self.matrix[: self.n - self.k]

    @property
    def message_rows(self) -> np.ndarray:
        """Rows reading off the message (last k rows of M)."""
        return self.matrix[self.n - self.k :]

    @property
    def mprime(self) -> np.ndarray:
        """Inverse-transpose of M; its row blocks govern the dual code."""
        return self.inverse.T % self.q

    @property
    def dual_message_rows(self) -> np.ndarray:
        return self.mprime[: self.n - self.k]

    @property
    def dual_parity_rows(self) -> np.ndarray:
        """Parity checks of the dual code; also the generator matrix of C."""
        return self.mprime[self.n - self.k :]

    # companion pairs --------------------------------------------------------
    # A companion's matrix is M or M' with its row blocks kept or swapped (a
    # roll by n-k), so its inverse is M^-1 or M^T with the same roll of its
    # columns: no elimination runs, and CodePair still checks the product.
    def dual(self) -> "CodePair":
        """Pair for the dual code: parity checks are the generator of C."""
        r = self.n - self.k
        m, inv = np.roll(self.mprime, -r, axis=0), np.roll(self.matrix.T, -r, axis=1)
        return CodePair(self.q, self.n, r, m, inv, name=f"dual({self.name})")

    def complement(self) -> "CodePair":
        """Pair with the two row blocks swapped (the complement code)."""
        r = self.n - self.k
        m, inv = np.roll(self.matrix, -r, axis=0), np.roll(self.inverse, -r, axis=1)
        return CodePair(self.q, self.n, r, m, inv, name=f"complement({self.name})")

    def dual_complement(self) -> "CodePair":
        """Pair built directly on M'; complement of the dual code."""
        return CodePair(self.q, self.n, self.k, self.mprime, self.matrix.T,
                        name=f"dualcomp({self.name})")

    # operations -------------------------------------------------------------
    def encode(self, syndrome, message) -> np.ndarray:
        """M^{-1} applied to the stacked (syndrome, message) column vector."""
        s = _as_field(syndrome, self.q).reshape(-1)
        m = _as_field(message, self.q).reshape(-1)
        if len(s) != self.n - self.k or len(m) != self.k:
            raise ValueError(
                f"expected lengths ({self.n - self.k}, {self.k}), got ({len(s)}, {len(m)})"
            )
        word = np.concatenate([s, m])
        return (self.inverse @ word) % self.q

    def extractor(self, x) -> np.ndarray:
        """Randomness extractor: the generator matrix applied to x."""
        x = _as_field(x, self.q).reshape(-1)
        if len(x) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(x)}")
        return (self.dual_parity_rows @ x) % self.q

    def codewords(self) -> np.ndarray:
        """All q^k codewords as rows, indexed by the message enumeration."""
        msgs = all_vectors(self.q, self.k)
        gen = self.inverse[:, self.n - self.k :]  # encode(0, m) = gen @ m
        return (msgs @ gen.T) % self.q

    def coset(self, syndrome) -> np.ndarray:
        """All words with the given syndrome, indexed by the message."""
        s = _as_field(syndrome, self.q).reshape(-1)
        shift = (self.inverse[:, : self.n - self.k] @ s) % self.q
        return (self.codewords() + shift) % self.q


def build_code(m, k: int, q: int = 2, name: str = "") -> CodePair:
    """Code pair from an invertible matrix and a message-block size. CodePair checks
    M M^-1 = I (mod q), whose off-diagonal blocks are the code/dual orthogonalities."""
    _check_prime(q)
    m = _as_field(m, q)
    inv = gf_invert(m, q)
    if inv is None:
        raise ValueError("matrix is singular over GF(q)")
    return CodePair(q, m.shape[0], k, m, inv, name=name)


def build_from_parity(parity, q: int = 2, name: str = "") -> CodePair:
    """Complete a full-rank parity-check matrix to a code pair.

    Standard basis rows are appended greedily until the matrix is invertible.
    """
    h = _as_field(parity, q)
    rows, n = h.shape
    if gf_rank(h, q) != rows:
        raise ValueError("parity-check matrix must have full row rank")
    m = h.copy()
    for j in range(n):
        if m.shape[0] == n:
            break
        e = np.zeros((1, n), dtype=np.int64)
        e[0, j] = 1
        trial = np.concatenate([m, e], axis=0)
        if gf_rank(trial, q) == trial.shape[0]:
            m = trial
    if m.shape[0] != n:
        raise ValueError("could not complete parity checks to an invertible matrix")
    return build_code(m, n - rows, q, name=name)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def repetition_pair(n: int) -> CodePair:
    h = np.zeros((n - 1, n), dtype=np.int64)
    for i in range(n - 1):
        h[i, i] = h[i, i + 1] = 1
    return build_from_parity(h, 2, name=f"repetition{n}1")


def single_parity_pair(n: int) -> CodePair:
    h = np.ones((1, n), dtype=np.int64)
    return build_from_parity(h, 2, name=f"parity{n}{n-1}")


def hamming74_pair() -> CodePair:
    h = np.array(
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
        dtype=np.int64,
    )
    return build_from_parity(h, 2, name="hamming74")


def rm13_pair() -> CodePair:
    # first-order Reed-Muller on 3 variables; self-dual [8, 4]
    rows = [np.ones(8, dtype=np.int64)]
    for bit in range(3):
        rows.append(np.array([(i >> (2 - bit)) & 1 for i in range(8)], dtype=np.int64))
    h = np.stack(rows)
    return build_from_parity(h, 2, name="rm13")


PRESETS = {
    "rep21": lambda: repetition_pair(2),
    "rep31": lambda: repetition_pair(3),
    "parity32": lambda: single_parity_pair(3),
    "hamming74": hamming74_pair,
    "rm13": rm13_pair,
}


def preset_pair(name: str) -> CodePair:
    key = name.lower()
    if key not in PRESETS:
        raise ValueError(f"unknown code preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[key]()


# ---------------------------------------------------------------------------
# weight enumerators
# ---------------------------------------------------------------------------


def weight_enumerator(cp: CodePair) -> np.ndarray:
    """Exhaustive weight distribution A_0..A_n of the code of cp; pass
    cp.dual() (or another companion pair) for that code's enumerator."""
    if cp.n > _ENUM_CAP_N:
        raise Unsupported(f"weight enumeration capped at n={_ENUM_CAP_N}")
    words = cp.codewords()
    weights = (words != 0).sum(axis=1)
    return np.bincount(weights, minlength=cp.n + 1).astype(np.int64)


def macwilliams_transform(a: np.ndarray, q: int = 2) -> np.ndarray:
    """Weight enumerator of the dual code from the primal one.

    W_dual(x, y) = W(x + (q-1) y, x - y) / |C|, expanded coefficient-wise with
    exact integer polynomial arithmetic.
    """
    a = np.asarray(a, dtype=object)
    n = len(a) - 1
    size = int(sum(a))
    out = np.zeros(n + 1, dtype=object)
    xplus = np.array([1, q - 1], dtype=object)  # (x + (q-1) y) at x=1, powers of y
    xminus = np.array([1, -1], dtype=object)  # (x - y) at x=1, powers of y
    for w, coeff in enumerate(a):
        if coeff == 0:
            continue
        poly = np.array([1], dtype=object)
        for _ in range(n - w):
            poly = np.convolve(poly, xplus)
        for _ in range(w):
            poly = np.convolve(poly, xminus)
        out[: len(poly)] += coeff * poly
    out = out // size
    return out.astype(np.int64)


# ---------------------------------------------------------------------------
# plain-text code files
# ---------------------------------------------------------------------------


def save_code_pair(cp: CodePair, path) -> None:
    text = io.StringIO()
    text.write(f"{cp.q} {cp.n} {cp.k}\n")
    for row in cp.matrix:
        text.write("".join(str(int(v)) for v in row) + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text.getvalue())


def load_code_pair(path) -> CodePair:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"code file {path} is empty; expected a 'q n k' line first")
    q, n, k = (int(v) for v in lines[0].split())
    rows = [[int(c) for c in ln] for ln in lines[1:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected {n} rows of length {n}")
    m = np.array(rows, dtype=np.int64)
    if m.max(initial=0) >= q:
        raise ValueError(f"code file digit {m.max()} is not below q = {q}")
    return build_code(m, k, q)
