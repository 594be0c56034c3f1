"""Seeded random channels and states for property tests and the self-test suite."""

from __future__ import annotations

import numpy as np

from . import channels as _ch
from .linalg import hermitian_part

__all__ = [
    "random_density",
    "random_pure_vector",
    "random_channel",
    "random_symmetric_channel",
    "binary_channel_corpus",
]


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return hermitian_part(m / np.trace(m).real)


def random_pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_channel(
    rng: np.random.Generator, dim: int = 2, rank: int | None = None, d: int = 2
) -> _ch.CqChannel:
    """Generic (usually non-symmetric) channel with random mixed outputs."""
    outs = tuple(random_density(rng, dim, rank) for _ in range(d))
    return _ch.CqChannel(outs)


def random_symmetric_channel(rng: np.random.Generator, dim: int = 2) -> _ch.CqChannel:
    """Binary-input channel symmetric under a random reflection unitary."""
    v = random_pure_vector(rng, dim)
    refl = np.eye(dim, dtype=complex) - 2.0 * np.outer(v, v.conj())
    out0 = random_density(rng, dim)
    out1 = hermitian_part(refl @ out0 @ refl.conj().T)
    return _ch.CqChannel((out0, out1), witnesses=(np.eye(dim, dtype=complex), refl))


def binary_channel_corpus(seed: int, count: int, dims=(2, 3, 4)) -> list[_ch.CqChannel]:
    """Mixed bag of binary-input channels with output dimensions from dims."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        dim = dims[i % len(dims)]
        style = i % 4
        if style == 0:
            out.append(random_channel(rng, dim))
        elif style == 1:
            out.append(random_symmetric_channel(rng, dim))
        elif style == 2:
            out.append(random_channel(rng, dim, rank=max(1, dim - 1)))
        else:
            vecs = [random_pure_vector(rng, dim) for _ in range(2)]
            out.append(_ch.make_pure(vecs))
    return out
