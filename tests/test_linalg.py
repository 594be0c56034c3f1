import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqdual import linalg
from cqdual.corpus import random_density, random_pure_vector


def test_hermitian_eig_diagonal():
    w, v = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) <= 1e-10


def test_hermitian_eig_pauli_x():
    w, _ = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0])


def test_hermitian_eig_reconstruction(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = (a + a.conj().T) / 2
    w, v = linalg.hermitian_eig(a)
    recon = (v * w) @ v.conj().T
    assert np.max(np.abs(a - recon)) <= 1e-9 * (1 + np.max(np.abs(a)))
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_fronts_reject_non_hermitian():
    # the public spectral functions validate their input; only the library's
    # own Hermitian-by-construction matrices go to the kernels unchecked
    a = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.spectral_fn(a, np.log2)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.von_neumann_entropy(a)


def test_psd_sqrt_identity_and_diag():
    assert np.allclose(linalg.psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))
    assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back(rng):
    rho = random_density(rng, 4)
    s = linalg.psd_sqrt(rho)
    assert np.max(np.abs(s @ s - rho)) < 1e-8


def test_psd_sqrt_eigenvalues_are_roots(rng):
    a = 3.0 * random_density(rng, 5)
    w_a = np.linalg.eigvalsh(a)
    w_s = np.linalg.eigvalsh(linalg.psd_sqrt(a))
    assert np.max(np.abs(np.sqrt(np.clip(w_a, 0, None)) - w_s)) <= 1e-8


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_fidelity_self_is_one(rng):
    rho = random_density(rng, 3)
    assert abs(linalg.fidelity(rho, rho) - 1.0) < 1e-9


def test_fidelity_zero_plus():
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    assert abs(linalg.fidelity(zero, plus) - 1 / np.sqrt(2)) < 1e-9


def test_fidelity_bernoulli_closed_form():
    # F(Bern(p), Bern(1-p)) = 2 sqrt(p(1-p))
    p = 0.11
    a = np.diag([1 - p, p]).astype(complex)
    b = np.diag([p, 1 - p]).astype(complex)
    expected = 2 * np.sqrt(p * (1 - p))
    assert abs(expected - 0.6257795139) < 1e-9
    assert abs(linalg.fidelity(a, b) - expected) < 1e-10


def test_fidelity_symmetric(rng):
    a, b = random_density(rng, 4), random_density(rng, 4)
    assert abs(linalg.fidelity(a, b) - linalg.fidelity(b, a)) < 1e-9


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        linalg.fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_trace_distance_basics():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert linalg.trace_distance(zero, zero) == 0.0
    assert abs(linalg.trace_distance(zero, one) - 1.0) < 1e-12
    p = 0.1
    a = np.diag([1 - p, p]).astype(complex)
    b = np.diag([p, 1 - p]).astype(complex)
    assert abs(linalg.trace_distance(a, b) - 0.8) < 1e-12


def test_fuchs_van_de_graaf_sandwich():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        a, b = random_density(rng, dim), random_density(rng, dim)
        f = linalg.fidelity(a, b)
        d = linalg.trace_distance(a, b)
        assert 1 - f <= d + 1e-9
        assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    red = linalg.partial_trace(bell, (2, 2), 0)
    assert np.max(np.abs(red - np.eye(2) / 2)) < 1e-12


def test_partial_trace_product(rng):
    a, b = random_density(rng, 2), random_density(rng, 3)
    joint = linalg.tensor(a, b)
    assert np.max(np.abs(linalg.partial_trace(joint, (2, 3), 0) - a)) < 1e-10
    assert np.max(np.abs(linalg.partial_trace(joint, (2, 3), 1) - b)) < 1e-10


def test_partial_trace_three_party(rng):
    psi = random_pure_vector(rng, 2 * 3 * 2)
    red = linalg.partial_trace(psi, (2, 3, 2), (0, 2))
    assert abs(np.trace(red).real - 1.0) <= 1e-10


def test_partial_trace_index_error():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(4) / 4, (2, 2), 5)


def test_purify_pure_input(rng):
    v = random_pure_vector(rng, 3)
    state = linalg.purify(np.outer(v, v.conj()))
    assert state.dims == (3, 1)
    assert np.max(np.abs(state.reduced(0) - np.outer(v, v.conj()))) < 1e-9


def test_purify_maximally_mixed():
    state = linalg.purify(np.eye(2, dtype=complex) / 2)
    assert state.dims == (2, 2)
    assert np.max(np.abs(state.reduced(0) - np.eye(2) / 2)) < 1e-9


def test_purify_rank_two(rng):
    rho = random_density(rng, 3, rank=2)
    state = linalg.purify(rho)
    assert state.dims[1] == 2
    assert np.max(np.abs(state.reduced(0) - rho)) < 1e-9


def test_purify_roundtrip_dims(rng):
    for dim in range(2, 9):
        rho = random_density(rng, dim)
        assert np.max(np.abs(linalg.purify(rho).reduced(0) - rho)) < 1e-9


def test_gram_embed_identity():
    vecs = linalg.gram_embed(np.eye(4, dtype=complex))
    gram = vecs.conj() @ vecs.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_gram_embed_rank_one():
    vecs = linalg.gram_embed(np.ones((2, 2), dtype=complex))
    assert vecs.shape == (2, 1)
    assert np.max(np.abs(vecs[0] - vecs[1])) < 1e-9


def test_gram_embed_hamming_overlaps():
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    g = np.array([[0.8 ** ((a != c) + (b != d)) for c, d in pts] for a, b in pts])
    vecs = linalg.gram_embed(g.astype(complex))
    recon = vecs.conj() @ vecs.T
    assert np.max(np.abs(recon - g)) < 1e-8


def test_gram_embed_large_random(rng):
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    g = a @ a.conj().T
    vecs = linalg.gram_embed(g)
    assert np.max(np.abs(vecs.conj() @ vecs.T - g)) < 1e-8 * np.max(np.abs(g))


def test_gram_embed_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.gram_embed(np.diag([1.0, -0.5]).astype(complex))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_partial_trace_preserves_trace(dim, seed):
    r = np.random.default_rng(seed)
    rho = random_density(r, dim * 2)
    red = linalg.partial_trace(rho, (dim, 2), 0)
    assert abs(np.trace(red).real - 1.0) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000))
def test_gram_embed_reconstructs_random_gram(m, seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(m, m)) + 1j * r.normal(size=(m, m))
    g = a @ a.conj().T
    vecs = linalg.gram_embed(g)
    assert np.max(np.abs(vecs.conj() @ vecs.T - g)) < 1e-8 * max(1.0, np.max(np.abs(g)))


def _real_symmetric(rng, n):
    # complex-typed, imaginary part exactly zero, spectral norm 1
    a = rng.normal(size=(n, n))
    a = a + a.T
    return (a / np.linalg.norm(a, 2)).astype(complex)


@pytest.mark.parametrize("n", [2, 16, 128])
def test_kernels_on_real_matrices_match_complex_lapack(rng, n):
    a = _real_symmetric(rng, n)
    w_ref = np.linalg.eigvalsh(a)  # LAPACK's complex Hermitian solver
    w, v = linalg._eigh(a)
    assert v.dtype == np.complex128
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    assert np.max(np.abs(linalg._eigvalsh(a) - w_ref)) <= 1e-12
    assert np.linalg.norm(a @ v - v * w) <= 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12


def test_kernels_hand_lapack_the_real_part_only_when_it_is_exact(rng, monkeypatch):
    seen = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _f=orig, _n=name: seen.append((_n, a.dtype)) or _f(a, *args))
    real = _real_symmetric(rng, 16)
    linalg._eigh(real)
    linalg._eigvalsh(real)
    assert seen == [("eigh", np.float64), ("eigvalsh", np.float64)]
    seen.clear()
    herm = real + 1e-3j * np.triu(np.ones((16, 16)), 1)
    herm = (herm + herm.conj().T) / 2
    linalg._eigh(herm)
    linalg._eigvalsh(herm)
    assert seen == [("eigh", np.complex128), ("eigvalsh", np.complex128)]


def test_eigh_retry_takes_the_real_matrix(rng, monkeypatch):
    # when the default routine fails, evr gets the same real matrix, and the
    # eigenvectors still come back complex
    import scipy.linalg

    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    seen = []
    orig = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda a, **kw: seen.append(a.dtype) or orig(a, **kw))
    a = _real_symmetric(rng, 8)
    w, v = linalg._eigh(a)
    assert seen == [np.float64] and v.dtype == np.complex128
    assert np.linalg.norm(a @ v - v * w) <= 1e-12
