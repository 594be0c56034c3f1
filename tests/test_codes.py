import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqdual import codes


def test_gf_invert_identity():
    assert (codes.gf_invert(np.eye(4, dtype=int), 2) == np.eye(4, dtype=int)).all()


def test_gf_invert_self_inverse():
    m = np.array([[1, 1], [0, 1]])
    assert (codes.gf_invert(m, 2) == m).all()


def test_gf_invert_random_gf3(rng):
    for _ in range(10):
        while True:
            m = rng.integers(0, 3, size=(8, 8))
            inv = codes.gf_invert(m, 3)
            if inv is not None:
                break
        assert ((m @ inv) % 3 == np.eye(8, dtype=int)).all()


def test_gf_invert_singular():
    assert codes.gf_invert(np.zeros((3, 3), dtype=int), 2) is None


def test_gf_rank():
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rank 2 over GF(2)
    assert codes.gf_rank(a, 2) == 2


def test_nonprime_field_rejected():
    with pytest.raises(ValueError):
        codes.gf_invert(np.eye(2, dtype=int), 4)


# ---------------------------------------------------------------------------
# code pairs
# ---------------------------------------------------------------------------


def test_repetition_two_structure():
    cp = codes.repetition_pair(2)
    words = {tuple(w) for w in cp.codewords()}
    assert words == {(0, 0), (1, 1)}
    assert (cp.parity_rows == [[1, 1]]).all()
    dual_words = {tuple(w) for w in cp.dual().codewords()}
    assert dual_words == {(0, 0), (1, 1)}  # self-dual


def test_hamming_weight_enumerators():
    cp = codes.hamming74_pair()
    assert codes.weight_enumerator(cp).tolist() == [1, 0, 0, 7, 7, 0, 0, 1]
    assert codes.weight_enumerator(cp.dual()).tolist() == [1, 0, 0, 0, 7, 0, 0, 0]


def test_orthogonality_identities_all_presets():
    for name in codes.PRESETS:
        cp = codes.preset_pair(name)
        q = cp.q
        assert ((cp.parity_rows @ cp.dual_parity_rows.T) % q == 0).all()
        assert ((cp.message_rows @ cp.dual_message_rows.T) % q == 0).all()
        # complement-then-dual equals dual-then-complement
        a = cp.complement().dual()
        b = cp.dual().complement()
        assert {tuple(w) for w in a.codewords()} == {tuple(w) for w in b.codewords()}


def test_encode_basics():
    cp = codes.repetition_pair(2)
    assert (cp.encode([0], [0]) == [0, 0]).all()
    assert (cp.encode([0], [1]) == [1, 1]).all()
    # syndrome and message are recovered by the defining row blocks
    word = cp.encode([1], [1])
    assert ((cp.parity_rows @ word) % 2 == [1]).all()
    assert ((cp.message_rows @ word) % 2 == [1]).all()


def test_encode_linearity(rng):
    cp = codes.hamming74_pair()
    for _ in range(10):
        s = rng.integers(0, 2, size=3)
        m = rng.integers(0, 2, size=4)
        lhs = cp.encode(s, m)
        rhs = (cp.encode(s, np.zeros(4, dtype=int)) + cp.encode(np.zeros(3, dtype=int), m)) % 2
        assert (lhs == rhs).all()


def test_encode_enumerates_code():
    cp = codes.hamming74_pair()
    words = cp.codewords()
    assert len({tuple(w) for w in words}) == 16
    assert ((words @ cp.parity_rows.T) % 2 == 0).all()


def test_extractor_kernel_invariance(rng):
    cp = codes.hamming74_pair()
    assert (cp.extractor(np.zeros(7, dtype=int)) == 0).all()
    x = rng.integers(0, 2, size=7)
    base = cp.extractor(x)
    for w in cp.codewords():
        # adding any word with zero extractor image leaves the output fixed
        if (cp.extractor(w) == 0).all():
            assert (cp.extractor((x + w) % 2) == base).all()
    assert len(cp.extractor(x)) == 4


def test_extractor_counts_balanced():
    # each of the q^k outputs is hit by exactly q^(n-k) inputs
    cp = codes.single_parity_pair(3)
    seen = {}
    for x in codes.all_vectors(2, 3):
        key = tuple(cp.extractor(x))
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 4 and set(seen.values()) == {2}


def test_weight_enumerator_total():
    for name in codes.PRESETS:
        cp = codes.preset_pair(name)
        assert codes.weight_enumerator(cp).sum() == cp.q**cp.k


def test_macwilliams_identity_binary():
    for name in ("rep31", "parity32", "hamming74", "rm13"):
        cp = codes.preset_pair(name)
        a = codes.weight_enumerator(cp)
        b = codes.weight_enumerator(cp.dual())
        assert (codes.macwilliams_transform(a, 2) == b).all()


def test_macwilliams_identity_gf3():
    cp = codes.build_from_parity(np.array([[1, 2]]), q=3)
    a = codes.weight_enumerator(cp)
    b = codes.weight_enumerator(cp.dual())
    assert (codes.macwilliams_transform(a, 3) == b).all()


def test_rm13_self_dual():
    cp = codes.rm13_pair()
    a = {tuple(w) for w in cp.codewords()}
    b = {tuple(w) for w in cp.dual().codewords()}
    assert a == b


def test_dual_complement_is_mprime():
    cp = codes.hamming74_pair()
    dc = cp.dual_complement()
    assert (dc.matrix == cp.mprime).all()
    assert dc.k == cp.k


def test_save_load_roundtrip(tmp_path):
    cp = codes.hamming74_pair()
    path = tmp_path / "code.txt"
    codes.save_code_pair(cp, path)
    back = codes.load_code_pair(path)
    assert (back.matrix == cp.matrix).all()
    assert (back.q, back.n, back.k) == (cp.q, cp.n, cp.k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([2, 3, 5]), st.integers(2, 6))
def test_random_code_pair_identities(seed, q, n):
    r = np.random.default_rng(seed)
    while True:
        m = r.integers(0, q, size=(n, n))
        if codes.gf_invert(m, q) is not None:
            break
    k = int(r.integers(0, n + 1))
    cp = codes.build_code(m, k, q)
    assert ((cp.matrix @ cp.inverse) % q == np.eye(n, dtype=int)).all()
    assert ((cp.parity_rows @ cp.dual_parity_rows.T) % q == 0).all()
    assert ((cp.message_rows @ cp.dual_message_rows.T) % q == 0).all()
    s = r.integers(0, q, size=n - k)
    msg = r.integers(0, q, size=k)
    word = cp.encode(s, msg)
    assert ((cp.parity_rows @ word) % q == s % q).all()
    assert ((cp.message_rows @ word) % q == msg % q).all()


def test_repetition2_weight_enumerator():
    assert codes.weight_enumerator(codes.repetition_pair(2)).tolist() == [1, 0, 1]


def _built_companions(cp):
    """dual, complement and dual_complement as build_code makes them, by
    elimination: the reference the kept-inverse companions must equal."""
    r = cp.n - cp.k
    return {
        "dual": codes.build_code(np.concatenate([cp.mprime[r:], cp.mprime[:r]]), r, cp.q),
        "complement": codes.build_code(np.concatenate([cp.message_rows, cp.parity_rows]), r, cp.q),
        "dual_complement": codes.build_code(cp.mprime, cp.k, cp.q),
    }


def _assert_companions_match(cp):
    for name, want in _built_companions(cp).items():
        got = getattr(cp, name)()
        assert (got.q, got.n, got.k) == (want.q, want.n, want.k)
        for a, b in ((got.matrix, want.matrix), (got.inverse, want.inverse)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(codes.PRESETS))
def test_companions_equal_the_eliminated_pairs_on_presets(name):
    cp = codes.preset_pair(name)
    _assert_companions_match(cp)
    assert cp.dual().name == f"dual({cp.name})"
    assert cp.complement().name == f"complement({cp.name})"
    assert cp.dual_complement().name == f"dualcomp({cp.name})"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([2, 3, 5]), st.integers(1, 6))
def test_companions_equal_the_eliminated_pairs_on_random_codes(seed, q, n):
    r = np.random.default_rng(seed)
    while True:
        m = r.integers(0, q, size=(n, n))
        if codes.gf_invert(m, q) is not None:
            break
    cp = codes.build_code(m, int(r.integers(0, n + 1)), q)
    _assert_companions_match(cp)
    _assert_companions_match(cp.dual())
