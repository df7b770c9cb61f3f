import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.lattice import Interval
from gaplab.operator_algebra import (LocalOperator, ParityError, annihilator,
                                     conditional_expectation, delta_layer,
                                     eigenvalues, embed, join_blocks,
                                     jordan_wigner, mode_annihilator,
                                     operator_norm, parity_grade,
                                     parity_matrix, parity_sectors,
                                     partial_trace, spin_matrices,
                                     split_blocks)
from oracles import (creator, kron_placed, number_operator, parity_even,
                     random_hermitian, random_matrix)


def kron(*ms):
    out = np.eye(1)
    for m in ms:
        out = np.kron(out, m)
    return out


X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


# --- spin matrices -----------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spin_matrices_su2_algebra(d):
    sx, sy, sz = spin_matrices(d)
    s = (d - 1) / 2.0
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
    casimir = sx @ sx + sy @ sy + sz @ sz
    np.testing.assert_allclose(casimir, s * (s + 1) * np.eye(d), atol=1e-12)


def test_spin_half_is_pauli_over_two():
    sx, sy, sz = spin_matrices(2)
    np.testing.assert_allclose(2 * sx, X, atol=1e-15)
    np.testing.assert_allclose(2 * sy, Y, atol=1e-15)
    np.testing.assert_allclose(2 * sz, Z, atol=1e-15)


# --- local operators ---------------------------------------------------------


def test_local_operator_shape_check():
    with pytest.raises(ValueError):
        LocalOperator(np.eye(3), Interval(0, 1), Interval(0, 1))
    with pytest.raises(ValueError):
        LocalOperator(np.eye(4), Interval(0, 1), Interval(1, 3))


def test_embed_places_identity_factors():
    op = LocalOperator(X, Interval(2, 2), Interval(0, 4))
    big = embed(op, Interval(1, 3))
    np.testing.assert_allclose(big.matrix, kron(np.eye(2), X, np.eye(2)))
    assert big.support == Interval(1, 3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 6), (3, 4)]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_embed_matches_kron_oracle(dim_sites, complex_, seed):
    """A random support inside a random target, on a chain of local
    dimension 2 or 3: the embedded matrix is the Kronecker placement entry
    for entry, in the field of the operator."""
    d, n_sites = dim_sites
    rng = np.random.default_rng(seed)
    ta = int(rng.integers(0, n_sites))
    target = Interval(ta, int(rng.integers(ta, n_sites)))
    sa = int(rng.integers(target.a, target.b + 1))
    supp = Interval(sa, int(rng.integers(sa, target.b + 1)))
    m = random_matrix(rng, d ** len(supp), complex_)
    op = LocalOperator(m, supp, Interval(0, n_sites - 1), "spin", d)
    big = embed(op, target)
    oracle = kron_placed(m, d, supp.a - target.a, target.b - supp.b)
    assert big.matrix.dtype == oracle.dtype
    assert np.array_equal(big.matrix, oracle)
    assert big.support == target


def test_embed_refuses_odd_fermion():
    a = annihilator(Interval(0, 1), 0)
    # restrict to the site itself: plain lowering operator, odd parity
    odd = LocalOperator(np.array([[0, 1], [0, 0]], dtype=complex),
                        Interval(0, 0), Interval(0, 1), kind="fermion")
    with pytest.raises(ParityError):
        embed(odd, Interval(0, 1))
    # but the quadratic a*a embeds fine
    n0 = creator(Interval(0, 1), 0).matrix @ a.matrix
    even = LocalOperator(n0, Interval(0, 1), Interval(0, 1), kind="fermion")
    assert parity_grade(even) == "even"
    embed(even, Interval(0, 1))


def test_parity_matrix_popcount():
    p = parity_matrix(3)
    # basis index 5 = 101 has two occupied sites -> even
    assert p[5] == 1.0
    assert p[1] == -1.0 and p[7] == -1.0
    assert p[0] == 1.0


def test_parity_grade_classification():
    lam = Interval(0, 1)
    a0 = annihilator(lam, 0)
    assert parity_grade(a0) == "odd"
    num = number_operator(lam)
    assert parity_grade(num) == "even"
    mix = LocalOperator(a0.matrix + num.matrix, lam, lam, kind="fermion")
    assert parity_grade(mix) == "mixed"
    # past norm 1 the tolerance is 1e-12 of the largest entry: 40 on the
    # even block of 00 and 11 (norm 80), an odd part of 3e-11 is seen
    block = np.zeros((4, 4), dtype=complex)
    block[np.ix_([0, 3], [0, 3])] = 40.0
    big = LocalOperator(block, lam, lam, kind="fermion")
    assert big.norm() == pytest.approx(80.0)
    assert parity_grade(big) == "even"
    assert parity_grade(LocalOperator(40.0 * a0.matrix, lam, lam,
                                      kind="fermion")) == "odd"
    tilted = LocalOperator(block + 3e-11 * a0.matrix, lam, lam, kind="fermion")
    assert parity_grade(tilted) == "mixed"


# --- canonical anticommutation -----------------------------------------------


def test_car_relations():
    lam = Interval(0, 2)
    for x in lam:
        for y in lam:
            ax, ay = annihilator(lam, x).matrix, annihilator(lam, y).matrix
            cy = creator(lam, y).matrix
            anti = ax @ cy + cy @ ax
            np.testing.assert_allclose(
                anti, (1.0 if x == y else 0.0) * np.eye(8), atol=1e-14)
            np.testing.assert_allclose(ax @ ay + ay @ ax, 0.0, atol=1e-14)


def test_annihilator_string_structure():
    # a(1) on [0,1] must be Z (x) lower
    a1 = annihilator(Interval(0, 1), 1)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    np.testing.assert_allclose(a1.matrix, kron(Z, lower), atol=1e-15)


def test_number_operator_trace():
    # tr N = n 2^(n-1) on n sites
    for n in (1, 2, 4):
        num = number_operator(Interval(0, n - 1))
        assert np.trace(num.matrix).real == pytest.approx(n * 2 ** (n - 1))


def test_mode_annihilator_linear_combination():
    lam = Interval(0, 1)
    coeffs = {0: 1 / np.sqrt(2), 1: 1j / np.sqrt(2)}
    mode = mode_annihilator(lam, coeffs)
    manual = (annihilator(lam, 0).matrix * np.conj(coeffs[0])
              + annihilator(lam, 1).matrix * np.conj(coeffs[1]))
    np.testing.assert_allclose(mode.matrix, manual, atol=1e-15)
    # normalized orbital -> {b, b*} = 1
    anti = mode.matrix @ mode.dagger().matrix + mode.dagger().matrix @ mode.matrix
    np.testing.assert_allclose(anti, np.eye(4), atol=1e-14)


# --- conditional expectation and layers ---------------------------------------


def test_partial_trace_is_trace_preserving_projection():
    rng = np.random.default_rng(3)
    lam = Interval(0, 2)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = LocalOperator(m, lam, lam)
    keep = Interval(1, 1)
    red = partial_trace(op, keep)
    assert red.support == keep
    # normalized trace preserved
    assert np.trace(red.matrix) * 4 == pytest.approx(np.trace(m), abs=1e-12)
    # projection: applying twice fixes the result
    again = partial_trace(embed(red, lam), keep)
    np.testing.assert_allclose(again.matrix, red.matrix, atol=1e-13)


def test_partial_trace_twirl_oracle():
    """E(A) equals the Haar average over unitaries acting on the complement,
    here checked against the exact product-basis twirl for one site."""
    rng = np.random.default_rng(5)
    lam = Interval(0, 1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = LocalOperator(m, lam, lam)
    red = partial_trace(op, Interval(0, 0))
    blocks = m.reshape(2, 2, 2, 2)
    expect = (blocks[:, 0, :, 0] + blocks[:, 1, :, 1]) / 2.0
    np.testing.assert_allclose(red.matrix, expect, atol=1e-14)


def test_conditional_expectation_even_fermion():
    lam = Interval(0, 2)
    num = number_operator(lam)
    red = conditional_expectation(num, Interval(0, 1))
    # N reduces to n_0 + n_1 + <n_2> = n_0 + n_1 + 1/2
    expect = number_operator(Interval(0, 1)).matrix + 0.5 * np.eye(4)
    np.testing.assert_allclose(red.matrix, expect, atol=1e-14)
    odd = annihilator(lam, 0)
    with pytest.raises(ParityError):
        conditional_expectation(odd, Interval(0, 1))


def test_delta_layers_telescope():
    rng = np.random.default_rng(11)
    lam = Interval(0, 4)
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    op = LocalOperator(m, lam, lam)
    x = 2
    total = None
    for n in range(0, 6):
        layer = delta_layer(op, lam, x, n)
        layer_embedded = embed(layer, lam).matrix
        total = layer_embedded if total is None else total + layer_embedded
    np.testing.assert_allclose(total, m, atol=1e-12)


def test_delta_layer_vanishes_beyond_support():
    lam = Interval(0, 4)
    op = LocalOperator(X, Interval(2, 2), lam)
    # radius-1 ball already contains the support: higher layers are zero
    layer = delta_layer(op, lam, 2, 2)
    assert operator_norm(layer.matrix) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4))
def test_delta_layer_saturation(x_shift, n):
    lam = Interval(0, 3)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((16, 16))
    op = LocalOperator(m, lam, lam)
    layer = delta_layer(op, lam, lam.a + x_shift, n)
    # saturated ball (same as previous radius) must give the zero layer
    from gaplab.lattice import ball
    if n >= 1 and ball(lam, lam.a + x_shift, n) == ball(lam, lam.a + x_shift, n - 1):
        assert operator_norm(layer.matrix) == 0.0


# --- fermion/spin dictionary --------------------------------------------------


def test_jordan_wigner_even_is_relabeling():
    lam = Interval(1, 3)
    num = number_operator(lam)
    image = jordan_wigner(num)
    assert image.kind == "spin"
    assert image.support == num.support
    np.testing.assert_allclose(image.matrix, num.matrix, atol=1e-15)


def test_jordan_wigner_odd_attaches_string():
    amb = Interval(0, 2)
    # odd single-site operator at site 2 with ambient reaching site 0
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    odd = LocalOperator(lower, Interval(2, 2), amb, kind="fermion")
    image = jordan_wigner(odd)
    assert image.string_attached
    assert image.support == Interval(0, 2)
    np.testing.assert_allclose(image.matrix, kron(Z, Z, lower), atol=1e-15)


def test_jordan_wigner_respects_products():
    """The chain-embedded matrices of a*(x) a(y) agree with the product of
    spin images (the map is an algebra isomorphism on the chain)."""
    lam = Interval(0, 2)
    lhs = creator(lam, 0).matrix @ annihilator(lam, 2).matrix
    hop = LocalOperator(lhs, lam, lam, kind="fermion")
    assert parity_grade(hop) == "even"
    image = jordan_wigner(hop)
    np.testing.assert_allclose(image.matrix, lhs, atol=1e-15)


# --- the values-only spectral layer --------------------------------------------------


def counting_eigvalsh(monkeypatch):
    sides = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sides.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return sides


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_eigenvalues_match_the_dense_oracle_on_parity_even_input(k, complex_,
                                                                 seed):
    m = parity_even(random_hermitian(np.random.default_rng(seed), 2 ** k,
                                     complex_))
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    np.testing.assert_allclose(eigenvalues(m), np.linalg.eigvalsh(m),
                               rtol=0, atol=1e-12 * scale)


def test_eigenvalues_split_by_parity_and_solve_equal_blocks_once(monkeypatch):
    sides = counting_eigvalsh(monkeypatch)
    rng = np.random.default_rng(3)
    eigenvalues(parity_even(random_hermitian(rng, 16, False)))
    assert sides == [8, 8]
    # an operator that leaves the last site alone has two equal blocks
    sides.clear()
    h = parity_even(random_hermitian(rng, 8, True))
    eigenvalues(np.kron(h, np.eye(2)))
    assert sides == [8]


@pytest.mark.parametrize("side", [16, 27, 6])
def test_eigenvalues_without_the_split_return_the_oracle_exactly(side,
                                                                 monkeypatch):
    m = random_hermitian(np.random.default_rng(side), side, False)
    if side == 16:
        m = parity_even(m)
        m[1, 0] = m[0, 1] = 0.5          # one entry between the sectors
    expected = np.linalg.eigvalsh(m)
    sides = counting_eigvalsh(monkeypatch)
    np.testing.assert_array_equal(eigenvalues(m), expected)
    assert sides == [side]


def test_operator_norm_takes_the_eigenvalue_route_for_hermitian_input(
        monkeypatch):
    """A Hermitian matrix is solved itself; any other matrix through its
    Gram matrix of the same side, and neither calls an SVD."""
    sides = counting_eigvalsh(monkeypatch)
    svds = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: svds.append(args))
    monkeypatch.setattr(np.linalg, "norm",
                        lambda *args, **kwargs: svds.append(args))
    m = random_hermitian(np.random.default_rng(5), 6, True)
    operator_norm(m)
    assert sides == [6]
    m[0, 1] += 1e-3                      # no longer exactly Hermitian
    operator_norm(m)
    assert sides == [6, 6]
    assert svds == []


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_hermitian_operator_norm_matches_the_svd_norm(side, complex_, even,
                                                      seed):
    if even:
        side = 2 ** (side % 7 + 1)
    m = random_hermitian(np.random.default_rng(seed), side, complex_)
    if even:
        m = parity_even(m)
    svd_norm = float(np.linalg.norm(m, 2))
    assert operator_norm(m) == pytest.approx(svd_norm, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.booleans(),
       st.sampled_from(["plain", "even", "zero"]), st.sampled_from([0, 600, -600]),
       st.integers(0, 2 ** 32 - 1))
def test_operator_norm_matches_the_svd_norm(rows, cols, complex_, kind,
                                            exponent, seed):
    """Real and complex, square and rectangular, parity-even, all-zero and
    scaled far from 1: the Gram route gives the SVD's largest singular
    value to 1e-12."""
    rng = np.random.default_rng(seed)
    if kind == "even":
        rows = cols = 2 ** (rows % 6 + 1)
    m = random_matrix(rng, max(rows, cols), complex_)[:rows, :cols]
    if kind == "even":
        m = parity_even(m)
        assert len(parity_sectors(m)) == 2
    elif kind == "zero":
        m = np.zeros_like(m)
    m = m * 2.0 ** exponent
    assert operator_norm(m) == pytest.approx(float(np.linalg.norm(m, 2)),
                                             rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_parity_blocks_split_and_join_back(k, complex_, seed):
    rng = np.random.default_rng(seed)
    m = parity_even(random_hermitian(rng, 2 ** k, complex_))
    other = parity_even(random_hermitian(rng, 2 ** k, complex_))
    sectors = parity_sectors(m, other)
    even = parity_matrix(k) > 0
    assert len(sectors) == 2
    assert even[sectors[0]].all() and not even[sectors[1]].any()
    blocks = split_blocks(m, sectors)
    assert blocks.shape == (2, 2 ** (k - 1), 2 ** (k - 1))
    np.testing.assert_array_equal(blocks[1], m[np.ix_(~even, ~even)])
    np.testing.assert_array_equal(join_blocks(blocks, sectors), m)
    # a stack is solved and normed as the block-diagonal matrix it stands for
    assert eigenvalues(blocks).tobytes() == eigenvalues(m).tobytes()
    assert operator_norm(blocks) == operator_norm(m)
    product = m @ other                  # parity-even, not Hermitian
    assert operator_norm(split_blocks(product, sectors)) == pytest.approx(
        float(np.linalg.norm(product, 2)), rel=1e-12)


def test_parity_sectors_keep_one_sector_unless_every_matrix_splits():
    rng = np.random.default_rng(8)
    even = parity_even(random_hermitian(rng, 16, True))
    mixed = even.copy()
    mixed[1, 0] = mixed[0, 1] = 0.5          # one entry between the sectors
    cases = [(mixed,), (even, mixed), (even, np.eye(8)),
             (random_hermitian(rng, 27, False),),
             (random_hermitian(rng, 6, False),)]
    for mats in cases:
        sectors = parity_sectors(*mats)
        side = mats[0].shape[0]
        assert len(sectors) == 1
        np.testing.assert_array_equal(sectors[0], np.arange(side))
        blocks = split_blocks(mats[0], sectors)
        assert blocks.shape == (1, side, side)
        assert np.shares_memory(blocks, mats[0])
        np.testing.assert_array_equal(join_blocks(blocks, sectors), mats[0])
