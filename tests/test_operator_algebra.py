from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.lattice import Interval, ball
from gaplab.interaction import Interaction, Term, fermion_to_spin
from gaplab.operator_algebra import (LocalOperator, ParityError, annihilator,
                                     basis_charges, charge_sectors,
                                     conditional_expectation,
                                     conserved_modulus, delta_layer,
                                     eigenvalues, embed, join_blocks,
                                     mode_annihilator, operator_norm,
                                     parity_matrix, spin_matrices)
from oracles import (creator, digit_sums, kron_placed, number_operator,
                     parity_even, random_hermitian, random_matrix, recorded,
                     split_blocks)


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
        LocalOperator(np.eye(3), Interval(0, 1))
    with pytest.raises(ValueError):
        LocalOperator(np.eye(4), Interval(0, 1), "spin", 3)


def test_embed_places_identity_factors():
    op = LocalOperator(X, Interval(2, 2))
    big = embed(op, Interval(1, 3))
    np.testing.assert_allclose(big.matrix, kron(np.eye(2), X, np.eye(2)))
    assert big.support == Interval(1, 3)
    with pytest.raises(ValueError):
        embed(op, Interval(3, 4))


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
    op = LocalOperator(m, supp, "spin", d)
    big = embed(op, target)
    oracle = kron_placed(m, d, supp.a - target.a, target.b - supp.b)
    assert big.matrix.dtype == oracle.dtype
    assert np.array_equal(big.matrix, oracle)
    assert big.support == target


@pytest.mark.parametrize("entry", [1e-17, 1.0, 2e-3j, 1e-17 + 1e-17j])
def test_fermionic_operators_with_one_odd_entry_are_refused(entry):
    """Evenness is exact: a single entry between unlike parities, however
    small, real or complex, is refused, on the site and inside a larger
    even operator."""
    lam = Interval(0, 1)
    with pytest.raises(ParityError, match="not even"):
        LocalOperator(np.array([[0, entry], [0, 0]]), Interval(0, 0),
                      "fermion")
    m = number_operator(lam).matrix.copy()
    m[0, 2] = entry
    with pytest.raises(ParityError, match="not even"):
        LocalOperator(m, lam, "fermion")
    # the same matrix is a spin operator
    LocalOperator(m, lam)


def test_even_operators_stay_fermionic_under_every_operation():
    """``+``, ``-``, ``*`` and ``replace`` of even operators, the adjoint
    among them, are checked again and accepted; ``replace`` with an odd
    matrix is not."""
    lam = Interval(0, 2)
    num = number_operator(lam)
    hop = creator(lam, 0).matrix @ annihilator(lam, 2).matrix
    hop = LocalOperator(hop + hop.conj().T, lam, "fermion")
    for op in (num + hop, num - hop, 2.5 * hop, hop * (1 - 1j),
               replace(hop, matrix=hop.matrix.conj().T),
               replace(num, matrix=num.matrix @ hop.matrix)):
        assert op.kind == "fermion"
        assert conserved_modulus([op], (2,)) == 2
    with pytest.raises(ParityError):
        replace(num, matrix=annihilator(lam, 1).matrix)


def test_parity_matrix_popcount():
    p = parity_matrix(3)
    # basis index 5 = 101 has two occupied sites -> even
    assert p[5] == 1.0
    assert p[1] == -1.0 and p[7] == -1.0
    assert p[0] == 1.0


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
    adjoint = mode.matrix.conj().T
    anti = mode.matrix @ adjoint + adjoint @ mode.matrix
    np.testing.assert_allclose(anti, np.eye(4), atol=1e-14)


# --- conditional expectation and layers ---------------------------------------


def test_partial_trace_is_trace_preserving_projection():
    rng = np.random.default_rng(3)
    lam = Interval(0, 2)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = LocalOperator(m, lam)
    keep = Interval(1, 1)
    red = conditional_expectation(op, keep)
    assert red.support == keep
    # normalized trace preserved
    assert np.trace(red.matrix) * 4 == pytest.approx(np.trace(m), abs=1e-12)
    # projection: applying twice fixes the result
    again = conditional_expectation(embed(red, lam), keep)
    np.testing.assert_allclose(again.matrix, red.matrix, atol=1e-13)


def test_partial_trace_twirl_oracle():
    """E(A) equals the Haar average over unitaries acting on the complement,
    here checked against the exact product-basis twirl for one site."""
    rng = np.random.default_rng(5)
    lam = Interval(0, 1)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = LocalOperator(m, lam)
    red = conditional_expectation(op, Interval(0, 0))
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
    assert red.kind == "fermion"


@pytest.mark.parametrize("keep", [Interval(0, 0), Interval(1, 2),
                                  Interval(2, 3)])
def test_conditional_expectation_of_an_even_fermion_is_its_spin_images(keep):
    """One trace for both kinds: an even fermionic operator and its spin
    image reduce to the same matrix, bit for bit."""
    lam = Interval(0, 3)
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 16, True)
    p = parity_matrix(4)
    op = LocalOperator((m + p[:, None] * m * p[None, :]) / 2, lam,
                       "fermion")
    spin, = fermion_to_spin(Interaction([Term(op)], "fermion")).terms
    fermion_red = conditional_expectation(op, keep)
    spin_red = conditional_expectation(spin.op, keep)
    assert (fermion_red.kind, spin_red.kind) == ("fermion", "spin")
    assert fermion_red.matrix.tobytes() == spin_red.matrix.tobytes()
    layers = [_layer(a, lam, 1, 2) for a in (op, spin.op)]
    assert layers[0].kind == "fermion"
    assert layers[0].matrix.tobytes() == layers[1].matrix.tobytes()


def _layer(op, lam, x, n):
    """Layer ``n >= 1`` of ``op``'s ball telescope around ``x`` in ``lam``,
    from the expectations onto the radius-``n`` and radius-``n-1`` balls."""
    return delta_layer(conditional_expectation(op, ball(lam, x, n)),
                       conditional_expectation(op, ball(lam, x, n - 1)))


def test_delta_layers_telescope():
    rng = np.random.default_rng(11)
    lam = Interval(0, 4)
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    op = LocalOperator(m, lam)
    x = 2
    total = embed(conditional_expectation(op, ball(lam, x, 0)), lam).matrix
    for n in range(1, 6):
        layer = _layer(op, lam, x, n)
        assert layer.support == ball(lam, x, n)
        total = total + embed(layer, lam).matrix
    np.testing.assert_allclose(total, m, atol=1e-12)


def test_delta_layer_vanishes_beyond_support():
    lam = Interval(0, 4)
    op = embed(LocalOperator(X, Interval(2, 2)), lam)
    # radius-1 ball already contains the support: higher layers are zero
    layer = _layer(op, lam, 2, 2)
    assert operator_norm(layer.matrix) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4))
def test_delta_layer_saturation(x_shift, n):
    lam = Interval(0, 3)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((16, 16))
    op = LocalOperator(m, lam)
    layer = _layer(op, lam, lam.a + x_shift, n)
    # saturated ball (same as previous radius) must give the zero layer
    if ball(lam, lam.a + x_shift, n) == ball(lam, lam.a + x_shift, n - 1):
        assert operator_norm(layer.matrix) == 0.0


# --- fermion/spin dictionary --------------------------------------------------


def test_jordan_wigner_even_is_relabeling():
    """``fermion_to_spin`` keeps each term's support, anchor and matrix, a
    copy of it."""
    num = number_operator(Interval(1, 3))
    image, = fermion_to_spin(Interaction([Term(num, anchor=3)],
                                         "fermion")).terms
    assert image.op.kind == "spin"
    assert (image.support, image.anchor) == (num.support, 3)
    assert image.op.matrix.tobytes() == num.matrix.tobytes()
    assert not np.shares_memory(image.op.matrix, num.matrix)


def test_jordan_wigner_respects_products():
    """The product of the spin images of a*(x) and a(y) is an even
    fermionic operator, the chain's hopping term, and its spin image is
    that product (the map is an algebra isomorphism on the chain)."""
    lam = Interval(0, 2)
    assert annihilator(lam, 2).kind == "spin"
    lhs = creator(lam, 0).matrix @ annihilator(lam, 2).matrix
    hop = LocalOperator(lhs, lam, kind="fermion")
    image, = fermion_to_spin(Interaction([Term(hop)], "fermion")).terms
    np.testing.assert_array_equal(image.op.matrix, lhs)


# --- the values-only spectral layer --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_eigenvalues_match_the_dense_oracle_on_parity_even_input(k, complex_,
                                                                 seed):
    m = parity_even(random_hermitian(np.random.default_rng(seed), 2 ** k,
                                     complex_))
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    np.testing.assert_allclose(eigenvalues(m), np.linalg.eigvalsh(m),
                               rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("side", [16, 27, 6])
def test_eigenvalues_without_the_split_return_the_oracle_exactly(side,
                                                                 monkeypatch):
    m = random_hermitian(np.random.default_rng(side), side, False)
    if side == 16:
        m = parity_even(m)
        m[1, 0] = m[0, 1] = 0.5          # one entry between the sectors
    expected = np.linalg.eigvalsh(m)
    solved = recorded(monkeypatch, "eigvalsh")
    np.testing.assert_array_equal(eigenvalues(m), expected)
    assert [a.shape[0] for a in solved] == [side]


def test_operator_norm_takes_the_eigenvalue_route_for_hermitian_input(
        monkeypatch):
    """A Hermitian matrix is solved itself; any other matrix through its
    Gram matrix of the same side, and neither calls an SVD."""
    solved = recorded(monkeypatch, "eigvalsh")
    svds = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: svds.append(args))
    monkeypatch.setattr(np.linalg, "norm",
                        lambda *args, **kwargs: svds.append(args))
    m = random_hermitian(np.random.default_rng(5), 6, True)
    operator_norm(m)
    assert [a.shape[0] for a in solved] == [6]
    m[0, 1] += 1e-3                      # no longer exactly Hermitian
    operator_norm(m)
    assert [a.shape[0] for a in solved] == [6, 6]
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
    sectors = None
    if kind == "even":
        m = parity_even(m)
        sectors = charge_sectors(rows.bit_length() - 1, 2, 2)
    elif kind == "zero":
        m = np.zeros_like(m)
    m = m * 2.0 ** exponent
    for split in (None, sectors):
        assert operator_norm(m, split) == pytest.approx(
            float(np.linalg.norm(m, 2)), rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_parity_blocks_split_and_join_back(k, complex_, seed):
    """Parity-even terms keep the parity; its two sectors, even first, split
    a term into a stack that joins back to it and that is solved and normed
    as the block-diagonal matrix it stands for."""
    lam = Interval(0, k - 1)
    rng = np.random.default_rng(seed)
    m = parity_even(random_hermitian(rng, 2 ** k, complex_))
    other = parity_even(random_hermitian(rng, 2 ** k, complex_))
    ops = [LocalOperator(a, lam, "spin", 2) for a in (m, other)]
    assert conserved_modulus(ops, moduli=(2,)) == 2
    sectors = charge_sectors(k, 2, 2)
    even = parity_matrix(k) > 0
    assert len(sectors) == 2
    assert even[sectors[0]].all() and not even[sectors[1]].any()
    blocks = split_blocks(m, sectors)
    assert blocks.shape == (2, 2 ** (k - 1), 2 ** (k - 1))
    np.testing.assert_array_equal(blocks[1], m[np.ix_(~even, ~even)])
    np.testing.assert_array_equal(join_blocks(blocks, sectors), m)
    evals = eigenvalues(blocks)
    dense = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(evals - dense)) <= 1e-12 * scale
    assert operator_norm(blocks) == operator_norm(m, sectors)
    product = m @ other                  # parity-even, not Hermitian
    svd = float(np.linalg.norm(product, 2))
    for norm in (operator_norm(split_blocks(product, sectors)),
                 operator_norm(product, sectors)):
        assert norm == pytest.approx(svd, rel=1e-12)


def test_parity_sectors_keep_one_sector_unless_every_matrix_splits():
    """One entry between the parity sectors, in any one of the terms, or a
    term that keeps no charge, leaves the terms one sector holding every
    index; the split on it is the matrix itself."""
    rng = np.random.default_rng(8)
    lam = Interval(0, 3)
    even = parity_even(random_hermitian(rng, 16, True))
    mixed = even.copy()
    mixed[1, 0] = mixed[0, 1] = 0.5          # one entry between the sectors

    def op(matrix, d=2):
        sites = round(np.log(matrix.shape[0]) / np.log(d))
        return LocalOperator(matrix, Interval(0, sites - 1), "spin", d)

    assert conserved_modulus([op(even)], moduli=(2,)) == 2
    cases = [(op(mixed),), (op(even), op(mixed)),
             (op(random_hermitian(rng, 27, False), 3),),
             (op(random_hermitian(rng, 6, False), 6),)]
    for ops in cases:
        assert conserved_modulus(ops, moduli=(2,)) == 1
        first = ops[0]
        sectors = charge_sectors(len(first.support), first.local_dim, 1)
        side = first.matrix.shape[0]
        assert len(sectors) == 1
        np.testing.assert_array_equal(sectors[0], np.arange(side))
        blocks = split_blocks(first.matrix, sectors)
        assert blocks.shape == (1, side, side)
        np.testing.assert_array_equal(join_blocks(blocks, sectors),
                                      first.matrix)
        assert operator_norm(first.matrix, sectors) == \
            operator_norm(first.matrix)


@pytest.mark.parametrize("d, n_sites", [(2, 3), (3, 2)])
def test_conserved_modulus_is_the_first_charge_every_operator_keeps(d,
                                                                    n_sites):
    """Operators that keep the number (or ``S^z``), only its parity, or
    neither: the first modulus of ``moduli`` that every one of them keeps,
    else 1.  A single entry between two charges breaks the charge."""
    lam = Interval(0, n_sites - 1)
    rng = np.random.default_rng(d)
    q = digit_sums(n_sites, d)
    m = random_hermitian(rng, d ** n_sites, False)
    number, parity = (np.where(k[:, None] == k[None, :], m, 0.0)
                      for k in (q, q % 2))

    def op(matrix):
        return LocalOperator(matrix, lam, "spin", d)

    assert conserved_modulus([op(number)]) is None
    assert conserved_modulus([op(number), op(parity)]) == 2
    assert conserved_modulus([op(number), op(m)]) == 1
    assert conserved_modulus([op(number)], moduli=(2,)) == 2
    assert conserved_modulus([op(parity)], moduli=(None,)) == 1
    assert conserved_modulus([]) is None
    broken = parity.copy()
    i, j = np.argwhere(q[:, None] % 2 != q[None, :] % 2)[0]
    broken[i, j] = broken[j, i] = 1e-300
    assert conserved_modulus([op(broken)]) == 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 4), (3, 2)]), st.booleans(),
       st.sampled_from(["number", "parity", "mixed"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_local_operator_norm_solves_the_sectors_of_its_charge(
        dim_sites, complex_, charge, hermitian, seed):
    """A term's norm is ``operator_norm`` split on the sectors of the first
    charge its matrix keeps: each sector's block of the matrix, or of its
    Gram matrix formed whole, is solved by itself, and the norm is the
    SVD's to 1e-12."""
    d, n_sites = dim_sites
    lam = Interval(0, n_sites - 1)
    rng = np.random.default_rng(seed)
    q = {"number": lambda k: k, "parity": lambda k: k % 2,
         "mixed": lambda k: 0 * k}[charge](digit_sums(n_sites, d))
    m = random_hermitian(rng, d ** n_sites, complex_) if hermitian \
        else random_matrix(rng, d ** n_sites, complex_)
    m = np.where(q[:, None] == q[None, :], m, 0.0)
    op = LocalOperator(m, lam, "spin", d)
    modulus = {"number": None, "parity": 2, "mixed": 1}[charge]
    assert conserved_modulus([op]) == modulus
    sectors = charge_sectors(n_sites, d, modulus)
    a = m / np.ldexp(1.0, np.frexp(np.max(np.abs(m)))[1])
    solved = m if hermitian else a.conj().T @ a
    with pytest.MonkeyPatch.context() as mp:
        solves = recorded(mp, "eigvalsh")
        norm = op.norm()
    assert len(solves) == len(sectors)
    for block, idx in zip(solves, sectors):
        np.testing.assert_array_equal(block, solved[np.ix_(idx, idx)])
    assert norm == operator_norm(m, sectors)
    assert norm == pytest.approx(float(np.linalg.norm(m, 2)), rel=1e-12)


@pytest.mark.parametrize("n_sites, d, modulus",
                         [(4, 2, None), (4, 2, 2), (3, 3, None), (3, 3, 1)])
def test_charge_tables_are_formed_once_and_shared_read_only(n_sites, d,
                                                            modulus):
    """``basis_charges`` hands every caller the one read-only table of its
    arguments, equal to the digit sums (mod ``modulus``); ``charge_sectors``
    hands each caller a list of its own, holding the one set of read-only
    index sets, so no caller can change what the next one reads."""
    q = basis_charges(n_sites, d, modulus)
    expected = digit_sums(n_sites, d)
    np.testing.assert_array_equal(
        q, expected if modulus is None else expected % modulus)
    assert basis_charges(n_sites, d, modulus) is q
    first, second = (charge_sectors(n_sites, d, modulus) for _ in range(2))
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    for table in [q, *first]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    first.clear()
    assert len(charge_sectors(n_sites, d, modulus)) == len(second) > 0
