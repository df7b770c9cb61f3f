"""Reference operators and predicates that the tests check the package against."""

import numpy as np

from gaplab.lattice import Interval
from gaplab.operator_algebra import (LocalOperator, annihilator, operator_norm,
                                     parity_matrix)


def creator(lam: Interval, x: int) -> LocalOperator:
    """a*(x): the adjoint of the string-dressed annihilator."""
    return annihilator(lam, x).dagger()


def number_operator(lam: Interval) -> LocalOperator:
    """Total occupancy N = sum_x a*(x) a(x): the diagonal popcount matrix."""
    pop = [bin(i).count("1") for i in range(2 ** len(lam))]
    return LocalOperator(np.diag(np.array(pop, dtype=complex)), lam, lam,
                         "fermion")


def is_hermitian(op: LocalOperator) -> bool:
    """m = m* to 1e-12 of max(1, |m|)."""
    m = op.matrix
    return np.allclose(m, m.conj().T, atol=1e-12 * max(1.0, operator_norm(m)))


def kron_placed(m, d: int, n_left: int, n_right: int) -> np.ndarray:
    """1 (x) m (x) 1 as a dense Kronecker product, with ``n_left`` and
    ``n_right`` sites of local dimension ``d`` on either side."""
    return np.kron(np.eye(d ** n_left), np.kron(m, np.eye(d ** n_right)))


def random_matrix(rng, dim: int, complex_: bool) -> np.ndarray:
    """A seeded dim x dim Gaussian matrix, real or with an imaginary part."""
    m = rng.standard_normal((dim, dim))
    return m + 1j * rng.standard_normal((dim, dim)) if complex_ else m


def random_hermitian(rng, side: int, complex_: bool) -> np.ndarray:
    """A seeded side x side Hermitian matrix, real or complex."""
    m = random_matrix(rng, side, complex_)
    return (m + m.conj().T) / 2.0


def svd_polar(u) -> np.ndarray:
    """The unitary polar factor ``W V*`` of ``u = W S V*`` (or of each
    matrix of a stack), from LAPACK's SVD."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def parity_even(m) -> np.ndarray:
    """The even part of ``m`` under the occupancy parity: off-block entries 0."""
    p = parity_matrix(m.shape[0].bit_length() - 1)
    return np.where(p[:, None] == p[None, :], m, 0.0)


def even_pair(rng, side: int, complex_: bool):
    """A parity-even pair on a side 2^n: ``H0`` with one kernel vector per
    parity block and the rest of its spectrum in [1.5, 3], and a coupling of
    norm 1."""
    half = side // 2
    h0 = np.zeros((side, side), complex if complex_ else float)
    even = parity_matrix(side.bit_length() - 1) > 0
    for sector in (np.flatnonzero(even), np.flatnonzero(~even)):
        q, _ = np.linalg.qr(random_matrix(rng, half, complex_))
        levels = np.concatenate(([0.0], rng.uniform(1.5, 3.0, half - 1)))
        h0[np.ix_(sector, sector)] = (q * levels) @ q.conj().T
    h0 = (h0 + h0.conj().T) / 2.0
    psi = parity_even(random_hermitian(rng, side, complex_))
    return h0, psi / np.linalg.norm(psi, 2)
