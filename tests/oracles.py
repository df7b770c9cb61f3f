"""Reference operators and predicates that the tests check the package against."""

import numpy as np

from gaplab.lattice import Interval
from gaplab.operator_algebra import LocalOperator, annihilator, operator_norm


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
