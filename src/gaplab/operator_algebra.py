r"""Local operators on finite spin and fermion chains.

Matrices are stored in the site-lexicographic product basis: the leftmost site
of the support is the most significant digit.  For fermions the single-site
basis is (empty, occupied) and creation/annihilation matrices carry the usual
occupancy-string signs, i.e. ``a(x)`` on a chain is the string-dressed
lowering matrix ``Z^(x-a) (x) s^- (x) 1``.  Under the identification
"occupied = up" an even fermionic operator supported on an interval has the
same matrix as its spin image, so the algebra map between the two pictures is
a relabeling for even operators while odd operators pick up the string and a
support stretching to the left chain edge.

Dense matrices are refused above ``MAX_DENSE_DIM`` (14 sites at local
dimension 2, 9 sites at local dimension 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import Interval

MAX_DENSE_DIM = 3 ** 9

# single-site annihilator in the basis order (empty, occupied)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class ParityError(ValueError):
    """Raised when an operation requires a definite (even) fermion parity."""


def spin_matrices(d: int):
    """Spin matrices (Sx, Sy, Sz) for local dimension d = 2S+1."""
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    raising = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        raising[k, k + 1] = np.sqrt(s * (s + 1) - m[k + 1] * (m[k + 1] + 1))
    sx = (raising + raising.conj().T) / 2.0
    sy = (raising - raising.conj().T) / 2.0j
    sz = np.diag(m).astype(complex)
    return sx, sy, sz


def operator_norm(m) -> float:
    """Largest singular value, from one values-only ``eigenvalues`` solve.

    An exactly Hermitian matrix gives its largest ``|eigenvalue|``.  Any
    other matrix gives ``sqrt(lambda_max(G))`` of its Gram matrix
    ``G = a^H a`` (or ``a a^H``, the smaller side), formed from
    ``a = m / 2^k`` with ``2^k`` near ``max|m|``: the scaling is exact and
    keeps ``G`` clear of underflow and overflow.  ``G`` keeps the parity
    blocks of ``m``, and ``sigma_max`` keeps a relative accuracy of order
    ``n u``, the order of an SVD's.  A stack (k, b, b) of diagonal blocks,
    as ``split_blocks`` makes it, stands for its block-diagonal matrix:
    exactly Hermitian blocks give the largest ``|eigenvalue|`` of the
    stack, any others the largest norm of a block.
    """
    m = np.asarray(m)
    if m.ndim == 3 and all(map(_exactly_hermitian, m)):
        return float(np.max(np.abs(eigenvalues(m))))
    if m.ndim == 3:
        return max(map(_matrix_norm, m))
    return _matrix_norm(m)


def _matrix_norm(m: np.ndarray) -> float:
    """``operator_norm`` of one matrix."""
    if m.size and _exactly_hermitian(m):
        return float(np.max(np.abs(eigenvalues(m))))
    top = float(np.max(np.abs(m), initial=0.0))
    if top == 0.0:
        return 0.0
    scale = np.ldexp(1.0, np.frexp(top)[1])
    a = m / scale
    a_h = a.conj().T
    gram = a_h @ a if a.shape[0] >= a.shape[1] else a @ a_h
    return float(scale * np.sqrt(max(eigenvalues(gram)[-1], 0.0)))


def _exactly_hermitian(m: np.ndarray) -> bool:
    """``m == m^H`` entry for entry, compared 256 rows at a time so no second
    full-size matrix is built."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return all(np.array_equal(m[lo:lo + 256], m[:, lo:lo + 256].conj().T)
               for lo in range(0, m.shape[0], 256))


def kernel_mask(evals) -> np.ndarray:
    """Eigenvalues at the kernel scale, |lambda| <= 1e-9 max(1, max|lambda|).

    The cut is two-sided, so an eigenvalue below zero by more than rounding
    never counts as kernel; on the positive semidefinite operators of a
    frustration-free model it agrees with the one-sided ``lambda <= cut``.
    """
    evals = np.asarray(evals)
    scale = max(1.0, float(np.max(np.abs(evals)))) if evals.size else 1.0
    return np.abs(evals) <= 1e-9 * scale


def kernel_count(evals) -> int:
    """Number of eigenvalues at the kernel scale (see ``kernel_mask``)."""
    return int(np.sum(kernel_mask(evals)))


def _check_dense(dim):
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")


@dataclass
class LocalOperator:
    """A matrix acting on the sites of ``support`` inside the chain ``ambient``.

    The matrix is never changed in place once the operator is made (every
    operation returns a new operator), so its norm is computed once.
    """

    matrix: np.ndarray
    support: Interval
    ambient: Interval
    kind: str = "spin"
    local_dim: int = 2
    string_attached: bool = False
    _norm: float | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.kind not in ("spin", "fermion"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "fermion" and self.local_dim != 2:
            raise ValueError("fermion chains have local dimension 2")
        if self.support not in self.ambient:
            raise ValueError(f"support {self.support} outside ambient {self.ambient}")
        m = np.asarray(self.matrix)
        if not np.issubdtype(m.dtype, np.floating) and not np.issubdtype(m.dtype, np.complexfloating):
            m = m.astype(complex)
        self.matrix = m
        want = self.local_dim ** len(self.support)
        if self.matrix.shape != (want, want):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match "
                             f"support {self.support} at local dimension {self.local_dim}")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def norm(self) -> float:
        if self._norm is None:
            self._norm = operator_norm(self.matrix)
        return self._norm

    def dagger(self):
        return replace(self, matrix=self.matrix.conj().T.copy())

    def __add__(self, other):
        if not isinstance(other, LocalOperator):
            return NotImplemented
        if other.support != self.support or other.kind != self.kind:
            raise ValueError("add requires identical supports and kinds")
        return replace(self, matrix=self.matrix + other.matrix)

    def __sub__(self, other):
        if not isinstance(other, LocalOperator):
            return NotImplemented
        return self + replace(other, matrix=-other.matrix)

    def __mul__(self, scalar):
        return replace(self, matrix=self.matrix * scalar)

    __rmul__ = __mul__


def as_matrix(a) -> np.ndarray:
    """The matrix of a LocalOperator, or ``a`` itself as an array."""
    return a.matrix if isinstance(a, LocalOperator) else np.asarray(a)


def _popcount(n_sites: int) -> np.ndarray:
    """Occupied sites of every basis state on n_sites (local dimension 2)."""
    v = np.arange(2 ** n_sites)
    pop = np.zeros_like(v)
    while v.any():
        pop += v & 1
        v >>= 1
    return pop


def parity_matrix(n_sites: int) -> np.ndarray:
    """Diagonal of (-1)^(number of occupied sites) on n_sites, local dim 2."""
    return np.where(_popcount(n_sites) % 2 == 0, 1.0, -1.0)


def parity_sectors(*mats) -> list[np.ndarray]:
    """Index sets of the exact fermion-parity blocks shared by ``mats``.

    When every matrix is square with one side 2^n, n >= 1, and has exactly
    zero entries between the even and the odd occupancy sectors of
    ``parity_matrix(n)``, the two sectors, even first: each matrix then
    equals its block-diagonal part entry for entry.  Otherwise one sector
    holding every index.  Every Hamiltonian of the orbital chain splits; the
    spin-1 chain (side 3^n) and inputs that mix parities do not.
    """
    shape = np.shape(mats[0])
    side = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    whole = [np.arange(side)]
    if side < 2 or side & (side - 1):
        return whole
    even = parity_matrix(side.bit_length() - 1) > 0
    ev, od = np.flatnonzero(even), np.flatnonzero(~even)
    for m in map(np.asarray, mats):
        if m.shape != shape or _couples_parities(m, even, ev, od):
            return whole
    return [ev, od]


def _couples_parities(m: np.ndarray, even, ev, od) -> bool:
    """Some entry of ``m`` between the even and the odd sector is nonzero;
    tested 64 rows at a time, so neither off-parity quarter is built (at
    side 4096 a slab's copies stay under 1 MB, small enough to leave the
    peak memory of a solve where it was)."""
    for lo in range(0, len(even), 64):
        rows, is_even = m[lo:lo + 64], even[lo:lo + 64]
        if rows[is_even].take(od, axis=1).any() \
                or rows[~is_even].take(ev, axis=1).any():
            return True
    return False


def split_blocks(m, sectors) -> np.ndarray:
    """The diagonal blocks of ``m`` on ``sectors`` (see ``parity_sectors``)
    as a stack of shape (k, b, b); one sector gives a view of ``m``."""
    m = np.asarray(m)
    if len(sectors) == 1:
        return m[None]
    idx = np.asarray(sectors)
    return m[idx[:, :, None], idx[:, None, :]]


def join_blocks(blocks, sectors) -> np.ndarray:
    """The block-diagonal matrix with the stack ``blocks`` on ``sectors``;
    the inverse of ``split_blocks``."""
    if len(sectors) == 1:
        return blocks[0]
    idx = np.asarray(sectors)
    out = np.zeros((idx.size, idx.size), blocks.dtype)
    out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, split by fermion parity.

    The blocks of ``parity_sectors(m)`` are solved apart by
    ``block_eigenvalues``, once when the two parity blocks are equal entry
    for entry (a parity-even operator that leaves an end site alone has two
    equal blocks); a matrix that does not split is solved whole.  A stack
    (k, b, b) of diagonal blocks, as ``split_blocks`` makes it, is solved
    the same way, block by block.
    """
    m = np.asarray(m)
    if m.ndim == 2:
        sectors = parity_sectors(m)
        if len(sectors) == 1:
            return np.linalg.eigvalsh(m)
        m = split_blocks(m, sectors)
    return block_eigenvalues(m, len(m) == 2 and np.array_equal(m[0], m[1]))


def block_eigenvalues(blocks, equal: bool) -> np.ndarray:
    """Ascending eigenvalues of the block-diagonal matrix with ``blocks``.

    Each block, one or two, is solved by ``eigvalsh`` as ``blocks`` yields
    it, so an iterator forms one block at a time.  With ``equal`` the second
    block is the first entry for entry: it is neither read nor solved, and
    the first spectrum counts twice.
    """
    blocks = iter(blocks)
    first = np.linalg.eigvalsh(next(blocks))
    rest = [first] if equal else [np.linalg.eigvalsh(b) for b in blocks]
    return np.sort(np.concatenate([first, *rest])) if rest else first


def parity_grade(op: LocalOperator) -> str:
    """Grade of a local-dimension-2 operator under the occupancy parity:
    even/odd/mixed, to 1e-12 relative to its largest entry."""
    if op.local_dim != 2:
        raise ValueError("parity grading needs local dimension 2")
    p = parity_matrix(len(op.support))
    conj = p[:, None] * op.matrix * p[None, :]
    scale = max(1.0, float(np.max(np.abs(op.matrix))))
    if np.max(np.abs(conj - op.matrix)) <= 1e-12 * scale:
        return "even"
    if np.max(np.abs(conj + op.matrix)) <= 1e-12 * scale:
        return "odd"
    return "mixed"


def embed(op: LocalOperator, target: Interval) -> LocalOperator:
    """Extend by identity onto ``target``, written into the ``placement``
    view of a zeroed matrix; odd/mixed fermion parts are refused."""
    if op.support not in target or target not in op.ambient:
        raise ValueError("target must contain the support and sit inside the ambient")
    if op.kind == "fermion" and parity_grade(op) != "even":
        raise ParityError("only even fermionic operators embed without a string")
    d = op.local_dim
    _check_dense(d ** len(target))
    m = np.zeros((d ** len(target),) * 2, np.result_type(op.matrix, float))
    placement(m, d ** (op.support.a - target.a),
              d ** (target.b - op.support.b))[...] = op.matrix
    return LocalOperator(m, target, op.ambient, op.kind, d)


def annihilator(lam: Interval, x: int) -> LocalOperator:
    """String-dressed mode annihilator at site x on the chain lam."""
    if x not in lam:
        raise ValueError(f"site {x} outside {lam}")
    _check_dense(2 ** len(lam))
    m = np.zeros((2 ** len(lam),) * 2, complex)
    string = parity_matrix(x - lam.a)[:, None, None, None]
    placement(m, 2 ** (x - lam.a), 2 ** (lam.b - x))[...] = string * LOWER
    return LocalOperator(m, lam, lam, "fermion")


def mode_annihilator(lam: Interval, coeffs: dict) -> LocalOperator:
    """Annihilator of the mode sum_x coeffs[x] e_x (an orbital)."""
    out = None
    for x, cx in coeffs.items():
        term = annihilator(lam, x) * np.conj(cx)
        out = term if out is None else out + term
    if out is None:
        raise ValueError("empty orbital")
    return out


def placement(h: np.ndarray, dl: int, dr: int) -> np.ndarray:
    r"""The entries of ``1_dl (x) M (x) 1_dr`` inside the square ``h``, as the
    view ``v[a, b, i, j] = h[(a, i, b), (a, j, b)]``.

    For a C-contiguous ``h`` the view writes into ``h``: ``v[...] = M``
    places ``M`` between the two identities and ``v += M`` adds it, without
    forming the placed matrix.  Its adjoint is ``partial_trace``, which sums
    the view over ``a`` and ``b``.
    """
    dt = h.shape[0] // (dl * dr)
    return np.einsum("aibajb->abij", h.reshape(dl, dt, dr, dl, dt, dr))


def partial_trace(op: LocalOperator, keep: Interval) -> LocalOperator:
    r"""Normalized partial trace onto the sites of ``keep``.

    Averages out the complement with the normalized trace, so the identity
    maps to the identity and the map is a conditional expectation onto the
    observables of ``keep``.  It sums the ``placement`` view of the matrix
    over the complement, so it is the adjoint of placing.  Requires the spin
    kind (for fermions, take the even part through the chain-algebra
    relabeling first).
    """
    if op.kind != "spin":
        raise ValueError("partial_trace acts on spin-kind operators")
    if keep not in op.support:
        raise ValueError(f"keep {keep} not inside support {op.support}")
    d = op.local_dim
    dl, dr = d ** (keep.a - op.support.a), d ** (op.support.b - keep.b)
    out = np.einsum("abij->ij", placement(op.matrix, dl, dr)) / (dl * dr)
    return LocalOperator(out, keep, op.ambient, op.kind, d)


def conditional_expectation(op: LocalOperator, keep: Interval) -> LocalOperator:
    """Partial trace for spin operators, extended to even fermionic ones."""
    if op.kind == "fermion":
        if parity_grade(op) != "even":
            raise ParityError("conditional expectation needs an even operator")
        spin_view = replace(op, kind="spin")
        out = partial_trace(spin_view, keep)
        return replace(out, kind="fermion")
    return partial_trace(op, keep)


def delta_layer(op: LocalOperator, lam: Interval, x: int, n: int) -> LocalOperator:
    r"""Layer ``n`` of the ball decomposition of ``op`` around ``x``.

    Layer 0 is the conditional expectation onto the radius-0 ball; layer
    ``n >= 1`` is the difference of the expectations onto the radius-``n``
    and radius-``n-1`` balls.  The layers telescope back to ``op`` and vanish
    once the smaller ball already contains the support of ``op``.
    """
    from .lattice import ball
    if op.support != lam:
        op = embed(op, lam)
    bn = ball(lam, x, n)
    if n == 0:
        return conditional_expectation(op, bn)
    bprev = ball(lam, x, n - 1)
    hi = conditional_expectation(op, bn)
    lo = conditional_expectation(op, bprev)
    if bn == bprev:  # ball saturated: layer vanishes identically
        return replace(hi, matrix=np.zeros_like(hi.matrix))
    lo_e = embed(lo, bn) if lo.kind == "spin" else \
        replace(embed(replace(lo, kind="spin"), bn), kind="fermion")
    return hi - lo_e


def jordan_wigner(op: LocalOperator) -> LocalOperator:
    r"""Image of a fermionic operator in the spin picture.

    Even operators keep their matrix and support.  Operators with an odd part
    keep the matrix *of the chain embedding*, which attaches the sign string:
    the image is supported on ``[ambient.a, support.b]`` and flagged.
    """
    if op.kind != "fermion":
        raise ValueError("jordan_wigner maps fermionic operators")
    grade = parity_grade(op)
    if grade == "even":
        return LocalOperator(op.matrix.copy(), op.support, op.ambient, "spin")
    # split into even and odd parts; the odd part is dressed by the string
    p = parity_matrix(len(op.support))
    conj = p[:, None] * op.matrix * p[None, :]
    even_part = (op.matrix + conj) / 2.0
    odd_part = (op.matrix - conj) / 2.0
    stretched = Interval(op.ambient.a, op.support.b)
    nl = op.support.a - stretched.a
    _check_dense(2 ** len(stretched))
    m = np.zeros((2 ** len(stretched),) * 2, complex)
    string = parity_matrix(nl)[:, None, None, None]
    placement(m, 2 ** nl, 1)[...] = even_part + string * odd_part
    return LocalOperator(m, stretched, op.ambient, "spin",
                         string_attached=True)
