r"""Local operators on finite spin and fermion chains.

Matrices are stored in the site-lexicographic product basis: the leftmost site
of the support is the most significant digit.  For fermions the single-site
basis is (empty, occupied).  A fermionic operator is even by construction:
its matrix is exactly zero between basis states of unlike parity.  Under the
identification "occupied = up" it then has the same matrix as its spin image,
so the map between the two pictures is a relabeling.  The odd ``a(x)`` has no
fermionic operator here; ``annihilator`` gives its spin image on a chain, the
string-dressed lowering matrix ``Z^(x-a) (x) s^- (x) 1``, whose even products
are fermionic operators.

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
    """Raised when a fermionic operator is not even."""


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


def operator_norm(m, sectors=None) -> float:
    """Largest singular value, from one values-only ``eigenvalues`` solve.

    An exactly Hermitian matrix gives its largest ``|eigenvalue|``.  Any
    other matrix gives ``sqrt(lambda_max(G))`` of its Gram matrix
    ``G = a^H a`` (or ``a a^H``, the smaller side), formed whole from
    ``a = m / 2^k`` with ``2^k`` near ``max|m|``: the scaling is exact and
    keeps ``G`` clear of underflow and overflow, and ``sigma_max`` keeps a
    relative accuracy of order ``n u``, the order of an SVD's.  ``sectors``
    (of a charge ``m`` conserves, as ``charge_sectors`` gives them) split
    the matrix solved, ``m`` or ``G``, which keeps the zeros of ``m``, into
    its diagonal blocks.  A stack (k, b, b) of diagonal blocks stands for
    its block-diagonal matrix and takes the same steps block by block.
    """
    m = np.asarray(m)
    hermitian = m.size and (all(map(_exactly_hermitian, m)) if m.ndim == 3
                            else _exactly_hermitian(m))
    if not hermitian:
        top = float(np.max(np.abs(m), initial=0.0))
        if top == 0.0:
            return 0.0
        scale = np.ldexp(1.0, np.frexp(top)[1])
        a = m / scale
        a_h = a.conj().swapaxes(-1, -2)
        m = a_h @ a if a.shape[-2] >= a.shape[-1] else a @ a_h
    blocks = m if sectors is None or len(sectors) == 1 \
        else (m[np.ix_(idx, idx)] for idx in sectors)
    evals = eigenvalues(blocks)
    if hermitian:
        return float(np.max(np.abs(evals)))
    return float(scale * np.sqrt(max(evals[-1], 0.0)))


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
    operation returns a new operator), so its norm is computed once.  A
    fermionic operator must be even, ``conserved_modulus([op], (2,)) == 2``,
    or it is refused with ``ParityError``; every new operator, from ``+``,
    ``*`` or ``replace`` too, is checked.
    """

    matrix: np.ndarray
    support: Interval
    ambient: Interval
    kind: str = "spin"
    local_dim: int = 2
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
        if self.kind == "fermion" and conserved_modulus([self], (2,)) != 2:
            raise ParityError(f"fermionic operator on {self.support} is not "
                              "even: entries between unlike parities")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def norm(self) -> float:
        """The norm on the sectors of ``conserved_modulus([self])``."""
        if self._norm is None:
            self._norm = operator_norm(self.matrix, charge_sectors(
                len(self.support), self.local_dim, conserved_modulus([self])))
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


def basis_charges(n_sites: int, d: int = 2,
                  modulus: int | None = None) -> np.ndarray:
    """Charge of every basis state on ``n_sites`` of local dimension ``d``.

    A site's charge is its basis index: the occupation at ``d = 2``, and
    ``1 - m`` for spin-1.  A state's charge is the sum over its sites (the
    particle number, or ``S - S^z`` summed), reduced mod ``modulus`` when
    one is given: modulus 2 is the fermion parity, modulus 1 puts every
    state in one sector.
    """
    q = np.zeros(1, dtype=np.intp)
    for _ in range(n_sites):
        q = (q[:, None] + np.arange(d)).ravel()
    return q if modulus is None else q % modulus


def parity_matrix(n_sites: int) -> np.ndarray:
    """Diagonal of (-1)^(number of occupied sites) on n_sites, local dim 2."""
    return 1.0 - 2.0 * basis_charges(n_sites, 2, 2)


def charge_sectors(n_sites: int, d: int, modulus) -> list[np.ndarray]:
    """Index sets of the charge sectors of ``basis_charges(n_sites, d,
    modulus)``: its charges are ``0 .. n_sites (d - 1)``, or their residues,
    so the sector at position ``c`` is that of charge ``c``."""
    q, top = basis_charges(n_sites, d, modulus), n_sites * (d - 1) + 1
    return [np.flatnonzero(q == c) for c in range(min(top, modulus or top))]


def conserved_modulus(ops, moduli=(None, 2)) -> int | None:
    """The first of ``moduli`` (``basis_charges`` moduli: by default the
    number, then the parity) whose charge every ``LocalOperator`` of ``ops``
    conserves, else 1: one sector.  An operator conserves a charge when its
    matrix is exactly zero between unequal charges (read 64 rows at a time)."""
    def conserves(op, modulus):
        q = basis_charges(len(op.support), op.local_dim, modulus)
        return not any(op.matrix[lo:lo + 64][q[lo:lo + 64, None] != q].any()
                       for lo in range(0, q.size, 64))

    for modulus in moduli:
        if all(conserves(op, modulus) for op in ops):
            return modulus
    return 1


def join_blocks(blocks, sectors) -> np.ndarray:
    """The block-diagonal matrix with the stack ``blocks`` of equal sides
    on ``sectors``; one sector gives its block itself."""
    if len(sectors) == 1:
        return blocks[0]
    idx = np.asarray(sectors)
    out = np.zeros((idx.size, idx.size), blocks.dtype)
    out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, solved whole by
    ``eigvalsh``.  Any other input is a sequence of square diagonal blocks,
    of one side (a stack (k, b, b)) or of several (a list or a generator),
    solved block by block, and the spectra are merged; a block is let go
    once solved, so a generator keeps one block alive at a time.
    """
    if isinstance(m, np.ndarray) and m.ndim == 2:
        return np.linalg.eigvalsh(m)
    spectra = []
    for block in m:
        spectra.append(np.linalg.eigvalsh(block))
        del block
    return np.sort(np.concatenate(spectra))


def embed(op: LocalOperator, target: Interval) -> LocalOperator:
    """Extend by identity onto ``target``, written into the ``placement``
    view of a zeroed matrix."""
    if op.support not in target or target not in op.ambient:
        raise ValueError("target must contain the support and sit inside the ambient")
    d = op.local_dim
    _check_dense(d ** len(target))
    m = np.zeros((d ** len(target),) * 2, np.result_type(op.matrix, float))
    placement(m, d ** (op.support.a - target.a),
              d ** (target.b - op.support.b))[...] = op.matrix
    return LocalOperator(m, target, op.ambient, op.kind, d)


def annihilator(lam: Interval, x: int) -> LocalOperator:
    """The spin image of the odd fermionic ``a(x)`` on the chain ``lam``:
    the lowering matrix at ``x`` dressed by the parity string to its left."""
    if x not in lam:
        raise ValueError(f"site {x} outside {lam}")
    _check_dense(2 ** len(lam))
    m = np.zeros((2 ** len(lam),) * 2, complex)
    string = parity_matrix(x - lam.a)[:, None, None, None]
    placement(m, 2 ** (x - lam.a), 2 ** (lam.b - x))[...] = string * LOWER
    return LocalOperator(m, lam, lam)


def mode_annihilator(lam: Interval, coeffs: dict) -> LocalOperator:
    """Spin image of the annihilator of the mode sum_x coeffs[x] e_x (an
    orbital)."""
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
    forming the placed matrix.  Its adjoint is ``conditional_expectation``,
    which sums the view over ``a`` and ``b``.
    """
    dt = h.shape[0] // (dl * dr)
    return np.einsum("aibajb->abij", h.reshape(dl, dt, dr, dl, dt, dr))


def conditional_expectation(op: LocalOperator, keep: Interval) -> LocalOperator:
    r"""Normalized partial trace onto the sites of ``keep``.

    Averages out the complement with the normalized trace, so the identity
    maps to the identity and the map is a conditional expectation onto the
    observables of ``keep``.  It sums the ``placement`` view of the matrix
    over the complement, so it is the adjoint of placing.  An even
    fermionic operator has the matrix of its spin image, so one trace serves
    both kinds.
    """
    if keep not in op.support:
        raise ValueError(f"keep {keep} not inside support {op.support}")
    d = op.local_dim
    dl, dr = d ** (keep.a - op.support.a), d ** (op.support.b - keep.b)
    out = np.einsum("abij->ij", placement(op.matrix, dl, dr)) / (dl * dr)
    return LocalOperator(out, keep, op.ambient, op.kind, d)


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
    return hi - embed(lo, bn)
