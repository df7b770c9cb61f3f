r"""Spectral utilities: kernels, gap curves, resolutions of the identity.

Every kernel is solved in its volume's charge blocks, never whole
(``kernel_basis_dense``).  Eigenvalue curves of Hermitian families are
tracked by sorted index; cluster identification between neighboring grid
points is certified with the eigenvalue perturbation bound
``|lambda_i(A) - lambda_i(B)| <= |A - B|``.  When the certificate fails the
grid is bisected up to a configured depth before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import Interval, ball, boundary_distances, interior
from .interaction import Interaction, Term, charge_blocks, charge_stack, \
    coupled, coupled_blocks, hamiltonian_eigenvalues
from .operator_algebra import LocalOperator, kernel_count, kernel_mask


class FrustrationError(ValueError):
    """The Hamiltonian has no kernel at the expected scale."""


class RefinementError(RuntimeError):
    """Eigenvalue clusters could not be tracked at the configured resolution."""


def diagonalize(h):
    """Full eigendecomposition with a residual certificate.

    The residual ``max|H V - V Lambda|`` must stay within
    ``1e-10 max(1, max|lambda|)``.  A stack of blocks (k, b, b), as
    ``interaction.charge_stack`` makes it, is solved block by block and
    certified as the block-diagonal matrix it stands for.
    """
    evals, evecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(evals))))
    resid = np.max(np.abs(h @ evecs - evecs * evals[..., None, :]))
    if resid > 1e-10 * scale:
        raise RuntimeError(f"eigensolver residual {resid:.3e} above tolerance")
    return evals, evecs


def kernel_basis_dense(phi: Interaction, lam: Interval) -> np.ndarray:
    """Orthonormal kernel vectors of ``local_hamiltonian(phi, lam)``.

    Each block of ``charge_blocks(phi, lam)`` is solved by ``diagonalize``.
    The kernel cut is ``kernel_mask`` on the merged spectrum, at the scale
    of the whole matrix and not of each block, and each block's kernel
    columns are lifted into ``lam``'s basis by its sector's index set.
    """
    sectors, blocks = charge_blocks(phi, lam)
    solved = [diagonalize(block) for block in blocks]
    mask = kernel_mask(np.concatenate([evals for evals, _ in solved]))
    if not np.any(mask):
        raise FrustrationError("no eigenvalue at the kernel scale")
    edges = np.cumsum([0] + [idx.size for idx in sectors])
    kept = [np.pad(v[:, mask[a:b]], ((a, mask.size - b), (0, 0)))
            for (_, v), a, b in zip(solved, edges, edges[1:])]
    return np.hstack(kept)[np.argsort(np.concatenate(sectors))]


def ground_projector(phi: Interaction, lam: Interval) -> np.ndarray:
    """``v v*`` of ``kernel_basis_dense(phi, lam)``: zero between sectors."""
    v = kernel_basis_dense(phi, lam)
    return v @ v.conj().T


@dataclass
class SpectrumSplit:
    eps: float
    sp0: np.ndarray
    sp1: np.ndarray

    @property
    def gamma(self) -> float:
        return float(self.sp1.min() - self.sp0.max()) if self.sp1.size else np.inf

    @property
    def sp0_diameter(self) -> float:
        return float(self.sp0.max() - self.sp0.min())


def gap_curve(eta: Interaction, pert: Interaction, lam: Interval, eps_grid,
              cluster_dim: int | None = None,
              max_depth: int = 6) -> list[SpectrumSplit]:
    """Low-cluster/rest split of ``H0 + eps Psi``, the Hamiltonians of
    ``eta`` and ``pert`` on ``lam``, along a grid of couplings.

    The low cluster collects the eigenvalues continuously connected to the
    kernel of ``H0`` (sorted-index tracking).  Between neighboring grid points
    the cluster identity is certified with the perturbation bound
    ``|step| * |Psi| < (gamma_left + gamma_right)/2``; failing pairs are
    bisected up to ``max_depth`` halvings.

    Coupling zero reads ``hamiltonian_eigenvalues(eta, lam)``, solved once.
    Every other coupling, bisection midpoints included, reads one block plan
    of the family, ``coupled_blocks(eta, pert, lam)``, built once per call
    when the grid holds a nonzero coupling: it scatters ``H0 + eps Psi``
    into one zeroed block per charge sector and solves it, so its spectra
    are those of ``coupled(eta, pert, eps)`` up to rounding.  ``|Psi|`` is
    bounded by the sum of the norms of ``pert``'s terms on ``lam`` (the
    triangle inequality), with no solve: a larger constant only makes the
    bound stricter.
    """
    psi_norm = sum(t.op.norm() for t in pert.terms if t.support in lam)
    ev0 = hamiltonian_eigenvalues(eta, lam)
    if cluster_dim is None:
        cluster_dim = kernel_count(ev0)
        if cluster_dim == 0:
            raise FrustrationError("no kernel eigenvalues to track")
    plan = coupled_blocks(eta, pert, lam) if any(eps_grid) else None

    def split_at(eps):
        evals = ev0 if eps == 0.0 else plan.eigenvalues(eps)
        return SpectrumSplit(float(eps), evals[:cluster_dim], evals[cluster_dim:])

    def certified(left, right):
        drift = abs(right.eps - left.eps) * psi_norm
        return 2.0 * drift < left.gamma + right.gamma

    out = [split_at(e) for e in eps_grid]
    for i in range(len(out) - 1):
        stack = [(out[i], out[i + 1], 0)]
        while stack:
            left, right, depth = stack.pop()
            if certified(left, right):
                continue
            if depth >= max_depth:
                raise RefinementError(
                    f"cannot certify cluster tracking on [{left.eps}, {right.eps}]")
            mid = split_at(0.5 * (left.eps + right.eps))
            stack.append((left, mid, depth + 1))
            stack.append((mid, right, depth + 1))
    return out


def cluster_projector(evals, evecs, dim: int):
    """The low cluster of a block stack from its decomposition
    ``(evals, evecs)``, as ``diagonalize`` gives it: the gap above the
    ``dim`` lowest eigenvalues of the merged spectrum, and each block's
    orthonormal frame of them, its first columns (a copy, possibly empty).
    A tie at the boundary goes to the earlier block (a stable sort) and
    reads a zero gap, which the caller refuses.  The projector onto the
    cluster is the stack of ``v v*`` of the frames."""
    merged = np.sort(evals, axis=None)
    lowest = np.argsort(evals, axis=None, kind="stable")[:dim]
    counts = np.bincount(lowest // evals.shape[-1], minlength=len(evals))
    return (float(merged[dim] - merged[dim - 1]),
            [v[:, :c].copy() for v, c in zip(evecs, counts)])


@dataclass
class ProjectorFamily:
    """Kernel projectors of the balls around a site, with the resolution they
    induce, as block stacks on the charge sectors of the flow's ``modulus``."""

    lam: Interval
    x: int
    modulus: int                  # the charge_blocks modulus of every stack
    P: np.ndarray                 # full-volume kernel projector
    locals: list[np.ndarray]      # P_{b(x,1)} .. P_{b(x,r_x)}, embedded

    @property
    def r_x(self) -> int:
        return len(self.locals)

    @property
    def E(self) -> list[np.ndarray]:
        """E_1 .. E_{r_x+2}: ``1 - P_{b(x,1)}``, the differences of
        consecutive ball projectors, ``P_{b(x,r_x)} - P`` and ``P``,
        formed when read."""
        eye = np.eye(self.P.shape[-1])
        chain = [eye, *self.locals, self.P]
        return [a - b for a, b in zip(chain, chain[1:])] + [self.P]


def resolution_family(eta: Interaction, lam: Interval, x: int,
                      P: np.ndarray, modulus: int) -> ProjectorFamily:
    """Ball kernel projectors around ``x``, and the resolution they telescope
    to ``P``, the kernel projector of the whole volume as a block stack on
    the charge sectors of ``modulus``.  Each ball projector,
    ``ground_projector(eta, b)``, is an operator of ``eta``'s kind, placed
    in ``lam`` straight into those blocks by ``charge_stack``."""
    inner = interior(lam, 2)
    if inner is None or x not in inner:
        raise ValueError(f"site {x} not two sites deep inside {lam}")
    r_x, _ = boundary_distances(lam, x)
    locals_ = []
    for n in range(1, r_x + 1):
        b = ball(lam, x, n)
        op = LocalOperator(ground_projector(eta, b), b, eta.kind, eta.local_dim)
        locals_.append(charge_stack(replace(eta, terms=[Term(op)]), lam,
                                    modulus))
    return ProjectorFamily(lam, x, modulus, P, locals_)


def sigma_projection(members: list, sigma: dict) -> np.ndarray:
    """Product projector ``prod_x [sigma_x Q_x + (1-sigma_x) P_x]``.

    ``members`` holds ``(x, ball, P_embedded)`` triples with pairwise disjoint
    balls; overlapping balls break commutativity of the factors and are
    rejected.  The projectors may be matrices or block stacks alike.
    """
    for i, (_, b1, _) in enumerate(members):
        for _, b2, _ in members[i + 1:]:
            if b1.intersection(b2) is not None:
                raise ValueError(f"balls {b1} and {b2} overlap; not a partition")
    out = None
    for x, _, p in members:
        q = np.eye(p.shape[-1]) - p
        factor = q if sigma[x] else p
        out = factor if out is None else out @ factor
    return out


def higher_gap_track(splits: list[SpectrumSplit], nu: float, mu: float):
    """Gap between the eigenvalue groups below ``nu`` and above ``mu``.

    ``splits`` is a ``gap_curve`` sweep whose first split sits at coupling
    zero; each full spectrum is ``sp0`` followed by ``sp1``.  Groups are
    fixed at coupling zero and followed by sorted index:
    ``gamma(nu, mu, eps) = min{lam_i(eps): lam_i(0) >= mu}
    - max{lam_i(eps): lam_i(0) <= nu}``.  An eigenvalue within the
    kernel-scale cut of ``nu`` or ``mu`` (see ``kernel_mask``) sits on it, so
    rounding never splits a degenerate level at the edge of the window.
    """
    if splits[0].eps != 0.0:
        raise ValueError("the sweep must start at coupling zero")
    spectra = [np.concatenate((sp.sp0, sp.sp1)) for sp in splits]
    ev0 = spectra[0]
    lo = np.where((ev0 <= nu) | kernel_mask(ev0 - nu))[0]
    hi = np.where((ev0 >= mu) | kernel_mask(ev0 - mu))[0]
    if lo.size == 0 or hi.size == 0:
        side = f"below nu = {nu}" if lo.size == 0 else f"above mu = {mu}"
        raise ValueError(f"no spectrum at or {side} at coupling zero")
    i_lo, i_hi = int(lo.max()), int(hi.min())
    return [(sp.eps, float(evals[i_hi] - evals[i_lo]))
            for sp, evals in zip(splits, spectra)]


def sp0_diameter_scan(eta: Interaction, pert: Interaction, lam: Interval,
                      couplings, depths) -> list[dict]:
    """Low-cluster diameter as the perturbation retreats into the interior.

    For each coupling and each depth ``D`` the perturbation keeps only terms
    supported inside ``Int_D``; the splitting of the kernel cluster is
    reported per coupling and depth, in that order.  Every spectrum is
    ``hamiltonian_eigenvalues`` on ``lam``: a coupling-zero row, or a depth
    that keeps no term, reads that of ``eta``, solved once; every other row
    solves ``coupled(eta, kept, eps)``.  An ``eta`` with no kernel has no
    cluster to split (``FrustrationError``).
    """
    ev0 = hamiltonian_eigenvalues(eta, lam)
    kdim = kernel_count(ev0)
    if kdim == 0:
        raise FrustrationError("no kernel eigenvalues to track")
    rows = []
    for eps in couplings:
        for depth in depths:
            inner = interior(lam, depth)
            evals = ev0
            if inner is not None and eps != 0.0:
                kept = pert.restricted(inner)
                if kept.terms:
                    evals = hamiltonian_eigenvalues(coupled(eta, kept, eps),
                                                    lam)
            sp = SpectrumSplit(float(eps), evals[:kdim], evals[kdim:])
            sp1_min = float(sp.sp1.min()) if sp.sp1.size else np.inf
            rows.append({"depth": int(depth), "eps": sp.eps,
                         "sp0_min": float(sp.sp0.min()),
                         "sp0_max": float(sp.sp0.max()),
                         "sp0_diam": sp.sp0_diameter, "sp1_min": sp1_min,
                         "gamma": sp.gamma})
    return rows
