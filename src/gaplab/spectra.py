r"""Spectral utilities: kernels, gap curves, resolutions of the identity.

Eigenvalue curves of Hermitian families are tracked by sorted index; cluster
identification between neighboring grid points is certified with the
eigenvalue perturbation bound ``|lambda_i(A) - lambda_i(B)| <= |A - B|``.
When the certificate fails the grid is bisected up to a configured depth
before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Interval, ball, boundary_distances, interior
from .interaction import Interaction, hamiltonian_eigenvalues, \
    local_hamiltonian
from .operator_algebra import LocalOperator, as_matrix, block_eigenvalues, \
    eigenvalues, embed, kernel_count, kernel_mask, operator_norm, \
    parity_sectors, split_blocks


class FrustrationError(ValueError):
    """The Hamiltonian has no kernel at the expected scale."""


class RefinementError(RuntimeError):
    """Eigenvalue clusters could not be tracked at the configured resolution."""


def diagonalize(h):
    """Full eigendecomposition with a residual certificate.

    The residual ``max|H V - V Lambda|`` must stay within
    ``1e-10 max(1, max|lambda|)``.  A stack of blocks (k, b, b), as
    ``operator_algebra.split_blocks`` makes it, is solved block by block
    and certified as the block-diagonal matrix it stands for.
    """
    m = as_matrix(h)
    evals, evecs = np.linalg.eigh(m)
    scale = max(1.0, float(np.max(np.abs(evals))))
    resid = np.max(np.abs(m @ evecs - evecs * evals[..., None, :]))
    if resid > 1e-10 * scale:
        raise RuntimeError(f"eigensolver residual {resid:.3e} above tolerance")
    return evals, evecs


def kernel_basis_dense(h) -> np.ndarray:
    """Orthonormal eigenvectors of the kernel-scale eigenvalues."""
    evals, evecs = diagonalize(h)
    mask = kernel_mask(evals)
    if not np.any(mask):
        raise FrustrationError("no eigenvalue at the kernel scale")
    return evecs[:, mask]


def ground_projector(h) -> np.ndarray:
    """Projector onto the kernel-scale eigenvalues of a frustration-free operator."""
    v = kernel_basis_dense(h)
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


def gap_curve(h0, psi, eps_grid, cluster_dim: int | None = None,
              max_depth: int = 6) -> list[SpectrumSplit]:
    """Low-cluster/rest split of ``h0 + eps psi`` along a grid of couplings.

    The low cluster collects the eigenvalues continuously connected to the
    kernel of ``h0`` (sorted-index tracking).  Between neighboring grid points
    the cluster identity is certified with the perturbation bound
    ``|step| * |psi| < (gamma_left + gamma_right)/2``; failing pairs are
    bisected up to ``max_depth`` halvings.

    ``h0`` and ``psi`` are split once on their shared ``parity_sectors``;
    ``|psi|`` and the spectrum at coupling zero are read from the blocks, and
    every other coupling solves ``b0 + eps bp`` one block at a time, once
    when both pairs of blocks are equal, so each ``eigvalsh`` sees the block
    ``eigenvalues(h0 + eps psi)`` would solve.
    """
    m0, mp = as_matrix(h0), as_matrix(psi)
    sectors = parity_sectors(m0, mp)
    b0, bp = split_blocks(m0, sectors), split_blocks(mp, sectors)
    psi_norm = operator_norm(bp)
    ev0 = eigenvalues(b0)
    # blocks equal in h0 and in psi are equal at every coupling
    equal = len(b0) == 2 and np.array_equal(b0[0], b0[1]) \
        and np.array_equal(bp[0], bp[1])
    if cluster_dim is None:
        cluster_dim = kernel_count(ev0)
        if cluster_dim == 0:
            raise FrustrationError("no kernel eigenvalues to track")

    def split_at(eps):
        evals = ev0 if eps == 0.0 else block_eigenvalues(
            (b + eps * p for b, p in zip(b0, bp)), equal)
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


def cluster_projector(h, dim: int) -> np.ndarray:
    """Projector onto the ``dim`` lowest eigenvectors."""
    evals, evecs = diagonalize(h)
    gap = evals[dim] - evals[dim - 1] if dim < len(evals) else np.inf
    if gap <= 0:
        raise RefinementError("cluster boundary is degenerate")
    v = evecs[:, :dim]
    return v @ v.conj().T


@dataclass
class ProjectorFamily:
    """Kernel projectors of the balls around a site, with the resolution they induce."""

    lam: Interval
    x: int
    P: np.ndarray                 # full-volume kernel projector
    locals: list[np.ndarray]      # P_{b(x,1)} .. P_{b(x,r_x)}, embedded
    E: list[np.ndarray]           # E_1 .. E_{r_x+2}

    @property
    def r_x(self) -> int:
        return len(self.locals)


def resolution_family(eta: Interaction, lam: Interval, x: int,
                      P: np.ndarray) -> ProjectorFamily:
    """Ball kernel projectors around ``x``, and the resolution they telescope
    to ``P``, the kernel projector of the whole volume."""
    inner = interior(lam, 2)
    if inner is None or x not in inner:
        raise ValueError(f"site {x} not two sites deep inside {lam}")
    r_x, _ = boundary_distances(lam, x)
    d = eta.local_dim
    locals_ = []
    for n in range(1, r_x + 1):
        b = ball(lam, x, n)
        pb = ground_projector(local_hamiltonian(eta.restricted(b), b))
        locals_.append(embed(LocalOperator(pb, b, lam, "spin", d), lam).matrix)
    dim = P.shape[0]
    E = [np.eye(dim) - locals_[0]]
    for n in range(2, r_x + 1):
        E.append(locals_[n - 2] - locals_[n - 1])
    E.append(locals_[r_x - 1] - P)
    E.append(P)
    return ProjectorFamily(lam, x, P, locals_, E)


def sigma_projection(members: list, sigma: dict) -> np.ndarray:
    """Product projector ``prod_x [sigma_x Q_x + (1-sigma_x) P_x]``.

    ``members`` holds ``(x, ball, P_embedded)`` triples with pairwise disjoint
    balls; overlapping balls break commutativity of the factors and are
    rejected.
    """
    for i, (_, b1, _) in enumerate(members):
        for _, b2, _ in members[i + 1:]:
            if b1.intersection(b2) is not None:
                raise ValueError(f"balls {b1} and {b2} overlap; not a partition")
    out = None
    for x, _, p in members:
        dim = p.shape[0]
        q = np.eye(dim) - p
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
        raise ValueError("no spectrum on one side of the window")
    i_lo, i_hi = int(lo.max()), int(hi.min())
    return [(sp.eps, float(evals[i_hi] - evals[i_lo]))
            for sp, evals in zip(splits, spectra)]


def sp0_diameter_scan(eta: Interaction, pert: Interaction, lam: Interval,
                      couplings, depths) -> list[dict]:
    """Low-cluster diameter as the perturbation retreats into the interior.

    For each coupling and each depth ``D`` the perturbation keeps only terms
    supported inside ``Int_D``; the splitting of the kernel cluster is
    reported per coupling and depth, in that order.  Each matrix is solved
    once, on the span of its terms (``hamiltonian_eigenvalues``): a
    coupling-zero row, or a depth that keeps no term, reads the spectrum of
    ``h0``.  ``eta``'s matrix on its span is assembled once and added into
    the buffer of each perturbation that stays inside that span.
    """
    eta = eta.restricted(lam)
    span = eta.span or lam
    h_eta = local_hamiltonian(eta, span).matrix
    repeat = eta.local_dim ** (len(lam) - len(span))
    ev0 = np.repeat(eigenvalues(h_eta), repeat)
    kdim = kernel_count(ev0)
    rows = []
    for eps in couplings:
        for depth in depths:
            inner = interior(lam, depth)
            kept = [t for t in pert.terms
                    if inner is not None and t.support in inner]
            evals = ev0
            if kept and eps != 0.0:
                hp = Interaction(kept, pert.kind, pert.local_dim)
                if hp.span in span:
                    # eps hp + h0 on eta's span, formed in the buffer of hp
                    m = local_hamiltonian(hp, span).matrix
                    m = m.astype(np.result_type(eps, m, h_eta), copy=False)
                    m *= eps
                    m += h_eta
                    evals = np.repeat(eigenvalues(m), repeat)
                else:
                    evals = hamiltonian_eigenvalues(((eps, hp), (1.0, eta)),
                                                    lam)
            sp0, sp1 = evals[:kdim], evals[kdim:]
            rows.append({"depth": int(depth), "eps": float(eps),
                         "sp0_min": float(sp0.min()),
                         "sp0_max": float(sp0.max()),
                         "sp0_diam": float(sp0.max() - sp0.min()),
                         "sp1_min": float(sp1.min()) if sp1.size else np.inf,
                         "gamma": (float(sp1.min() - sp0.max())
                                   if sp1.size else np.inf)})
    return rows
