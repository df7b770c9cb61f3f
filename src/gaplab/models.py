r"""Reference models: paired-orbital fermion chains and the spin-1 pair-projector chain.

The paired-orbital family places, on every even pair ``{2k, 2k+1}``, the two
orthonormal modes

.. math ::

    f_k = (e_{2k} + e_{2k+1})/\sqrt{2}, \qquad g_k = (e_{2k} - e_{2k+1})/\sqrt 2,

with the real center ``2k + 1/2``, so the radius-1 lattice ball around each
center is exactly its pair: same-family balls are pairwise disjoint, supports
sit inside their balls, and every interval of diameter ``> N0 = 2`` contains a
full pair.  The chain Hamiltonian charges every empty ``f`` mode and every
occupied ``g`` mode with one unit of energy, through the two commuting
projectors ``a(f)a*(f)`` and ``a*(g)a(g)`` per pair.  Ground states occupy all
``f`` modes, keep all ``g`` modes empty, and leave uncovered edge sites free,
so the kernel dimension on a finite chain is ``2^(#uncovered edge sites)``.

The spin-1 chain uses the projector onto total spin 2 of neighboring sites;
its open-chain kernel is four-dimensional and correlations decay with ratio
1/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .lattice import Interval, ball, interior
from .interaction import Interaction, Term
from .operator_algebra import (
    LocalOperator, mode_annihilator, parity_matrix, spin_matrices,
    operator_norm,
)


@dataclass(frozen=True)
class Orbital:
    """A single mode: real center and site coefficients."""

    center: float
    coeffs: tuple  # ((site, coefficient), ...)

    def vector(self, lam: Interval) -> np.ndarray:
        v = np.zeros(len(lam))
        for site, c in self.coeffs:
            if site not in lam:
                raise ValueError(f"orbital site {site} outside {lam}")
            v[site - lam.a] = c
        return v

    @property
    def sites(self):
        return [s for s, _ in self.coeffs]


@dataclass
class OrbitalModel:
    """Two families of orthonormal orbitals with disjoint same-family balls."""

    f_orbitals: list[Orbital]
    g_orbitals: list[Orbital]
    R: int
    N0: int

    @property
    def D(self) -> int:
        return max(self.N0, 3 * self.R)


def paired_orbital_model(window: Interval) -> OrbitalModel:
    """The default instance, with every full even pair inside ``window``."""
    inv = 1.0 / np.sqrt(2.0)
    fs, gs = [], []
    k = window.a // 2 - 1
    while 2 * k <= window.b:
        lo, hi = 2 * k, 2 * k + 1
        if lo >= window.a and hi <= window.b:
            fs.append(Orbital(lo + 0.5, ((lo, inv), (hi, inv))))
            gs.append(Orbital(lo + 0.5, ((lo, inv), (hi, -inv))))
        k += 1
    return OrbitalModel(fs, gs, R=1, N0=2)


def validate_model(model: OrbitalModel, window: Interval):
    """Check joint orthonormality (to 1e-12), same-family ball disjointness
    and spanning."""
    all_orbs = model.f_orbitals + model.g_orbitals
    mat = np.stack([o.vector(window) for o in all_orbs])
    gram = mat @ mat.T
    if np.max(np.abs(gram - np.eye(len(all_orbs)))) > 1e-12:
        raise ValueError("orbital family is not jointly orthonormal")
    for family in (model.f_orbitals, model.g_orbitals):
        balls = sorted((o.center - model.R, o.center + model.R) for o in family)
        for (a1, b1), (a2, b2) in zip(balls, balls[1:]):
            if np.floor(b1) >= np.ceil(a2):
                raise ValueError("same-family balls overlap")
        for o in family:
            for s in o.sites:
                if abs(s - o.center) > model.R:
                    raise ValueError("orbital support leaves its ball")
    # every interval of diameter > N0 inside the window contains both families
    for a in range(window.a, window.b - model.N0):
        sub = Interval(a, a + model.N0 + 1)
        for family in (model.f_orbitals, model.g_orbitals):
            if not any(all(s in sub for s in o.sites) for o in family):
                raise ValueError(f"interval {sub} misses one orbital family")
    return True


def orbital_interaction(model: OrbitalModel, lam: Interval) -> Interaction:
    """Occupied-f / empty-g projector interaction on ``lam`` (fermionic, even)."""
    terms = []
    for fo, go in zip(model.f_orbitals, model.g_orbitals):
        sites = sorted(set(fo.sites) | set(go.sites))
        supp = Interval(min(sites), max(sites))
        if supp not in lam:
            continue
        anchor = supp.a
        af = mode_annihilator(supp, dict(fo.coeffs))
        ag = mode_annihilator(supp, dict(go.coeffs))
        empty_f = af.matrix @ af.matrix.conj().T   # projector onto f unoccupied
        occ_g = ag.matrix.conj().T @ ag.matrix     # projector onto g occupied
        for m in (empty_f, occ_g):
            terms.append(Term(LocalOperator(m.real, supp, lam, "fermion"),
                              anchor=anchor))
    return Interaction(terms, "fermion", 2)


def auxiliary_basis(model: OrbitalModel, lam: Interval) -> np.ndarray:
    """Orthonormal completion of the retained orbitals on ``lam``.

    Returns an ``(len(lam), n_aux)`` array whose columns complete the kept
    f/g vectors to an orthonormal basis of the one-particle space.  The
    completion always fits outside the depth-``3R`` interior and has at most
    ``6R`` columns; volumes of diameter ``<= N0`` are rejected.  Singular
    values and interior entries below 1e-12 count as zero.
    """
    if lam.diameter <= model.N0:
        raise ValueError(f"volume {lam} too small: diameter <= {model.N0}")
    kept = []
    for o in model.f_orbitals + model.g_orbitals:
        if all(s in lam for s in o.sites):
            kept.append(o.vector(lam))
    n = len(lam)
    if kept:
        mat = np.stack(kept)            # (n_orb, n)
        _, sing, vt = np.linalg.svd(mat, full_matrices=True)
        rank = int(np.sum(sing > 1e-12))
        aux = vt[rank:].T               # (n, n_aux)
    else:
        aux = np.eye(n)
    if aux.shape[1] > 6 * model.R:
        raise ValueError("completion larger than the boundary budget")
    inner = interior(lam, 3 * model.R)
    if inner is not None and aux.size:
        rows = [s - lam.a for s in inner]
        if np.max(np.abs(aux[rows, :])) > 1e-12:
            raise ValueError("completion vector reaches the interior")
    return aux


def kernel_data(model: OrbitalModel, lam: Interval):
    """(kernel dimension, uncovered sites) for the projector chain on ``lam``."""
    covered = set()
    for o in model.f_orbitals:
        if all(s in lam for s in o.sites):
            covered.update(o.sites)
    free = [s for s in lam if s not in covered]
    return 2 ** len(free), free


def orbital_spectrum(model: OrbitalModel, lam: Interval) -> np.ndarray:
    """Closed-form ascending spectrum of the projector chain on ``lam``.

    The ``p`` pairs inside ``lam`` carry ``2p`` independent modes, each
    charging one unit when its ``f`` is empty or its ``g`` occupied, so the
    level ``e`` has multiplicity ``C(2p, e) 2^|free|``.
    """
    kdim, free = kernel_data(model, lam)
    modes = len(lam) - len(free)          # two per pair
    return np.repeat(np.arange(modes + 1, dtype=float),
                     [comb(modes, e) * kdim for e in range(modes + 1)])


# ---------------------------------------------------------------------------
# spin-1 pair projector chain


def pair_spin2_projector() -> np.ndarray:
    """Projector onto total spin 2 of two spin-1 sites (rank 5)."""
    sx, sy, sz = spin_matrices(3)
    ss = sum(np.kron(s, s) for s in (sx, sy, sz))
    return (ss @ ss + 3.0 * ss + 2.0 * np.eye(9)) / 6.0


def aklt_interaction(lam: Interval) -> Interaction:
    """Nearest-neighbor spin-2 projector chain on ``lam`` (local dimension 3)."""
    if lam.diameter < 1:
        raise ValueError("need at least two sites")
    p2 = pair_spin2_projector()
    terms = []
    for x in range(lam.a, lam.b):
        supp = Interval(x, x + 1)
        terms.append(Term(LocalOperator(p2.real, supp, lam, "spin", 3),
                          anchor=x))
    return Interaction(terms, "spin", 3)


# ---------------------------------------------------------------------------
# random perturbations


def random_even_perturbation(lam: Interval, max_radius: int, envelope: dict,
                             seed: int) -> Interaction:
    """Seeded ball-keyed even perturbation with prescribed term norms.

    Every ball ``b(x, n)``, ``x in lam``, ``1 <= n <= max_radius``, carries a
    real symmetric even term of operator norm exactly
    ``A exp(-K n^s) / (1+n)^kappa``.
    """
    A = float(envelope.get("A", 1.0))
    K = float(envelope.get("K", 0.5))
    s = float(envelope.get("s", 1.0))
    kappa = float(envelope.get("kappa", 4.0))
    rng = np.random.default_rng(seed)
    terms = []
    for x in lam:
        for n in range(1, max_radius + 1):
            supp = ball(lam, x, n)
            dim = 2 ** len(supp)
            m = rng.standard_normal((dim, dim))
            m = (m + m.T) / 2.0
            p = parity_matrix(len(supp))
            m = (m + p[:, None] * m * p[None, :]) / 2.0
            nrm = operator_norm(m)
            target = A * np.exp(-K * n ** s) / (1.0 + n) ** kappa
            m *= target / nrm
            terms.append(Term(LocalOperator(m, supp, lam, "fermion"),
                              anchor=x, radius=n))
    return Interaction(terms, "fermion", 2, ball_keyed=True)
