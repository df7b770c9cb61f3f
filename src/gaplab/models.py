r"""Reference models: the paired-orbital fermion chain and the spin-1 pair-projector chain.

The paired-orbital chain places, on every full even pair ``{2k, 2k+1}`` of a
volume, the two orthonormal modes

.. math ::

    f_k = (e_{2k} + e_{2k+1})/\sqrt{2}, \qquad g_k = (e_{2k} - e_{2k+1})/\sqrt 2.

Each pair is the radius-``R = 1`` ball around its centre ``2k + 1/2``, so
the pairs of one volume are disjoint and every interval of diameter
``> N0 = 2`` contains a full pair.  The chain Hamiltonian charges every
empty ``f`` mode and every occupied ``g`` mode with one unit of energy,
through the two commuting projectors ``a(f)a*(f)`` and ``a*(g)a(g)`` per
pair.  Ground states occupy all ``f`` modes, keep all ``g`` modes empty, and
leave the uncovered end sites free, so the kernel dimension on a finite
chain is ``2^(#uncovered end sites)``.

The spin-1 chain uses the projector onto total spin 2 of neighboring sites;
its open-chain kernel is four-dimensional and correlations decay with ratio
1/3.

A run reads one ``Model``, resolved from the config's ``model`` by
``model_for``: ``ORBITAL``, or a ``file:`` interaction read once, which only
``validate`` accepts.  ``AKLT`` is the spin-1 chain read beside the orbital
one.  Both look their builder up in this module as they are called, and
``ORBITAL`` carries the orbital chain's closed forms as its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

from .lattice import Interval, ball, interior
from .interaction import Interaction, Term, fermion_to_spin, from_json
from .operator_algebra import (
    LocalOperator, mode_annihilator, parity_matrix, spin_matrices,
)

R, N0 = 1, 2


def orbital_pairs(lam: Interval) -> list[tuple[int, int]]:
    """The full even pairs ``(2k, 2k+1)`` inside ``lam``, left to right."""
    return [(lo, lo + 1) for lo in range(lam.a + lam.a % 2, lam.b, 2)]


def _pair_modes(lo: int) -> tuple[dict, dict]:
    """Site coefficients of the ``f`` and ``g`` modes on the pair at ``lo``."""
    inv = 1.0 / np.sqrt(2.0)
    return {lo: inv, lo + 1: inv}, {lo: inv, lo + 1: -inv}


def orbital_interaction(lam: Interval) -> Interaction:
    """Empty-f / occupied-g projector interaction on ``lam`` (fermionic, even)."""
    terms = []
    for lo, hi in orbital_pairs(lam):
        supp = Interval(lo, hi)
        f, g = _pair_modes(lo)
        af = mode_annihilator(supp, f)
        ag = mode_annihilator(supp, g)
        empty_f = af.matrix @ af.matrix.conj().T   # projector onto f unoccupied
        occ_g = ag.matrix.conj().T @ ag.matrix     # projector onto g occupied
        for m in (empty_f, occ_g):
            terms.append(Term(LocalOperator(m.real, supp, "fermion"),
                              anchor=lo))
    return Interaction(terms, "fermion", 2)


def auxiliary_basis(lam: Interval) -> np.ndarray:
    """Orthonormal completion of the pair modes on ``lam``.

    Returns an ``(len(lam), n_aux)`` array whose columns complete the ``f``
    and ``g`` vectors of every full pair to an orthonormal basis of the
    one-particle space; volumes of diameter ``<= N0`` are rejected and
    singular values below 1e-12 count as zero.  Its budget (at most ``6R``
    columns, none reaching the depth-``3R`` interior) is checked by
    ``gaplab validate``.
    """
    if lam.diameter <= N0:
        raise ValueError(f"volume {lam} too small: diameter <= {N0}")
    fs, gs = zip(*(_pair_modes(lo) for lo, _ in orbital_pairs(lam)))
    kept = np.zeros((len(fs) + len(gs), len(lam)))
    for row, coeffs in zip(kept, fs + gs):      # every f, then every g
        for site, c in coeffs.items():
            row[site - lam.a] = c
    _, sing, vt = np.linalg.svd(kept, full_matrices=True)
    rank = int(np.sum(sing > 1e-12))
    return vt[rank:].T                  # (len(lam), n_aux)


def kernel_data(lam: Interval):
    """(kernel dimension, uncovered sites) for the projector chain on ``lam``."""
    covered = {s for pair in orbital_pairs(lam) for s in pair}
    free = [s for s in lam if s not in covered]
    return 2 ** len(free), free


def orbital_spectrum(lam: Interval) -> np.ndarray:
    """Closed-form ascending spectrum of the projector chain on ``lam``.

    The ``p`` pairs inside ``lam`` carry ``2p`` independent modes, each
    charging one unit when its ``f`` is empty or its ``g`` occupied, so the
    level ``e`` has multiplicity ``C(2p, e) 2^|free|``.
    """
    kdim, free = kernel_data(lam)
    modes = len(lam) - len(free)          # two per pair
    return np.repeat(np.arange(modes + 1, dtype=float),
                     [comb(modes, e) * kdim for e in range(modes + 1)])


def orbital_certificate(lam: Interval, eta: Interaction, sp):
    """``(holds, aux_dim, leak, image)``: ``sp``, the spectrum of ``eta`` on
    ``lam``, against the orbital chain's closed forms.  ``holds`` reads gap
    1 and the auxiliary basis's budget (at most ``6R`` uncovered sites and
    columns, ``leak`` their largest entry on the depth-``3R`` interior, at
    most 1e-12).  Up to 10 sites ``image`` is ``(deviation from
    orbital_spectrum, whether it is at most 1e-10 and the spin image keeps
    the terms)``, else ``None``."""
    aux = auxiliary_basis(lam)
    deep = interior(lam, 3 * R) or ()
    leak = float(np.max(np.abs(aux[[s - lam.a for s in deep]]), initial=0.0))
    holds = (abs(sp.gamma - 1.0) <= 1e-9
             and len(kernel_data(lam)[1]) <= 6 * R
             and aux.shape[1] <= 6 * R and leak <= 1e-12)
    image = None
    if len(lam) <= 10:
        dev = float(np.max(np.abs(sp.evals - orbital_spectrum(lam))))
        same = fermion_to_spin(eta).translation_key(0) \
            == eta.translation_key(0)
        image = (dev, same and dev <= 1e-10)
    return holds, aux.shape[1], leak, image


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
        terms.append(Term(LocalOperator(p2.real, supp, "spin", 3),
                          anchor=x))
    return Interaction(terms, "spin", 3)


# ---------------------------------------------------------------------------
# random perturbations


def random_even_perturbation(lam: Interval, max_radius: int, envelope: dict,
                             seed: int) -> Interaction:
    """Seeded ball-keyed even perturbation with prescribed term norms.

    Every ball ``b(x, n)``, ``x in lam``, ``1 <= n <= max_radius``, carries a
    real symmetric even term of operator norm exactly
    ``A exp(-K n^s) / (1+n)^kappa``, each constant read from ``envelope``
    (a missing one is a ``KeyError``).
    """
    A, K, s, kappa = (float(envelope[k]) for k in ("A", "K", "s", "kappa"))
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
            target = A * np.exp(-K * n ** s) / (1.0 + n) ** kappa
            m *= target / LocalOperator(m, supp, "fermion").norm()
            terms.append(Term(LocalOperator(m, supp, "fermion"),
                              anchor=x, radius=n))
    return Interaction(terms, "fermion", 2)


# ---------------------------------------------------------------------------
# the models a run reads


@dataclass(frozen=True)
class Model:
    """A chain a run reads, of ``kind`` fermion or spin: ``interaction(lam)``
    builds it on ``shortest`` sites or more for the ``pipelines`` that accept
    it, with ``kernel(lam)`` kernel states where known.  ``validate`` holds
    a model with a ``certificate`` (as ``orbital_certificate``) to it."""
    name: str
    kind: str
    local_dim: int
    interaction: Callable[[Interval], Interaction]
    shortest: int = 2
    pipelines: tuple[str, ...] = ("validate",)
    kernel: Callable[[Interval], int] | None = None
    certificate: Callable | None = None


# each builder is looked up as it is called, so a rebinding of the module's
# attribute (a tracer's, a test's) reaches the model
ORBITAL = Model("orbital", "fermion", 2, lambda lam: orbital_interaction(lam),
                N0 + 2, ("validate", "ltqo", "flow", "bounds", "gapsweep",
                         "highergaps", "sp0scan"),
                lambda lam: kernel_data(lam)[0], orbital_certificate)
AKLT = Model("aklt", "spin", 3, lambda lam: aklt_interaction(lam), 2,
             ("validate", "ltqo"), lambda lam: 4)


def model_for(spec: str) -> Model:
    """The model of a config's ``model`` value: ``orbital``, or
    ``file:<path>``, the interaction ``interaction.to_json`` wrote there,
    read here.  Any other value, or a file that does not load as an
    interaction, is a ``ValueError``."""
    if spec == "orbital":
        return ORBITAL
    if not spec.startswith("file:"):
        raise ValueError(f"unknown model spec {spec!r}")
    path = Path(spec[len("file:"):])
    try:
        phi = from_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot load {path}: {type(exc).__name__}: {exc}")
    return Model("custom", phi.kind, phi.local_dim, phi.restricted)
