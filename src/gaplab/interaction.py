r"""Interactions: finitely many local terms keyed by intervals or balls.

An interaction is its list of terms, of one kind and local dimension;
several terms may share one support (e.g. the two projector terms of a
paired-orbital cell).  Each term carries an anchor site — the lattice site
nearest its support center, ties resolved to the left — or, for a term
keyed by a ball, the ball's center, with the ball's radius.  Anchors drive
the edge/bulk split and the anchored decompositions used by the spectral
flow.  Decay functions are not carried: every norm names the one it is
taken against (``Interaction.f_norm(spec)``).

A volume's values-only spectrum is solved in one place,
``hamiltonian_eigenvalues``: on the span of its terms, in the blocks of the
first charge every term conserves (the number or ``S^z``, else the
parity, else none), each block assembled straight from the terms by
``charge_blocks``.  No matrix on the whole span is built for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Interval, interior
from . import ffunction
from .operator_algebra import (
    LocalOperator, _check_dense, charge_sectors,
    conserved_modulus, eigenvalues, kernel_count, kernel_mask,
    operator_norm, placement,
)


def default_anchor(support: Interval) -> int:
    """Site nearest the support center; ties go left."""
    return (support.a + support.b) // 2


@dataclass
class Term:
    op: LocalOperator
    anchor: int | None = None
    radius: int | None = None

    def __post_init__(self):
        if self.anchor is None:
            self.anchor = default_anchor(self.op.support)

    @property
    def support(self) -> Interval:
        return self.op.support


@dataclass
class Interaction:
    """A finite family of local terms on a chain."""

    terms: list[Term]
    kind: str = "spin"
    local_dim: int = 2

    def __post_init__(self):
        for t in self.terms:
            if t.op.kind != self.kind or t.op.local_dim != self.local_dim:
                raise ValueError("term kind/local_dim mismatch")

    @property
    def range(self) -> int:
        """Largest support diameter."""
        return max((t.support.diameter for t in self.terms), default=0)

    @property
    def span(self) -> Interval | None:
        """Smallest interval holding every term support; None without terms."""
        if not self.terms:
            return None
        return Interval(min(t.support.a for t in self.terms),
                        max(t.support.b for t in self.terms))

    def anchored(self) -> dict:
        """Terms grouped by anchor site."""
        out: dict[int, list[Term]] = {}
        for t in self.terms:
            out.setdefault(t.anchor, []).append(t)
        return out

    def grouped(self) -> dict:
        """Term matrices summed per support interval."""
        out: dict[Interval, np.ndarray] = {}
        for t in self.terms:
            if t.support in out:
                out[t.support] = out[t.support] + t.op.matrix
            else:
                out[t.support] = t.op.matrix.copy()
        return out

    def restricted(self, lam: Interval) -> "Interaction":
        kept = [t for t in self.terms if t.support in lam]
        return replace(self, terms=kept)

    def f_norm(self, spec) -> float:
        """``|Phi|_F`` against the decay function ``spec``."""
        return ffunction.f_norm(((t.support, t.op.norm()) for t in self.terms),
                                spec)


def _real(terms) -> bool:
    """Every term matrix is real, or complex with an exactly zero imaginary
    part: the Hamiltonian is then assembled in float64."""
    return all(not np.iscomplexobj(t.op.matrix)
               or np.max(np.abs(t.op.matrix.imag)) == 0.0 for t in terms)


def local_hamiltonian(phi: Interaction, lam: Interval):
    """Sum of all terms supported inside ``lam``, as one operator on ``lam``.

    Terms are added, in order, into their ``placement`` views of one zeroed
    matrix; real terms give a real symmetric matrix.
    """
    d = phi.local_dim
    dim = d ** len(lam)
    _check_dense(dim)
    terms = [t for t in phi.terms if t.support in lam]
    real = _real(terms)
    h = np.zeros((dim, dim), np.float64 if real else np.complex128)
    for t in terms:
        view = placement(h, d ** (t.support.a - lam.a),
                         d ** (lam.b - t.support.b))
        view += t.op.matrix.real if real else t.op.matrix
    return LocalOperator(h, lam, phi.kind, d)


def charge_blocks(phi: Interaction, lam: Interval, modulus="conserved"):
    """The charge sectors of ``local_hamiltonian(phi, lam)`` and a
    generator of its diagonal blocks on them, in the same order; each
    block is assembled when it is asked for and let go at the next.

    The sectors are ``charge_sectors`` on ``lam`` under ``modulus``, by
    default the first charge every term inside ``lam`` conserves
    (``conserved_modulus``: number or ``S^z``, then parity, then none: one
    sector).  A caller may fix ``modulus``, which the terms inside ``lam``
    must conserve (``conserved_modulus``), else ``ValueError``: every entry
    between two sectors is exactly zero.  A term's states of local charge
    ``c_t`` meet the states of sector ``c`` whose outer sites carry charge
    ``c - c_t``; each block gets every term's placed entries, in term order,
    so it equals the matching sub-block of ``local_hamiltonian(phi, lam)``
    entry for entry, and no matrix on all of ``lam`` is built.
    """
    d = phi.local_dim
    _check_dense(d ** len(lam))
    terms = [t for t in phi.terms if t.support in lam]
    ops = [t.op for t in terms]
    if modulus == "conserved":
        modulus = conserved_modulus(ops)
    elif conserved_modulus(ops, (modulus,)) != modulus:
        raise ValueError(f"terms inside {lam} break the charge sectors at "
                         f"modulus {modulus}")
    dtype = np.float64 if _real(terms) else np.complex128
    sectors = charge_sectors(len(lam), d, modulus)
    pos = np.empty(d ** len(lam), np.intp)
    for idx in sectors:
        pos[idx] = np.arange(idx.size)

    placed = []         # per term: its local charge groups, its outer states
    for t in terms:
        nl, nr = t.support.a - lam.a, lam.b - t.support.b
        dt, dr = d ** len(t.support), d ** nr
        m = t.op.matrix.real if dtype == np.float64 else t.op.matrix
        groups = [(ct, g * dr, m[np.ix_(g, g)]) for ct, g in enumerate(
            charge_sectors(len(t.support), d, modulus))]
        # the outer states' charges are those of nl + nr sites, in order
        base = (np.arange(d ** nl)[:, None] * (dt * dr)
                + np.arange(dr)[None, :]).ravel()
        placed.append((groups, {c: base[idx] for c, idx in enumerate(
            charge_sectors(nl + nr, d, modulus))}))

    def blocks():
        for c, idx in enumerate(sectors):
            block = np.zeros((idx.size, idx.size), dtype)
            for groups, outer in placed:
                for ct, offsets, sub in groups:
                    rest = c - ct if modulus is None else (c - ct) % modulus
                    if rest in outer:
                        p = pos[outer[rest][:, None] + offsets]
                        block[p[:, :, None], p[:, None, :]] += sub
            yield block
            del block

    return sectors, blocks()


def charge_stack(phi: Interaction, lam: Interval, modulus) -> np.ndarray:
    """The blocks of ``charge_blocks(phi, lam, modulus)``, which refuses terms
    that break ``modulus``, as one stack (k, b, b) of sectors of one size."""
    return np.stack(tuple(charge_blocks(phi, lam, modulus)[1]))


def hamiltonian_eigenvalues(phi: Interaction, lam: Interval) -> np.ndarray:
    """Ascending eigenvalues of ``local_hamiltonian(phi, lam)``.

    The terms inside ``lam`` are solved on their span, block by block of
    ``charge_blocks``, by ``eigenvalues``.  ``placement`` adds the same
    terms, in the same order, at the same offsets, so the matrix on ``lam``
    is ``1 (x) H_span (x) 1`` entry for entry: each eigenvalue of the span
    is repeated ``d^(len(lam) - len(span))`` times, and a repeat of a
    sorted array stays sorted.  Without terms the spectrum is all zeros.
    """
    phi = phi.restricted(lam)
    span = phi.span
    if span is None:
        return np.zeros(phi.local_dim ** len(lam))
    return np.repeat(eigenvalues(charge_blocks(phi, span)[1]),
                     phi.local_dim ** (len(lam) - len(span)))


def coupled(eta: Interaction, pert: Interaction, eps: float) -> Interaction:
    """``eta + eps pert`` as one interaction: ``eta``'s terms followed by
    ``pert``'s, each scaled by ``eps``, with its anchor and radius."""
    scaled = [Term(t.op * eps, t.anchor, t.radius) for t in pert.terms]
    return replace(eta, terms=eta.terms + scaled)


def _nonzeros(blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat int32 indices and values of the nonzero entries of each block,
    taken as the generator hands the blocks over, so one is alive at a
    time."""
    out = []
    for block in blocks:
        flat = block.reshape(-1)
        idx = np.flatnonzero(flat)
        out.append((idx.astype(np.int32), flat[idx]))
        del block, flat
    return out


@dataclass
class CoupledBlocks:
    """The family ``coupled(eta, pert, eps)`` on a volume, planned once:
    the side of each charge sector of the span of the terms, and in it the
    nonzero entries of ``H0``'s block and of ``Psi``'s block, kept apart."""

    sides: list[int]
    h0: list[tuple[np.ndarray, np.ndarray]]
    psi: list[tuple[np.ndarray, np.ndarray]]
    dtype: type
    repeat: int

    def eigenvalues(self, eps: float) -> np.ndarray:
        """Ascending eigenvalues of ``H0 + eps Psi`` on the volume: each
        sector's entries scattered into one zeroed block, solved by
        ``eigenvalues`` and let go before the next, and the merged spectrum
        of the span repeated as ``hamiltonian_eigenvalues`` repeats it."""
        def blocks():
            for side, (hi, hv), (pi, pv) in zip(self.sides, self.h0, self.psi):
                block = np.zeros((side, side), self.dtype)
                flat = block.reshape(-1)
                flat[hi] = hv
                flat[pi] += eps * pv
                del flat
                yield block
                del block
        return np.repeat(eigenvalues(blocks()), self.repeat)


def coupled_blocks(eta: Interaction, pert: Interaction,
                   lam: Interval) -> CoupledBlocks:
    """The block plan whose ``eigenvalues(eps)`` is
    ``hamiltonian_eigenvalues(coupled(eta, pert, eps), lam)`` up to
    rounding, for every ``eps``: the terms of both inside ``lam`` on the
    span they hold, in the sectors of the charge they conserve together
    (``conserved_modulus``, found once), each block of ``H0`` and then each
    of ``Psi`` assembled by ``charge_blocks`` and let go once its nonzero
    entries are read.  ``H0 + eps Psi`` sums the two blocks where
    ``coupled`` adds ``eps`` times each term of ``Psi`` in turn, so the
    entries differ by rounding."""
    eta, pert = eta.restricted(lam), pert.restricted(lam)
    span = replace(eta, terms=eta.terms + pert.terms).span
    modulus = conserved_modulus([t.op for t in eta.terms + pert.terms])
    sectors, h0 = charge_blocks(eta, span, modulus)
    h0 = _nonzeros(h0)
    psi = _nonzeros(charge_blocks(pert, span, modulus)[1])
    dtype = np.float64 if _real(eta.terms + pert.terms) else np.complex128
    return CoupledBlocks([idx.size for idx in sectors], h0, psi, dtype,
                         eta.local_dim ** (len(lam) - len(span)))


def zero_ground_energy(evals) -> bool:
    """The ground-energy-zero test of an ascending spectrum,
    ``|E_0| <= 1e-10 max(1, max|lambda|)``."""
    return bool(abs(evals[0]) <= 1e-10 * max(1.0, float(np.max(np.abs(evals)))))


@dataclass
class VolumeReport:
    lam: Interval
    ground_energy: float
    min_nonzero: float
    kernel_dim: int
    frustration_free: bool


@dataclass
class UnperturbedReport:
    rows: list[VolumeReport]
    gamma0_candidate: float


def validate_unperturbed(build, volumes) -> UnperturbedReport:
    """Frustration-freeness report for a model over probe volumes.

    ``build(lam)`` returns the interaction on ``lam``.  A volume failing
    ``zero_ground_energy``, or with no kernel, is reported in its row's
    ``frustration_free``, not raised.  The gap candidate is the smallest
    eigenvalue above the kernel scale over the probes whose diameter reaches
    the largest interaction range among the probes.
    """
    rows = []
    rng_max = 0
    for lam in volumes:
        phi = build(lam)
        rng_max = max(rng_max, phi.range)
        evals = hamiltonian_eigenvalues(phi, lam)
        ground = float(evals[0])
        kdim = kernel_count(evals)
        nonzero = evals[~kernel_mask(evals)]
        min_nonzero = float(nonzero[0]) if nonzero.size else np.inf
        ok = zero_ground_energy(evals) and kdim >= 1
        rows.append(VolumeReport(lam, ground, min_nonzero, kdim, ok))
    eligible = [r.min_nonzero for r in rows if r.lam.diameter >= rng_max]
    gamma0 = float(min(eligible)) if eligible else float("inf")
    return UnperturbedReport(rows, gamma0)


@dataclass
class EdgeBulkSplit:
    edge: Interaction
    bulk: Interaction


def split_edge_bulk(phi: Interaction, lam: Interval, D: int) -> EdgeBulkSplit:
    """Split into terms anchored inside the depth-D interior and the rest."""
    if D < 0:
        raise ValueError("negative margin")
    inner = interior(lam, D)
    bulk_terms, edge_terms = [], []
    for t in phi.terms:
        if t.support not in lam:
            raise ValueError(f"term support {t.support} outside {lam}")
        if inner is not None and t.anchor in inner:
            bulk_terms.append(t)
        else:
            edge_terms.append(t)
    return EdgeBulkSplit(replace(phi, terms=edge_terms),
                         replace(phi, terms=bulk_terms))


def regroup_intervals(psi: Interaction) -> Interaction:
    """Merge all terms sharing a support interval into a single term.

    Local Hamiltonians on every subinterval are unchanged; the regrouped
    interaction is normed against ``ffunction.regroup_decay`` of the base
    decay function of ``psi``.
    """
    merged: dict[Interval, np.ndarray] = psi.grouped()
    # a support holding one term keeps that term's operator, and its norm
    alone = {}
    for t in psi.terms:
        alone[t.support] = None if t.support in alone else t.op
    terms = [Term(LocalOperator(m, supp, psi.kind, psi.local_dim)
                  if alone[supp] is None else alone[supp])
             for supp, m in sorted(merged.items())]
    return Interaction(terms, psi.kind, psi.local_dim)


def fermion_to_spin(phi: Interaction) -> Interaction:
    """Termwise relabeling of a fermionic interaction as spin: every term is
    even, so its image keeps a copy of its matrix, its support and its norm."""
    if phi.kind != "fermion":
        raise ValueError("expected a fermionic interaction")
    return Interaction([Term(LocalOperator(t.op.matrix.copy(), t.support),
                             anchor=t.anchor, radius=t.radius)
                        for t in phi.terms], "spin", 2)


def random_interaction(lam: Interval, seed: int, n_terms: int = 6,
                       max_diameter: int = 2) -> Interaction:
    """Seeded random Hermitian spin-1/2 interaction on intervals in ``lam``."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n_terms):
        diam = int(rng.integers(0, max_diameter + 1))
        a = int(rng.integers(lam.a, lam.b - diam + 1))
        supp = Interval(a, a + diam)
        dim = 2 ** len(supp)
        m = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        m = (m + m.conj().T) / 2.0
        m /= max(1.0, operator_norm(m))
        terms.append(Term(LocalOperator(m, supp, "spin")))
    return Interaction(terms, "spin")


# ---------------------------------------------------------------------------
# serialization


def to_json(phi: Interaction) -> str:
    terms = []
    for t in phi.terms:
        m = np.asarray(t.op.matrix, dtype=complex)
        flat = [[float(z.real), float(z.imag)] for z in m.ravel()]
        terms.append({"support": [t.support.a, t.support.b],
                      "anchor": t.anchor, "radius": t.radius,
                      "matrix": flat})
    return json.dumps({"kind": phi.kind, "local_dim": phi.local_dim,
                       "terms": terms},
                      separators=(",", ":"))


def from_json(text: str) -> Interaction:
    """The interaction of ``to_json``; keys beyond ``kind``, ``local_dim``
    and ``terms`` (older files carry one more flag) are ignored."""
    data = json.loads(text)
    terms = []
    for entry in data["terms"]:
        a, b = entry["support"]
        supp = Interval(int(a), int(b))
        dim = data["local_dim"] ** len(supp)
        m = np.array([complex(re, im) for re, im in entry["matrix"]],
                     dtype=complex).reshape(dim, dim)
        op = LocalOperator(m, supp, data["kind"], data["local_dim"])
        terms.append(Term(op, anchor=entry["anchor"], radius=entry["radius"]))
    return Interaction(terms, data["kind"], data["local_dim"])
