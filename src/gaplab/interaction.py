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
``hamiltonian_eigenvalues``: its terms fall into groups of overlapping
supports (``_support_clusters``), which act on disjoint tensor factors, so
the spectrum is the sorted sums of one eigenvalue of each group's.  Each
group is solved on its own span, in the blocks of the first charge every
term of it conserves (the number or ``S^z``, else the parity, else none),
each added by ``charge_blocks``, whose blocks ``coupled_blocks`` also
reads on the whole volume; a group equal to an earlier one up to
translation (``Interaction.translation_key``) reuses its spectrum.  No
matrix on the whole span is built for it.  A solved volume is read one
way, as a ``SpectrumSplit``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Interval, interior
from . import ffunction
from .operator_algebra import (
    LocalOperator, _check_dense, _exactly_hermitian, charge_sectors,
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
    def span(self) -> Interval:
        """Smallest interval holding every support of a nonempty interaction."""
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

    def translation_key(self, origin: int) -> tuple:
        """The terms seen from site ``origin``, in order: the relative
        support, the matrix's dtype and its bytes; equal keys (of one kind
        and local dimension) mean the same term matrices up to translation."""
        return tuple((t.support.a - origin, t.support.b - origin,
                      t.op.matrix.dtype.str, t.op.matrix.tobytes())
                     for t in self.terms)


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


def _sector_entries(phi: Interaction, lam: Interval, modulus):
    """The one placement rule: the sectors of ``charge_blocks``, their
    field, and per sector the entries of the terms inside ``lam`` in term
    order, a term's charge group at a time: its block ``sub`` and rows
    ``p``, one per outer state, ``sub[i, j]`` at ``(p[o, i], p[o, j])``, no
    position twice; local charge ``c_t`` meets outer charge ``c - c_t``."""
    d = phi.local_dim
    _check_dense(d ** len(lam))
    terms = [t for t in phi.terms if t.support in lam]
    if modulus == "conserved":
        modulus = conserved_modulus([t.op for t in terms])
    elif conserved_modulus([t.op for t in terms], (modulus,)) != modulus:
        raise ValueError(f"terms inside {lam} break the charge sectors at "
                         f"modulus {modulus}")
    dtype = np.float64 if _real(terms) else np.complex128
    sectors = charge_sectors(len(lam), d, modulus)
    pos = np.empty(d ** len(lam), np.intp)
    for idx in sectors:
        pos[idx] = np.arange(idx.size)

    placed = []         # per charge group of a term: c_t, outer states, block
    for t in terms:
        nl, nr = t.support.a - lam.a, lam.b - t.support.b
        dt, dr = d ** len(t.support), d ** nr
        m = t.op.matrix.real if dtype == np.float64 else t.op.matrix
        # the outer states' charges are those of nl + nr sites, in order
        base = (np.arange(d ** nl)[:, None] * (dt * dr)
                + np.arange(dr)[None, :]).ravel()
        outer = {c: base[idx] for c, idx in enumerate(
            charge_sectors(nl + nr, d, modulus))}
        placed += [(ct, outer, g * dr, m[np.ix_(g, g)]) for ct, g in
                   enumerate(charge_sectors(len(t.support), d, modulus))]

    def groups(c):
        for ct, outer, offsets, sub in placed:
            rest = c - ct if modulus is None else (c - ct) % modulus
            if rest in outer:
                yield pos[outer[rest][:, None] + offsets], sub

    return sectors, dtype, (groups(c) for c in range(len(sectors)))


def charge_blocks(phi: Interaction, lam: Interval, modulus="conserved"):
    """The charge sectors of ``local_hamiltonian(phi, lam)`` and a
    generator of its diagonal blocks on them, each added from its sector's
    ``_sector_entries`` into a zeroed block when asked for and let go at the
    next: the matching sub-block of the whole matrix, entry for entry, with
    no matrix on all of ``lam`` built.  The sectors are those of
    ``modulus``, by default the first charge the terms inside ``lam``
    conserve (``conserved_modulus``); one they break is a ``ValueError``."""
    sectors, dtype, placed = _sector_entries(phi, lam, modulus)

    def blocks():
        for idx, groups in zip(sectors, placed):
            block = np.zeros((idx.size, idx.size), dtype)
            for p, sub in groups:
                block[p[:, :, None], p[:, None, :]] += sub
            yield block
            del block

    return sectors, blocks()


def charge_stack(phi: Interaction, lam: Interval, modulus) -> np.ndarray:
    """The blocks of ``charge_blocks(phi, lam, modulus)``, which refuses terms
    that break ``modulus``, as one stack (k, b, b) of sectors of one size."""
    return np.stack(tuple(charge_blocks(phi, lam, modulus)[1]))


def _support_clusters(terms) -> list[list]:
    """The terms in maximal groups whose supports chain by overlap (share a
    site), left to right, each group keeping the terms' order."""
    spans = []
    for a, b in sorted((t.support.a, t.support.b) for t in terms):
        if spans and a <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], b)
        else:
            spans.append([a, b])
    return [[t for t in terms if a <= t.support.a and t.support.b <= b]
            for a, b in spans]


def hamiltonian_eigenvalues(phi: Interaction, lam: Interval) -> np.ndarray:
    """Ascending eigenvalues of ``local_hamiltonian(phi, lam)``.

    The terms inside ``lam`` fall into groups of overlapping supports
    (``_support_clusters``).  Each group is solved on its own span, block by
    block of ``charge_blocks``, by ``eigenvalues``; a group whose terms
    equal an earlier group's up to translation (the same
    ``translation_key`` from its span's left end) reads that group's
    spectrum.  Groups
    act on disjoint factors and commute, so the spectrum on the union of
    their spans is every sum of one eigenvalue of each group's: the groups'
    spectra are merged left to right as sorted pairwise sums.
    ``placement`` adds the same terms, in the same order, at the same
    offsets, so the matrix on ``lam`` is that sum tensored with the
    identity on the uncovered sites: each eigenvalue is repeated
    ``d^(uncovered sites)`` times, and a repeat of a sorted array stays
    sorted.  One group is solved exactly as its span alone, and without
    terms the spectrum is all zeros.  A volume past ``MAX_DENSE_DIM``
    states is refused before any sum is formed.
    """
    d = phi.local_dim
    _check_dense(d ** len(lam))
    phi = phi.restricted(lam)
    solved: dict[tuple, np.ndarray] = {}
    spectrum, covered = None, 0
    for group in _support_clusters(phi.terms):
        part = replace(phi, terms=group)
        span = part.span
        key = part.translation_key(span.a)
        if key not in solved:
            solved[key] = eigenvalues(charge_blocks(part, span)[1])
        spectrum = solved[key] if spectrum is None else np.sort(
            np.add.outer(spectrum, solved[key]), axis=None)
        covered += len(span)
    if spectrum is None:
        return np.zeros(d ** len(lam))
    return np.repeat(spectrum, d ** (len(lam) - covered))


def coupled(eta: Interaction, pert: Interaction, eps: float) -> Interaction:
    """``eta + eps pert`` as one interaction: ``eta``'s terms followed by
    ``pert``'s, each scaled by ``eps``, with its anchor and radius."""
    scaled = [Term(t.op * eps, t.anchor, t.radius) for t in pert.terms]
    return replace(eta, terms=eta.terms + scaled)


@dataclass
class CoupledBlocks:
    """The family ``coupled(eta, pert, eps)`` on a volume, planned once:
    the side of each charge sector of the volume, and in it the nonzero
    entries of ``H0``'s block and of ``Psi``'s block, kept apart."""

    sides: list[int]
    h0: list[tuple[np.ndarray, np.ndarray]]
    psi: list[tuple[np.ndarray, np.ndarray]]

    def eigenvalues(self, eps: float) -> np.ndarray:
        """Ascending eigenvalues of ``H0 + eps Psi`` on the volume: each
        sector's entries scattered into one zeroed block, solved by
        ``eigenvalues`` and let go before the next."""
        def blocks():
            for side, (hi, hv), (pi, pv) in zip(self.sides, self.h0, self.psi):
                block = np.zeros(side * side, np.result_type(hv, pv))
                block[hi] = hv
                block[pi] += eps * pv
                yield block.reshape(side, side)
                del block
        return eigenvalues(blocks())


def coupled_blocks(eta: Interaction, pert: Interaction,
                   lam: Interval) -> CoupledBlocks:
    """The block plan whose ``eigenvalues(eps)`` is, for every ``eps``,
    ``hamiltonian_eigenvalues(coupled(eta, pert, eps), lam)`` up to the
    rounding of summing ``Psi`` before scaling it: on ``lam`` itself, in
    the sectors of the charge the terms of both inside it conserve
    together (found once), the nonzeros of each ``charge_blocks`` block of
    ``H0`` and of ``Psi``, at int32 flat positions, one block at a time;
    a volume past ``MAX_DENSE_DIM`` states is refused before any block."""
    modulus = conserved_modulus([t.op for t in eta.terms + pert.terms
                                 if t.support in lam])

    def nonzeros(blocks):
        for block in blocks:
            flat = block.reshape(-1)
            at = np.flatnonzero(flat).astype(np.int32)
            yield at, flat[at]
            del block, flat, at

    sectors, blocks = charge_blocks(eta, lam, modulus)
    h0 = list(nonzeros(blocks))
    psi = list(nonzeros(charge_blocks(pert, lam, modulus)[1]))
    return CoupledBlocks([idx.size for idx in sectors], h0, psi)


def kernel_gap(evals, kdim: int) -> float:
    """The step above the ``kdim`` kernel eigenvalues of an ascending
    spectrum, ``E_k - E_{k-1}``: ``nan`` with no kernel, ``inf`` when the
    kernel is the whole spectrum.  The one rule for the gap above a
    cluster, which ``SpectrumSplit.gamma`` and ``cluster_projector`` read."""
    if kdim == 0:
        return np.nan
    if kdim == len(evals):
        return np.inf
    return float(evals[kdim] - evals[kdim - 1])


@dataclass
class SpectrumSplit:
    """One solved volume, the record its every reader reads: an ascending
    spectrum ``evals`` at coupling ``eps`` and the size ``k`` of its low
    cluster, ``sp0 = evals[:k]``, below ``sp1``, the rest."""

    eps: float
    evals: np.ndarray
    k: int

    @property
    def gamma(self) -> float:
        return kernel_gap(self.evals, self.k)

    @property
    def sp0_diameter(self) -> float:
        return float(self.evals[self.k - 1] - self.evals[0])

    @property
    def frustration_free(self) -> bool:
        """The ground energy is zero at the kernel scale, ``|E_0| <= 1e-10
        max(1, max|lambda|)``, and the cluster is not empty."""
        scale = max(1.0, float(np.max(np.abs(self.evals))))
        return abs(float(self.evals[0])) <= 1e-10 * scale and self.k >= 1


def validate_unperturbed(build, volumes) -> list[SpectrumSplit]:
    """One split per volume at coupling 0: the ``hamiltonian_eigenvalues``
    of ``build(lam)``, the interaction on ``lam``, with its kernel
    (``kernel_count``) as the cluster.  A volume that is not
    frustration-free is reported by ``frustration_free``, not raised."""
    spectra = (hamiltonian_eigenvalues(build(lam), lam) for lam in volumes)
    return [SpectrumSplit(0.0, evals, kernel_count(evals))
            for evals in spectra]


def gamma0_candidate(build, volumes) -> float:
    """The unperturbed gap the constants are built on: the smallest
    eigenvalue above the kernel scale (``kernel_mask``) over the probe
    volumes whose diameter reaches the largest range of the interactions
    ``build(lam)`` gives on them, ``inf`` when none has one."""
    chains = [(lam, build(lam)) for lam in volumes]
    reach = max((phi.range for _, phi in chains), default=0)
    spectra = (hamiltonian_eigenvalues(phi, lam) for lam, phi in chains
               if lam.diameter >= reach)
    return float(min((np.min(ev[~kernel_mask(ev)], initial=np.inf)
                      for ev in spectra), default=np.inf))


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
    and ``terms`` (older files carry one more flag) are ignored.  A term
    whose matrix is not exactly Hermitian is a ``ValueError`` naming its
    support."""
    data = json.loads(text)
    terms = []
    for entry in data["terms"]:
        a, b = entry["support"]
        supp = Interval(int(a), int(b))
        dim = data["local_dim"] ** len(supp)
        m = np.array([complex(re, im) for re, im in entry["matrix"]],
                     dtype=complex).reshape(dim, dim)
        if not _exactly_hermitian(m):
            raise ValueError(f"term on {supp} is not Hermitian")
        op = LocalOperator(m, supp, data["kind"], data["local_dim"])
        terms.append(Term(op, anchor=entry["anchor"], radius=entry["radius"]))
    return Interaction(terms, data["kind"], data["local_dim"])
