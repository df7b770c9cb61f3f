r"""Interactions: finitely many local terms keyed by intervals or balls.

An interaction stores a *list* of terms; several terms may share one support
(e.g. the two projector terms of a paired-orbital cell).  Each term carries an
anchor site — the lattice site nearest its support center, ties resolved to
the left — or, for ball-keyed terms, the generating center.  Anchors drive
the edge/bulk split and the anchored decompositions used by the spectral
flow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Interval, interior
from . import ffunction
from .operator_algebra import (
    LocalOperator, ParityError, _check_dense, eigenvalues, jordan_wigner,
    kernel_count, kernel_mask, operator_norm, parity_grade, placement,
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
    decay: object = None          # FFunctionSpec or DerivedFSpec, optional
    ball_keyed: bool = False

    def __post_init__(self):
        for t in self.terms:
            if t.op.kind != self.kind or t.op.local_dim != self.local_dim:
                raise ValueError("term kind/local_dim mismatch")
        if self.ball_keyed and any(t.radius is None for t in self.terms):
            raise ValueError("ball-keyed interactions need a radius on every term")

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

    @property
    def uniform_bound(self) -> float:
        return max((t.op.norm() for t in self.terms), default=0.0)

    def term_supports_and_norms(self):
        for t in self.terms:
            yield t.support, t.op.norm()

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

    def f_norm(self, spec=None) -> float:
        spec = spec or self.decay
        if spec is None:
            raise ValueError("no decay function available")
        return ffunction.f_norm(self, spec)


def local_hamiltonian(phi: Interaction, lam: Interval):
    """Sum of all terms supported inside ``lam``, as one operator on ``lam``.

    Terms are added, in order, into their ``placement`` views of one zeroed
    matrix; real terms give a real symmetric matrix.
    """
    d = phi.local_dim
    dim = d ** len(lam)
    _check_dense(dim)
    terms = [t for t in phi.terms if t.support in lam]
    real = all(not np.iscomplexobj(t.op.matrix)
               or np.max(np.abs(t.op.matrix.imag)) == 0.0 for t in terms)
    h = np.zeros((dim, dim), np.float64 if real else np.complex128)
    for t in terms:
        view = placement(h, d ** (t.support.a - lam.a),
                         d ** (lam.b - t.support.b))
        view += t.op.matrix.real if real else t.op.matrix
    return LocalOperator(h, lam, lam, phi.kind, d)


def hamiltonian_eigenvalues(parts, lam: Interval) -> np.ndarray:
    """Ascending eigenvalues of ``sum c * local_hamiltonian(phi, lam)``.

    ``parts`` is an interaction, or a sequence of ``(c, phi)`` pairs of one
    local dimension.  The sum is formed on the span of their terms inside
    ``lam``, in the buffer of the first part (each later part scaled in its
    own buffer, unless ``c`` is 1), and solved there by ``eigenvalues``.
    ``placement`` adds the same terms, in the same order, at the same
    offsets, so the matrix on ``lam`` is ``1 (x) H_span (x) 1``
    entry for entry: each eigenvalue of the span is repeated
    ``d^(len(lam) - len(span))`` times, and a repeat of a sorted array stays
    sorted.  Without terms the spectrum is all zeros.
    """
    if isinstance(parts, Interaction):
        parts = ((1.0, parts),)
    parts = [(c, phi.restricted(lam)) for c, phi in parts]
    d = parts[0][1].local_dim
    spans = [phi.span for _, phi in parts if phi.terms]
    if not spans:
        return np.zeros(d ** len(lam))
    span = Interval(min(s.a for s in spans), max(s.b for s in spans))
    mats = [(c, local_hamiltonian(phi, span).matrix) for c, phi in parts]
    m = mats[0][1].astype(np.result_type(*(x for part in mats for x in part)),
                          copy=False)
    m *= mats[0][0]
    for c, h in mats[1:]:
        if c != 1.0:
            h = h.astype(m.dtype, copy=False)
            h *= c
        m += h
    return np.repeat(eigenvalues(m), d ** (len(lam) - len(span)))


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
    range: int
    uniform_bound: float
    gamma0_candidate: float
    passed: bool


def validate_unperturbed(build, volumes) -> UnperturbedReport:
    """Frustration-freeness report for a model over probe volumes.

    ``build(lam)`` returns the interaction on ``lam``.  A model failing the
    ground-energy-zero test (``|E_0| <= 1e-10 max(1, max|lambda|)``) is
    reported, not raised.  The gap candidate is the smallest eigenvalue above
    the kernel scale over the probes whose diameter reaches the interaction
    range.
    """
    rows = []
    rng_max, bound_max = 0, 0.0
    passed = True
    for lam in volumes:
        phi = build(lam)
        rng_max = max(rng_max, phi.range)
        bound_max = max(bound_max, phi.uniform_bound)
        evals = hamiltonian_eigenvalues(phi, lam)
        scale = max(1.0, float(np.max(np.abs(evals))))
        ground = float(evals[0])
        kdim = kernel_count(evals)
        nonzero = evals[~kernel_mask(evals)]
        min_nonzero = float(nonzero[0]) if nonzero.size else np.inf
        ok = abs(ground) <= 1e-10 * scale and kdim >= 1
        rows.append(VolumeReport(lam, ground, min_nonzero, kdim, ok))
        passed = passed and ok
    eligible = [r.min_nonzero for r in rows if r.lam.diameter >= rng_max]
    gamma0 = float(min(eligible)) if eligible else float("inf")
    return UnperturbedReport(rows, rng_max, bound_max, gamma0, passed)


@dataclass
class EdgeBulkSplit:
    edge: Interaction
    bulk: Interaction
    D: int

    def reconstructs(self, phi: Interaction) -> bool:
        return len(self.edge.terms) + len(self.bulk.terms) == len(phi.terms)


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
                         replace(phi, terms=bulk_terms), D)


def regroup_intervals(psi: Interaction) -> Interaction:
    """Merge all terms sharing a support interval into a single term.

    Local Hamiltonians on every subinterval are unchanged.  When ``psi``
    carries a base decay function, the regrouped interaction carries the
    associated regrouped decay function.
    """
    merged: dict[Interval, np.ndarray] = psi.grouped()
    # a support holding one term holds that term's matrix, and its norm
    alone = {}
    for t in psi.terms:
        alone[t.support] = None if t.support in alone else t.op
    terms = []
    for supp, m in sorted(merged.items()):
        op = LocalOperator(m, supp, supp, psi.kind, psi.local_dim)
        if alone[supp] is not None:
            op._norm = alone[supp].norm()
        terms.append(Term(op))
    decay = None
    if isinstance(psi.decay, ffunction.FFunctionSpec):
        decay = ffunction.regroup_decay(psi.decay)
    return Interaction(terms, psi.kind, psi.local_dim, decay=decay,
                       ball_keyed=False)


def fermion_to_spin(phi: Interaction) -> Interaction:
    """Termwise relabeling of an even fermionic interaction; norms unchanged."""
    if phi.kind != "fermion":
        raise ValueError("expected a fermionic interaction")
    terms = []
    for t in phi.terms:
        if parity_grade(t.op) != "even":
            raise ParityError(f"term on {t.support} is not even")
        terms.append(Term(jordan_wigner(t.op), anchor=t.anchor, radius=t.radius))
    return Interaction(terms, "spin", 2, decay=phi.decay,
                       ball_keyed=phi.ball_keyed)


def random_interaction(lam: Interval, seed: int, n_terms: int = 6,
                       max_diameter: int = 2, decay=None) -> Interaction:
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
        terms.append(Term(LocalOperator(m, supp, lam, "spin")))
    return Interaction(terms, "spin", decay=decay)


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
                       "ball_keyed": phi.ball_keyed, "terms": terms},
                      separators=(",", ":"))


def from_json(text: str) -> Interaction:
    data = json.loads(text)
    terms = []
    for entry in data["terms"]:
        a, b = entry["support"]
        supp = Interval(int(a), int(b))
        dim = data["local_dim"] ** len(supp)
        m = np.array([complex(re, im) for re, im in entry["matrix"]],
                     dtype=complex).reshape(dim, dim)
        op = LocalOperator(m, supp, supp, data["kind"], data["local_dim"])
        terms.append(Term(op, anchor=entry["anchor"], radius=entry["radius"]))
    return Interaction(terms, data["kind"], data["local_dim"],
                       ball_keyed=data["ball_keyed"])
