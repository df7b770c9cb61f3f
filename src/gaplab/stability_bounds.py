r"""Certified constants controlling the perturbed ground-state gap.

Every series here is evaluated as an exact partial sum to one truncation
plus a closed-form tail bound, so each reported constant is a true upper
bound for its series.  The chain of quantities, for a frustration-free
interaction ``eta`` with gap floor ``gamma_0``, the step indistinguishability
profile ``Omega`` (amplitude below a depth, zero from it on), the shifted
polynomial envelope ``F_0`` of the flow decay (``ffunction.ShiftedEnvelope``),
and a flow constant ``C``:

    kappa(n, eps) = 20 C eps (|eta|_F + |Phi_Int|_F)
                        [Omega((n-1)/2)^{1/2} + F_0((n-3)/2)]

    J_1 = sum_{n in Z} 20 C |n| [Omega((|n|-1)/2)^{1/2} + F_0((|n|-3)/2)]
    J_2 = sum_{n in Z} 20 C     [Omega((|n|-1)/2)^{1/2} + F_0((|n|-3)/2)]
    J_3 = sum_{z in Z} Omega(|z|/2) + 2 F_0(floor(|z|/2))

    delta = J_2 s,   beta = (3/gamma_0) J_1 s,   alpha = C s (J_3 + 4) + delta
    m     = (3 J_1 + 2 J_2 + C (J_3 + 8)) s,     with s = |eta|_F + M_Int

and the thresholds

    eps_int        = min{1, gamma_0 / m}
    eps(gamma_0)   = min{1, gamma_0 / (m + 2 M_D)}
    gap(eps)      >= gamma_0 - (m + 2 M_D) eps.

Each profile certifies its own tail: the step's past a truncation that
clears its depth is zero (``OmegaProfile.tail``), and ``F_0``'s is an exact
integral (``ShiftedEnvelope.tail``).  Negative profile arguments clamp to
zero (the profiles are nonincreasing, so clamping only enlarges the sums).
``FORMULAS`` holds the ledger's text of each constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ffunction import ShiftedEnvelope
from .interaction import Interaction, hamiltonian_eigenvalues, split_edge_bulk
from .lattice import Interval
from .operator_algebra import eigenvalues


# ---------------------------------------------------------------------------
# the indistinguishability profile


@dataclass(frozen=True)
class OmegaProfile:
    """Step profile of kernel-state indistinguishability,
    ``amplitude * [r < cutoff]``."""

    amplitude: float
    cutoff: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        out = np.where(r < self.cutoff, self.amplitude, 0.0)
        return out if out.ndim else float(out)

    def sqrt(self) -> "OmegaProfile":
        return OmegaProfile(math.sqrt(self.amplitude), self.cutoff)

    def tail(self, shift: float, T: int) -> float:
        """Certified ``sum_{n > T} n^d Omega((n + shift) / 2)`` for every
        degree ``d``: zero, once the first term past ``T`` clears the step."""
        if 0.5 * (T + 1 + shift) < self.cutoff:
            raise ValueError("truncation does not clear the step profile")
        return 0.0


def _bracket(sq: OmegaProfile, f0: ShiftedEnvelope, n):
    """``sqrt(Omega)((n-1)/2) + F_0((n-3)/2)``, given ``sq = Omega.sqrt()``."""
    return sq(0.5 * (n - 1)) + f0(0.5 * (n - 3))


def _bracket_tail(sq: OmegaProfile, f0: ShiftedEnvelope, T: int,
                  degree: int) -> float:
    """Certified ``sum_{n > T} n^degree`` of ``_bracket``."""
    return sq.tail(-1.0, T) + f0.tail(-3.0, T, degree)


# ---------------------------------------------------------------------------
# the J series


@dataclass(frozen=True)
class JConstants:
    j1: float
    j2: float
    j3: float
    tails: tuple


def j_constants(c: float, omega: OmegaProfile, f0: ShiftedEnvelope,
                truncation: int) -> JConstants:
    """The three summed constants, each a partial sum to ``truncation``
    plus its certified tail; a truncation that does not clear the step, or
    before ``F_0``'s envelope is monotone, raises through the tail bounds.
    """
    if c <= 0:
        raise ValueError("the flow constant must be positive")
    T = int(truncation)
    n = np.arange(1, T + 1, dtype=float)
    sq = omega.sqrt()

    bracket = _bracket(sq, f0, n)
    t1 = _bracket_tail(sq, f0, T, 1)
    j1 = 40.0 * c * (float(np.sum(n * bracket)) + t1)

    zero_term = sq(0.0) + f0(0.0)   # n = 0, arguments clamp to 0
    t2 = _bracket_tail(sq, f0, T, 0)
    j2 = 20.0 * c * (zero_term + 2.0 * (float(np.sum(bracket)) + t2))

    z = np.arange(1, T + 1, dtype=float)
    body3 = omega(0.5 * z) + 2.0 * f0(np.floor(0.5 * z))
    # floor(z/2) >= (z-1)/2 and F_0 is nonincreasing
    t3 = omega.tail(0.0, T) + 2.0 * f0.tail(-1.0, T, 0)
    j3 = (omega(0.0) + 2.0 * f0(0.0)) + 2.0 * (float(np.sum(body3)) + t3)

    return JConstants(j1, j2, j3, (40.0 * c * t1, 40.0 * c * t2, 2.0 * t3))


# ---------------------------------------------------------------------------
# volume strengths


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


def edge_bulk_strengths(phi: Interaction, lam: Interval, depth: int,
                        fspec) -> tuple[float, float]:
    """``(interior F-norm, edge norm)`` of ``phi`` on ``lam``: the F-norm of
    its terms anchored ``depth`` deep (zero without any, as ``f_norm`` of
    no term) and the operator norm of the rest, the boundary remainder.

    The remainder's terms fall into groups of overlapping supports
    (``_support_clusters``); groups on disjoint supports act on disjoint
    factors and commute, so the remainder's spectrum is the sums of one
    eigenvalue of each group's, and its norm is
    ``max(|sum lambda_min|, |sum lambda_max|)``.  Each group is solved on
    its own span: at ten sites the two ends' groups, on ``[1, 5]`` and
    ``[6, 10]``, take two solves of side 32 in place of the parity blocks
    of the whole remainder.  One group is the whole remainder's spectrum,
    bit for bit."""
    split = split_edge_bulk(phi, lam, depth)
    interior_fnorm = split.bulk.f_norm(fspec)
    lowest = highest = 0.0
    for group in _support_clusters(split.edge.terms):
        spectrum = hamiltonian_eigenvalues(replace(split.edge, terms=group),
                                           lam)
        lowest += spectrum[0]
        highest += spectrum[-1]
    return interior_fnorm, float(max(abs(lowest), abs(highest)))


def uniform_strengths(phi_for: dict, depth: int, fspec) -> tuple[float, float]:
    """``(M_Int, M_D)``: the sup of ``edge_bulk_strengths``' interior
    F-norms and of its edge norms over a family of volumes.

    ``phi_for`` maps each volume to its perturbation, and each enters the
    suprema (the caller picks them); an empty family is a ``ValueError``.
    """
    if not phi_for:
        raise ValueError("no volume to take the uniform strengths over")
    m_int = m_d = 0.0
    for lam, phi in phi_for.items():
        interior_fnorm, edge_norm = edge_bulk_strengths(phi, lam, depth, fspec)
        m_int = max(m_int, interior_fnorm)
        m_d = max(m_d, edge_norm)
    return m_int, m_d


# ---------------------------------------------------------------------------
# the assembled constants


@dataclass(frozen=True)
class BoundConstants:
    gamma0: float
    c: float
    eta_fnorm: float
    m_int: float
    m_d: float
    j: JConstants
    omega: OmegaProfile
    f0: ShiftedEnvelope
    truncation: int             # the partial sums' length, for every series

    @property
    def strengths(self) -> float:
        return self.eta_fnorm + self.m_int

    @property
    def delta(self) -> float:
        return volume_form_constants(self, self.m_int)[0]

    @property
    def beta(self) -> float:
        """Also the slope ``p`` of the window-edge tilt: the uniform strength
        already enters ``beta`` here."""
        return volume_form_constants(self, self.m_int)[1]

    @property
    def alpha(self) -> float:
        """Also the window-edge offset ``q``, for the same reason."""
        return volume_form_constants(self, self.m_int)[2]

    @property
    def m(self) -> float:
        return (3.0 * self.j.j1 + 2.0 * self.j.j2
                + self.c * (self.j.j3 + 8.0)) * self.strengths

    @property
    def m_total(self) -> float:
        return self.m + 2.0 * self.m_d

    @property
    def eps_interior(self) -> float:
        return min(1.0, self.gamma0 / self.m)

    @property
    def eps_threshold(self) -> float:
        return min(1.0, self.gamma0 / self.m_total)

    def gap_lower_bound(self, eps) -> float:
        return self.gamma0 - self.m_total * np.asarray(eps, dtype=float)

    def consistency_residual(self) -> float:
        """The assembled ``m`` re-derived from its parts; zero to rounding."""
        recon = (self.beta * self.gamma0 + self.delta + self.alpha
                 + 4.0 * self.c * self.strengths)
        return abs(self.m - recon) / max(1.0, self.m)

    def m_grouped(self, min_n: int = 0) -> float:
        """The same constant summed with grouped coefficients ``20C(3|n|+2)``.

        With ``min_n = 0`` the grouped series runs over the whole lattice of
        offsets and is algebraically equal to ``3 J_1 + 2 J_2``; the value must
        match ``m`` to tail accuracy (both cut at ``truncation``), and the two
        routes differ only in how the tails are certified.  ``min_n = 3``
        keeps only the far offsets of the weighted part — a strictly smaller
        constant whose gap from the full sum is the dropped ``|n| <= 2`` terms.
        """
        T = int(self.truncation)
        sq = self.omega.sqrt()
        n = np.arange(max(min_n, 1), T + 1, dtype=float)
        bracket = _bracket(sq, self.f0, n)
        partial = float(np.sum((3.0 * n + 2.0) * bracket))
        t_deg1 = _bracket_tail(sq, self.f0, T, 1)
        t_deg0 = _bracket_tail(sq, self.f0, T, 0)
        weighted = 40.0 * self.c * (partial + 3.0 * t_deg1 + 2.0 * t_deg0)
        if min_n == 0:
            # the n = 0 term appears once: 20 C (3*0 + 2) = 40 C
            weighted += 40.0 * self.c * (sq(0.0) + self.f0(0.0))
        return (weighted + self.c * (self.j.j3 + 8.0)) * self.strengths


def bound_constants(gamma0: float, c: float, eta_fnorm: float, m_int: float,
                    m_d: float, omega: OmegaProfile, f0: ShiftedEnvelope,
                    truncation: int) -> BoundConstants:
    """The assembled constants, their J sums cut at ``truncation``, which
    the constants carry for ``m_grouped``'s re-summation."""
    j = j_constants(c, omega, f0, truncation)
    return BoundConstants(gamma0, c, eta_fnorm, m_int, m_d, j, omega, f0,
                          truncation)


def stability_threshold(bc: BoundConstants) -> dict:
    """The gap-slope constant ``m`` re-summed, to cross-check ``bc.m``.

    ``bc.m`` is the linear combination of the J sums; ``m_grouped`` re-sums
    the same series, to ``bc.truncation``, with grouped coefficients (equal
    up to tail certification); ``m_grouped_far`` drops the near offsets of
    the weighted part.  The thresholds are ``bc``'s own properties.
    """
    return {
        "m_grouped": bc.m_grouped(),
        "m_grouped_far": bc.m_grouped(min_n=3),
    }


def kappa_bound(bc: BoundConstants, n: int, eps: float,
                phi_fnorm: float) -> float:
    """kappa(n, eps), with the volume's own interior F-norm ``phi_fnorm``."""
    s = bc.eta_fnorm + phi_fnorm
    return 20.0 * bc.c * eps * s * _bracket(bc.omega.sqrt(), bc.f0, n)


def higher_gap_bound(bc: BoundConstants, gamma: float, top: float, eps):
    """(1 - p eps) gamma - 2 (q + p T + M_D) eps for a window below ``top``,
    with ``p = beta`` and ``q = alpha``."""
    p, q = bc.beta, bc.alpha
    eps = np.asarray(eps, dtype=float)
    return (1.0 - p * eps) * gamma - 2.0 * (q + p * top + bc.m_d) * eps


def higher_gap_threshold(bc: BoundConstants, gamma: float, top: float) -> float:
    p, q = bc.beta, bc.alpha
    return min(1.0, gamma / (p * gamma + 2.0 * (q + p * top + bc.m_d)))


def calibrate_c(phi1_fnorm: float, eps: float, eta_fnorm: float,
                psi_fnorm: float) -> float:
    """Flow constant from a measured transported decomposition.

    The transported interaction obeys ``|Phi^1|_{F_phi} <= C eps (|eta|_F +
    |Psi|_F)``; the measured ratio is the smallest admissible ``C``.
    """
    if eps <= 0:
        raise ValueError("calibration needs a positive coupling")
    return phi1_fnorm / (eps * (eta_fnorm + psi_fnorm))


# the formula text ``constants.json`` gives each constant above, by its key
FORMULAS = {
    "J1": "J1 = 40 C sum_{n>=1} n [sqrt(Omega((n-1)/2)) + F0((n-3)/2)]"
          " + certified tail",
    "J2": "J2 = 20 C [sqrt(Omega(0)) + F0(0)]"
          " + 40 C sum_{n>=1} [sqrt(Omega((n-1)/2)) + F0((n-3)/2)]"
          " + certified tail",
    "J3": "J3 = Omega(0) + 2 F0(0)"
          " + 2 sum_{z>=1} [Omega(z/2) + 2 F0(floor(z/2))] + certified tail",
    "delta": "delta = J2 (|eta|_F + M_Int)",
    "beta": "beta = (3/gamma0) J1 (|eta|_F + M_Int)",
    "alpha": "alpha = C (|eta|_F + M_Int)(J3 + 4) + delta",
    "p": "p = (3/gamma0) J1 (|eta|_F + M_Int)",
    "q": "q = (|eta|_F + M_Int) [C (J3 + 4) + J2]",
    "m": "m = (3 J1 + 2 J2 + C (J3 + 8)) (|eta|_F + M_Int)",
    "m_grouped": "m = [40 C sum_{n>=0} (3n + 2)"
                 " [sqrt(Omega((n-1)/2)) + F0((n-3)/2)] + C (J3 + 8)]"
                 " (|eta|_F + M_Int), grouped summation",
    "m_grouped_far": "same grouped series restricted to offsets n >= 3",
    "m_fermion": "m' = m + 2 M_D",
    "eps_interior": "eps_Int = min{1, gamma0 / m}",
    "eps_star": "eps* = min{1, gamma0 / (m + 2 M_D)}",
    "eps_star_fermion": "eps*' = min{1, gamma0 / m'}",
    "gap_bound": "gap(eps) >= gamma0 - (m + 2 M_D) eps",
    "higher_gap_bound": "gap(nu, mu, eps) >= (1 - p eps)(mu - nu)"
                        " - 2 (q + p T + M_D) eps",
    "kappa": "kappa(n, eps) = 20 C eps (|eta|_F + |Phi_Int|_F)"
             " [sqrt(Omega((n-1)/2)) + F0((n-3)/2)]",
    "C": "smallest admissible flow constant:"
         " |Phi1(eps)|_{F_phi} <= C eps (|eta|_F + |Psi|_F)",
}


# ---------------------------------------------------------------------------
# direct verification of the relative form bound


@dataclass
class FormBoundReport:
    eps: float
    delta: float
    beta: float
    min_eig_plus: float          # lambda_min(beta eps H + delta eps + Phi2)
    min_eig_minus: float         # lambda_min(beta eps H + delta eps - Phi2)
    sampled_margin: float        # worst margin over sampled unit vectors
    violations: int

    @property
    def holds(self) -> bool:
        return (min(self.min_eig_plus, self.min_eig_minus) >= -_ALLOWANCE
                and self.violations == 0)


# the additive allowance of every form-bound margin, eigenvalue or sampled
_ALLOWANCE = 1e-10
# the form bound is sampled on this many random unit vectors, drawn this
# many columns at a time
_SAMPLE_VECTORS = 1000
_SAMPLE_COLUMNS = 128


def verify_form_bound(h0, h0_vecs, phi2, sectors, delta: float,
                      beta: float, eps: float, seed: int) -> FormBoundReport:
    """Check ``|<v, Phi2 v>| <= delta eps + beta eps <v, H v>`` exhaustively.

    ``h0``, its eigenvectors ``h0_vecs`` and ``phi2`` are block stacks on
    ``sectors`` (see ``spectral_flow.FlowResult``).  The two operator
    inequalities are settled by eigenvalue computation, block by block; a
    sample of ``_SAMPLE_VECTORS`` unit vectors drawn from ``seed``, together
    with the eigenvectors of the unperturbed Hamiltonian (the columns of
    each block of ``h0_vecs``), reports margins with the additive
    ``_ALLOWANCE``.  Violations are counted, not raised.  The samples are
    drawn ``_SAMPLE_COLUMNS`` at a time, each block's real and imaginary
    parts together, in block order, and both quadratic forms of a vector
    are summed over its parts on the sectors, block by block, so no matrix
    is joined.
    """
    envelope = beta * eps * h0 + delta * eps * np.eye(h0.shape[-1])
    ev_plus = eigenvalues(envelope + phi2)
    ev_minus = eigenvalues(envelope - phi2)
    del envelope

    def margins(blocks, parts):
        """The margins of the vectors whose part on ``sectors[k]`` is
        ``parts[i]`` for ``k = blocks[i]``, and zero elsewhere."""
        quad_h = quad_p = 0.0
        for k, v in zip(blocks, parts):
            quad_h = quad_h + np.einsum("iv,iv->v", v.conj(), h0[k] @ v).real
            quad_p = quad_p + np.einsum("iv,iv->v", v.conj(),
                                        phi2[k] @ v).real
        return delta * eps + beta * eps * quad_h - np.abs(quad_p)

    dim = sum(map(len, sectors))
    rng = np.random.default_rng(seed)
    found = []
    for lo in range(0, _SAMPLE_VECTORS, _SAMPLE_COLUMNS):
        re, im = rng.standard_normal(
            (2, dim, min(_SAMPLE_COLUMNS, _SAMPLE_VECTORS - lo)))
        vs = re + 1j * im
        vs /= np.linalg.norm(vs, axis=0)
        found.append(margins(range(len(sectors)),
                             [vs[idx] for idx in sectors]))
    for k, vecs in enumerate(h0_vecs):
        for lo in range(0, vecs.shape[1], _SAMPLE_COLUMNS):
            found.append(margins([k], [vecs[:, lo:lo + _SAMPLE_COLUMNS]]))
    found = np.concatenate(found)
    return FormBoundReport(eps, delta, beta, float(ev_plus[0]),
                           float(ev_minus[0]), float(found.min()),
                           int(np.sum(found < -_ALLOWANCE)))


def volume_form_constants(bc: BoundConstants, phi_int_fnorm: float):
    """(delta, beta, alpha) with a fixed volume's interior norm in place of the sup."""
    s = bc.eta_fnorm + phi_int_fnorm
    delta = bc.j.j2 * s
    beta = 3.0 / bc.gamma0 * bc.j.j1 * s
    alpha = bc.c * s * (bc.j.j3 + 4.0) + delta
    return delta, beta, alpha
