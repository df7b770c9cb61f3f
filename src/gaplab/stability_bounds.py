r"""Certified constants controlling the perturbed ground-state gap.

Every series here is evaluated as an exact partial sum plus a closed-form
tail bound (geometric or integral), so each reported constant is a true
upper bound for its series.  The chain of quantities, for a frustration-free
interaction ``eta`` with gap floor ``gamma_0``, an indistinguishability
profile ``Omega``, the polynomial envelope ``F_0`` of the flow decay, and a
flow constant ``C``:

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

Negative profile arguments clamp to zero (the profiles are nonincreasing,
so clamping only enlarges the sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ffunction import DerivedFSpec, geometric_tail, poly_tail
from .interaction import Interaction, local_hamiltonian, split_edge_bulk
from .lattice import Interval
from .operator_algebra import as_matrix, operator_norm


# ---------------------------------------------------------------------------
# indistinguishability profiles


@dataclass(frozen=True)
class OmegaProfile:
    """Nonincreasing decay profile for kernel-state indistinguishability.

    geometric: amplitude * rate^r           (0 <= rate < 1)
    power:     amplitude * (1 + r)^-rate    (rate > 4 for the gap theorem)
    step:      amplitude * [r < rate]
    """

    kind: str
    amplitude: float
    rate: float

    def __post_init__(self):
        if self.kind not in ("geometric", "power", "step"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if self.kind == "geometric" and not 0.0 <= self.rate < 1.0:
            raise ValueError("geometric rate must lie in [0, 1)")

    def __call__(self, r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        if self.kind == "geometric":
            out = self.amplitude * self.rate ** r
        elif self.kind == "power":
            out = self.amplitude * (1.0 + r) ** (-self.rate)
        else:
            out = np.where(r < self.rate, self.amplitude, 0.0)
        return out if out.ndim else float(out)

    def sqrt(self) -> "OmegaProfile":
        amp = math.sqrt(self.amplitude)
        if self.kind == "geometric":
            return OmegaProfile("geometric", amp, math.sqrt(self.rate))
        if self.kind == "power":
            return OmegaProfile("power", amp, 0.5 * self.rate)
        return OmegaProfile("step", amp, self.rate)


def _omega_tail(omega: OmegaProfile, half: float, shift: float,
                T: int, degree: int) -> float:
    """Certified ``sum_{n > T} n^degree omega(half (n + shift))``."""
    if omega.amplitude == 0.0:
        return 0.0
    if omega.kind == "step":
        if half * (T + 1 + shift) < omega.rate:
            raise ValueError("truncation does not clear the step profile")
        return 0.0
    if omega.kind == "geometric":
        if omega.rate == 0.0:
            return 0.0
        q = omega.rate ** half
        scale = omega.amplitude * omega.rate ** (half * shift)
        return geometric_tail(q, T, degree=degree, scale=scale)
    return poly_tail(half, 1.0 + half * shift, omega.rate, T,
                     degree=degree, scale=omega.amplitude)


def _f0_tail(f0, half: float, shift: float, T: int, degree: int) -> float:
    """Certified ``sum_{n > T} n^degree F_0(half (n + shift))``.

    Beyond the plateau ``F_0(r) = L (1 + c (r/18 - R - 3/2))^-kappa`` exactly,
    an affine-argument polynomial with an exact integral tail.  ``None``
    stands for the identically-zero envelope.
    """
    if f0 is None:
        return 0.0
    if f0.kind != "shifted":
        raise ValueError("tail formula applies to the shifted envelope")
    base = f0.base
    b = base.c * half / 18.0
    a = 1.0 + base.c * (half * shift / 18.0 - f0.R - 1.5)
    return poly_tail(b, a, base.kappa, T, degree=degree, scale=base.L)


def _f0_values(f0, r):
    if f0 is None:
        r = np.asarray(r, dtype=float)
        return np.zeros_like(r) if r.ndim else 0.0
    return f0(r)


def _bracket(sq: OmegaProfile, f0, n):
    """``sqrt(Omega)((n-1)/2) + F_0((n-3)/2)``, given ``sq = Omega.sqrt()``."""
    return sq(0.5 * (n - 1)) + _f0_values(f0, 0.5 * (n - 3))


# ---------------------------------------------------------------------------
# the J series


@dataclass(frozen=True)
class JConstants:
    j1: float
    j2: float
    j3: float
    tails: tuple


def j_constants(c: float, omega: OmegaProfile, f0,
                truncation: int = 2000) -> JConstants:
    """The three summed constants, each a certified upper bound.

    ``f0`` may be ``None`` for an identically-zero envelope.  Profiles whose
    tails are not summable at the required order raise through the tail
    bounds.
    """
    if c <= 0:
        raise ValueError("the flow constant must be positive")
    T = int(truncation)
    n = np.arange(1, T + 1, dtype=float)
    sq = omega.sqrt()

    bracket = _bracket(sq, f0, n)
    t1 = (_omega_tail(sq, 0.5, -1.0, T, 1) + _f0_tail(f0, 0.5, -3.0, T, 1))
    j1 = 40.0 * c * (float(np.sum(n * bracket)) + t1)

    zero_term = sq(0.0) + _f0_values(f0, 0.0)   # n = 0, arguments clamp to 0
    t2 = (_omega_tail(sq, 0.5, -1.0, T, 0) + _f0_tail(f0, 0.5, -3.0, T, 0))
    j2 = 20.0 * c * (zero_term + 2.0 * (float(np.sum(bracket)) + t2))

    z = np.arange(1, T + 1, dtype=float)
    body3 = omega(0.5 * z) + 2.0 * _f0_values(f0, np.floor(0.5 * z))
    # floor(z/2) >= (z-1)/2 and F_0 is nonincreasing
    t3 = (_omega_tail(omega, 0.5, 0.0, T, 0)
          + 2.0 * _f0_tail(f0, 0.5, -1.0, T, 0))
    j3 = ((omega(0.0) + 2.0 * _f0_values(f0, 0.0))
          + 2.0 * (float(np.sum(body3)) + t3))

    return JConstants(j1, j2, j3, (40.0 * c * t1, 40.0 * c * t2, 2.0 * t3))


# ---------------------------------------------------------------------------
# volume strengths


@dataclass(frozen=True)
class VolumeStrengths:
    lam: Interval
    interior_fnorm: float       # F-norm of the deep-bulk part
    edge_norm: float            # operator norm of the boundary remainder


def edge_bulk_strengths(phi: Interaction, lam: Interval, depth: int,
                        fspec) -> VolumeStrengths:
    split = split_edge_bulk(phi, lam, depth)
    interior_fnorm = split.bulk.f_norm(fspec) if split.bulk.terms else 0.0
    if split.edge.terms:
        edge_norm = operator_norm(local_hamiltonian(split.edge, lam).matrix)
    else:
        edge_norm = 0.0
    return VolumeStrengths(lam, interior_fnorm, edge_norm)


def uniform_strengths(phi_for: dict, depth: int, rng: int, fspec):
    """Sup of interior F-norms and edge norms over a family of volumes.

    ``phi_for`` maps each volume to its perturbation; only volumes with
    diameter above ``max(2 depth, rng)`` enter the suprema.
    """
    m_int, m_d, rows = 0.0, 0.0, []
    for lam, phi in phi_for.items():
        if lam.diameter <= max(2 * depth, rng):
            continue
        vs = edge_bulk_strengths(phi, lam, depth, fspec)
        rows.append(vs)
        m_int = max(m_int, vs.interior_fnorm)
        m_d = max(m_d, vs.edge_norm)
    if not rows:
        raise ValueError("no volume exceeds the diameter threshold")
    return m_int, m_d, rows


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
    omega: OmegaProfile = None
    f0: DerivedFSpec = None

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

    def m_grouped(self, truncation: int = 2000, min_n: int = 0) -> float:
        """The same constant summed with grouped coefficients ``20C(3|n|+2)``.

        With ``min_n = 0`` the grouped series runs over the whole lattice of
        offsets and is algebraically equal to ``3 J_1 + 2 J_2``; the value must
        match ``m`` to tail accuracy, and the two routes differ only in how
        the tails are certified.  ``min_n = 3`` keeps only the far offsets of
        the weighted part — a strictly smaller constant whose gap from the
        full sum is the dropped ``|n| <= 2`` terms.
        """
        T = int(truncation)
        sq = self.omega.sqrt()
        n = np.arange(max(min_n, 1), T + 1, dtype=float)
        bracket = _bracket(sq, self.f0, n)
        partial = float(np.sum((3.0 * n + 2.0) * bracket))
        t_deg1 = (_omega_tail(sq, 0.5, -1.0, T, 1)
                  + _f0_tail(self.f0, 0.5, -3.0, T, 1))
        t_deg0 = (_omega_tail(sq, 0.5, -1.0, T, 0)
                  + _f0_tail(self.f0, 0.5, -3.0, T, 0))
        weighted = 40.0 * self.c * (partial + 3.0 * t_deg1 + 2.0 * t_deg0)
        if min_n == 0:
            # the n = 0 term appears once: 20 C (3*0 + 2) = 40 C
            weighted += 40.0 * self.c * (sq(0.0) + _f0_values(self.f0, 0.0))
        return (weighted + self.c * (self.j.j3 + 8.0)) * self.strengths


def bound_constants(gamma0: float, c: float, eta_fnorm: float, m_int: float,
                    m_d: float, omega: OmegaProfile, f0,
                    truncation: int = 2000) -> BoundConstants:
    j = j_constants(c, omega, f0, truncation=truncation)
    return BoundConstants(gamma0, c, eta_fnorm, m_int, m_d, j,
                          omega=omega, f0=f0)


def stability_threshold(bc: BoundConstants, truncation: int = 2000) -> dict:
    """The gap-slope constant and coupling thresholds, cross-reported.

    ``m`` is the linear combination of the J sums; ``m_grouped`` re-sums the
    same series with grouped coefficients (equal up to tail certification);
    ``m_grouped_far`` drops the near offsets of the weighted part.
    """
    return {
        "m": bc.m,
        "m_grouped": bc.m_grouped(truncation),
        "m_grouped_far": bc.m_grouped(truncation, min_n=3),
        "m_total": bc.m_total,
        "eps_interior": bc.eps_interior,
        "eps_star": bc.eps_threshold,
    }


def kappa_bound(bc: BoundConstants, n: int, eps: float,
                phi_fnorm: float | None = None) -> float:
    """kappa(n, eps), with the volume's own interior F-norm if supplied."""
    s = bc.eta_fnorm + (phi_fnorm if phi_fnorm is not None else bc.m_int)
    return 20.0 * bc.c * eps * s * _bracket(bc.omega.sqrt(), bc.f0, n)


def fermion_constants(bc: BoundConstants):
    """The packaged chain constants: m' = m + 2 M_D, eps' = min{1, gamma0/m'}."""
    return bc.m_total, bc.eps_threshold


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
        return (min(self.min_eig_plus, self.min_eig_minus) >= -1e-10
                and self.violations == 0)


def verify_form_bound(h0, phi2, delta: float, beta: float, eps: float,
                      n_vectors: int = 1000, seed: int = 7) -> FormBoundReport:
    """Check ``|<v, Phi2 v>| <= delta eps + beta eps <v, H v>`` exhaustively.

    The two operator inequalities are settled by eigenvalue computation; a
    seeded sample of unit vectors, together with every eigenvector of the
    unperturbed Hamiltonian, reports margins with an additive ``1e-10``
    allowance.  Violations are counted, not raised.
    """
    h, p2 = as_matrix(h0), as_matrix(phi2)
    dim = h.shape[0]
    envelope = beta * eps * h + delta * eps * np.eye(dim)
    ev_plus = np.linalg.eigvalsh(envelope + p2)
    ev_minus = np.linalg.eigvalsh(envelope - p2)

    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((dim, n_vectors)) \
        + 1j * rng.standard_normal((dim, n_vectors))
    vs /= np.linalg.norm(vs, axis=0)
    _, h_vecs = np.linalg.eigh(h)
    vs = np.concatenate([vs, h_vecs.astype(complex)], axis=1)
    quad_h = np.real(np.einsum("iv,ij,jv->v", vs.conj(), h, vs))
    quad_p = np.real(np.einsum("iv,ij,jv->v", vs.conj(), p2, vs))
    margins = delta * eps + beta * eps * quad_h - np.abs(quad_p)
    return FormBoundReport(eps, delta, beta,
                           float(ev_plus[0]), float(ev_minus[0]),
                           float(margins.min()), int(np.sum(margins < -1e-10)))


def volume_form_constants(bc: BoundConstants, phi_int_fnorm: float):
    """(delta, beta, alpha) with a fixed volume's interior norm in place of the sup."""
    s = bc.eta_fnorm + phi_int_fnorm
    delta = bc.j.j2 * s
    beta = 3.0 / bc.gamma0 * bc.j.j1 * s
    alpha = bc.c * s * (bc.j.j3 + 4.0) + delta
    return delta, beta, alpha
