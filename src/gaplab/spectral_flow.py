r"""Quasi-adiabatic flow of spectral projectors, and its local resolution.

The generator at coupling ``s`` filters the perturbation through a gap-aware
weight: with ``H(s) = H_0 + s Psi`` diagonalized as ``H = sum_i E_i |i><i|``,

    D(s) = sum_{ij} i wtilde(E_i - E_j) Psi_ij |i><j|,
    wtilde(w) = (1 - beta(w)) / w,

where ``beta`` is an even C^7 window supported on ``[-gamma, gamma]/2`` with
``beta(0) = 1``; so ``wtilde(w) = 1/w`` exactly beyond the half-width.  The
unitary solving ``U'(s) = i D(s) U(s)``, ``U(0) = 1`` transports the low
spectral cluster: ``P(s) = U(s) P(0) U(s)*`` whenever the gap between the
tracked cluster and the rest never falls below ``gamma``.

An equivalent time-averaged form is kept for cross-validation:

    D = int_0^inf W(s) [tau_s(Psi) - tau_{-s}(Psi)] ds,
    W(s) = 1/2 - (1/pi) int_0^{gamma/2} beta(w) sin(w s)/w dw,

whose filter identity ``2 int_0^inf W(s) sin(w s) ds = (1 - beta(w))/w`` is
what the quadrature on the one horizon ``[0, 120/gamma]`` has to reproduce.
Both routes are one eigenbasis formula with a weight on ``E_i - E_j``:
``wtilde``, or ``2 Im(Phi diag(c) Phi*)`` from the Heisenberg phases
``Phi_ik = exp(i E_i s_k)`` and ``c_k = W(s_k)`` times the node weight.

The transported coupling ``V(s) = U* H(s) U - H_0`` is then cut into anchored,
block-diagonal pieces and telescoped over balls, producing an interaction
whose terms nearly commute with the unperturbed kernel projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import Interval, ball, boundary_distances, interior
from .interaction import Interaction, Term, local_hamiltonian
from .operator_algebra import (LocalOperator, as_matrix,
                               conditional_expectation, delta_layer,
                               eigenvalues, embed, kernel_count, operator_norm)
from .spectra import ProjectorFamily, cluster_projector, diagonalize


# ---------------------------------------------------------------------------
# filter windows


@dataclass(frozen=True)
class Window:
    """Even filter profile on [-gamma/2, gamma/2] with beta(0) = 1."""

    gamma: float
    kind: str = "bump"   # bump | cosine

    def beta(self, omega):
        omega = np.asarray(omega, dtype=float)
        u = 2.0 * omega / self.gamma
        inside = np.abs(u) < 1.0
        if self.kind == "bump":
            vals = np.where(inside, (1.0 - u * u) ** 8, 0.0)
        elif self.kind == "cosine":
            vals = np.where(inside, np.cos(0.5 * np.pi * u) ** 2, 0.0)
        else:
            raise ValueError(f"unknown window kind {self.kind!r}")
        return vals if vals.shape else float(vals)

    def weight(self, omega):
        """wtilde(omega) = (1 - beta(omega)) / omega, with wtilde(0) = 0."""
        omega = np.asarray(omega, dtype=float)
        safe = np.where(omega == 0.0, 1.0, omega)
        vals = np.where(omega == 0.0, 0.0, (1.0 - self.beta(omega)) / safe)
        return vals if vals.shape else float(vals)


# ---------------------------------------------------------------------------
# generator, two routes


def eigenbasis_generator(h, psi, window: Window) -> np.ndarray:
    """D = sum_ij i wtilde(E_i - E_j) Psi_ij |i><j| in the computational basis."""
    evals, evecs = diagonalize(h)
    return _filtered(evals, evecs, psi,
                     window.weight(evals[:, None] - evals[None, :]))


def _filtered(evals, evecs, psi, weight) -> np.ndarray:
    """sum_ij i weight_ij Psi_ij |i><j| from a decomposition already made."""
    psi_eig = evecs.conj().T @ as_matrix(psi) @ evecs
    d_eig = 1j * weight * psi_eig
    return evecs @ d_eig @ evecs.conj().T


def time_weight(s, window: Window):
    """W(s) = 1/2 - (1/pi) int_0^{gamma/2} beta(w) sin(ws)/w dw
    (200-node Gauss-Legendre)."""
    x, wq = leggauss(200)
    half = 0.5 * window.gamma
    nodes = 0.5 * half * (x + 1.0)
    weights = 0.5 * half * wq
    s = np.atleast_1d(np.asarray(s, dtype=float))
    beta_vals = window.beta(nodes)
    integ = np.einsum("k,sk->s", weights * beta_vals / nodes,
                      np.sin(np.outer(s, nodes)))
    return 0.5 - integ / np.pi


def _time_panels(window: Window, wmax: float):
    """Gauss-Legendre nodes and weights on [0, 120 / gamma] resolving
    frequencies up to ``wmax``.

    Eight nodes per panel and at least six panels per period of the fastest
    frequency (never fewer than 40 panels).
    """
    t_max = 120.0 / window.gamma
    wmax = max(float(wmax), window.gamma)
    n_panels = max(40, int(np.ceil(t_max * wmax * 6 / (2 * np.pi))))
    x, wq = leggauss(8)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    mids, halfw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s_pts = (mids[:, None] + halfw[:, None] * x[None, :]).ravel()
    s_wts = (halfw[:, None] * wq[None, :]).ravel()
    return s_pts, s_wts


def filter_identity_residual(window: Window, omegas):
    """Max error of the s-quadrature of 2 int W(s) sin(ws) ds vs (1-beta(w))/w."""
    omegas = np.asarray(omegas, dtype=float)
    s_pts, s_wts = _time_panels(window, np.max(np.abs(omegas)))
    w_vals = time_weight(s_pts, window)
    lhs = 2.0 * np.einsum("s,sw->w", s_wts * w_vals,
                          np.sin(np.outer(s_pts, omegas)))
    rhs = window.weight(omegas)
    return float(np.max(np.abs(lhs - rhs)))


def time_quadrature_generator(h, psi, window: Window) -> np.ndarray:
    """D = int_0^T W(s)[tau_s(Psi) - tau_{-s}(Psi)] ds as a phase product."""
    evals, evecs = diagonalize(h)
    s_pts, s_wts = _time_panels(window, np.ptp(evals))
    phase = np.exp(1j * np.outer(evals, s_pts))
    coeff = s_wts * time_weight(s_pts, window)
    weight = 2.0 * ((phase * coeff) @ phase.conj().T).imag
    return _filtered(evals, evecs, psi, weight)


def _polar_unitary(u: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(u)
    return w @ vh


# ---------------------------------------------------------------------------
# the flow ODE


@dataclass
class FlowResult:
    window: Window
    eps_grid: np.ndarray                 # checkpoint couplings, uniform, odd count
    unitaries: list[np.ndarray]          # U(eps_j)
    generators: list[np.ndarray]         # D(eps_j)
    gap_floor: float                     # smallest tracked gap met on the grid
    projector_drift: float               # max |U P(0) U* - P_cluster(eps_j)|
    ode_error: float                     # Richardson estimate from step halving
    p0: np.ndarray                       # P(0): the tracked cluster of H0

    @property
    def eps(self) -> float:
        return float(self.eps_grid[-1])

    def transported_coupling(self, h0, psi) -> np.ndarray:
        """V(eps) = U* (H0 + eps Psi) U - H0, from the final unitary."""
        u = self.unitaries[-1]
        h_eps = as_matrix(h0) + self.eps * as_matrix(psi)
        return u.conj().T @ h_eps @ u - as_matrix(h0)


def flow_unitaries(h0, psi, eps: float, window: Window,
                   checkpoints: int = 33, cluster_dim: int | None = None,
                   ode_tol: float = 1e-8) -> FlowResult:
    """Integrate U' = i D(s) U to ``eps`` with RK4, re-unitarizing each step.

    The step count doubles, at most eight times, until two consecutive
    refinements agree to ``ode_tol`` at every checkpoint.  At each
    checkpoint the tracked gap of ``H(s)`` is compared with the filter width
    and the transported projector with the spectral one, both read from the
    eigendecomposition that built the generator there; the cluster projector
    of ``H_0`` is computed once and returned as ``p0``.
    """
    m0, mp = as_matrix(h0), as_matrix(psi)
    if checkpoints % 2 == 0:
        checkpoints += 1
    grid = np.linspace(0.0, eps, checkpoints)

    if cluster_dim is None:
        cluster_dim = kernel_count(eigenvalues(m0))

    # One solve per coupling gives the generator and, at a checkpoint, the
    # tracked gap and the cluster's eigenvectors (n x cluster_dim).
    checkpoint_keys = {round(float(s), 15) for s in grid}
    gen_cache: dict[float, np.ndarray] = {}
    tracked: dict[float, tuple[float, np.ndarray]] = {}

    def gen(s):
        key = round(float(s), 15)
        if key not in gen_cache:
            evals, evecs = diagonalize(m0 + s * mp)
            weight = window.weight(evals[:, None] - evals[None, :])
            gen_cache[key] = _filtered(evals, evecs, mp, weight)
            if key in checkpoint_keys:
                gap = float(evals[cluster_dim] - evals[cluster_dim - 1])
                tracked[key] = (gap, evecs[:, :cluster_dim].copy())
        return gen_cache[key]

    def integrate(substeps):
        dim = m0.shape[0]
        u = np.eye(dim, dtype=complex)
        out = [u.copy()]
        for j in range(checkpoints - 1):
            a, b = grid[j], grid[j + 1]
            h_step = (b - a) / substeps
            for k in range(substeps):
                s = a + k * h_step
                k1 = 1j * gen(s) @ u
                k2 = 1j * gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k1)
                k3 = 1j * gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k2)
                k4 = 1j * gen(s + h_step) @ (u + h_step * k3)
                u = u + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                u = _polar_unitary(u)
            out.append(u.copy())
        return out

    substeps, prev = 1, integrate(1)
    err = np.inf
    for _ in range(8):
        substeps *= 2
        cur = integrate(substeps)
        err = max(operator_norm(c - p) for c, p in zip(cur, prev))
        prev = cur
        if err <= ode_tol:
            break
    else:
        raise RuntimeError(f"flow ODE failed to reach {ode_tol:.1e} (last {err:.1e})")
    unitaries = prev

    generators = [gen(s) for s in grid]
    gaps, vecs = zip(*(tracked[round(float(s), 15)] for s in grid))
    gap_floor = min(gaps)
    if gap_floor < window.gamma:
        raise RuntimeError(
            f"tracked gap {gap_floor:.4f} fell below filter width {window.gamma:.4f}")
    p0 = cluster_projector(m0, cluster_dim)
    drift = max(operator_norm(u @ p0 @ u.conj().T - v @ v.conj().T)
                for u, v in zip(unitaries, vecs))
    return FlowResult(window, grid, unitaries, generators, gap_floor, drift,
                      err, p0)


# ---------------------------------------------------------------------------
# anchored local decomposition of the transported coupling


@dataclass
class Phi1Decomposition:
    lam: Interval
    eps: float
    anchors: dict                        # x -> block-diagonal v_x (ndarray)
    ball_terms: Interaction              # Phi^1(b_x(n)) terms, ball-keyed
    v_true: np.ndarray
    quadrature_residual: float           # |V_true - sum_x v_x| before correction
    cross_residual: float                # |P rho Q + Q rho P| routed to the edge
    max_kernel_commutator: float         # max_x |[P, v_x]| over all anchors


def _simpson_weights(n_points: int, h: float) -> np.ndarray:
    w = np.ones(n_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w * (h / 3.0)


def decompose_phi1(flow: FlowResult, eta: Interaction, psi: Interaction,
                   lam: Interval, p_kernel: np.ndarray,
                   upto: int | None = None) -> Phi1Decomposition:
    """Cut V(eps) into anchored block-diagonal pieces and telescope over balls.

    Each anchor ``x`` receives ``v_x = int_0^eps U(s)* X_x(s) U(s) ds`` with
    ``X_x(s) = psi_x - i [D(s), eta_x + s psi_x]`` (terms grouped by anchor),
    evaluated by composite Simpson on the checkpoint grid.  Off-diagonal
    blocks relative to the kernel projector are removed; the exact remainder
    ``V_true - sum_x v_x`` is re-distributed so that the sum reconstructs
    ``V(eps)`` to rounding: its diagonal blocks uniformly over anchors, its
    off-diagonal blocks entirely to the anchor at the left edge, which later
    falls into the boundary remainder.  Finally every ``v_x`` is telescoped
    into ball increments ``Phi^1(b_x(n))``.

    ``upto`` stops the integral at an earlier checkpoint (an even index, so
    the composite rule stays valid), giving the decomposition at the smaller
    coupling from the same flow.
    """
    if upto is None:
        upto = len(flow.eps_grid) - 1
    if not 0 < upto < len(flow.eps_grid):
        raise ValueError("upto must be a checkpoint index")
    if upto % 2:
        raise ValueError("upto must be even so Simpson panels close")
    h0 = local_hamiltonian(eta, lam)
    hp = local_hamiltonian(psi, lam)
    m0, mp = h0.matrix, hp.matrix
    grid = flow.eps_grid[:upto + 1]
    dim = m0.shape[0]

    eta_anchored = eta.anchored()
    psi_anchored = psi.anchored()
    anchors = sorted(set(eta_anchored) | set(psi_anchored))

    def anchor_matrix(groups, x):
        total = np.zeros((dim, dim), dtype=complex)
        for t in groups.get(x, []):
            total += embed(t.op, lam).matrix
        return total

    eta_x = {x: anchor_matrix(eta_anchored, x) for x in anchors}
    psi_x = {x: anchor_matrix(psi_anchored, x) for x in anchors}

    weights = _simpson_weights(len(grid), grid[1] - grid[0]) if len(grid) > 1 \
        else np.array([0.0])
    v = {x: np.zeros((dim, dim), dtype=complex) for x in anchors}
    for j, (s, u, d_s) in enumerate(zip(grid, flow.unitaries, flow.generators)):
        for x in anchors:
            h_xs = eta_x[x] + s * psi_x[x]
            x_term = psi_x[x] - 1j * (d_s @ h_xs - h_xs @ d_s)
            v[x] += weights[j] * (u.conj().T @ x_term @ u)

    u_end = flow.unitaries[upto]
    eps_at = float(grid[-1])
    v_true = u_end.conj().T @ (m0 + eps_at * mp) @ u_end - m0
    q = np.eye(dim) - p_kernel

    def blockdiag(a):
        return p_kernel @ a @ p_kernel + q @ a @ q

    v_tilde = {x: blockdiag(v[x]) for x in anchors}
    rho = v_true - sum(v_tilde.values())
    quad_res = operator_norm(rho)
    rho_diag = blockdiag(rho)
    rho_cross = rho - rho_diag
    for x in anchors:
        v_tilde[x] = v_tilde[x] + rho_diag / len(anchors)
    edge = min(anchors)
    v_tilde[edge] = v_tilde[edge] + rho_cross

    max_comm = 0.0
    for x in anchors:
        c = p_kernel @ v_tilde[x] - v_tilde[x] @ p_kernel
        max_comm = max(max_comm, operator_norm(c))

    terms = []
    for x in anchors:
        op = LocalOperator(v_tilde[x], lam, lam, kind="spin",
                           local_dim=eta.local_dim)
        _, big_r = boundary_distances(lam, x)
        terms.append(Term(conditional_expectation(op, ball(lam, x, 1)),
                          anchor=x, radius=1))
        for n in range(2, big_r + 1):
            terms.append(Term(delta_layer(op, lam, x, n), anchor=x, radius=n))
    ball_terms = Interaction(terms, kind="spin", local_dim=eta.local_dim,
                             ball_keyed=True)
    return Phi1Decomposition(lam, eps_at, v_tilde, ball_terms, v_true,
                             quad_res, operator_norm(rho_cross), max_comm)


@dataclass
class Phi1Split:
    """Interior/boundary split of the transported coupling."""

    phi_tilde: np.ndarray      # sum of interior anchored pieces
    phi2: np.ndarray           # Q (phi_tilde - omega) Q
    phi3: np.ndarray           # P (phi_tilde - omega) P
    remainder: np.ndarray      # edge-anchored pieces
    omega_value: float
    reconstruction_error: float


def split_phi1(dec: Phi1Decomposition, p_kernel: np.ndarray) -> Phi1Split:
    lam = dec.lam
    inner = interior(lam, 2)
    dim = dec.v_true.shape[0]
    phi_tilde = np.zeros((dim, dim), dtype=complex)
    remainder = np.zeros((dim, dim), dtype=complex)
    for x, vx in dec.anchors.items():
        if inner is not None and x in inner:
            phi_tilde += vx
        else:
            remainder += vx
    rank = np.trace(p_kernel).real
    omega = float((np.trace(p_kernel @ phi_tilde) / rank).real)
    q = np.eye(dim) - p_kernel
    centered = phi_tilde - omega * np.eye(dim)
    phi2 = q @ centered @ q
    phi3 = p_kernel @ centered @ p_kernel
    recon = phi2 + phi3 + omega * np.eye(dim) + remainder - dec.v_true
    return Phi1Split(phi_tilde, phi2, phi3, remainder, omega,
                     operator_norm(recon))


# ---------------------------------------------------------------------------
# interchange of the anchored telescopes with the ball resolution


@dataclass
class ThetaAssembly:
    x: int
    r_x: int
    theta_beta: dict            # n -> Theta_beta^x(n, eps), 3 <= n <= r_x
    theta_alpha: np.ndarray
    identity_error: float       # |Q Phi1_x0 Q - sum Theta_beta - Theta_alpha|
    annihilation_error: float   # max_n |P_{b(x,n)} Theta_beta(n)|


def theta_assembly(dec: Phi1Decomposition,
                   family: ProjectorFamily) -> ThetaAssembly:
    """Regroup ``Q (Phi^1_x)_0 Q`` into ball-localized and boundary parts.

    With ``Phi^1_k = Phi^1(b_x(k)) - omega(Phi^1(b_x(k))) 1`` and the
    resolution ``E_n`` induced by the ball projectors, each ``k <= floor(r_x/2)``
    splits as ``nu(k) + tau(2k) + sum_{n=2k+1}^{r_x} theta(n, k)`` where

        theta(n, k) = E_n Phi^1_k Q_{n-1} + Q_n Phi^1_k E_n,
        tau(2k)     = Q_{2k} Phi^1_k Q_{2k},
        nu(k)       = E_{r_x+1} Phi^1_k Q_{r_x} + Q Phi^1_k E_{r_x+1}.

    Collected by the ball that annihilates them:
    ``Theta_beta(n) = sum_{k <= floor((n-1)/2)} theta(n, k) + tau(n)`` for even
    ``n``, with the stray ``tau(2)`` attached to ``Theta_beta(3)`` (or to the
    alpha part when ``r_x = 2``); everything wider than the largest ball—the
    ``k > floor(r_x/2)`` diagonal pieces and the ``nu(k)``—lands in
    ``Theta_alpha``.  Each ``Theta_beta(n)`` is annihilated by ``P_{b(x,n)}``
    on both sides, which the return value certifies.
    """
    lam, x = family.lam, family.x
    r_x = family.r_x
    _, big_r = boundary_distances(lam, x)
    dim = family.P.shape[0]
    p_full = family.P
    q_full = np.eye(dim) - p_full

    omega_state = p_full / np.trace(p_full).real

    balls = {n: family.locals[n - 1] for n in range(1, r_x + 1)}
    qs = {n: np.eye(dim) - balls[n] for n in range(1, r_x + 1)}
    e = {n + 1: family.E[n] for n in range(len(family.E))}   # E_1 .. E_{r_x+2}

    ball_term = {t.radius: embed(t.op, lam).matrix
                 for t in dec.ball_terms.anchored().get(x, [])}
    phi1 = {}
    for k in range(1, big_r + 1):
        m = ball_term.get(k)
        if m is None:
            m = np.zeros((dim, dim), dtype=complex)
        omega_k = float(np.trace(omega_state @ m).real)
        phi1[k] = m - omega_k * np.eye(dim)

    n_x = r_x // 2
    theta_beta = {n: np.zeros((dim, dim), dtype=complex)
                  for n in range(3, r_x + 1)}
    theta_alpha = np.zeros((dim, dim), dtype=complex)

    for k in range(1, n_x + 1):
        tau = qs[2 * k] @ phi1[k] @ qs[2 * k]
        if 2 * k == 2:
            if r_x >= 3:
                theta_beta[3] += tau
            else:
                theta_alpha += tau
        else:
            theta_beta[2 * k] += tau
        for n in range(2 * k + 1, r_x + 1):
            theta_beta[n] += e[n] @ phi1[k] @ qs[n - 1] + qs[n] @ phi1[k] @ e[n]
        nu = e[r_x + 1] @ phi1[k] @ qs[r_x] + q_full @ phi1[k] @ e[r_x + 1]
        theta_alpha += nu
    for k in range(n_x + 1, big_r + 1):
        theta_alpha += q_full @ phi1[k] @ q_full

    total = sum(phi1.values())
    lhs = q_full @ total @ q_full
    rhs = sum(theta_beta.values()) + theta_alpha if theta_beta else theta_alpha
    id_err = operator_norm(lhs - rhs)

    ann = 0.0
    for n, tb in theta_beta.items():
        ann = max(ann, operator_norm(balls[n] @ tb),
                  operator_norm(tb @ balls[n]))
    return ThetaAssembly(x, r_x, theta_beta, theta_alpha, id_err, ann)
