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

What is computed and stored is the anti-Hermitian generator

    K(s) = i D(s) = -V (wtilde o V* Psi V) V*,      U' = K U,

with ``V`` the eigenvectors of ``H(s)`` and ``o`` the entrywise product.  Its
field follows the inputs: for real symmetric ``H_0`` and ``Psi`` the
eigenvectors are real, ``K`` is real antisymmetric and ``U(s)`` real
orthogonal, so the flow, its polar steps and the anchored decomposition run
in real arithmetic; complex Hermitian inputs run the same code in complex
arithmetic.

The flow runs on the exact parity blocks of ``H_0`` and ``Psi``: the stack
``(k, b, b)`` of ``operator_algebra.parity_sectors``, two blocks of half the
side when both keep fermion parity exactly, and one block holding the whole
matrix otherwise, through the same code.  ``K`` and ``U`` keep the blocks,
so solves, products, polar steps and norms are taken block by block.  The
polar step is a Newton-Schulz product and each norm a values-only
eigensolve (``operator_norm``), so the flow makes no SVD.  The
stack is the one format of the flow's state, which ``FlowResult`` hands on
whole but for ``p0``; the anchored decomposition splits only its terms.

An equivalent time-averaged form is kept for cross-validation:

    D = int_0^inf W(s) [tau_s(Psi) - tau_{-s}(Psi)] ds,
    W(s) = 1/2 - (1/pi) int_0^{gamma/2} beta(w) sin(w s)/w dw,

whose filter identity ``2 int_0^inf W(s) sin(w s) ds = (1 - beta(w))/w`` is
what the quadrature on the one horizon ``[0, 120/gamma]`` has to reproduce.
Both routes are one eigenbasis formula with a weight on ``E_i - E_j``:
``wtilde``, or ``2 Im(Phi diag(c) Phi*)`` from the Heisenberg phases
``Phi_ik = exp(i E_i s_k)`` and ``c_k = W(s_k)`` times the node weight,
formed in real arithmetic.  Both take a decomposition already made, of a
matrix or of each block of a stack.

The transported coupling ``V(s) = U* H(s) U - H_0`` is then cut into anchored,
block-diagonal pieces and telescoped over balls, producing an interaction
whose terms nearly commute with the unperturbed kernel projector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import Interval, ball, boundary_distances, interior
from .interaction import Interaction, Term, local_hamiltonian
from .operator_algebra import (LocalOperator, as_matrix,
                               conditional_expectation, delta_layer,
                               eigenvalues, embed, join_blocks, kernel_count,
                               operator_norm, parity_sectors, split_blocks)
from .spectra import ProjectorFamily, diagonalize


# ---------------------------------------------------------------------------
# filter windows


@dataclass(frozen=True)
class Window:
    """Even filter profile on [-gamma/2, gamma/2] with beta(0) = 1."""

    gamma: float
    kind: str = "bump"   # bump | cosine

    def __post_init__(self):
        if self.kind not in ("bump", "cosine"):
            raise ValueError(f"unknown window kind {self.kind!r}")

    def beta(self, omega):
        """The profile, evaluated only on the arguments inside the window
        (most eigenvalue differences of a chain lie outside it)."""
        omega = np.asarray(omega, dtype=float)
        u = 2.0 * omega / self.gamma
        inside = np.abs(u) < 1.0
        vals = np.zeros_like(u)
        u_in = u[inside]
        if self.kind == "bump":
            vals[inside] = (1.0 - u_in * u_in) ** 8
        else:
            vals[inside] = np.cos(0.5 * np.pi * u_in) ** 2
        return vals if vals.shape else float(vals)

    def weight(self, omega):
        """wtilde(omega) = (1 - beta(omega)) / omega, with wtilde(0) = 0."""
        omega = np.asarray(omega, dtype=float)
        safe = np.where(omega == 0.0, 1.0, omega)
        vals = np.where(omega == 0.0, 0.0, (1.0 - self.beta(omega)) / safe)
        return vals if vals.shape else float(vals)


# ---------------------------------------------------------------------------
# generator, two routes


def eigenbasis_generator(evals, evecs, psi, window: Window) -> np.ndarray:
    """K = i D = -sum_ij wtilde(E_i - E_j) Psi_ij |i><j| from the
    decomposition ``(evals, evecs)`` of H, or of each block of a stack."""
    return _filtered(evals, evecs, psi,
                     window.weight(evals[..., :, None] - evals[..., None, :]))


def _filtered(evals, evecs, psi, weight) -> np.ndarray:
    """-sum_ij weight_ij Psi_ij |i><j|: the real weight keeps the field of
    ``evecs`` and ``psi``."""
    evecs_h = evecs.conj().swapaxes(-1, -2)
    psi_eig = evecs_h @ as_matrix(psi) @ evecs
    psi_eig *= weight
    return -(evecs @ psi_eig @ evecs_h)


@cache
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, solved once
    per node count (each rule is an eigensolve)."""
    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


# Every phase table (node by frequency, or eigenvalue by node) is formed a
# block of at most this many entries at a time: 2 MB of float64.
_PHASE_BLOCK = 1 << 18


def time_weight(s, window: Window):
    """W(s) = 1/2 - (1/pi) int_0^{gamma/2} beta(w) sin(ws)/w dw
    (200-node Gauss-Legendre), for a block of the times ``s`` at a time;
    each time's sum is its own row of the product, so the blocks change no
    bit."""
    x, wq = _gauss_legendre(200)
    half = 0.5 * window.gamma
    nodes = 0.5 * half * (x + 1.0)
    weights = 0.5 * half * wq
    s = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
    kernel = weights * window.beta(nodes) / nodes
    integ = np.empty_like(s)
    rows = _PHASE_BLOCK // nodes.size
    for lo in range(0, s.size, rows):
        integ[lo:lo + rows] = np.einsum(
            "k,sk->s", kernel, np.sin(np.outer(s[lo:lo + rows], nodes)))
    return 0.5 - integ / np.pi


def _time_rule(window: Window, wmax: float):
    """Nodes ``s_k`` and coefficients ``c_k = w_k W(s_k)`` on [0, 120 / gamma]:
    eight Gauss-Legendre nodes per panel, at least six panels per period of
    the fastest frequency ``wmax`` (never fewer than 40)."""
    t_max = 120.0 / window.gamma
    wmax = max(float(wmax), window.gamma)
    return _panel_rule(window, t_max,
                       max(40, int(np.ceil(t_max * wmax * 6 / (2 * np.pi)))))


@cache
def _panel_rule(window: Window, t_max: float, n_panels: int):
    """The rule on ``n_panels`` panels, read-only, formed once."""
    x, wq = _gauss_legendre(8)
    edges = np.linspace(0.0, t_max, n_panels + 1)
    mids, halfw = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s_pts = (mids[:, None] + halfw[:, None] * x[None, :]).ravel()
    coeff = (halfw[:, None] * wq[None, :]).ravel() * time_weight(s_pts, window)
    for a in (s_pts, coeff):
        a.flags.writeable = False
    return s_pts, coeff


def filter_identity_residual(window: Window, omegas):
    """Max error of the s-quadrature of 2 int W(s) sin(ws) ds vs (1-beta(w))/w.

    The sines of the phases ``s_k w`` are formed for a block of frequencies
    at a time, at most ``_PHASE_BLOCK`` entries, and each block is one
    product with the coefficients."""
    omegas = np.asarray(omegas, dtype=float).ravel()
    s_pts, coeff = _time_rule(window, np.max(np.abs(omegas)))
    lhs = np.empty_like(omegas)
    cols = max(1, _PHASE_BLOCK // s_pts.size)
    for lo in range(0, omegas.size, cols):
        phase = np.outer(s_pts, omegas[lo:lo + cols])
        lhs[lo:lo + cols] = 2.0 * (coeff @ np.sin(phase, out=phase))
    rhs = window.weight(omegas)
    return float(np.max(np.abs(lhs - rhs)))


def time_quadrature_generator(evals, evecs, psi,
                              window: Window) -> np.ndarray:
    """K = i int_0^T W(s)[tau_s(Psi) - tau_{-s}(Psi)] ds as a phase product,
    from the decomposition ``(evals, evecs)`` of H, or of each block of a
    stack (the panels resolve the spread of the whole spectrum).

    The weight ``2 Im(Phi diag(c) Phi*)`` is formed in real arithmetic as
    ``2 (A - A^T)`` with ``A = (sin(E s) o c) cos(E s)^T``, summed over
    blocks of nodes: each block's phases, at most ``_PHASE_BLOCK`` of them,
    are turned into ``sin(E s) o c`` in place, so two block-sized phase
    arrays are the largest temporaries.
    """
    s_pts, coeff = _time_rule(window, np.ptp(evals))
    step = max(1, _PHASE_BLOCK // evals.size)
    a = 0.0
    for lo in range(0, s_pts.size, step):
        sin = evals[..., :, None] * s_pts[lo:lo + step]
        cos = np.cos(sin)
        np.sin(sin, out=sin)
        sin *= coeff[lo:lo + step]
        a = a + sin @ cos.swapaxes(-1, -2)
    return _filtered(evals, evecs, psi, 2.0 * (a - a.swapaxes(-1, -2)))


def _polar_unitary(u: np.ndarray) -> np.ndarray:
    """The unitary polar factor of a near-unitary matrix or block stack, by
    the Newton-Schulz iteration ``U <- U - U (U* U - 1) / 2``.

    Each step keeps the singular vectors and maps a singular value
    ``sqrt(1 + e)`` to one with ``s^2 = 1 - 3 e^2 / 4 + O(e^3)``, so from a
    defect ``|U* U - 1| < 1`` it converges quadratically to the factor an
    SVD gives (Higham, Functions of Matrices, 2008, 8.3).  Outside that
    radius it may converge to another factor (``2 I`` goes to ``-I``), so a
    first Frobenius defect of 1/2 or more is refused.  It stops after the
    step fed by a defect of at most 1e-8, which leaves one below rounding.
    """
    eye = np.eye(u.shape[-1])
    for step in range(8):
        defect = u.conj().swapaxes(-1, -2) @ u - eye
        size = float(np.linalg.norm(defect))
        if step == 0 and not size < 0.5:
            raise RuntimeError(
                f"polar step not certified: defect {size:.2e} is not below 0.5")
        u = u - 0.5 * (u @ defect)
        if size <= 1e-8:
            return u
    raise RuntimeError(f"polar step did not converge (last defect {size:.2e})")


def _cluster(evals, evecs, dim: int):
    """The gap above the ``dim`` lowest eigenvalues of a block stack's
    merged spectrum, and each block's share of their eigenvectors."""
    merged = np.sort(evals, axis=None)
    lowest = np.argsort(evals, axis=None, kind="stable")[:dim]
    counts = np.bincount(lowest // evals.shape[-1], minlength=len(evals))
    return (float(merged[dim] - merged[dim - 1]),
            [v[:, :c].copy() for v, c in zip(evecs, counts)])


def _projector(vecs) -> np.ndarray:
    """The block stack of projectors onto each block's vectors."""
    return np.stack([v @ v.conj().T for v in vecs])


# ---------------------------------------------------------------------------
# the flow ODE


@dataclass
class FlowResult:
    """Block stacks ``(k, b, b)`` on ``sectors``, but for the whole ``p0``."""

    window: Window
    eps_grid: np.ndarray                 # checkpoint couplings, uniform, odd count
    sectors: list[np.ndarray]            # parity_sectors(H0, Psi)
    h0: np.ndarray                       # H0, as a block stack
    psi: np.ndarray                      # Psi, as a block stack
    unitaries: list[np.ndarray]          # U(eps_j)
    generators: list[np.ndarray]         # K(eps_j) = i D(eps_j), in the
                                         # field of H0 and Psi
    gap_floor: float                     # smallest tracked gap met on the grid
    projector_drift: float               # max |U P(0) U* - P_cluster(eps_j)|
    ode_error: float                     # Richardson estimate from step halving
    p0: np.ndarray                       # P(0): the tracked cluster of H0, whole
    end_spectra: tuple                   # (evals, evecs) stacks of H(0) and
                                         # H(eps), behind generators[0], [-1]

    @property
    def eps(self) -> float:
        return float(self.eps_grid[-1])


def flow_unitaries(h0, psi, eps: float, window: Window,
                   checkpoints: int = 33, cluster_dim: int | None = None,
                   ode_tol: float = 1e-8) -> FlowResult:
    """Integrate U' = K(s) U to ``eps`` with RK4, re-unitarizing each step
    by the Newton-Schulz polar step of ``_polar_unitary`` (the RK4 step
    leaves ``U`` unitary to rounding, so one step of two products suffices;
    a defect outside its radius is a ``RuntimeError``).

    The step count doubles, at most eight times, until two consecutive
    refinements agree to ``ode_tol`` at every checkpoint.  The first pair,
    one and two steps per checkpoint interval, runs in lockstep: both cross
    one interval before either starts the next, and each generator off the
    checkpoint grid is dropped once both have read it.  A further refinement
    integrates only the finer count, against the unitaries kept from the
    last, and solves its generators off the grid afresh.  At each
    checkpoint the tracked gap of ``H(s)`` is compared with the filter width
    and the transported projector with the spectral one, both read from the
    eigendecomposition that built the generator there, and ``p0``, the
    cluster projector of ``H_0``, from the one at s = 0.  The unitaries are
    real orthogonal when ``h0`` and ``psi`` are real.

    The flow runs on the block stack of ``parity_sectors(h0, psi)`` (one
    block when either mixes parity): every solve, product, polar step and
    norm is taken block by block (a norm as the largest over blocks), the
    tracked gap and cluster come from the merged block spectra, and the
    result keeps the stacks; only ``p0`` is joined.
    """
    m0, mp = as_matrix(h0), as_matrix(psi)
    if checkpoints % 2 == 0:
        checkpoints += 1
    grid = np.linspace(0.0, eps, checkpoints)

    if cluster_dim is None:
        cluster_dim = kernel_count(eigenvalues(m0))
    sectors = parity_sectors(m0, mp)
    b0, bp = split_blocks(m0, sectors), split_blocks(mp, sectors)

    # One solve per coupling gives the generator and, at a checkpoint, the
    # tracked gap and each block's cluster eigenvectors; the solves at both
    # ends are kept.
    checkpoint_keys = {round(float(s), 15) for s in grid}
    end_keys = (round(float(grid[0]), 15), round(float(grid[-1]), 15))
    gen_cache: dict[float, np.ndarray] = {}
    tracked: dict[float, tuple[float, list]] = {}
    ends: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def gen(s):
        key = round(float(s), 15)
        if key not in gen_cache:
            evals, evecs = diagonalize(b0 + s * bp)
            gen_cache[key] = eigenbasis_generator(evals, evecs, bp, window)
            if key in checkpoint_keys:
                tracked[key] = _cluster(evals, evecs, cluster_dim)
            if key in end_keys:
                ends[key] = (evals, evecs)
        return gen_cache[key]

    def advance(u, j, substeps):
        """U at checkpoint j + 1 from U at checkpoint j."""
        a, b = grid[j], grid[j + 1]
        h_step = (b - a) / substeps
        for k in range(substeps):
            s = a + k * h_step
            k1 = gen(s) @ u
            k2 = gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k1)
            k3 = gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k2)
            k4 = gen(s + h_step) @ (u + h_step * k3)
            u = u + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            u = _polar_unitary(u)
        return u

    def drop_off_grid():
        for key in [key for key in gen_cache if key not in checkpoint_keys]:
            del gen_cache[key]

    n_blocks, side = b0.shape[:2]
    u0 = np.broadcast_to(np.eye(side, dtype=gen(grid[0]).dtype),
                         (n_blocks, side, side)).copy()
    coarse, fine, prev, err = u0, u0, [u0], 0.0
    for j in range(checkpoints - 1):
        coarse = advance(coarse, j, 1)
        fine = advance(fine, j, 2)
        drop_off_grid()
        prev.append(fine)
        err = max(err, operator_norm(fine - coarse))
    substeps = 2
    while not err <= ode_tol and substeps < 256:
        substeps *= 2
        u, cur, err = u0, [u0], 0.0
        for j in range(checkpoints - 1):
            u = advance(u, j, substeps)
            drop_off_grid()
            cur.append(u)
            err = max(err, operator_norm(u - prev[j + 1]))
        prev = cur
    if not err <= ode_tol:
        raise RuntimeError(f"flow ODE failed to reach {ode_tol:.1e} (last {err:.1e})")

    gaps, vecs = zip(*(tracked[round(float(s), 15)] for s in grid))
    gap_floor = min(gaps)
    if gap_floor < window.gamma:
        raise RuntimeError(
            f"tracked gap {gap_floor:.4f} fell below filter width {window.gamma:.4f}")
    p0 = _projector(vecs[0])
    drift = max(operator_norm(u @ p0 @ u.conj().swapaxes(-1, -2)
                              - _projector(v)) for u, v in zip(prev, vecs))
    return FlowResult(window, grid, sectors, b0, bp, prev,
                      [gen(s) for s in grid], gap_floor, drift, err,
                      join_blocks(p0, sectors),
                      tuple(ends[key] for key in end_keys))


# ---------------------------------------------------------------------------
# anchored local decomposition of the transported coupling


@dataclass
class Phi1Decomposition:
    lam: Interval
    eps: float
    anchors: dict                        # x -> block-diagonal v_x (ndarray)
    v_true: np.ndarray
    quadrature_residual: float           # |V_true - sum_x v_x| before correction
    cross_residual: float                # |P rho Q + Q rho P| routed to the edge
    max_kernel_commutator: float         # max_x |[P, v_x]| over all anchors
    local_dim: int

    @cached_property
    def ball_terms(self) -> Interaction:
        """Phi^1(b_x(n)) terms, ball-keyed, built when first read."""
        terms = []
        for x, piece in self.anchors.items():
            op = LocalOperator(piece, self.lam, self.lam, kind="spin",
                               local_dim=self.local_dim)
            _, big_r = boundary_distances(self.lam, x)
            terms.append(Term(conditional_expectation(op,
                                                      ball(self.lam, x, 1)),
                              anchor=x, radius=1))
            for n in range(2, big_r + 1):
                terms.append(Term(delta_layer(op, self.lam, x, n), anchor=x,
                                  radius=n))
        return Interaction(terms, kind="spin", local_dim=self.local_dim,
                           ball_keyed=True)


def _simpson_weights(n_points: int, h: float) -> np.ndarray:
    w = np.ones(n_points)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w * (h / 3.0)


def decompose_phi1(flow: FlowResult, eta: Interaction, psi: Interaction,
                   lam: Interval,
                   uptos: list[int] | None = None) -> list[Phi1Decomposition]:
    """Cut V(eps) into anchored block-diagonal pieces and telescope over balls.

    ``eta`` and ``psi`` give the flow's ``H_0`` and ``Psi`` on ``lam``.
    Each anchor ``x`` receives ``v_x = int_0^eps U(s)* X_x(s) U(s) ds`` with
    ``X_x(s) = psi_x - [K(s), eta_x + s psi_x]`` (terms grouped by anchor),
    evaluated by composite Simpson on the checkpoint grid, in the field of
    the flow and the anchored terms.  Off-diagonal blocks relative to the
    kernel projector ``flow.p0`` are removed; the exact remainder
    ``V_true - sum_x v_x`` is re-distributed so that the sum reconstructs
    ``V(eps)`` to rounding: its diagonal blocks uniformly over anchors, its
    off-diagonal blocks entirely to the anchor at the left edge, which later
    falls into the boundary remainder.  Every ``v_x`` telescopes into ball
    increments ``Phi^1(b_x(n))`` (``ball_terms``).

    ``uptos`` lists checkpoint indices (even, so the composite rule closes)
    at which the integral stops, default the last; one decomposition per
    index is returned, in that order.  The integrand is evaluated once per
    checkpoint up to the largest index, and the Simpson sum at each index is
    kept as it passes.  All of it runs on the flow's block stacks; the
    anchored terms are split on its sectors (``ValueError`` if they break
    them), and only ``v_x`` and ``V_true`` are joined.
    """
    last_index = len(flow.eps_grid) - 1
    uptos = [last_index] if uptos is None else [int(u) for u in uptos]
    for upto in uptos:
        if not 0 < upto <= last_index:
            raise ValueError("upto must be a checkpoint index")
        if upto % 2:
            raise ValueError("upto must be even so Simpson panels close")
    last = max(uptos)
    grid = flow.eps_grid[:last + 1]

    eta_anchored = eta.anchored()
    psi_anchored = psi.anchored()
    anchors = sorted(set(eta_anchored) | set(psi_anchored))

    def anchor_matrix(phi, groups, x):
        return local_hamiltonian(replace(phi, terms=groups.get(x, [])),
                                 lam).matrix

    eta_x = {x: anchor_matrix(eta, eta_anchored, x) for x in anchors}
    psi_x = {x: anchor_matrix(psi, psi_anchored, x) for x in anchors}
    sectors = flow.sectors
    if len(parity_sectors(*eta_x.values(), *psi_x.values())) < len(sectors):
        raise ValueError("anchored terms break the parity blocks of the flow")
    eta_x = {x: split_blocks(m, sectors) for x, m in eta_x.items()}
    psi_x = {x: split_blocks(m, sectors) for x, m in psi_x.items()}
    b0, bp, p = flow.h0, flow.psi, split_blocks(flow.p0, sectors)
    q = np.eye(p.shape[-1]) - p

    # the Simpson sum up to each requested index: the running sum of the
    # rule on the whole grid, plus the end-point weight at that index
    weights = _simpson_weights(len(grid), grid[1] - grid[0])
    stops = set(uptos)
    v = dict.fromkeys(anchors, 0.0)
    sums = {}
    for j, (s, u, k_s) in enumerate(zip(grid, flow.unitaries,
                                        flow.generators)):
        u_h = u.conj().swapaxes(-1, -2)
        closing = {}
        for x in anchors:
            h_xs = eta_x[x] + s * psi_x[x]
            x_term = psi_x[x] - (k_s @ h_xs - h_xs @ k_s)
            f = u_h @ x_term @ u
            if j in stops:
                closing[x] = v[x] + weights[0] * f
            v[x] = v[x] + weights[j] * f
        if closing:
            sums[j] = closing

    def blockdiag(a):
        return p @ a @ p + q @ a @ q

    def decomposition(upto):
        u_end = flow.unitaries[upto]
        eps_at = float(grid[upto])
        v_true = u_end.conj().swapaxes(-1, -2) @ (b0 + eps_at * bp) @ u_end \
            - b0
        v_tilde = {x: blockdiag(sums[upto][x]) for x in anchors}
        rho = v_true - sum(v_tilde.values())
        quad_res = operator_norm(rho)
        rho_diag = blockdiag(rho)
        rho_cross = rho - rho_diag
        for x in anchors:
            v_tilde[x] = v_tilde[x] + rho_diag / len(anchors)
        edge = min(anchors)
        v_tilde[edge] = v_tilde[edge] + rho_cross
        max_comm = max(operator_norm(p @ v_tilde[x] - v_tilde[x] @ p)
                       for x in anchors)
        return Phi1Decomposition(
            lam, eps_at, {x: join_blocks(v_tilde[x], sectors) for x in anchors},
            join_blocks(v_true, sectors), quad_res, operator_norm(rho_cross),
            max_comm, eta.local_dim)

    return [decomposition(upto) for upto in uptos]


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
    phi_tilde = remainder = np.zeros((dim, dim))
    for x, vx in dec.anchors.items():
        if inner is not None and x in inner:
            phi_tilde = phi_tilde + vx
        else:
            remainder = remainder + vx
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
            m = np.zeros((dim, dim))
        omega_k = float(np.trace(omega_state @ m).real)
        phi1[k] = m - omega_k * np.eye(dim)

    n_x = r_x // 2
    theta_beta = {n: np.zeros((dim, dim)) for n in range(3, r_x + 1)}
    theta_alpha = np.zeros((dim, dim))

    for k in range(1, n_x + 1):
        tau = qs[2 * k] @ phi1[k] @ qs[2 * k]
        if 2 * k == 2:
            if r_x >= 3:
                theta_beta[3] = theta_beta[3] + tau
            else:
                theta_alpha = theta_alpha + tau
        else:
            theta_beta[2 * k] = theta_beta[2 * k] + tau
        for n in range(2 * k + 1, r_x + 1):
            theta_beta[n] = theta_beta[n] + (e[n] @ phi1[k] @ qs[n - 1]
                                             + qs[n] @ phi1[k] @ e[n])
        nu = e[r_x + 1] @ phi1[k] @ qs[r_x] + q_full @ phi1[k] @ e[r_x + 1]
        theta_alpha = theta_alpha + nu
    for k in range(n_x + 1, big_r + 1):
        theta_alpha = theta_alpha + q_full @ phi1[k] @ q_full

    total = sum(phi1.values())
    lhs = q_full @ total @ q_full
    rhs = sum(theta_beta.values()) + theta_alpha if theta_beta else theta_alpha
    id_err = operator_norm(lhs - rhs)

    ann = 0.0
    for n, tb in theta_beta.items():
        ann = max(ann, operator_norm(balls[n] @ tb),
                  operator_norm(tb @ balls[n]))
    return ThetaAssembly(x, r_x, theta_beta, theta_alpha, id_err, ann)
