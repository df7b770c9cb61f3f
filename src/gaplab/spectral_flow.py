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

The flow runs on the parity blocks of ``H_0`` and ``Psi``, the stack
``(k, b, b)`` that ``interaction.charge_stack`` assembles from the terms:
two blocks of half the side when every term keeps the fermion parity at
local dimension 2, one block holding the whole matrix otherwise.  ``K`` and
``U`` keep the blocks, so solves, products, polar steps and norms are taken
block by block.  The polar step is a Newton-Schulz product and each norm a
values-only eigensolve (``operator_norm``), so the flow makes no SVD.  The
stack is the one format of the flow's state and of everything built on it:
the anchored decomposition, its interior split, the ball resolutions and
the collected pieces, each assembled by ``charge_stack`` at the flow's
modulus.  Only the ball telescope joins a piece, since a partial trace
needs the whole matrix.

An equivalent time-averaged form is kept for cross-validation:

    D = int_0^inf W(s) [tau_s(Psi) - tau_{-s}(Psi)] ds,
    W(s) = 1/2 - (1/pi) int_0^{gamma/2} beta(w) sin(w s)/w dw,

whose filter identity ``2 int_0^inf W(s) sin(w s) ds = (1 - beta(w))/w`` is
what the quadrature on the one horizon ``[0, 120/gamma]`` has to reproduce.
Both routes are one eigenbasis formula with a weight on ``E_i - E_j``:
``wtilde``, or ``2 Im(Phi diag(c) Phi*)`` from the Heisenberg phases
``Phi_ik = exp(i E_i s_k)`` and ``c_k = W(s_k)`` times the node weight,
formed in real arithmetic.  Both take a decomposition already made, of a
matrix or of each block of a stack.  The rule is held as panels x offsets:
eight Gauss-Legendre nodes ``s = m_p + delta_q`` on each panel, with the
panels' midpoints ``m_p`` and the offsets ``delta_q`` shared by all panels,
so a phase ``E s`` comes by angle addition from ``E m_p`` and
``E delta_q``, and only those take a sine and a cosine; so do the phases of
``W``'s own integral, at each node.

Along the flow the transported projector ``U P(0) U*`` is compared with
the spectral one ``P(s)`` at each checkpoint through their frames alone:
for orthogonal projectors ``|P - Q| = max(|(1 - P) Q|, |(1 - Q) P|)``
(Kato, Perturbation Theory for Linear Operators, I.6.8), and with ``V0``
and ``V`` the orthonormal cluster eigenvectors and ``W = U V0`` the two
terms are ``|W - V (V* W)|`` and ``|V - W (W* V)|``.

The transported coupling ``V(s) = U* H(s) U - H_0`` is then cut into anchored,
block-diagonal pieces and telescoped over balls, producing an interaction
whose terms nearly commute with the unperturbed kernel projector.  With
``h_x(r) = eta_x + r psi_x`` the terms anchored at ``x``, the piece
``int_0^s U* (psi_x - [K, h_x]) U dr`` of the integral form is exactly
``U(s)* h_x(s) U(s) - h_x(0)``, because ``U' = K U`` and ``K* = -K`` make
the integrand ``d/dr U* h_x U``; so the pieces are read off the unitary the
flow keeps at each coupling asked for, and nothing is integrated along the
flow but ``U`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .lattice import Interval, ball, boundary_distances, interior
from .interaction import Interaction, Term, charge_stack
from .operator_algebra import (LocalOperator, charge_sectors,
                               conditional_expectation, conserved_modulus,
                               delta_layer, join_blocks, operator_norm)
from .spectra import (ProjectorFamily, cluster_projector, diagonalize,
                      kernel_cluster)


# ---------------------------------------------------------------------------
# filter windows


@dataclass(frozen=True)
class Window:
    """Even C^7 filter profile ``(1 - u^2)^8``, ``u = 2 omega / gamma``, on
    [-gamma/2, gamma/2], with beta(0) = 1; arrays in, arrays out."""

    gamma: float

    def beta(self, omega):
        """The profile, evaluated only on the arguments inside the window
        (most eigenvalue differences of a chain lie outside it)."""
        omega = np.asarray(omega, dtype=float)
        u = 2.0 * omega / self.gamma
        inside = np.abs(u) < 1.0
        vals = np.zeros_like(u)
        u_in = u[inside]
        vals[inside] = (1.0 - u_in * u_in) ** 8
        return vals

    def weight(self, omega):
        """wtilde(omega) = (1 - beta(omega)) / omega, with wtilde(0) = 0."""
        omega = np.asarray(omega, dtype=float)
        safe = np.where(omega == 0.0, 1.0, omega)
        return np.where(omega == 0.0, 0.0, (1.0 - self.beta(omega)) / safe)


# ---------------------------------------------------------------------------
# generator, two routes


def eigenbasis_generator(evals, evecs, psi, window: Window) -> np.ndarray:
    """K = i D = -sum_ij wtilde(E_i - E_j) Psi_ij |i><j| from the
    decomposition ``(evals, evecs)`` of H, or of each block of a stack."""
    return _filtered(evecs, psi,
                     window.weight(evals[..., :, None] - evals[..., None, :]))


def _filtered(evecs, psi, weight) -> np.ndarray:
    """-sum_ij weight_ij Psi_ij |i><j|: the real weight keeps the field of
    ``evecs`` and ``psi``."""
    evecs_h = evecs.conj().swapaxes(-1, -2)
    psi_eig = evecs_h @ psi @ evecs
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


# Every phase table (time by Legendre node, frequency by panel, or
# eigenvalue by panel) is formed a block of at most an eighth of this many
# entries at a time: 256 KB of float64.
_PHASE_BLOCK = 1 << 18


def _panel_weights(mids, offsets, window: Window) -> np.ndarray:
    """W(m_p + delta_q) = 1/2 - (1/pi) sum_k kappa_k sin(nu_k (m_p + delta_q))
    on the 200-node Gauss-Legendre rule ``nu_k, kappa_k`` of
    ``int_0^{gamma/2} beta(w) sin(ws)/w dw``, of shape (panels, offsets),
    by angle addition:

        W = 1/2 - (1/pi) [(sin(m nu) o kappa) cos(delta nu)^T
                          + (cos(m nu) o kappa) sin(delta nu)^T],

    so only the phases ``m_p nu_k`` and ``delta_q nu_k`` take a sine and a
    cosine.  The panels' tables are formed a block of rows at a time, at
    most ``_PHASE_BLOCK / 8`` entries, and each row is summed on its own
    (``einsum``), so the blocks change no bit."""
    x, wq = _gauss_legendre(200)
    half = 0.5 * window.gamma
    nodes = 0.5 * half * (x + 1.0)
    kernel = 0.5 * half * wq * window.beta(nodes) / nodes
    shift = np.outer(offsets, nodes)
    cos_d, sin_d = np.cos(shift), np.sin(shift)
    integ = np.empty((mids.size, offsets.size))
    rows = max(1, _PHASE_BLOCK // 8 // nodes.size)
    for lo in range(0, mids.size, rows):
        sin = np.outer(mids[lo:lo + rows], nodes)
        cos = np.cos(sin)
        np.sin(sin, out=sin)
        sin *= kernel
        cos *= kernel
        integ[lo:lo + rows] = np.einsum("pk,qk->pq", sin, cos_d) \
            + np.einsum("pk,qk->pq", cos, sin_d)
    return 0.5 - integ / np.pi


def _time_rule(window: Window, wmax: float):
    """The rule on [0, 120 / gamma] as ``_panel_rule`` gives it: eight
    Gauss-Legendre nodes per panel, at least six panels per period of the
    fastest frequency ``wmax`` (never fewer than 40)."""
    t_max = 120.0 / window.gamma
    wmax = max(float(wmax), window.gamma)
    return _panel_rule(window, t_max,
                       max(40, int(np.ceil(t_max * wmax * 6 / (2 * np.pi)))))


@cache
def _panel_rule(window: Window, t_max: float, n_panels: int):
    """The rule on ``n_panels`` panels of one half-width
    ``h = t_max / (2 n_panels)`` as panels x offsets, read-only, formed
    once: the midpoints ``m_p = (2p + 1) h``, the offsets ``delta_q = h x_q``
    of the eight Gauss-Legendre nodes ``x_q``, and the coefficients
    ``c_pq = h w_q W(m_p + delta_q)``, of shape (n_panels, 8), with ``W``
    by angle addition (``_panel_weights``): no node ``s = m_p + delta_q``
    is formed."""
    x, wq = _gauss_legendre(8)
    half = t_max / (2 * n_panels)
    mids = (2 * np.arange(n_panels) + 1) * half
    offsets = half * x
    coeff = (half * wq) * _panel_weights(mids, offsets, window)
    for a in (mids, offsets, coeff):
        a.flags.writeable = False
    return mids, offsets, coeff


def filter_identity_residual(window: Window, omegas):
    """Max error of the s-quadrature of 2 int W(s) sin(ws) ds vs (1-beta(w))/w.

    With the rule as panels x offsets, ``sin(w (m + delta))`` is split by
    angle addition, so the left side is

        2 sum_q [cos(w delta_q) (sin(w m) c)_q + sin(w delta_q) (cos(w m) c)_q]

    and only the panels' phases ``w m_p`` take a sine and a cosine.  They
    are formed for a block of frequencies at a time, a table of at most
    ``_PHASE_BLOCK / 8`` entries, and each block is its own two products
    with the coefficients."""
    omegas = np.asarray(omegas, dtype=float).ravel()
    mids, offsets, coeff = _time_rule(window, np.max(np.abs(omegas)))
    lhs = np.empty_like(omegas)
    cols = max(1, _PHASE_BLOCK // 8 // mids.size)
    for lo in range(0, omegas.size, cols):
        sin = np.outer(omegas[lo:lo + cols], mids)
        cos = np.cos(sin)
        np.sin(sin, out=sin)
        shift = np.outer(omegas[lo:lo + cols], offsets)
        lhs[lo:lo + cols] = 2.0 * np.sum(np.cos(shift) * (sin @ coeff)
                                         + np.sin(shift) * (cos @ coeff),
                                         axis=1)
    rhs = window.weight(omegas)
    return float(np.max(np.abs(lhs - rhs)))


def time_quadrature_generator(evals, evecs, psi,
                              window: Window) -> np.ndarray:
    """K = i int_0^T W(s)[tau_s(Psi) - tau_{-s}(Psi)] ds as a phase product,
    from the decomposition ``(evals, evecs)`` of H, or of each block of a
    stack (the panels resolve the spread of the whole spectrum).

    The weight ``2 Im(Phi diag(c) Phi*)`` is formed in real arithmetic as
    ``2 (A - A^T)`` with ``A = sum_q (x_q o c_q) y_q^T``, one block of a
    stack at a time.  The phases of node ``m_p + delta_q`` come by angle
    addition from those of the panels and the offsets, by row scaling:

        x_q = sin(E m) o cos(E delta_q) + cos(E m) o sin(E delta_q),
        y_q = cos(E m) o cos(E delta_q) - sin(E m) o sin(E delta_q),

    so the products are those of the node rule, but only ``E m`` and
    ``E delta`` take a sine and a cosine.  ``A`` is summed over blocks of
    panels, each table (eigenvalue by panel) at most ``_PHASE_BLOCK / 8``
    entries.
    """
    mids, offsets, coeff = _time_rule(window, np.ptp(evals))
    n = evals.shape[-1]
    step = max(1, _PHASE_BLOCK // 8 // n)
    weight = np.empty(evals.shape + (n,))
    for block, block_evals in zip(weight.reshape(-1, n, n),
                                  evals.reshape(-1, n)):
        shift = np.outer(block_evals, offsets)
        cos_d, sin_d = np.cos(shift), np.sin(shift)
        a = 0.0
        for lo in range(0, mids.size, step):
            sin = np.outer(block_evals, mids[lo:lo + step])
            cos = np.cos(sin)
            np.sin(sin, out=sin)
            for q in range(offsets.size):
                x = sin * cos_d[:, q, None] + cos * sin_d[:, q, None]
                y = cos * cos_d[:, q, None] - sin * sin_d[:, q, None]
                x *= coeff[lo:lo + step, q]
                a = a + x @ y.T
        np.multiply(2.0, a - a.T, out=block)
    return _filtered(evecs, psi, weight)


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


def _hermite_midpoint(start, end, h: float) -> np.ndarray:
    """``U`` halfway across a step of length ``h`` whose ends are the
    pairs ``(U, K U)`` ``start`` and ``end``, read off their cubic Hermite
    interpolant, ``(U_a + U_b) / 2 + (h / 8) (K_a U_a - K_b U_b)`` (dense
    output; Hairer, Norsett and Wanner, Solving ODEs I, II.6), and made
    unitary by the polar step."""
    (u_a, du_a), (u_b, du_b) = start, end
    return _polar_unitary(0.5 * (u_a + u_b) + (h / 8.0) * (du_a - du_b))


def _frame_drift(u, frames0, frames) -> float:
    """``|U P0 U* - P|`` of a block stack from the cluster frames alone:
    ``P0`` and ``P`` project onto each block's orthonormal columns
    ``frames0`` and ``frames``, of any ranks, empty ones too.  For
    orthogonal projectors ``|P - Q| = max(|(1 - P) Q|, |(1 - Q) P|)``
    (Kato, Perturbation Theory for Linear Operators, I.6.8), so with
    ``W = U V0`` each block's is ``max(|W - V (V* W)|, |V - W (W* V)|)``,
    the norms of two matrices of the frames' width."""
    drift = 0.0
    for u_b, v0, v in zip(u, frames0, frames):
        w = u_b @ v0
        drift = max(drift, operator_norm(w - v @ (v.conj().T @ w)),
                    operator_norm(v - w @ (w.conj().T @ v)))
    return drift


# ---------------------------------------------------------------------------
# the flow ODE


@dataclass
class FlowResult:
    """What the flow fixed and what its accepted pass measured, as block
    stacks ``(k, b, b)`` on ``sectors``, the ``charge_sectors`` of the
    volume at ``modulus``: 2, the parity sectors, even first, or 1, one
    sector.  ``unitaries`` holds the accepted pass's ``U(s_j)`` at the
    checkpoint indices ``j`` the caller asked for; no other checkpoint's
    ``U`` and no checkpoint's ``K`` is kept, but the generators at both
    ends, which travel with ``end_spectra``.  The tracked cluster at each
    checkpoint, the gap above it and its frames, is
    ``spectra.cluster_projector``'s, so ``p0``, ``gap_floor`` and
    ``projector_drift`` all read the one cluster rule."""

    eps_grid: np.ndarray                 # checkpoint couplings, uniform
    sectors: list[np.ndarray]            # the index sets of the blocks
    modulus: int                         # their charge_blocks modulus
    h0: np.ndarray                       # H0, as a block stack
    psi: np.ndarray                      # Psi, as a block stack
    p0: np.ndarray                       # P(0): the tracked cluster of H0
    unitaries: dict                      # j -> U(s_j) (stack), kept indices
    gap_floor: float                     # smallest tracked gap met on the grid
    projector_drift: float               # max |U P(0) U* - P_cluster(eps_j)|,
                                         # from the cluster frames
    ode_error: float                     # Richardson estimate: the largest
                                         # kept - partner chain where they
                                         # are compared, a partner read off
                                         # its Hermite interpolant included
    end_spectra: tuple                   # (evals, evecs, K) stacks of H(0)
                                         # and H(eps) and their generators

    @property
    def eps(self) -> float:
        return float(self.eps_grid[-1])


def flow_unitaries(eta: Interaction, psi: Interaction, lam: Interval,
                   eps: float, window: Window, checkpoints: int,
                   ode_tol: float, keep=()) -> FlowResult:
    """Integrate U' = K(s) U to ``eps`` with RK4, re-unitarizing each step
    by the Newton-Schulz polar step of ``_polar_unitary`` (the RK4 step
    leaves ``U`` unitary to rounding, so one step of two products suffices;
    a defect outside its radius is a ``RuntimeError``).

    Each pass runs a kept chain and a partner chain of steps twice as long
    in lockstep: both cross one span before either starts the next, and
    their largest difference where they are compared is the Richardson
    estimate (step doubling; Hairer, Norsett and Wanner, Solving ODEs I,
    II.4).  The first pass is the coarsest pair whose partner lands on the
    end.  When 4 divides the count ``M`` of checkpoint intervals it pairs
    steps across two intervals with steps across four, a span of four
    intervals, so every stage of both chains falls on a checkpoint and the
    pass solves the ``M + 1`` checkpoint generators and no other.  The kept
    chain reads each odd checkpoint off the cubic Hermite interpolant of
    its two neighbouring landings and their ``K U``, the ``k1`` of the next
    step (dense output; ibid., II.6), and the chains are compared at every
    even checkpoint, the partner read off its own interpolant at ``2 (mod
    4)``, so the estimate covers the readout too.  When only 2 divides
    ``M`` the first pass pairs one step per interval with one across two,
    compared at every even checkpoint (``2M + 1`` solves); with an odd
    ``M``, whose end a step across two intervals cannot reach, it pairs one
    with two steps per interval (``4M + 1``).  Each later pass pairs ``n``
    with ``2n`` steps per interval, ``n`` doubling from 1, until the
    estimate is within ``ode_tol`` or the kept chain takes 256 steps per
    interval; from ``n = 1`` the kept chain lands on every checkpoint.  A
    pass holds the generators of the span it crosses and drops them, those
    at the span's start too, once both chains have crossed it (a node of
    the first pass that only the kept chain reads, as soon as it has), so a
    later pass forms its generators afresh, at the two ends from the
    decompositions kept there.  At each checkpoint the tracked gap of
    ``H(s)`` is compared with the filter width and the transported
    projector with the spectral one: ``spectra.cluster_projector`` reads
    the gap and the cluster frames off the eigendecomposition that built
    the generator there, and ``p0``, the cluster projector of ``H_0``, off
    the one at s = 0, whose kernel is the cluster
    (``spectra.kernel_cluster``, which refuses an empty one), so ``H_0`` is
    solved once.  The drift is read from the cluster frames
    (``_frame_drift``): no projector but ``p0`` is formed.  The unitaries
    are real orthogonal when ``H_0`` and ``Psi`` are real.

    ``keep`` names the checkpoint indices (of the grid of ``checkpoints``
    points) whose ``U`` the result hands on, the kept chain's, from the
    accepted pass; no other checkpoint outlives the pass that reached it,
    but the two ``end_spectra``.

    ``H_0`` and ``Psi``, of ``eta`` and ``psi`` on ``lam``, are the
    ``charge_stack`` of each at the modulus the result records: 2 (two
    parity blocks) when every term of both inside ``lam`` keeps the parity
    at ``d = 2``, as ``conserved_modulus`` decides it for the terms of both
    together, else 1 (one block).  No whole matrix is built: every solve,
    product, polar step and norm is taken block by block, the tracked gap
    and cluster come from the merged block spectra, and the result keeps
    the stacks, ``p0`` and the kept unitaries too.
    """
    d = eta.local_dim
    ops = [t.op for t in eta.terms + psi.terms if t.support in lam]
    modulus = conserved_modulus(ops, (2,)) if d == 2 else 1
    b0, bp = charge_stack(eta, lam, modulus), charge_stack(psi, lam, modulus)
    grid = np.linspace(0.0, eps, checkpoints)
    keep = set(keep)
    if not keep <= set(range(checkpoints)):
        raise ValueError("keep: not a checkpoint index")

    # One solve per coupling gives the generator and, at a checkpoint, the
    # tracked gap and each block's cluster eigenvectors; the solves at both
    # ends are kept, and a later pass forms its generators there from them,
    # so no end is solved twice.  The first solve, at s = 0, fixes the
    # cluster size.
    keys = [round(float(s), 15) for s in grid]
    end_keys = (keys[0], keys[-1])
    gen_cache: dict[float, np.ndarray] = {}
    tracked: dict[float, tuple[float, list]] = {}
    ends: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    cluster_dim = None

    def gen(s):
        nonlocal cluster_dim
        key = round(float(s), 15)
        if key not in gen_cache:
            evals, evecs = (ends[key][:2] if key in ends
                            else diagonalize(b0 + s * bp))
            if cluster_dim is None:
                cluster_dim = kernel_cluster(evals)
            gen_cache[key] = eigenbasis_generator(evals, evecs, bp, window)
            if key in keys:
                tracked[key] = cluster_projector(evals, evecs, cluster_dim)
            if key in end_keys:
                ends[key] = (evals, evecs, gen_cache[key])
        return gen_cache[key]

    def drop_all_but(key):
        for other in [other for other in gen_cache if other != key]:
            del gen_cache[other]

    def advance(chain, j, k, substeps):
        """``(U, K U)`` at checkpoint k from those at checkpoint j; the
        ``K U`` a step starts from is its ``k1``."""
        u, du = chain
        a, b = grid[j], grid[k]
        h_step = (b - a) / substeps
        for i in range(substeps):
            s = a + i * h_step
            k2 = gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * du)
            k3 = gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k2)
            k4 = gen(s + h_step) @ (u + h_step * k3)
            u = u + (h_step / 6.0) * (du + 2 * k2 + 2 * k3 + k4)
            u = _polar_unitary(u)
            du = gen(s + h_step) @ u
        return u, du

    n_blocks, side = b0.shape[:2]
    u0 = np.broadcast_to(np.eye(side, dtype=gen(grid[0]).dtype),
                         (n_blocks, side, side)).copy()
    frames0 = tracked[keys[0]][1]
    p0 = np.stack([v @ v.conj().T for v in frames0])

    def run_pass(land, substeps):
        """The Richardson estimate, gap floor, drift and kept unitaries of
        the lockstep pair whose kept chain lands every ``land`` intervals
        (2 or 1) after ``substeps`` steps and whose partner steps twice as
        long: across ``2 land`` intervals when ``substeps`` is 1.  With
        ``land`` 2 the kept chain reads the checkpoint between its landings
        and the partner the one between its own off their Hermite
        interpolants, and the two are compared at every landing of the
        kept chain."""
        span = 2 * land if substeps == 1 else land
        drop_all_but(keys[0])      # a refused pass's end is formed afresh
        chain = partner = (u0, gen(grid[0]) @ u0)
        err, floor, drift, kept = 0.0, np.inf, 0.0, {}

        def visit(j, u):
            nonlocal floor, drift
            gen(grid[j])
            gap, vecs = tracked.pop(keys[j])
            floor = min(floor, gap)
            drift = max(drift, _frame_drift(u, frames0, vecs))
            if j in keep:
                kept[j] = u

        visit(0, u0)
        for start in range(0, checkpoints - 1, span):
            end, landed = start + span, {}
            for a in range(start, end, land):
                landing = advance(chain, a, a + land, substeps)
                if land == 2:       # a node the partner steps over
                    visit(a + 1, _hermite_midpoint(chain, landing,
                                                   grid[a + 2] - grid[a]))
                    del gen_cache[keys[a + 1]]
                chain = landing
                visit(a + land, chain[0])
                landed[a + land] = chain[0]
            landing = advance(partner, start, end, max(1, substeps // 2))
            err = max(err, operator_norm(landed[end] - landing[0]))
            if land == 2:
                err = max(err, operator_norm(
                    landed[start + 2] - _hermite_midpoint(
                        partner, landing, grid[end] - grid[start])))
            partner = landing
            drop_all_but(keys[end])   # both chains have crossed the span
        return err, floor, drift, kept

    # The first pass is the coarsest pair whose partner lands on the end:
    # steps across two intervals against four when 4 divides the interval
    # count, one per interval against one across two when 2 does, else one
    # against two per interval.  Each refusal halves both steps.
    intervals = checkpoints - 1
    land, substeps = ((2, 1) if intervals % 4 == 0
                      else (1, 1) if intervals % 2 == 0 else (1, 2))
    err, gap_floor, drift, kept = run_pass(land, substeps)
    while not err <= ode_tol and substeps < 256:
        land, substeps = (1, 1) if land == 2 else (1, 2 * substeps)
        err, gap_floor, drift, kept = run_pass(land, substeps)
    if not err <= ode_tol:
        raise RuntimeError(f"flow ODE failed to reach {ode_tol:.1e} (last {err:.1e})")
    if gap_floor < window.gamma:
        raise RuntimeError(
            f"tracked gap {gap_floor:.4f} fell below filter width {window.gamma:.4f}")
    return FlowResult(grid, charge_sectors(len(lam), d, modulus), modulus,
                      b0, bp, p0, kept, gap_floor=gap_floor,
                      projector_drift=drift, ode_error=err,
                      end_spectra=tuple(ends[key] for key in end_keys))


# ---------------------------------------------------------------------------
# anchored local decomposition of the transported coupling


@dataclass
class Phi1Decomposition:
    """Anchored pieces of the transported coupling, block stacks on
    ``sectors`` (those of the flow).  A holder that has split it may drop
    ``v_true`` (``None``), and each piece of ``anchors`` once it has read
    that anchor's ball terms.  The three residual norms are ``None`` when
    the decomposition was made without them (``decompose_phi1`` with
    ``norms=False``): a norm not taken is absent, never 0."""

    lam: Interval
    sectors: list[np.ndarray]
    anchors: dict | None                 # x -> block-diagonal v_x (stack)
    v_true: np.ndarray | None            # V(s) (stack)
    anchor_sum_residual: float | None    # |V(s) - sum_x v_x| before correction
    cross_residual: float | None         # |P rho Q + Q rho P|, to the edge
    max_kernel_commutator: float | None  # max_x |[P, v_x]| over all anchors
    local_dim: int

    def ball_terms(self, x: int) -> list[Term]:
        """The ``Phi^1(b_x(n))`` terms of anchor ``x``, by radius ``n`` from
        1 to ``R_x``, built on each call (none for a site that anchors no
        piece); the piece is joined here, for its partial traces.  Each
        ball's conditional expectation is taken once, and term ``n > 1`` is
        ``delta_layer`` of ball ``n``'s and ball ``n-1``'s."""
        if x not in self.anchors:
            return []
        op = LocalOperator(join_blocks(self.anchors[x], self.sectors),
                           self.lam, kind="spin", local_dim=self.local_dim)
        _, big_r = boundary_distances(self.lam, x)
        lo = conditional_expectation(op, ball(self.lam, x, 1))
        terms = [Term(lo, anchor=x, radius=1)]
        for n in range(2, big_r + 1):
            hi = conditional_expectation(op, ball(self.lam, x, n))
            terms.append(Term(delta_layer(hi, lo), anchor=x, radius=n))
            lo = hi
        return terms


def _trace(a) -> float:
    """Real part of the trace of a matrix, or of the block-diagonal matrix
    a stack stands for."""
    return float(np.trace(a, axis1=-2, axis2=-1).sum().real)


def decompose_phi1(flow: FlowResult, eta: Interaction, psi: Interaction,
                   lam: Interval, upto: int | None = None,
                   norms: bool = True) -> Phi1Decomposition:
    """Cut the transported coupling ``V(s) = U(s)* H(s) U(s) - H_0`` at the
    checkpoint ``upto`` (default the last, ``s = eps``) into anchored
    block-diagonal pieces, to be telescoped over balls.

    ``eta`` and ``psi`` give the flow's ``H_0`` and ``Psi`` on ``lam``, and
    ``U(s)`` is the unitary the flow kept at ``upto`` (``ValueError`` if it
    kept none there).  With the terms grouped by anchor and
    ``h_x(r) = eta_x + r psi_x``, the anchor's piece of the integral form
    ``int_0^s U* (psi_x - [K, h_x(r)]) U dr`` (Bachmann, Michalakis,
    Nachtergaele and Sims, CMP 309, 835, 2012) is read off its end point:
    since ``U' = K U`` and ``K* = -K`` the integrand is
    ``d/dr U* h_x(r) U``, so

        v_x = U(s)* h_x(s) U(s) - h_x(0),

    and no integral along the flow is taken.  Off-diagonal blocks relative
    to the kernel projector ``flow.p0`` are removed; the exact remainder
    ``V(s) - sum_x v_x`` is re-distributed so that the sum reconstructs
    ``V(s)`` to rounding: its diagonal blocks uniformly over anchors, its
    off-diagonal blocks entirely to the anchor at the left edge, which
    later falls into the boundary remainder.  Every ``v_x`` telescopes into
    ball increments ``Phi^1(b_x(n))`` (``Phi1Decomposition.ball_terms``).
    With ``norms=False`` the pieces are the same and none of the three
    residual norms is taken; they read ``None``.

    All of it runs on the flow's block stacks, in the field of the flow and
    the anchored terms: each anchor's terms are assembled by
    ``charge_stack`` at the flow's modulus, one anchor at a time (which
    refuses terms that break that charge with ``ValueError``), and the
    decomposition keeps the stacks.
    """
    upto = len(flow.eps_grid) - 1 if upto is None else upto
    if upto not in flow.unitaries:
        raise ValueError("upto must be a checkpoint index whose U the flow kept")
    s = float(flow.eps_grid[upto])
    u = flow.unitaries[upto]
    u_h = u.conj().swapaxes(-1, -2)
    b0, p = flow.h0, flow.p0
    q = np.eye(p.shape[-1]) - p

    def blockdiag(a):
        return p @ a @ p + q @ a @ q

    def anchor_blocks(phi, groups, x):
        return charge_stack(replace(phi, terms=groups.get(x, [])), lam,
                            flow.modulus)

    eta_anchored, psi_anchored = eta.anchored(), psi.anchored()
    anchors = sorted(set(eta_anchored) | set(psi_anchored))
    pieces = {}
    for x in anchors:
        eta_x = anchor_blocks(eta, eta_anchored, x)
        h_xs = eta_x + s * anchor_blocks(psi, psi_anchored, x)
        pieces[x] = blockdiag(u_h @ h_xs @ u - eta_x)
    v_true = u_h @ (b0 + s * flow.psi) @ u - b0
    rho = v_true - sum(pieces.values())
    rho_diag = blockdiag(rho)
    rho_cross = rho - rho_diag
    sum_res = cross_res = max_comm = None
    if norms:
        sum_res, cross_res = operator_norm(rho), operator_norm(rho_cross)
    for x in anchors:
        pieces[x] += rho_diag / len(anchors)
    pieces[min(anchors)] += rho_cross
    if norms:
        max_comm = max(operator_norm(p @ pieces[x] - pieces[x] @ p)
                       for x in anchors)
    return Phi1Decomposition(lam, flow.sectors, pieces, v_true, sum_res,
                             cross_res, max_comm, eta.local_dim)


@dataclass
class Phi1Split:
    """What is read of the interior/boundary split of the transported
    coupling: ``phi2 = Q (phi_tilde - omega) Q`` as a block stack, with
    ``phi_tilde`` the sum of the interior anchored pieces, and the residual
    of ``phi2 + phi3 + omega + remainder = V(eps)``, where
    ``phi3 = P (phi_tilde - omega) P`` and the remainder sums the
    edge-anchored pieces; ``None`` when the split was made without norms
    (``split_phi1`` with ``norms=False``), which forms no ``phi3``."""

    phi2: np.ndarray
    omega_value: float
    reconstruction_error: float | None


def split_phi1(dec: Phi1Decomposition, p_kernel: np.ndarray,
               norms: bool = True) -> Phi1Split:
    """Split ``dec`` against the kernel projector ``p_kernel``, a stack on
    the decomposition's sectors; ``omega = tr(P phi_tilde) / tr P``.  The
    sums are formed in place, in the order of
    ``phi2 + phi3 + omega 1 + remainder - V(eps)``; with ``norms=False``
    only ``phi2`` and ``omega`` are formed."""
    inner = interior(dec.lam, 2)
    dtype = np.result_type(*dec.anchors.values())
    phi_tilde = np.zeros(dec.v_true.shape, dtype)
    remainder = np.zeros(dec.v_true.shape, dtype)
    for x, vx in dec.anchors.items():
        if inner is not None and x in inner:
            phi_tilde += vx
        else:
            remainder += vx
    omega = _trace(p_kernel @ phi_tilde) / _trace(p_kernel)
    eye = np.eye(p_kernel.shape[-1])
    q = eye - p_kernel
    phi_tilde -= omega * eye                  # centred
    phi2 = q @ phi_tilde @ q
    if not norms:
        return Phi1Split(phi2, omega, None)
    recon = p_kernel @ phi_tilde @ p_kernel    # phi3
    del phi_tilde
    recon += phi2
    recon += omega * eye
    recon += remainder
    recon -= dec.v_true
    return Phi1Split(phi2, omega, operator_norm(recon))


# ---------------------------------------------------------------------------
# interchange of the anchored telescopes with the ball resolution


@dataclass
class ThetaAssembly:
    """The collected pieces around the family's site, block stacks on the
    sectors of the decomposition, and their norms.  A holder that reads only
    the norms and errors may drop the stacks (``None``)."""

    r_x: int
    theta_beta: dict | None     # n -> Theta_beta^x(n, eps), 3 <= n <= r_x
    theta_alpha: np.ndarray | None
    beta_norms: dict            # n -> |Theta_beta^x(n, eps)|
    alpha_norm: float           # |Theta_alpha|
    identity_error: float       # |Q Phi1_x0 Q - sum Theta_beta - Theta_alpha|
    annihilation_error: float   # max_n |P_{b(x,n)} Theta_beta(n)|


def theta_assembly(ball_terms: list[Term],
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

    ``ball_terms`` are the ``Phi^1(b_x(n))`` of the anchor ``x``, as
    ``Phi1Decomposition.ball_terms(x)`` makes them.  ``family`` holds block
    stacks at the modulus of the decomposition; each ball term is placed
    straight into those blocks by ``charge_stack``, so every product and
    norm is taken block by block.  Each ``Phi^1_k``, ``E_n`` and ``Q_n`` is
    formed when it is used, and every sum is taken in place, so one ball
    term's stack is alive at a time.
    """
    lam, x, r_x = family.lam, family.x, family.r_x
    _, big_r = boundary_distances(lam, x)
    p_full = family.P
    shape = p_full.shape
    eye = np.eye(shape[-1])
    q_full = eye - p_full
    omega_state = p_full / _trace(p_full)
    by_radius = {t.radius: t for t in ball_terms}
    e, q = family.e, family.q

    def phi1(k):
        term = by_radius.get(k)
        m = np.zeros(shape) if term is None else charge_stack(
            Interaction([term], term.op.kind, term.op.local_dim), lam,
            family.modulus)
        return m - _trace(omega_state @ m) * eye

    dtype = np.result_type(p_full, *(t.op.matrix for t in ball_terms))
    theta_beta = {n: np.zeros(shape, dtype) for n in range(3, r_x + 1)}
    theta_alpha = np.zeros(shape, dtype)
    total = np.zeros(shape, dtype)
    for k in range(1, big_r + 1):
        phi = phi1(k)
        total += phi
        if k > r_x // 2:
            theta_alpha += q_full @ phi @ q_full
            continue
        q_2k = q(2 * k)
        # tau(2) joins Theta_beta(3), or Theta_alpha when r_x = 2
        into = theta_beta.get(max(2 * k, 3), theta_alpha)
        into += q_2k @ phi @ q_2k
        for n in range(2 * k + 1, r_x + 1):
            e_n = e(n)
            theta_beta[n] += e_n @ phi @ q(n - 1) + q(n) @ phi @ e_n
        e_n = e(r_x + 1)
        theta_alpha += e_n @ phi @ q(r_x) + q_full @ phi @ e_n

    lhs = q_full @ total @ q_full
    rhs = sum(theta_beta.values()) + theta_alpha if theta_beta else theta_alpha
    id_err = operator_norm(lhs - rhs)

    ann = 0.0
    for n, tb in theta_beta.items():
        ann = max(ann, operator_norm(family.locals[n - 1] @ tb),
                  operator_norm(tb @ family.locals[n - 1]))
    return ThetaAssembly(r_x, theta_beta, theta_alpha,
                         {n: operator_norm(tb) for n, tb in theta_beta.items()},
                         operator_norm(theta_alpha), id_err, ann)
