"""Reference operators and predicates that the tests check the package against."""

import tracemalloc
from dataclasses import replace

import numpy as np

from gaplab.interaction import Interaction, Term, local_hamiltonian
from gaplab.lattice import Interval, ball, boundary_distances, interior
from gaplab.operator_algebra import (LocalOperator, annihilator,
                                     basis_charges, conditional_expectation,
                                     delta_layer, embed, join_blocks,
                                     kernel_mask, operator_norm,
                                     parity_matrix)
from gaplab.spectra import diagonalize
from gaplab.spectral_flow import Phi1Decomposition, eigenbasis_generator


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran; tracing
    starts with the call, so that is how far the call raised it."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def creator(lam: Interval, x: int) -> LocalOperator:
    """The spin image of a*(x): the adjoint of ``annihilator``."""
    return annihilator(lam, x).dagger()


def number_operator(lam: Interval) -> LocalOperator:
    """Total occupancy N = sum_x a*(x) a(x): the diagonal popcount matrix."""
    pop = [bin(i).count("1") for i in range(2 ** len(lam))]
    return LocalOperator(np.diag(np.array(pop, dtype=complex)), lam, lam,
                         "fermion")


def digit_sums(n_sites: int, d: int) -> np.ndarray:
    """The base-``d`` digit sum of every basis index on ``n_sites``: the
    occupation number at ``d = 2``, the summed ``1 - m`` for spin-1."""
    return np.sum(np.unravel_index(np.arange(d ** n_sites), (d,) * n_sites),
                  axis=0)


def is_hermitian(op: LocalOperator) -> bool:
    """m = m* to 1e-12 of max(1, |m|)."""
    m = op.matrix
    return np.allclose(m, m.conj().T, atol=1e-12 * max(1.0, operator_norm(m)))


def kron_placed(m, d: int, n_left: int, n_right: int) -> np.ndarray:
    """1 (x) m (x) 1 as a dense Kronecker product, with ``n_left`` and
    ``n_right`` sites of local dimension ``d`` on either side."""
    return np.kron(np.eye(d ** n_left), np.kron(m, np.eye(d ** n_right)))


def one_site(m) -> Interaction:
    """One spin term holding ``m`` on the site 0, of local dimension
    ``len(m)``: its Hamiltonian on ``Interval(0, 0)`` is ``m`` itself."""
    site = Interval(0, 0)
    return Interaction([Term(LocalOperator(m, site, site, "spin", len(m)))],
                       "spin", len(m))


def on_chain(m):
    """One spin term holding ``m`` on the chain it fills, and the chain:
    sites of local dimension 2 when its side is ``2^n``, n >= 1, else one
    site of local dimension ``len(m)``.  Its Hamiltonian there is ``m``."""
    n = len(m).bit_length() - 1
    if len(m) == 2 ** n and n >= 1:
        lam, d = Interval(0, n - 1), 2
    else:
        lam, d = Interval(0, 0), len(m)
    return Interaction([Term(LocalOperator(m, lam, lam, "spin", d))],
                       "spin", d), lam


def dense_kernel_projector(phi: Interaction, lam: Interval) -> np.ndarray:
    """The kernel projector of ``eigh`` on the whole matrix
    ``local_hamiltonian(phi, lam)``, cut by ``kernel_mask`` on its
    spectrum: the reference of the charge-block kernel solves."""
    evals, evecs = np.linalg.eigh(local_hamiltonian(phi, lam).matrix)
    v = evecs[:, kernel_mask(evals)]
    return v @ v.conj().T


def flow_pair(h0, psi):
    """``H0`` and ``Psi`` given as matrices, as the interactions and volume
    ``flow_unitaries`` takes (see ``on_chain``)."""
    (eta, lam), (pert, _) = on_chain(h0), on_chain(psi)
    return eta, pert, lam


# --- the whole-then-split route, the reference of the charge blocks ------------


def parity_sectors(*mats) -> list[np.ndarray]:
    """The parity sectors read off whole matrices: the two index sets of
    ``parity_matrix``, even first, when every matrix is square of one side
    ``2^n``, n >= 1, with exact zeros between them, else one sector holding
    every index.  It is the scan that decided a whole matrix's blocks before
    the charge rule read them from the terms."""
    side = np.shape(mats[0])[0]
    whole = [np.arange(side)]
    if side < 2 or side & (side - 1):
        return whole
    even = basis_charges(side.bit_length() - 1, 2, 2) == 0
    ev, od = np.flatnonzero(even), np.flatnonzero(~even)
    for m in map(np.asarray, mats):
        if m.shape != (side, side) or m[np.ix_(ev, od)].any() \
                or m[np.ix_(od, ev)].any():
            return whole
    return [ev, od]


def split_blocks(m, sectors) -> np.ndarray:
    """The diagonal blocks of the whole matrix ``m`` on ``sectors``, as a
    stack when they are of one side and as a list otherwise."""
    blocks = [np.asarray(m)[np.ix_(idx, idx)] for idx in sectors]
    return np.stack(blocks) if len({len(i) for i in sectors}) == 1 else blocks


def norm_oracle(m) -> float:
    """The norm as ``operator_norm`` took it when the sectors of the matrix
    it solves came from ``parity_sectors`` of the whole matrix (the Gram
    matrix keeps the zeros of ``m``)."""
    return operator_norm(m, parity_sectors(m))


def random_matrix(rng, dim: int, complex_: bool) -> np.ndarray:
    """A seeded dim x dim Gaussian matrix, real or with an imaginary part."""
    m = rng.standard_normal((dim, dim))
    return m + 1j * rng.standard_normal((dim, dim)) if complex_ else m


def random_hermitian(rng, side: int, complex_: bool) -> np.ndarray:
    """A seeded side x side Hermitian matrix, real or complex."""
    m = random_matrix(rng, side, complex_)
    return (m + m.conj().T) / 2.0


def svd_polar(u) -> np.ndarray:
    """The unitary polar factor ``W V*`` of ``u = W S V*`` (or of each
    matrix of a stack), from LAPACK's SVD."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def parity_even(m) -> np.ndarray:
    """The even part of ``m`` under the occupancy parity: off-block entries 0."""
    p = parity_matrix(m.shape[0].bit_length() - 1)
    return np.where(p[:, None] == p[None, :], m, 0.0)


def even_pair(rng, side: int, complex_: bool):
    """A parity-even pair on a side 2^n: ``H0`` with one kernel vector per
    parity block and the rest of its spectrum in [1.5, 3], and a coupling of
    norm 1."""
    half = side // 2
    h0 = np.zeros((side, side), complex if complex_ else float)
    even = parity_matrix(side.bit_length() - 1) > 0
    for sector in (np.flatnonzero(even), np.flatnonzero(~even)):
        q, _ = np.linalg.qr(random_matrix(rng, half, complex_))
        levels = np.concatenate(([0.0], rng.uniform(1.5, 3.0, half - 1)))
        h0[np.ix_(sector, sector)] = (q * levels) @ q.conj().T
    h0 = (h0 + h0.conj().T) / 2.0
    psi = parity_even(random_hermitian(rng, side, complex_))
    return h0, psi / np.linalg.norm(psi, 2)


# --- the anchored pieces as an integral along the flow, and whole-matrix forms --


def simpson_oracle(flow, eta, psi, lam: Interval, uptos, window) -> list:
    """The anchored decompositions at each index of ``uptos`` (even) as
    ``decompose_phi1`` made them when it integrated along the flow: each
    piece ``int_0^s U* (psi_x - [K, eta_x + r psi_x]) U dr`` by composite
    Simpson on the checkpoint grid, from the unitaries ``flow`` kept at
    every checkpoint up to the last stop and the generators solved afresh
    there, as the flow solves them."""
    last = max(uptos)
    grid = flow.eps_grid[:last + 1]
    eta_anchored, psi_anchored = eta.anchored(), psi.anchored()
    anchors = sorted(set(eta_anchored) | set(psi_anchored))

    def anchor_blocks(phi, groups, x):
        return split_blocks(local_hamiltonian(
            replace(phi, terms=groups.get(x, [])), lam).matrix,
            flow.sectors)

    eta_x = {x: anchor_blocks(eta, eta_anchored, x) for x in anchors}
    psi_x = {x: anchor_blocks(psi, psi_anchored, x) for x in anchors}
    b0, bp, p = flow.h0, flow.psi, flow.p0
    q = np.eye(p.shape[-1]) - p

    def blockdiag(a):
        return p @ a @ p + q @ a @ q

    def decomposition(upto, u_end, sums):
        eps_at = float(grid[upto])
        v_true = u_end.conj().swapaxes(-1, -2) @ (b0 + eps_at * bp) @ u_end \
            - b0
        v_tilde = {x: blockdiag(sums[x]) for x in anchors}
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
        return Phi1Decomposition(lam, eps_at, flow.sectors, v_tilde, v_true,
                                 quad_res, operator_norm(rho_cross), max_comm,
                                 eta.local_dim)

    weights = np.ones(len(grid))
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights = weights * ((grid[1] - grid[0]) / 3.0)
    stops = set(uptos)
    v = dict.fromkeys(anchors, 0.0)
    decs = {}
    for j, s in enumerate(grid):
        u = flow.unitaries[j]
        k_s = eigenbasis_generator(*diagonalize(b0 + s * bp), bp, window)
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
            decs[j] = decomposition(j, u, closing)
    return [decs[upto] for upto in uptos]


def split_whole(anchors: dict, v_true, lam: Interval, p_kernel) -> dict:
    """The interior/boundary split of whole anchored pieces against a whole
    kernel projector: ``phi_tilde``, ``phi2``, ``phi3``, ``remainder``,
    ``omega`` and the reconstruction residual."""
    inner = interior(lam, 2)
    dim = v_true.shape[0]
    phi_tilde = remainder = np.zeros((dim, dim))
    for x, vx in anchors.items():
        if inner is not None and x in inner:
            phi_tilde = phi_tilde + vx
        else:
            remainder = remainder + vx
    omega = float((np.trace(p_kernel @ phi_tilde)
                   / np.trace(p_kernel)).real)
    q = np.eye(dim) - p_kernel
    centered = phi_tilde - omega * np.eye(dim)
    phi2 = q @ centered @ q
    phi3 = p_kernel @ centered @ p_kernel
    recon = phi2 + phi3 + omega * np.eye(dim) + remainder - v_true
    return {"phi_tilde": phi_tilde, "phi2": phi2, "phi3": phi3,
            "remainder": remainder, "omega": omega,
            "reconstruction_error": operator_norm(recon)}


def resolution_whole(eta, lam: Interval, x: int, p):
    """The ball kernel projectors around ``x`` embedded whole in ``lam``, and
    the resolution ``E_1 .. E_{r_x+2}`` they telescope to the whole ``p``."""
    r_x, _ = boundary_distances(lam, x)
    locals_ = []
    for n in range(1, r_x + 1):
        b = ball(lam, x, n)
        pb = dense_kernel_projector(eta, b)
        locals_.append(embed(LocalOperator(pb, b, lam, "spin", eta.local_dim),
                             lam).matrix)
    eye = np.eye(p.shape[0])
    e = [eye - locals_[0]]
    e += [locals_[n - 2] - locals_[n - 1] for n in range(2, r_x + 1)]
    return locals_, e + [locals_[-1] - p, p]


def theta_whole(ball_terms, lam: Interval, x: int, p, locals_, e_list):
    """``Theta_beta`` and ``Theta_alpha`` around ``x`` from whole matrices:
    the ball terms of anchor ``x`` (any that belong to another anchor are
    passed over), the whole kernel projector ``p`` and the whole family
    ``locals_``, ``e_list`` of ``resolution_whole``."""
    r_x = len(locals_)
    _, big_r = boundary_distances(lam, x)
    dim = p.shape[0]
    eye = np.eye(dim)
    q_full = eye - p
    omega_state = p / np.trace(p).real
    qs = {n: eye - locals_[n - 1] for n in range(1, r_x + 1)}
    e = {n + 1: e_n for n, e_n in enumerate(e_list)}
    ball_term = {t.radius: embed(t.op, lam).matrix
                 for t in ball_terms if t.anchor == x}
    phi1 = {}
    for k in range(1, big_r + 1):
        m = ball_term.get(k, np.zeros((dim, dim)))
        phi1[k] = m - float(np.trace(omega_state @ m).real) * eye
    theta_beta = {n: np.zeros((dim, dim)) for n in range(3, r_x + 1)}
    theta_alpha = np.zeros((dim, dim))
    for k in range(1, r_x // 2 + 1):
        tau = qs[2 * k] @ phi1[k] @ qs[2 * k]
        if 2 * k == 2 and r_x < 3:
            theta_alpha = theta_alpha + tau
        else:
            key = 3 if 2 * k == 2 else 2 * k
            theta_beta[key] = theta_beta[key] + tau
        for n in range(2 * k + 1, r_x + 1):
            theta_beta[n] = theta_beta[n] + (e[n] @ phi1[k] @ qs[n - 1]
                                             + qs[n] @ phi1[k] @ e[n])
        theta_alpha = theta_alpha + e[r_x + 1] @ phi1[k] @ qs[r_x] \
            + q_full @ phi1[k] @ e[r_x + 1]
    for k in range(r_x // 2 + 1, big_r + 1):
        theta_alpha = theta_alpha + q_full @ phi1[k] @ q_full
    return theta_beta, theta_alpha


def telescope(dec) -> Interaction:
    """Every ball term of a decomposition, anchor by anchor in the order of
    its pieces, from ``Phi1Decomposition.ball_terms``."""
    return Interaction([t for x in dec.anchors for t in dec.ball_terms(x)],
                       kind="spin", local_dim=dec.local_dim)


def telescope_oracle(dec) -> Interaction:
    """The whole ball telescope of a decomposition as one interaction, made
    as it was before the terms were built one anchor at a time: each piece
    joined, then its conditional expectation on the unit ball and its layers
    ``2 .. R_x``."""
    terms = []
    for x, piece in dec.anchors.items():
        op = LocalOperator(join_blocks(piece, dec.sectors), dec.lam, dec.lam,
                           kind="spin", local_dim=dec.local_dim)
        _, big_r = boundary_distances(dec.lam, x)
        terms.append(Term(conditional_expectation(op, ball(dec.lam, x, 1)),
                          anchor=x, radius=1))
        for n in range(2, big_r + 1):
            terms.append(Term(delta_layer(op, dec.lam, x, n), anchor=x,
                              radius=n))
    return Interaction(terms, kind="spin", local_dim=dec.local_dim)


def projected_ascent(wt, seed: int = 0, restarts: int = 20, iters: int = 200):
    """The walk of ``ltqo.ascent_lower_bound`` with every step's sign matrix
    projected again onto the unit ball (symmetrise, divide by its
    ``eigvalsh`` norm), as well as each start: the two walks differ by
    rounding only, since a sign matrix already has norm 1."""
    rng = np.random.default_rng(seed)
    dx = int(round(np.sqrt(wt.D.shape[1])))

    def project(a):
        a = 0.5 * (a + a.conj().T)
        nrm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        return a / nrm if nrm > 0 else a

    best_val, best_a = -np.inf, None
    for _ in range(restarts):
        a = project(rng.standard_normal((dx, dx))
                    + 1j * rng.standard_normal((dx, dx)))
        evals, evecs = np.linalg.eigh(wt.centred(a))
        val = float(np.max(np.abs(evals)))
        for _ in range(iters):
            idx = int(np.argmax(np.abs(evals)))
            u, sign = evecs[:, idx], np.sign(evals[idx]) or 1.0
            z = sign * (np.outer(u.conj(), u).ravel() @ wt.D).reshape(dx, dx).T
            z = 0.5 * (z + z.conj().T)
            zev, zvec = np.linalg.eigh(z)
            a_new = project((zvec * np.sign(zev + 1e-300)) @ zvec.conj().T)
            evals_new, evecs_new = np.linalg.eigh(wt.centred(a_new))
            val_new = float(np.max(np.abs(evals_new)))
            if val_new - val <= 1e-8 * max(1.0, abs(val)):
                if val_new > val:
                    a, val = a_new, val_new
                break
            a, val, evals, evecs = a_new, val_new, evals_new, evecs_new
        if val > best_val:
            best_val, best_a = val, a
    return best_val, best_a
