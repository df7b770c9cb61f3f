import re
from dataclasses import fields, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gaplab.pipelines import ENVELOPE, _form_bound_checkpoints
from gaplab.interaction import (Interaction, Term, fermion_to_spin,
                                local_hamiltonian, split_edge_bulk)
from gaplab.lattice import Interval, boundary_distances
from gaplab.models import (kernel_data, orbital_interaction,
                           random_even_perturbation)
from gaplab import interaction, operator_algebra, spectra, spectral_flow
from gaplab.operator_algebra import charge_sectors, join_blocks, operator_norm
from gaplab.spectra import FrustrationError, diagonalize, resolution_family
from gaplab.spectral_flow import (Window, _filtered, _frame_drift,
                                  _panel_rule, _polar_unitary, _time_rule,
                                  decompose_phi1, eigenbasis_generator,
                                  filter_identity_residual, flow_unitaries,
                                  split_phi1, theta_assembly,
                                  time_quadrature_generator)
from oracles import (CHECKPOINTS, ODE_TOL, dense_drift,
                     dense_kernel_projector, even_pair,
                     filter_identity_nodes, filter_identity_one_shot,
                     flow_pair, parity_even, parity_sectors,
                     random_hermitian, random_matrix, resolution_whole,
                     rule_nodes, simpson_oracle, split_blocks, split_whole,
                     svd_polar, telescope, telescope_oracle, theta_whole,
                     time_quadrature_nodes, time_quadrature_one_shot,
                     recorded, time_quadrature_stacked, time_weight,
                     traced_peak)

GAMMA = 0.8
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


# --- the filter window ------------------------------------------------------------


def test_window_profile():
    w = Window(GAMMA)
    assert w.beta(0.0) == 1.0
    assert w.beta(0.5 * GAMMA) == 0.0
    assert w.beta(0.41) == 0.0          # support is the open half-width
    np.testing.assert_allclose(w.beta(0.17), w.beta(-0.17))
    arr = w.beta(np.array([0.0, 0.2, 1.0]))
    assert arr.shape == (3,)


def test_window_is_flat_enough_at_the_edge():
    # seven continuous derivatives vanish at the support edge, so the
    # profile dives at least like the eighth power of the distance
    w = Window(GAMMA)
    delta = 1e-3
    val = w.beta(0.5 * GAMMA * (1.0 - delta))
    assert val <= (3.0 * delta) ** 8


def _profile_everywhere(omega):
    """The window profile evaluated on every argument, then cut to the window."""
    u = 2.0 * omega / GAMMA
    return np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 8, 0.0)


def test_window_beta_is_bit_identical_to_the_full_evaluation():
    """Evaluating the profile only inside the window changes no bit."""
    w = Window(GAMMA)
    half = 0.5 * GAMMA
    grid = np.concatenate([np.linspace(-1.3, 1.3, 2601),
                           [0.0, half, -half, np.nextafter(half, 0.0),
                            -np.nextafter(half, 0.0), 5.0, -7.5]])
    square = grid[:60, None] - grid[None, -60:]           # an n x n argument
    for omega in (grid, square):
        oracle = _profile_everywhere(omega)
        got = w.beta(omega)
        assert got.dtype == oracle.dtype
        assert got.tobytes() == oracle.tobytes()
    assert all(w.beta(x) == _profile_everywhere(x) for x in grid[-7:])


def test_weight_is_odd_and_exact_outside():
    w = Window(GAMMA)
    assert w.weight(0.0) == 0.0
    assert w.weight(1.7) == pytest.approx(1.0 / 1.7, abs=1e-15)
    assert w.weight(-1.7) == pytest.approx(-1.0 / 1.7, abs=1e-15)
    om = 0.3        # inside the window
    assert w.weight(om) == pytest.approx((1.0 - w.beta(om)) / om, abs=1e-15)


# --- generator, both routes -------------------------------------------------------


def test_eigenbasis_generator_two_level_oracle():
    """H = diag(0, E) with a sigma^x coupling: D = wtilde(E) sigma^y, so the
    stored K = i D = wtilde(E) i sigma^y is real."""
    w = Window(GAMMA)
    for energy in (1.3, 0.3):           # one outside the window, one inside
        h = np.diag([0.0, energy])
        k = eigenbasis_generator(*diagonalize(h), SX, w)
        assert k.dtype == np.float64
        np.testing.assert_allclose(k, w.weight(energy) * (1j * SY).real,
                                   atol=1e-14)


def test_time_weight_against_quadrature_oracle():
    w = Window(GAMMA)
    assert time_weight(0.0, w)[0] == pytest.approx(0.5)
    for s in (0.7, 3.3, 11.0):
        oracle, err = quad(lambda om: w.beta(om) * np.sin(om * s) / om,
                           0.0, 0.5 * GAMMA, limit=200)
        assert err < 1e-10
        assert time_weight(s, w)[0] == pytest.approx(0.5 - oracle / np.pi,
                                                     abs=1e-9)


def test_filter_identity_quadrature():
    w = Window(GAMMA)
    omegas = np.concatenate([np.linspace(0.05, 2.0, 40), [GAMMA / 2, GAMMA]])
    res = filter_identity_residual(w, omegas)
    assert res <= 1e-6


def _random_pair():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return a + a.conj().T, b + b.conj().T


def test_generator_routes_agree_on_random_pair():
    h, psi = _random_pair()
    w = Window(GAMMA)
    evals, evecs = diagonalize(h)
    k_eig = eigenbasis_generator(evals, evecs, psi, w)
    k_time = time_quadrature_generator(evals, evecs, psi, w)
    assert operator_norm(k_eig - k_time) <= 1e-6


def test_phase_product_weight_matches_direct_sine_sum():
    """2 Im(Phi diag(c) Phi*) is the sum 2 sum_s c_s sin((E_i - E_j) s)
    over the nodes ``s = m_p + delta_q`` of the rule."""
    h, psi = _random_pair()
    w = Window(GAMMA)
    evals, evecs = diagonalize(h)
    s_pts, coeff = rule_nodes(w, np.ptp(evals))
    omega = evals[:, None] - evals[None, :]
    direct = np.zeros_like(omega)
    for lo in range(0, s_pts.size, 256):       # the sine tensor, chunked
        chunk = slice(lo, lo + 256)
        direct += 2.0 * np.einsum(
            "s,sij->ij", coeff[chunk],
            np.sin(s_pts[chunk, None, None] * omega[None, :, :]))
    np.testing.assert_allclose(_filtered(evecs, psi, direct),
                               time_quadrature_generator(evals, evecs, psi, w),
                               rtol=0.0, atol=1e-13)


def test_time_rule_is_formed_once_per_panel_count(monkeypatch):
    """Both generator routes and the filter identity read one read-only rule
    ``(m_p, delta_q, h w_q W(m_p + delta_q))`` per window and panel count:
    W is evaluated once for spectra of the same width, on every panel and
    every offset."""
    h, psi = _random_pair()
    w = Window(GAMMA)
    evals, evecs = diagonalize(h)
    calls = []
    original = spectral_flow._panel_weights

    def counted(mids, offsets, window):
        calls.append((mids.size, offsets.size))
        return original(mids, offsets, window)

    monkeypatch.setattr(spectral_flow, "_panel_weights", counted)
    _panel_rule.cache_clear()
    first = time_quadrature_generator(evals, evecs, psi, w)
    second = time_quadrature_generator(evals, evecs, psi, w)
    np.testing.assert_array_equal(first, second)
    mids, offsets, coeff = _time_rule(w, np.ptp(evals))
    assert calls == [coeff.shape] and coeff.shape == (mids.size, offsets.size)
    assert not any(a.flags.writeable for a in (mids, offsets, coeff))
    filter_identity_residual(w, np.linspace(0.0, np.ptp(evals), 11))
    assert len(calls) == 1
    _panel_rule.cache_clear()


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 4.0), st.integers(1, 3000), st.floats(1.0, 400.0))
def test_panel_weights_by_angle_addition_match_the_node_rule(gamma, n_panels,
                                                             t_max):
    """W on the panels x offsets by angle addition is the node-by-node W,
    one sine per node and frequency, to within the rounding of two dot
    products of 200 terms and of the phases ``nu s``:
    ``|W_add - W_node| <= 8 eps (1 + nu_max t_max) sum_k |kappa_k| / pi``
    (measured: at most 1.5e-15)."""
    w = Window(gamma)
    x, wq = spectral_flow._gauss_legendre(8)
    half = t_max / (2 * n_panels)
    mids = (2 * np.arange(n_panels) + 1) * half
    offsets = half * x
    got = spectral_flow._panel_weights(mids, offsets, w)
    ref = time_weight((mids[:, None] + offsets).ravel(), w)
    nodes = 0.25 * gamma * (spectral_flow._gauss_legendre(200)[0] + 1.0)
    kappa = 0.25 * gamma * spectral_flow._gauss_legendre(200)[1] \
        * w.beta(nodes) / nodes
    bound = 8 * np.finfo(float).eps * (1.0 + nodes.max() * t_max) \
        * float(np.sum(np.abs(kappa))) / np.pi
    assert got.shape == (n_panels, 8)
    assert np.max(np.abs(got.ravel() - ref)) <= bound


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 120), st.floats(0.5, 9.0))
def test_filter_identity_in_blocks_matches_the_one_shot_product(count, width):
    """Each block of frequencies is its own two products with the
    coefficients: one block is the panels x offsets sum with every
    frequency in one table, bit for bit.  Across blocks, BLAS's products
    round a frequency by its place in the product (the few at the tail of a
    block or of a thread's share take another path).  Two roundings of a
    dot product of ``n`` terms differ by at most ``2 gamma_n sum|c_k|``,
    about ``n eps sum|c_k|``; with the factor 2 of the left side that is
    ``2 n eps sum|c_k|``, allowed here twice over, ``n`` the node count."""
    w = Window(GAMMA)
    omegas = np.linspace(0.0, width, count)
    mids, _, coeff = _time_rule(w, width)
    one_shot = filter_identity_one_shot(w, omegas)
    got = filter_identity_residual(w, omegas)
    if count <= spectral_flow._PHASE_BLOCK // 8 // mids.size:
        assert got == one_shot
    else:
        n = coeff.size
        bound = 4.0 * n * np.finfo(float).eps * float(np.sum(np.abs(coeff)))
        assert abs(got - one_shot) <= bound


def _weight_rounding(window, evals, psi):
    """``4 eps sum|c| |Psi|_F`` on the time rule of ``evals``' width, and
    its node count: the allowance of two time-quadrature generators that
    sum the same weights in another order (derived in
    ``test_time_quadrature_in_node_blocks_matches_the_one_shot_product``)."""
    coeff = _time_rule(window, np.ptp(evals))[2]
    return (4.0 * np.finfo(float).eps * float(np.sum(np.abs(coeff)))
            * float(np.linalg.norm(psi)), coeff.size)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 48), st.booleans(), st.floats(0.5, 12.0),
       st.integers(0, 2 ** 32 - 1))
def test_time_quadrature_in_node_blocks_matches_the_one_shot_product(
        side, complex_, width, seed):
    """Summing ``A`` over blocks of panels reorders a sum of rounded terms
    only: the generator agrees with the panels x offsets product with
    every panel in one table.  The terms are the same in both, each at most
    ``|c_pq|``, so the weights ``2 (A - A^T)`` differ by a few roundings at
    the scale ``eps sum|c|``, and ``K = V (w o V* Psi V) V*`` carries a
    weight error ``Delta`` to at most ``max|Delta| |Psi|_F`` in each entry:
    the test allows ``4 eps sum|c| |Psi|_F``, the bound of the angle
    addition test without its phase term (measured: at most 0.12 of
    ``eps sum|c| |Psi|_F`` over 1,500 seeded draws of these ranges; 1e-15
    of the largest entry of ``K``, the bound before, was reached to 0.84 of
    it over 1,200)."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, side, complex_)
    h *= width / np.ptp(np.linalg.eigvalsh(h))
    psi = random_hermitian(rng, side, complex_)
    evals, evecs = diagonalize(h)
    w = Window(GAMMA)
    got = time_quadrature_generator(evals, evecs, psi, w)
    ref = time_quadrature_one_shot(evals, evecs, psi, w)
    assert np.max(np.abs(got - ref)) <= _weight_rounding(w, evals, psi)[0]


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 48), st.integers(1, 3), st.booleans(),
       st.floats(0.5, 12.0), st.integers(0, 2 ** 32 - 1))
def test_angle_addition_matches_the_node_rule(side, blocks, complex_, width,
                                              seed):
    """Both checks built by angle addition from the panels' and the
    offsets' phases agree with the node-by-node oracle on the same nodes
    ``m_p + delta_q``, within bounds set by what their sums round.

    The generator of a random block stack: both routes sum the ``n`` terms
    ``c_pq (sin(E_i s) cos(E_j s) - cos(E_i s) sin(E_j s))``, each at most
    ``|c_pq|``, so a weight ``2 (A - A^T)`` rounds at the scale
    ``eps sum|c|``.  Besides, a node's phase ``E s`` comes from other
    products in the two routes, each rounded by up to ``|E| t_max eps``
    (``|E|`` the largest eigenvalue magnitude, ``t_max = 120 / gamma`` the
    horizon); the ``n`` nodes' roundings, independent, add up in the weight
    like a random walk, to about ``eps sum|c| |E| t_max / sqrt(n)`` (the
    probabilistic model of Higham and Mary, SIAM J. Sci. Comput. 41, A2815,
    2019).  ``K = V (w o V* Psi V) V*`` carries a weight error ``Delta`` to
    at most ``max|Delta| |Psi|_F`` in each entry, so the test allows
    ``4 eps sum|c| |Psi|_F (1 + |E| t_max / sqrt(n))`` (measured: at most
    0.34 of ``eps sum|c| |Psi|_F (1 + |E| t_max / sqrt(n))`` over 5,000
    seeded draws of these ranges; 1e-14 of the largest entry of ``K``, the
    bound before, failed at ``side=2, blocks=1, complex_=False,
    width=8.25, seed=0``, where ``K`` is small).

    The filter identity on random frequencies: within the bound of two
    roundings of its dot products, ``4 n eps sum|c_k|``, which also holds
    the rounding of the phases ``w s``, at most ``w t_max eps`` each, since
    the rule has ``n > 32 t_max w / (2 pi)`` nodes."""
    rng = np.random.default_rng(seed)
    h = np.stack([random_hermitian(rng, side, complex_)
                  for _ in range(blocks)])
    h *= width / np.ptp(np.linalg.eigvalsh(h))
    psi = np.stack([random_hermitian(rng, side, complex_)
                    for _ in range(blocks)])
    evals, evecs = diagonalize(h)
    w = Window(GAMMA)
    got = time_quadrature_generator(evals, evecs, psi, w)
    ref = time_quadrature_nodes(evals, evecs, psi, w)
    bound, n = _weight_rounding(w, evals, psi)
    phases = np.max(np.abs(evals)) * 120.0 / w.gamma / np.sqrt(n)
    assert np.max(np.abs(got - ref)) <= bound * (1.0 + phases)
    omegas = rng.uniform(0.0, width, int(rng.integers(1, 402)))
    coeff = _time_rule(w, np.max(omegas))[2]
    bound = 4.0 * coeff.size * np.finfo(float).eps \
        * float(np.sum(np.abs(coeff)))
    assert abs(filter_identity_residual(w, omegas)
               - filter_identity_nodes(w, omegas)) <= bound


def _frame(rng, side, rank, complex_):
    """``rank`` orthonormal columns of a random unitary of side ``side``."""
    return np.linalg.qr(random_matrix(rng, side, complex_))[0][:, :rank]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10), st.booleans(),
       st.sampled_from(["random", "near", "wider", "narrower"]),
       st.integers(0, 2 ** 32 - 1))
def test_frame_drift_matches_the_dense_projector_difference(
        blocks, side, complex_, layout, seed):
    """The drift read from the cluster frames is ``|U P0 U* - P|`` with the
    projectors formed whole, to 1e-13, on block stacks whose frames have
    per-block ranks from 0 (empty) to the side: unrelated frames, frames
    near the transported ones (a drift of order 1e-6), and frames holding
    the transported ones or held in them, where one of the two terms of
    ``max(|(1 - P) Q|, |(1 - Q) P|)`` is zero and the other 1."""
    rng = np.random.default_rng(seed)
    u = np.stack([_frame(rng, side, side, complex_) for _ in range(blocks)])
    frames0 = [_frame(rng, side, int(rng.integers(0, side + 1)), complex_)
               for _ in range(blocks)]
    moved = [u_b @ v for u_b, v in zip(u, frames0)]

    def columns(count):
        return random_matrix(rng, side, complex_)[:, :count]

    if layout == "random":
        frames = [_frame(rng, side, int(rng.integers(0, side + 1)), complex_)
                  for _ in range(blocks)]
    elif layout == "near":
        frames = [np.linalg.qr(w + 1e-6 * columns(w.shape[1]))[0]
                  for w in moved]
    elif layout == "wider":
        frames = [np.linalg.qr(np.hstack(
            [w, columns(int(rng.integers(0, side - w.shape[1] + 1)))]))[0]
            for w in moved]
    else:
        frames = [w @ _frame(rng, w.shape[1],
                             int(rng.integers(0, w.shape[1] + 1)), complex_)
                  for w in moved]
    got = _frame_drift(u, frames0, frames)
    assert got == pytest.approx(dense_drift(u, frames0, frames), abs=1e-13)


def test_frame_drift_of_empty_and_unequal_frames():
    """Empty frames on both sides have no drift; frames of unequal ranks
    are a drift of 1, whichever side is wider."""
    u = np.stack([np.eye(4), np.eye(4)])
    empty, one = np.zeros((4, 0)), np.eye(4)[:, :1]
    assert _frame_drift(u, [empty, empty], [empty, empty]) == 0.0
    assert _frame_drift(u, [empty, one], [empty, np.eye(4)[:, :2]]) == 1.0
    assert _frame_drift(u, [one, one], [empty, one]) == 1.0


# --- the flow ODE ------------------------------------------------------------------


def test_flow_two_level_transport():
    h0 = np.diag([0.0, 1.0])
    flow = flow_unitaries(*flow_pair(h0, SX), 0.1, Window(GAMMA),
                          checkpoints=8, ode_tol=ODE_TOL, keep=range(8))
    assert len(flow.eps_grid) == 8              # an even count is kept
    assert flow.eps == pytest.approx(0.1)
    assert len(flow.sectors) == 1               # sigma^x flips the parity
    assert list(flow.unitaries) == list(range(8))
    for u in flow.unitaries.values():
        u = join_blocks(u, flow.sectors)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert flow.projector_drift <= 1e-8
    assert flow.gap_floor == pytest.approx(1.0, abs=1e-12)   # sqrt(1+4s^2) >= 1
    # conjugation preserves the spectrum: V = U* H(eps) U - H0
    u = join_blocks(flow.unitaries[7], flow.sectors)
    v = u.conj().T @ (h0 + flow.eps * SX) @ u - h0
    np.testing.assert_allclose(np.linalg.eigvalsh(h0 + v),
                               np.linalg.eigvalsh(h0 + 0.1 * SX), atol=1e-10)


def _assert_transports(flow, h0, psi, cluster_dim):
    """Every U(s) the flow kept is unitary to 1e-12 and carries P(0) to the
    cluster projector of H(s), solved afresh."""
    eye = np.eye(h0.shape[0])
    for j, u in flow.unitaries.items():
        s = flow.eps_grid[j]
        u = join_blocks(u, flow.sectors)
        np.testing.assert_allclose(u @ u.conj().T, eye, rtol=0, atol=1e-12)
        vecs = np.linalg.eigh(h0 + s * psi)[1][:, :cluster_dim]
        np.testing.assert_allclose(u @ join_blocks(flow.p0, flow.sectors)
                                   @ u.conj().T,
                                   vecs @ vecs.conj().T, rtol=0, atol=1e-8)


def test_flow_runs_in_the_field_of_its_inputs():
    """A real symmetric pair flows with real U and K; a complex Hermitian
    pair, with the same code, in complex arithmetic (``K`` read at both
    ends, where the flow keeps it)."""
    h6 = np.diag([0.0, 1.0, 1.2, 1.5, 2.0, 3.0])
    cases = [(np.diag([0.0, 1.0]), SX, 0.1, np.float64),
             (np.diag([0.0, 1.0]), SY, 0.1, np.complex128),
             (h6, _random_pair()[1], 0.01, np.complex128),
             (h6, _random_pair()[1].real, 0.01, np.float64)]
    for h0, psi, eps, dtype in cases:
        flow = flow_unitaries(*flow_pair(h0, psi), eps, Window(GAMMA),
                              checkpoints=5, ode_tol=ODE_TOL, keep=range(5))
        assert all(u.dtype == dtype for u in flow.unitaries.values())
        ks = [k for _, _, k in flow.end_spectra]
        assert all(k.dtype == dtype for k in ks)
        for k in ks:                                 # K = iD is anti-Hermitian
            k = join_blocks(k, flow.sectors)
            np.testing.assert_allclose(k, -k.conj().T, rtol=0, atol=1e-14)
        _assert_transports(flow, h0, psi, 1)


def _keeps_nothing(ops, moduli=(None, 2)):
    """``conserved_modulus`` as if no term kept a charge: one sector."""
    return 1


def test_flow_solves_h0_once(monkeypatch):
    """H(0) is diagonalized once, as its stack of parity blocks, for the
    generator at s = 0; the cluster projector p0 is read from that
    decomposition."""
    h0 = np.diag([0.0, 1.0, 1.2, 1.5])
    psi = parity_even(_random_pair()[1][:4, :4])
    sectors = charge_sectors(2, 2, 2)
    solved = recorded(monkeypatch, "eigh")
    flow = flow_unitaries(*flow_pair(h0, psi), 0.01, Window(GAMMA),
                          checkpoints=5, ode_tol=ODE_TOL)
    h0_blocks = split_blocks(h0, sectors)
    assert sum(np.array_equal(h, h0_blocks) for h in solved) == 1
    evals, evecs, _ = flow.end_spectra[0]
    block, col = np.unravel_index(np.argmin(evals), evals.shape)
    v0 = evecs[block][:, [col]]
    p0 = np.zeros_like(evecs)
    p0[block] = v0 @ v0.conj().T
    np.testing.assert_array_equal(flow.p0, p0)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_flow_on_parity_blocks_matches_the_one_block_flow(k, complex_, seed):
    """The flow of a parity-even pair, run on its two parity blocks, agrees
    with the same flow run on one block holding the whole matrix (the
    flow's charge rule made to find no charge kept), and keeps the blocks
    exactly."""
    h0, psi = even_pair(np.random.default_rng(seed), 2 ** k, complex_)
    args = (0.05, Window(GAMMA))
    blocked = flow_unitaries(*flow_pair(h0, psi), *args, checkpoints=5,
                             ode_tol=ODE_TOL, keep=range(5))
    with patch.object(spectral_flow, "conserved_modulus", _keeps_nothing):
        whole = flow_unitaries(*flow_pair(h0, psi), *args, checkpoints=5,
                               ode_tol=ODE_TOL, keep=range(5))
    assert (blocked.modulus, whole.modulus) == (2, 1)
    assert len(blocked.sectors) == 2 and len(whole.sectors) == 1

    def kept(flow):
        return [*flow.unitaries.values(), *(k for _, _, k in flow.end_spectra)]

    pairs = [(join_blocks(a, blocked.sectors), join_blocks(b, whole.sectors))
             for a, b in zip(kept(blocked), kept(whole))]
    pairs.append((join_blocks(blocked.p0, blocked.sectors),
                  join_blocks(whole.p0, whole.sectors)))
    for a, b in pairs:
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(parity_even(a), a)
    assert blocked.gap_floor == pytest.approx(whole.gap_floor, abs=1e-12)
    assert blocked.projector_drift == pytest.approx(whole.projector_drift,
                                                    abs=1e-12)


def test_flow_of_a_parity_mixing_pair_runs_as_one_block(monkeypatch):
    h0, psi = even_pair(np.random.default_rng(4), 8, False)
    psi[0, 1] = psi[1, 0] = 0.1          # couples the two parity sectors
    solved = recorded(monkeypatch, "eigh")
    flow = flow_unitaries(*flow_pair(h0, psi), 0.05, Window(GAMMA),
                          checkpoints=5, ode_tol=ODE_TOL, keep=[4])
    assert solved and {a.shape for a in solved} == {(1, 8, 8)}
    assert len(flow.sectors) == 1
    assert join_blocks(flow.unitaries[4], flow.sectors)[0, 1] != 0.0


def test_flow_rejects_closing_gap():
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])          # gap 1 - 2s collapses under the filter
    with pytest.raises(RuntimeError):
        flow_unitaries(*flow_pair(h0, psi), 0.45, Window(GAMMA),
                       checkpoints=9, ode_tol=ODE_TOL)


def test_flow_reads_its_cluster_off_the_solve_at_coupling_zero(monkeypatch):
    """On the default flow volume (8 sites, perturbation radius 2, 33
    checkpoints) the flow tracks the kernel of ``H0`` read off its own
    solve at s = 0: ``P(0)`` has the closed-form kernel dimension as its
    rank, and counting it takes no solve: one ``eigh`` of the stack of
    parity blocks per checkpoint coupling, and no other."""
    lam = Interval(0, 7)
    eta = orbital_interaction(lam)
    pert = random_even_perturbation(lam, 2, ENVELOPE, seed=7)
    psi = split_edge_bulk(pert, lam, 2).bulk
    solved = recorded(monkeypatch, "eigh")
    flow = flow_unitaries(eta, psi, lam, 0.02, Window(GAMMA), CHECKPOINTS,
                          ODE_TOL)
    assert [a.shape for a in solved] == [(2, 128, 128)] * 33
    rank = np.trace(flow.p0, axis1=-2, axis2=-1).sum()
    assert rank == pytest.approx(kernel_data(lam)[0], abs=1e-12)


def test_flow_without_a_kernel_to_track_is_refused():
    """``H0 = diag(1, 2)`` has no kernel: without a cluster size the flow
    has nothing to track."""
    with pytest.raises(FrustrationError, match="no kernel"):
        flow_unitaries(*flow_pair(np.diag([1.0, 2.0]), SX), 0.1,
                       Window(GAMMA), checkpoints=5, ode_tol=ODE_TOL)


def test_flow_whose_cluster_is_the_whole_spectrum_reads_an_infinite_gap():
    """``H0 = 0`` is all kernel: the tracked cluster is the whole spectrum
    at every checkpoint, with nothing above it, so the gap reads ``inf``
    (as ``SpectrumSplit.gamma`` reads an empty rest), ``P(0)`` is the
    identity and the projector does not drift."""
    flow = flow_unitaries(*flow_pair(np.zeros((2, 2)), SX), 0.1,
                         Window(0.8), checkpoints=5, ode_tol=ODE_TOL)
    assert flow.gap_floor == np.inf
    assert np.array_equal(flow.p0, np.eye(2)[None])
    assert flow.projector_drift <= 1e-15
    evals, evecs = diagonalize(np.zeros((1, 2, 2)))
    gap, frames = spectra.cluster_projector(evals, evecs, 2)
    assert gap == np.inf and [v.shape for v in frames] == [(2, 2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 16), st.booleans(),
       st.floats(0.0, 0.045), st.integers(0, 2 ** 32 - 1))
def test_polar_step_gives_the_svd_polar_factor(blocks, side, complex_,
                                               size, seed):
    """On near-unitary stacks (Frobenius defect up to about 0.1) the
    Newton-Schulz step agrees with the SVD's polar factor to 1e-13 and is
    unitary to 1e-14."""
    rng = np.random.default_rng(seed)
    q = np.stack([np.linalg.qr(random_matrix(rng, side, complex_))[0]
                  for _ in range(blocks)])
    e = np.stack([random_matrix(rng, side, complex_) for _ in range(blocks)])
    u = q + size * e / np.linalg.norm(e)
    got = _polar_unitary(u)
    assert got.dtype == u.dtype
    assert np.max(np.abs(got - svd_polar(u))) <= 1e-13
    gram = got.conj().swapaxes(-1, -2) @ got
    assert np.max(np.abs(gram - np.eye(side))) <= 1e-14


def test_polar_step_refuses_a_defect_outside_its_radius():
    """From 2 I the iteration would reach -I, not the polar factor I."""
    with pytest.raises(RuntimeError, match="polar step not certified"):
        _polar_unitary(2.0 * np.eye(3))


# --- anchored decomposition on a small chain ---------------------------------------


@pytest.fixture(scope="module")
def bundle():
    lam = Interval(0, 7)
    eta = orbital_interaction(lam)
    pert = random_even_perturbation(lam, 1,
                                    {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0},
                                    seed=7)
    psi = split_edge_bulk(pert, lam, 1).bulk
    kdim, _ = kernel_data(lam)
    flow = flow_unitaries(eta, psi, lam, 0.02, Window(GAMMA), checkpoints=9,
                          ode_tol=ODE_TOL, keep=range(9))
    return {"lam": lam, "eta": eta, "psi": psi, "flow": flow, "kdim": kdim,
            "p0": flow.p0, "dec": decompose_phi1(flow, eta, psi, lam),
            "h0": local_hamiltonian(eta, lam).matrix,
            "hp": local_hamiltonian(psi, lam).matrix}


def test_generator_routes_agree_on_the_default_horizon(bundle):
    """On the chain (spectral width 8) the time quadrature, at the one
    horizon it has, reproduces the generator the flow ran to 1e-10, on the
    decompositions the flow kept at both ends: the solves of the two parity
    blocks, the sectors the scan of the whole matrices finds."""
    flow, hp = bundle["flow"], bundle["hp"]
    assert np.ptp(np.linalg.eigvalsh(bundle["h0"])) == pytest.approx(8.0)
    sectors = parity_sectors(bundle["h0"], hp)
    assert len(sectors) == 2
    for mine, ref in zip(flow.sectors, sectors):
        np.testing.assert_array_equal(mine, ref)
    np.testing.assert_array_equal(flow.psi, split_blocks(hp, sectors))
    w = Window(GAMMA)
    for s, (evals, evecs, k_flow) in zip((0.0, flow.eps), flow.end_spectra):
        h = bundle["h0"] + s * hp
        block_evals, block_evecs = diagonalize(split_blocks(h, sectors))
        np.testing.assert_array_equal(evals, block_evals)
        np.testing.assert_array_equal(evecs, block_evecs)
        whole_evals = np.empty(h.shape[0])
        whole_evals[np.concatenate(sectors)] = evals.ravel()
        whole_evecs = join_blocks(evecs, sectors)
        assert np.max(np.abs(h @ whole_evecs
                             - whole_evecs * whole_evals)) <= 1e-12
        np.testing.assert_array_equal(
            k_flow, eigenbasis_generator(block_evals, block_evecs,
                                         split_blocks(hp, sectors), w))
        d_time = time_quadrature_generator(evals, evecs, flow.psi, w)
        assert operator_norm(join_blocks(k_flow - d_time, sectors)) <= 1e-10


def _complex_rk4_flow(h0, psi, grid, window, ode_tol=1e-8):
    """The flow in complex arithmetic: D from the eigenbasis filter,
    U' = i D U, RK4 with a polar step after each step, substeps doubled
    until two refinements agree to ``ode_tol``."""
    cache = {}

    def gen(s):
        key = round(float(s), 15)
        if key not in cache:
            evals, evecs = diagonalize(h0 + s * psi)
            psi_eig = evecs.conj().T @ psi @ evecs
            weight = window.weight(evals[:, None] - evals[None, :])
            cache[key] = evecs @ (1j * weight * psi_eig) @ evecs.conj().T
        return cache[key]

    def integrate(substeps):
        u = np.eye(h0.shape[0], dtype=complex)
        out = [u.copy()]
        for a, b in zip(grid[:-1], grid[1:]):
            h_step = (b - a) / substeps
            for k in range(substeps):
                s = a + k * h_step
                k1 = 1j * gen(s) @ u
                k2 = 1j * gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k1)
                k3 = 1j * gen(s + 0.5 * h_step) @ (u + 0.5 * h_step * k2)
                k4 = 1j * gen(s + h_step) @ (u + h_step * k3)
                u = svd_polar(u + (h_step / 6.0)
                              * (k1 + 2 * k2 + 2 * k3 + k4))
            out.append(u.copy())
        return out

    substeps, prev = 1, integrate(1)
    for _ in range(8):
        substeps *= 2
        cur = integrate(substeps)
        err = max(np.linalg.norm(c - p, 2) for c, p in zip(cur, prev))
        prev = cur
        if err <= ode_tol:
            return prev
    raise AssertionError("oracle flow did not converge")


def test_real_flow_matches_the_complex_arithmetic_oracle(bundle):
    flow = bundle["flow"]
    assert all(u.dtype == np.float64 for u in flow.unitaries.values())
    oracle = _complex_rk4_flow(bundle["h0"], bundle["hp"], flow.eps_grid,
                               Window(GAMMA))
    assert len(oracle) == len(flow.unitaries)
    for u, u_ref in zip(flow.unitaries.values(), oracle):
        assert np.max(np.abs(join_blocks(u, flow.sectors) - u_ref)) <= 1e-12
    _assert_transports(flow, bundle["h0"], bundle["hp"], bundle["kdim"])


def _counted_generators(monkeypatch) -> list:
    """The list to which each ``eigenbasis_generator`` call of the flow
    appends, from now on."""
    calls = []
    original = spectral_flow.eigenbasis_generator

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_flow, "eigenbasis_generator", counted)
    return calls


def test_flow_refinement_past_the_first_pair_matches_the_oracle(monkeypatch):
    """A tolerance below the Richardson estimate of the first pair (one
    step per interval against one across two, as two intervals have) sends
    the flow on to the passes of one against two and two against four
    steps per interval, each of which forms every generator of its grid
    again (four, then eight, per interval and the one at s = 0), solving
    all but the two ends, whose decompositions are kept, and its unitaries
    agree with the complex-arithmetic oracle run to the same tolerance."""
    h0, psi = even_pair(np.random.default_rng(0), 4, False)
    window, tol = Window(GAMMA), 1e-13
    calls = _counted_generators(monkeypatch)
    first = flow_unitaries(*flow_pair(h0, psi), 0.05, window,
                           checkpoints=3, ode_tol=1.0)
    assert first.ode_error > tol and len(calls) == 2 * 2 + 1
    calls.clear()
    solved = recorded(monkeypatch, "eigh")
    flow = flow_unitaries(*flow_pair(h0, psi), 0.05, window,
                          checkpoints=3, ode_tol=tol,
                          keep=range(3))
    assert flow.ode_error <= tol
    assert len(calls) == 2 * 2 + 1 + 4 * 2 + 1 + 8 * 2 + 1
    assert len(solved) == len(calls) - 2 * 2       # each end solved once
    oracle = _complex_rk4_flow(h0, psi, flow.eps_grid, window, ode_tol=tol)
    for u, u_ref in zip(flow.unitaries.values(), oracle):
        assert np.max(np.abs(join_blocks(u, flow.sectors) - u_ref)) <= 1e-12
    _assert_transports(flow, h0, psi, 2)


def test_refined_flow_decomposes_the_accepted_pass(monkeypatch):
    """A tolerance below the first pass's Richardson estimate sends the flow
    on to later passes, which form every generator again, and the flow
    keeps the last pass's ``U``: the decomposition is read off the accepted
    pass's unitary, which agrees with the complex-arithmetic oracle run to
    the same tolerance, and not off the first pass's, which a flow that
    stops after one pass keeps."""
    h0, psi = even_pair(np.random.default_rng(0), 4, False)
    eta_i, psi_i, lam = flow_pair(h0, psi)
    window, tol = Window(GAMMA), 1e-13
    calls = _counted_generators(monkeypatch)
    args = (eta_i, psi_i, lam, 0.05, window)
    first = flow_unitaries(*args, checkpoints=3, ode_tol=1.0,
                           keep=[2])
    calls.clear()
    flow = flow_unitaries(*args, checkpoints=3, ode_tol=tol,
                          keep=[2])
    assert len(calls) == 2 * 2 + 1 + 4 * 2 + 1 + 8 * 2 + 1    # three passes
    assert list(flow.unitaries) == [2]
    u = flow.unitaries[2]
    assert not np.array_equal(u, first.unitaries[2])
    oracle = _complex_rk4_flow(h0, psi, flow.eps_grid, window, ode_tol=tol)
    assert np.max(np.abs(join_blocks(u, flow.sectors) - oracle[2])) <= 1e-12
    dec = decompose_phi1(flow, eta_i, psi_i, lam)
    np.testing.assert_array_equal(
        dec.v_true,
        u.conj().swapaxes(-1, -2) @ (flow.h0 + flow.eps * flow.psi) @ u
        - flow.h0)
    assert not np.array_equal(
        dec.v_true, decompose_phi1(first, eta_i, psi_i, lam).v_true)


@pytest.mark.parametrize("checkpoints, generators, solves",
                         [(9, 9, 9), (17, 17, 17), (5, 5 + 9, 5 + 7),
                          (3, 5, 5), (4, 13, 13)],
                         ids=["9", "17", "5", "3", "4"])
def test_each_first_rung_solves_its_nodes_within_the_oracle_estimate(
        checkpoints, generators, solves, monkeypatch):
    """The first pass is the coarsest pair whose partner lands on the end.
    With ``M`` checkpoint intervals and 4 dividing ``M`` it pairs steps
    across two intervals with steps across four and forms the ``M + 1``
    checkpoint generators and no other (9 and 17 checkpoints); at 5 the
    estimate of that pair is refused, and the pass of one step per
    interval against one across two forms ``2M + 1`` more, solving all but
    the two ends, whose decompositions are kept.  With ``M = 2 (mod 4)``
    the first pass is that pair, ``2M + 1`` solves, and with an odd ``M``,
    whose end a step across two intervals cannot land on, one against two
    steps per interval, ``4M + 1``.  The accepted unitaries, the ones read
    off the Hermite interpolant between landings too, lie within the
    reported Richardson estimate of the complex-arithmetic oracle run to
    1e-14 at every checkpoint, and the estimate exceeds the worst true
    error tenfold (measured ratios: 15.6 at 9 checkpoints, 15.8 at 17, 15.0
    at 5, 3 and 4)."""
    h0, psi = even_pair(np.random.default_rng(1), 4, False)
    window = Window(GAMMA)
    calls = _counted_generators(monkeypatch)
    solved = recorded(monkeypatch, "eigh")
    flow = flow_unitaries(*flow_pair(h0, psi), 0.1, window,
                          checkpoints=checkpoints, ode_tol=ODE_TOL,
                          keep=range(checkpoints))
    assert (len(calls), len(solved)) == (generators, solves)
    assert flow.ode_error >= 1e-12
    oracle = _complex_rk4_flow(h0, psi, flow.eps_grid, window, ode_tol=1e-14)
    errors = [np.linalg.norm(join_blocks(u, flow.sectors) - u_ref, 2)
              for u, u_ref in zip(flow.unitaries.values(), oracle)]
    assert len(errors) == checkpoints
    assert 10 * max(errors) <= flow.ode_error


def _complex_hermitian(phi):
    """Each term ``m`` made complex Hermitian, ``m + i [m, n] / 10`` for
    the diagonal ``n = diag(0, 1/d, 2/d, ...)``: as parity-even as ``m``."""
    terms = []
    for t in phi.terms:
        m = t.op.matrix
        n = np.diag(np.arange(len(m)) / len(m))
        terms.append(Term(replace(t.op, matrix=m + 0.1j * (m @ n - n @ m)),
                          t.anchor, t.radius))
    return Interaction(terms, phi.kind, phi.local_dim)


@pytest.mark.parametrize("one_block", [False, True])
@pytest.mark.parametrize("complex_", [False, True])
def test_end_point_pieces_equal_the_simpson_oracle(bundle, complex_,
                                                   one_block):
    """The anchored pieces read off the end point, ``U(s)* h_x(s) U(s) -
    h_x(0)``, equal those of composite Simpson along the flow (the integral
    they stand for, as the decomposition took it before) to 1e-12 of their
    scale, at the checkpoints 4 and 8 and at the default form-bound stops:
    for a real and a complex Hermitian perturbation, on the flow's parity
    blocks and on one block (the flow's charge rule made to find no charge
    kept).  At each stop the pieces sum to ``V(s)`` to rounding, before
    their correction and after it.  The scale is the largest entry of the
    anchored terms: both routes round at the size of ``U* h_x U`` before it
    cancels down to the piece, of size ``s`` (measured: the routes differ
    by at most 1.4e-15, the sums by at most 5.7e-15, at a scale of 1)."""
    lam, eta = bundle["lam"], bundle["eta"]
    psi = _complex_hermitian(bundle["psi"]) if complex_ else bundle["psi"]
    window = Window(GAMMA)
    with patch.object(spectral_flow, "conserved_modulus",
                      _keeps_nothing if one_block
                      else spectral_flow.conserved_modulus):
        flow = flow_unitaries(eta, psi, lam, 0.02, window, checkpoints=9,
                              ode_tol=ODE_TOL, keep=range(9))
    assert flow.modulus == (1 if one_block else 2)
    assert flow.unitaries[8].dtype == (np.complex128 if complex_
                                       else np.float64)
    stops = [[4, 8], _form_bound_checkpoints(8)]
    assert stops[1] == [2, 4, 8]
    scale = max(np.max(np.abs(t.op.matrix)) for t in eta.terms + psi.terms)
    for uptos in stops:
        oracle = simpson_oracle(flow, eta, psi, lam, uptos, window)
        for upto, ref in zip(uptos, oracle):
            dec = decompose_phi1(flow, eta, psi, lam, upto)
            assert dec.anchors.keys() == ref.anchors.keys()
            np.testing.assert_array_equal(dec.v_true, ref.v_true)
            for x, vx in dec.anchors.items():
                assert vx.dtype == ref.anchors[x].dtype
                assert vx.shape == flow.h0.shape
                assert np.max(np.abs(vx - ref.anchors[x])) <= 1e-12 * scale
            assert dec.anchor_sum_residual <= 1e-13 * scale
            assert operator_norm(sum(dec.anchors.values())
                                 - dec.v_true) <= 1e-13 * scale


def _traced_flow(bundle, checkpoints):
    """The L = 8 flow at ``checkpoints`` and its peak of traced memory."""
    return traced_peak(lambda: flow_unitaries(
        bundle["eta"], bundle["psi"], bundle["lam"], 0.02, Window(GAMMA),
        checkpoints=checkpoints, ode_tol=ODE_TOL))


def test_default_flow_solves_each_coupling_once_in_a_peak_the_checkpoints_do_not_set(
        bundle, monkeypatch):
    """The default 33 checkpoints on the L = 8 chain: the lockstep pair of
    steps across two and four intervals solves each of the 33 checkpoint
    couplings once and no other, and no generator outlives the span of
    four intervals that the partner's step crosses, so the flow's traced
    peak is that of 9 checkpoints to 1 % (measured: 5.65 MiB at both, 22.6
    stacks of 256 KiB)."""
    _, peak_9 = _traced_flow(bundle, 9)
    calls = _counted_generators(monkeypatch)
    flow, peak = _traced_flow(bundle, 33)
    assert len(flow.eps_grid) == 33 and len(calls) == 33
    assert peak <= 1.01 * peak_9
    assert peak <= 26 * flow.h0.nbytes


def test_generator_and_filter_checks_work_in_small_phase_blocks(
        bundle, monkeypatch):
    """The cross-checks of ``flow`` on the L = 8 chain (1146 panels of 8
    nodes, 256 eigenvalues in two blocks): the time-quadrature generator at
    both ends and the filter identity on both widths, forming their time
    rule afresh, peak within 5 % above the measured 2.30 MiB of traced
    memory (4.70 MiB with the node rule's 2 MiB filter-identity tables,
    6.77 MiB with a phase table for the whole stack and the old time
    rule's rows).  The generator, formed one block at a time, is the whole
    stack's product bit for bit and agrees with the one-shot product; the
    time rule's weights are those of row blocks eight times as large, bit
    for bit.  The one-shot product is allowed ``4 eps sum|c| |Psi|_F``,
    the bound derived in
    ``test_time_quadrature_in_node_blocks_matches_the_one_shot_product``
    (measured: 0.011 of ``eps sum|c| |Psi|_F`` at 1 and 2 BLAS threads;
    1e-15 of the largest entry, the bound before, was reached to 0.61 of
    it)."""
    flow, w = bundle["flow"], Window(GAMMA)
    _panel_rule.cache_clear()

    def checks():
        generators = [time_quadrature_generator(evals, evecs, flow.psi, w)
                      for evals, evecs, _ in flow.end_spectra]
        for evals, _, _ in flow.end_spectra:
            filter_identity_residual(w, np.linspace(0.0, np.ptp(evals), 401))
        return generators

    generators, peak = traced_peak(checks)
    assert peak <= 1.05 * 2.30 * 2 ** 20
    for k_time, (evals, evecs, _) in zip(generators, flow.end_spectra):
        assert np.array_equal(
            k_time, time_quadrature_stacked(evals, evecs, flow.psi, w))
        ref = time_quadrature_one_shot(evals, evecs, flow.psi, w)
        assert np.max(np.abs(k_time - ref)) <= _weight_rounding(
            w, evals, flow.psi)[0]
    small = _time_rule(w, np.ptp(flow.end_spectra[0][0]))[2]
    _panel_rule.cache_clear()
    monkeypatch.setattr(spectral_flow, "_PHASE_BLOCK",
                        8 * spectral_flow._PHASE_BLOCK)
    assert np.array_equal(small, _time_rule(w, np.ptp(
        flow.end_spectra[0][0]))[2])
    _panel_rule.cache_clear()


def test_decomposition_reconstructs_exactly(bundle):
    dec = bundle["dec"]
    total = sum(dec.anchors.values())
    assert operator_norm(total - dec.v_true) <= 1e-12
    assert dec.anchor_sum_residual <= 1e-8
    assert dec.max_kernel_commutator <= 1e-6


def test_ball_telescopes_close(bundle):
    from gaplab.operator_algebra import embed
    dec, lam = bundle["dec"], bundle["lam"]
    grouped = telescope(dec).anchored()
    for x, vx in dec.anchors.items():
        total = sum(embed(t.op, lam).matrix for t in grouped[x])
        assert operator_norm(total - join_blocks(vx, dec.sectors)) <= 1e-10


def test_upto_argument_is_validated(bundle):
    """A decomposition is made at a checkpoint whose ``U`` the flow kept,
    and a flow keeps only checkpoints of its grid."""
    flow = bundle["flow"]
    kept = replace(flow, unitaries={j: flow.unitaries[j] for j in (4, 8)})
    terms = (bundle["eta"], bundle["psi"], bundle["lam"])
    dec4 = decompose_phi1(kept, *terms, 4)
    np.testing.assert_array_equal(
        dec4.v_true, decompose_phi1(flow, *terms, 4).v_true)
    for bad in (0, 3, 40):
        with pytest.raises(ValueError, match="the flow kept"):
            decompose_phi1(kept, *terms, bad)
    with pytest.raises(ValueError, match="not a checkpoint index"):
        flow_unitaries(*flow_pair(np.diag([0.0, 1.0]), SX), 0.1,
                       Window(GAMMA), checkpoints=3, ode_tol=ODE_TOL, keep=[3])


def _decompositions(bundle, uptos, one_block=False):
    """The decompositions of the bundle's flow at ``uptos``; with
    ``one_block``, of the same flow with its stacks joined into one block
    of whole matrices."""
    flow = bundle["flow"]
    if one_block:
        def one(m):
            return join_blocks(m, flow.sectors)[None]

        flow = replace(flow, sectors=[np.arange(flow.h0.shape[-1] * 2)],
                       modulus=1, h0=one(flow.h0), psi=one(flow.psi),
                       p0=one(flow.p0),
                       unitaries={j: one(u) for j, u in flow.unitaries.items()})
    return [decompose_phi1(flow, bundle["eta"], bundle["psi"], bundle["lam"],
                           upto) for upto in uptos]


def test_decomposition_on_parity_blocks_matches_one_block(bundle):
    """On the flow's parity blocks the decomposition keeps block stacks on
    the flow's sectors, which, joined, agree with the same decomposition of
    the same flow held as one block of whole matrices."""
    flow = bundle["flow"]
    blocked = _decompositions(bundle, [4, 8])
    whole = _decompositions(bundle, [4, 8], one_block=True)
    for dec, ref in zip(blocked, whole):
        assert dec.sectors is flow.sectors and len(ref.sectors) == 1
        assert dec.v_true.shape == (2, 128, 128)
        np.testing.assert_allclose(join_blocks(dec.v_true, dec.sectors),
                                   ref.v_true[0], rtol=0, atol=1e-12)
        assert dec.anchors.keys() == ref.anchors.keys()
        for x, vx in dec.anchors.items():
            assert vx.shape == (2, 128, 128)
            vx = join_blocks(vx, dec.sectors)
            np.testing.assert_allclose(vx, ref.anchors[x][0], rtol=0,
                                       atol=1e-12)
            np.testing.assert_array_equal(parity_even(vx), vx)
        for name in ("anchor_sum_residual", "cross_residual",
                     "max_kernel_commutator"):
            assert getattr(dec, name) == pytest.approx(getattr(ref, name),
                                                       abs=1e-12)


def test_flow_and_decomposition_solve_no_matrix_of_the_chains_side(
        bundle, monkeypatch):
    """On the L = 8 chain (side 256) every eigensolve of the flow and of its
    decomposition is taken on a parity block of side 128, and neither calls
    an SVD or a matrix 2-norm (a values-only SVD): the polar steps are
    Newton-Schulz products and every norm is an eigensolve."""
    solved = [recorded(monkeypatch, name) for name in ("eigh", "eigvalsh")]
    svds = recorded(monkeypatch, "svd")
    original_norm = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(np.shape(x))
        return original_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    flow = flow_unitaries(bundle["eta"], bundle["psi"], bundle["lam"], 0.02,
                          Window(GAMMA), checkpoints=9, ode_tol=ODE_TOL,
                          keep=[8])
    decompose_phi1(flow, bundle["eta"], bundle["psi"], bundle["lam"])
    shapes = [a.shape for calls in solved for a in calls]
    assert (2, 128, 128) in shapes
    assert max(shape[-1] for shape in shapes) == 128
    assert svds == []


def _arrays(value):
    """Every array in ``value``: an array, or a list, tuple or dict of
    them."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _arrays(item)


def test_flow_hands_on_block_stacks_and_the_decomposition_reads_them(
        bundle, monkeypatch):
    """On the L = 8 chain (side 256) the flow holds no array of side 256,
    and neither do its decompositions.  The decomposition assembles one
    stack per anchor and interaction, at the flow's modulus, and the
    parity of each anchor's terms alone is read, once per stack, by the
    check ``charge_blocks`` makes of a given modulus, never of a matrix of
    the flow."""
    flow, eta, psi = bundle["flow"], bundle["eta"], bundle["psi"]
    assert len(flow.unitaries) == 9
    for field in fields(flow):
        for a in _arrays(getattr(flow, field.name)):
            assert 256 not in a.shape, field.name
    stacked, tested = [], []
    original_stack = spectral_flow.charge_stack
    original_modulus = interaction.conserved_modulus

    def stack(phi, lam, modulus):
        stacked.append(([t.op for t in phi.terms],
                        {t.anchor for t in phi.terms}, modulus))
        return original_stack(phi, lam, modulus)

    def conserved(ops, moduli=(None, 2)):
        tested.append((ops, moduli))
        return original_modulus(ops, moduli)

    monkeypatch.setattr(spectral_flow, "charge_stack", stack)
    monkeypatch.setattr(interaction, "conserved_modulus", conserved)
    dec = decompose_phi1(flow, eta, psi, bundle["lam"])
    anchors = set(eta.anchored()) | set(psi.anchored())
    assert len(stacked) == len(tested) == 2 * len(anchors)
    assert all(len(group) <= 1 and modulus == flow.modulus == 2
               for _, group, modulus in stacked)
    for (stacked_ops, _, _), (ops, moduli) in zip(stacked, tested):
        assert moduli == (flow.modulus,)
        assert len(ops) == len(stacked_ops)
        assert all(op is own for op, own in zip(ops, stacked_ops))
    for a in [dec.v_true, *dec.anchors.values()]:
        assert a.shape == (2, 128, 128)


def test_flow_and_its_readers_assemble_nothing_on_the_volume(bundle,
                                                              monkeypatch):
    """``flow_unitaries``, ``decompose_phi1``, ``resolution_family`` and
    ``theta_assembly`` call neither ``local_hamiltonian`` nor ``embed``:
    every stack on the flow's volume (``H0``, ``Psi``, the anchored
    terms, the ball projectors and the ball terms) is assembled straight
    into its parity blocks by ``charge_stack``, and the balls' kernels are
    solved in their charge blocks, so no Hamiltonian is assembled whole."""
    lam, eta, psi = bundle["lam"], bundle["eta"], bundle["psi"]
    ball_terms = {x: bundle["dec"].ball_terms(x) for x in (2, 3, 4, 5)}
    called = []

    def recorded(name, original):
        def wrapper(what, where, *args):
            called.append((name, where))
            return original(what, where, *args)
        return wrapper

    for module in (interaction, operator_algebra, spectra, spectral_flow):
        for name in ("local_hamiltonian", "embed", "charge_stack"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recorded(name, getattr(module, name)))
    flow = flow_unitaries(eta, psi, lam, 0.02, Window(GAMMA), checkpoints=9,
                          ode_tol=ODE_TOL, keep=[8])
    decompose_phi1(flow, eta, psi, lam)
    for x, terms in ball_terms.items():
        theta_assembly(terms, resolution_family(eta, lam, x, flow.p0,
                                                flow.modulus))
    volumes = {name: [where for n, where in called if n == name]
               for name in ("local_hamiltonian", "embed", "charge_stack")}
    assert volumes["embed"] == []
    assert volumes["local_hamiltonian"] == []
    anchors = set(eta.anchored()) | set(psi.anchored())
    n_stacks = 2 + 2 * len(anchors) + sum(
        boundary_distances(lam, x)[0] + len(terms)
        for x, terms in ball_terms.items())
    assert volumes["charge_stack"] == [lam] * n_stacks


def test_decomposition_rejects_terms_that_break_the_flows_parity_blocks(
        bundle):
    """An odd term and its negative at two anchors leave Psi as it was, but
    each anchored sum breaks the parity blocks the flow ran on, and
    ``charge_stack`` refuses to place it there.  No fermionic term is odd,
    so Psi and the pair are taken as spin terms."""
    psi = fermion_to_spin(bundle["psi"])
    term = psi.terms[0]
    odd = np.kron(SX, np.eye(term.op.matrix.shape[0] // 2))
    a, b = sorted(psi.anchored())[:2]
    broken = replace(psi, terms=psi.terms + [
        replace(term, op=replace(term.op, matrix=m), anchor=x)
        for m, x in ((odd, a), (-odd, b))])
    with pytest.raises(ValueError, match=re.escape(
            f"terms inside {bundle['lam']} break the charge sectors at "
            f"modulus {bundle['flow'].modulus}")):
        decompose_phi1(bundle["flow"], bundle["eta"], broken, bundle["lam"])


def test_ball_terms_are_built_per_anchor_when_asked(bundle, monkeypatch):
    """The decompositions of one pass build no ball telescope; asking for
    an anchor's ball terms builds that anchor's alone: one conditional
    expectation per ball ``b_x(1) .. b_x(R_x)``, each ball's after the
    layer below it, and ``R_x - 1`` layers, by radius 1 .. ``R_x``.  A
    site that anchors no piece has none."""
    calls = []
    for name in ("conditional_expectation", "delta_layer"):
        def counted(*args, _name=name,
                    _original=getattr(spectral_flow, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral_flow, name, counted)
    lam = bundle["lam"]
    decs = _decompositions(bundle, [4, 8])
    assert calls == []
    for x in decs[1].anchors:
        big_r = boundary_distances(lam, x)[1]
        terms = decs[1].ball_terms(x)
        assert [(t.anchor, t.radius) for t in terms] \
            == [(x, n) for n in range(1, big_r + 1)]
        assert calls == ["conditional_expectation"] \
            + ["conditional_expectation", "delta_layer"] * (big_r - 1)
        calls.clear()
    assert decs[1].ball_terms(lam.b + 1) == []


def test_ball_terms_per_anchor_give_the_whole_telescopes_norms_bit_for_bit(
        bundle):
    """The per-anchor ball terms, anchor by anchor, are the terms of the
    whole telescope built at once, in its order, and their ``(support,
    norm)`` pairs are its pairs bit for bit: their order sets the summation
    of ``f_norm``."""
    dec = bundle["dec"]
    mine, ref = telescope(dec).terms, telescope_oracle(dec).terms
    assert [(t.support, t.anchor, t.radius) for t in mine] \
        == [(t.support, t.anchor, t.radius) for t in ref]
    for a, b in zip(mine, ref):
        np.testing.assert_array_equal(a.op.matrix, b.op.matrix)
    assert [(t.support, t.op.norm()) for t in mine] \
        == [(t.support, t.op.norm()) for t in ref]


def _whole_split(dec, p0):
    """``split_whole`` of a blocked decomposition, its stacks joined."""
    def whole(m):
        return join_blocks(m, dec.sectors)

    return split_whole({x: whole(v) for x, v in dec.anchors.items()},
                       whole(dec.v_true), dec.lam, whole(p0))


def test_split_separates_blocks(bundle):
    dec, p0 = bundle["dec"], bundle["p0"]
    split = split_phi1(dec, p0)
    assert split.phi2.shape == (2, 128, 128)
    assert split.reconstruction_error <= 1e-10
    assert operator_norm(p0 @ split.phi2) <= 1e-12
    assert operator_norm(split.phi2 @ p0) <= 1e-12
    p = join_blocks(p0, dec.sectors)
    q = np.eye(p.shape[0]) - p
    assert operator_norm(q @ _whole_split(dec, p0)["phi3"]) <= 1e-12
    assert isinstance(split.omega_value, float)


def test_blocked_split_matches_the_whole_split(bundle):
    """The split of the blocked decompositions at two couplings agrees,
    joined, with the whole-matrix split of the decompositions of the same
    flow held as one block: ``phi2`` and ``omega`` to 1e-12, and the
    reconstruction residuals too."""
    flow, lam, p0 = bundle["flow"], bundle["lam"], bundle["p0"]
    blocked = _decompositions(bundle, [4, 8])
    whole = _decompositions(bundle, [4, 8], one_block=True)
    p = join_blocks(p0, flow.sectors)
    for dec, ref in zip(blocked, whole):
        split = split_phi1(dec, p0)
        oracle = split_whole({x: v[0] for x, v in ref.anchors.items()},
                             ref.v_true[0], lam, p)
        np.testing.assert_allclose(join_blocks(split.phi2, flow.sectors),
                                   oracle["phi2"], rtol=0, atol=1e-12)
        assert split.omega_value == pytest.approx(oracle["omega"], abs=1e-12)
        assert split.reconstruction_error == pytest.approx(
            oracle["reconstruction_error"], abs=1e-12)


def _complex_typed(phi):
    """The same terms with their matrices stored as complex."""
    return Interaction([Term(replace(t.op, matrix=t.op.matrix.astype(complex)),
                             t.anchor, t.radius) for t in phi.terms],
                       phi.kind, phi.local_dim)


def test_decomposition_of_complex_typed_real_terms(bundle):
    """Terms stored as complex but holding real values (as ``from_json`` and
    ``annihilator`` build them) assemble a real Hamiltonian, so the flow is
    real while the anchored pieces are complex; the decomposition, split and
    assembly still run and agree with the real-typed ones."""
    lam, flow, p0 = bundle["lam"], bundle["flow"], bundle["p0"]
    eta, psi = _complex_typed(bundle["eta"]), _complex_typed(bundle["psi"])
    assert all(t.op.matrix.dtype == np.complex128 for t in psi.terms)
    assert local_hamiltonian(psi, lam).matrix.dtype == np.float64
    dec = decompose_phi1(flow, eta, psi, lam)
    ref = bundle["dec"]
    np.testing.assert_array_equal(dec.v_true, ref.v_true)
    for x, vx in dec.anchors.items():
        assert np.max(np.abs(vx - ref.anchors[x])) <= 1e-12
    split, split_ref = split_phi1(dec, p0), split_phi1(ref, p0)
    assert split.reconstruction_error <= 1e-10
    assert split.omega_value == pytest.approx(split_ref.omega_value,
                                              rel=1e-12)
    assert np.max(np.abs(split.phi2 - split_ref.phi2)) <= 1e-12
    whole, whole_ref = _whole_split(dec, p0), _whole_split(ref, p0)
    for name in ("phi_tilde", "phi2", "phi3", "remainder"):
        assert np.max(np.abs(whole[name] - whole_ref[name])) <= 1e-12
    family = resolution_family(eta, lam, 3, p0, flow.modulus)
    assembly = theta_assembly(dec.ball_terms(3), family)
    assert assembly.identity_error <= 1e-10
    assert assembly.annihilation_error <= 1e-10


def test_theta_assembly_identities(bundle):
    lam, eta, dec = bundle["lam"], bundle["eta"], bundle["dec"]
    family = resolution_family(eta, lam, 3, bundle["p0"],
                               bundle["flow"].modulus)          # r_x = 3
    assembly = theta_assembly(dec.ball_terms(3), family)
    assert assembly.r_x == 3
    assert set(assembly.theta_beta) == {3}
    assert assembly.identity_error <= 1e-10
    assert assembly.annihilation_error <= 1e-10


@pytest.mark.parametrize("x", [2, 3])
def test_blocked_resolution_and_assembly_match_the_whole_forms(bundle, x):
    """Around ``x`` (``r_x`` 2 and 3) the ball projectors, the resolution
    and the collected pieces, made on the flow's parity blocks, agree,
    joined, with their whole-matrix forms to 1e-12; the norms the assembly
    carries are those of its stacks, bit for bit."""
    lam, eta, dec, flow = (bundle["lam"], bundle["eta"], bundle["dec"],
                           bundle["flow"])
    family = resolution_family(eta, lam, x, flow.p0, flow.modulus)
    p = join_blocks(flow.p0, flow.sectors)
    locals_, e = resolution_whole(eta, lam, x, p)

    def close(stack, whole):
        assert stack.shape == (2, 128, 128)
        np.testing.assert_allclose(join_blocks(stack, flow.sectors), whole,
                                   rtol=0, atol=1e-12)

    assert family.P is flow.p0
    assert family.r_x == len(locals_) == x
    for mine, ref in zip(family.locals, locals_):
        close(mine, ref)
    assert len(e) == x + 2
    for n, ref in enumerate(e, start=1):
        close(family.e(n), ref)
    assembly = theta_assembly(dec.ball_terms(x), family)
    beta, alpha = theta_whole(telescope(dec).terms, lam, x, p, locals_, e)
    assert assembly.theta_beta.keys() == beta.keys() \
        == assembly.beta_norms.keys()
    for n, piece in assembly.theta_beta.items():
        close(piece, beta[n])
        assert assembly.beta_norms[n] == operator_norm(piece)
    close(assembly.theta_alpha, alpha)
    assert assembly.alpha_norm == operator_norm(assembly.theta_alpha)
    assert assembly.alpha_norm == pytest.approx(operator_norm(alpha),
                                                abs=1e-12)


def test_assembly_collects_the_even_radius_diagonal_piece():
    """Around a site with ``r_x = 4`` (``x = 4`` on ``[0, 9]``: 10 sites,
    two more than the flow fixture's chain has), the diagonal piece ``tau(4)`` of ``k = 2`` lands in ``Theta_beta(4)``.  For
    a seeded even Hermitian anchor piece and the orbital chain's ball
    family on the parity blocks, the collected pieces agree, joined, with
    ``theta_whole`` to 1e-12, and both identities hold to 1e-10."""
    lam, x = Interval(0, 9), 4
    assert boundary_distances(lam, x)[0] == 4
    eta = orbital_interaction(lam)
    sectors = charge_sectors(len(lam), 2, 2)
    p = dense_kernel_projector(eta, lam)
    piece = parity_even(random_hermitian(np.random.default_rng(11),
                                         2 ** len(lam), False))
    dec = spectral_flow.Phi1Decomposition(
        lam, sectors, {x: split_blocks(piece, sectors)}, None, 0.0, 0.0,
        0.0, 2)
    terms = dec.ball_terms(x)
    family = resolution_family(eta, lam, x, split_blocks(p, sectors), 2)
    assembly = theta_assembly(terms, family)
    assert assembly.r_x == 4 and set(assembly.theta_beta) == {3, 4}
    assert assembly.identity_error <= 1e-10
    assert assembly.annihilation_error <= 1e-10
    locals_, e = resolution_whole(eta, lam, x, p)
    beta, alpha = theta_whole(terms, lam, x, p, locals_, e)
    for n, piece_n in assembly.theta_beta.items():
        np.testing.assert_allclose(join_blocks(piece_n, sectors), beta[n],
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(join_blocks(assembly.theta_alpha, sectors),
                               alpha, rtol=0, atol=1e-12)
