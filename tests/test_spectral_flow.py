import tracemalloc
from dataclasses import fields, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gaplab.interaction import (Interaction, Term, local_hamiltonian,
                                split_edge_bulk)
from gaplab.lattice import Interval, boundary_distances
from gaplab.models import (kernel_data, orbital_interaction,
                           paired_orbital_model, random_even_perturbation)
from gaplab import spectral_flow
from gaplab.operator_algebra import (join_blocks, operator_norm,
                                     parity_sectors, split_blocks)
from gaplab.spectra import diagonalize, resolution_family
from gaplab.spectral_flow import (Window, _filtered, _panel_rule,
                                  _polar_unitary, _time_rule, decompose_phi1,
                                  eigenbasis_generator,
                                  filter_identity_residual, flow_unitaries,
                                  split_phi1, theta_assembly,
                                  time_quadrature_generator, time_weight)
from oracles import (even_pair, parity_even, random_hermitian, random_matrix,
                     svd_polar)

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


def _profile_everywhere(kind, omega):
    """The window profile evaluated on every argument, then cut to the window."""
    u = 2.0 * omega / GAMMA
    vals = (1.0 - u * u) ** 8 if kind == "bump" \
        else np.cos(0.5 * np.pi * u) ** 2
    return np.where(np.abs(u) < 1.0, vals, 0.0)


@pytest.mark.parametrize("kind", ["bump", "cosine"])
def test_window_beta_is_bit_identical_to_the_full_evaluation(kind):
    """Evaluating the profile only inside the window changes no bit."""
    w = Window(GAMMA, kind)
    half = 0.5 * GAMMA
    grid = np.concatenate([np.linspace(-1.3, 1.3, 2601),
                           [0.0, half, -half, np.nextafter(half, 0.0),
                            -np.nextafter(half, 0.0), 5.0, -7.5]])
    square = grid[:60, None] - grid[None, -60:]           # an n x n argument
    for omega in (grid, square):
        oracle = _profile_everywhere(kind, omega)
        got = w.beta(omega)
        assert got.dtype == oracle.dtype
        assert got.tobytes() == oracle.tobytes()
    assert all(w.beta(x) == _profile_everywhere(kind, x) for x in grid[-7:])


def test_window_cosine_and_unknown_kind():
    w = Window(GAMMA, kind="cosine")
    assert w.beta(0.0) == 1.0
    assert w.beta(0.5 * GAMMA) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        Window(GAMMA, kind="hann").beta(0.1)


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
    """2 Im(Phi diag(c) Phi*) is the sum 2 sum_s c_s sin((E_i - E_j) s)."""
    h, psi = _random_pair()
    w = Window(GAMMA)
    evals, evecs = diagonalize(h)
    s_pts, coeff = _time_rule(w, np.ptp(evals))
    omega = evals[:, None] - evals[None, :]
    direct = np.zeros_like(omega)
    for lo in range(0, s_pts.size, 256):       # the sine tensor, chunked
        chunk = slice(lo, lo + 256)
        direct += 2.0 * np.einsum(
            "s,sij->ij", coeff[chunk],
            np.sin(s_pts[chunk, None, None] * omega[None, :, :]))
    np.testing.assert_allclose(_filtered(evals, evecs, psi, direct),
                               time_quadrature_generator(evals, evecs, psi, w),
                               rtol=0.0, atol=1e-13)


def test_time_rule_is_formed_once_per_panel_count(monkeypatch):
    """Both generator routes and the filter identity read one read-only rule
    ``(s_k, w_k W(s_k))`` per window and panel count: W is evaluated once
    for spectra of the same width."""
    h, psi = _random_pair()
    w = Window(GAMMA)
    evals, evecs = diagonalize(h)
    calls = []
    original = spectral_flow.time_weight

    def counted(s, window):
        calls.append(np.size(s))
        return original(s, window)

    monkeypatch.setattr(spectral_flow, "time_weight", counted)
    _panel_rule.cache_clear()
    first = time_quadrature_generator(evals, evecs, psi, w)
    second = time_quadrature_generator(evals, evecs, psi, w)
    np.testing.assert_array_equal(first, second)
    assert len(calls) == 1
    s_pts, coeff = _time_rule(w, np.ptp(evals))
    assert not s_pts.flags.writeable and not coeff.flags.writeable
    filter_identity_residual(w, np.linspace(0.0, np.ptp(evals), 11))
    assert len(calls) == 1
    _panel_rule.cache_clear()


def _time_weight_one_shot(s, window):
    """W(s) with the sines of every time in one table."""
    x, wq = np.polynomial.legendre.leggauss(200)
    half = 0.5 * window.gamma
    nodes = 0.5 * half * (x + 1.0)
    weights = 0.5 * half * wq
    s = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
    integ = np.einsum("k,sk->s", weights * window.beta(nodes) / nodes,
                      np.sin(np.outer(s, nodes)))
    return 0.5 - integ / np.pi


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4000), st.floats(0.1, 400.0),
       st.integers(0, 2 ** 32 - 1))
def test_time_weight_in_blocks_is_the_one_shot_sum_bit_for_bit(size, t_max,
                                                                seed):
    """Each time's sum is its own row, so blocks of times change no bit."""
    s = np.random.default_rng(seed).uniform(0.0, t_max, size)
    w = Window(GAMMA)
    assert time_weight(s, w).tobytes() == _time_weight_one_shot(s, w).tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 120), st.floats(0.5, 9.0))
def test_filter_identity_in_blocks_matches_the_one_shot_product(count, width):
    """Each block of frequencies is its own product with the coefficients:
    one block is the one-shot product bit for bit.  Across blocks, BLAS's
    matrix-vector product rounds a frequency by its place in the product
    (the few at the tail of a block or of a thread's share take another
    path).  Two roundings of a dot product of ``n`` terms differ by at most
    ``2 gamma_n sum|c_k|``, about ``n eps sum|c_k|``; with the factor 2 of
    the left side that is ``2 n eps sum|c_k|``, allowed here twice over."""
    w = Window(GAMMA)
    omegas = np.linspace(0.0, width, count)
    s_pts, coeff = _time_rule(w, width)
    lhs = 2.0 * (coeff @ np.sin(np.outer(s_pts, omegas)))
    one_shot = float(np.max(np.abs(lhs - w.weight(omegas))))
    got = filter_identity_residual(w, omegas)
    if count <= spectral_flow._PHASE_BLOCK // s_pts.size:
        assert got == one_shot
    else:
        n = s_pts.size
        bound = 4.0 * n * np.finfo(float).eps * float(np.sum(np.abs(coeff)))
        assert abs(got - one_shot) <= bound


def _time_quadrature_one_shot(evals, evecs, psi, window):
    """The time-quadrature generator with every node's phases in one table."""
    s_pts, coeff = _time_rule(window, np.ptp(evals))
    phase = evals[..., :, None] * s_pts
    a = (np.sin(phase) * coeff) @ np.cos(phase).swapaxes(-1, -2)
    return _filtered(evals, evecs, psi, 2.0 * (a - a.swapaxes(-1, -2)))


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 48), st.booleans(), st.floats(0.5, 12.0),
       st.integers(0, 2 ** 32 - 1))
def test_time_quadrature_in_node_blocks_matches_the_one_shot_product(
        side, complex_, width, seed):
    """Summing ``A`` over blocks of nodes reorders a sum of rounded terms
    only: the generator agrees with the one-shot product to 1e-15 of its
    largest entry."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, side, complex_)
    h *= width / np.ptp(np.linalg.eigvalsh(h))
    psi = random_hermitian(rng, side, complex_)
    evals, evecs = diagonalize(h)
    w = Window(GAMMA)
    got = time_quadrature_generator(evals, evecs, psi, w)
    ref = _time_quadrature_one_shot(evals, evecs, psi, w)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


# --- the flow ODE ------------------------------------------------------------------


def test_flow_two_level_transport():
    h0 = np.diag([0.0, 1.0])
    flow = flow_unitaries(h0, SX, 0.1, Window(GAMMA), checkpoints=8)
    assert len(flow.eps_grid) % 2 == 1          # even count is bumped
    assert flow.eps == pytest.approx(0.1)
    assert len(flow.sectors) == 1               # sigma^x flips the parity
    for u in flow.unitaries:
        u = join_blocks(u, flow.sectors)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert flow.projector_drift <= 1e-8
    assert flow.gap_floor == pytest.approx(1.0, abs=1e-12)   # sqrt(1+4s^2) >= 1
    # conjugation preserves the spectrum: V = U* H(eps) U - H0
    u = join_blocks(flow.unitaries[-1], flow.sectors)
    v = u.conj().T @ (h0 + flow.eps * SX) @ u - h0
    np.testing.assert_allclose(np.linalg.eigvalsh(h0 + v),
                               np.linalg.eigvalsh(h0 + 0.1 * SX), atol=1e-10)


def _assert_transports(flow, h0, psi, cluster_dim):
    """Every U(s) is unitary to 1e-12 and carries P(0) to the cluster
    projector of H(s), solved afresh."""
    eye = np.eye(h0.shape[0])
    for s, u in zip(flow.eps_grid, flow.unitaries):
        u = join_blocks(u, flow.sectors)
        np.testing.assert_allclose(u @ u.conj().T, eye, rtol=0, atol=1e-12)
        vecs = np.linalg.eigh(h0 + s * psi)[1][:, :cluster_dim]
        np.testing.assert_allclose(u @ flow.p0 @ u.conj().T,
                                   vecs @ vecs.conj().T, rtol=0, atol=1e-8)


def test_flow_runs_in_the_field_of_its_inputs():
    """A real symmetric pair flows with real U and K; a complex Hermitian
    pair, with the same code, in complex arithmetic."""
    h6 = np.diag([0.0, 1.0, 1.2, 1.5, 2.0, 3.0])
    cases = [(np.diag([0.0, 1.0]), SX, 0.1, np.float64),
             (np.diag([0.0, 1.0]), SY, 0.1, np.complex128),
             (h6, _random_pair()[1], 0.01, np.complex128),
             (h6, _random_pair()[1].real, 0.01, np.float64)]
    for h0, psi, eps, dtype in cases:
        flow = flow_unitaries(h0, psi, eps, Window(GAMMA), checkpoints=5,
                              cluster_dim=1)
        assert all(u.dtype == dtype for u in flow.unitaries)
        assert all(k.dtype == dtype for k in flow.generators)
        for k in flow.generators:                    # K = iD is anti-Hermitian
            k = join_blocks(k, flow.sectors)
            np.testing.assert_allclose(k, -k.conj().T, rtol=0, atol=1e-14)
        _assert_transports(flow, h0, psi, 1)


def _one_block(*mats):
    """``parity_sectors`` as if no matrix kept parity: one sector."""
    return [np.arange(np.shape(mats[0])[0])]


def _counting(monkeypatch, name, record):
    original = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        record.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)


def test_flow_solves_h0_once(monkeypatch):
    """H(0) is diagonalized once, as its stack of parity blocks, for the
    generator at s = 0; the cluster projector p0 is read from that
    decomposition."""
    h0 = np.diag([0.0, 1.0, 1.2, 1.5])
    psi = parity_even(_random_pair()[1][:4, :4])
    sectors = parity_sectors(h0, psi)
    assert len(sectors) == 2
    solved = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        solved.append(np.array(a, copy=True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    flow = flow_unitaries(h0, psi, 0.01, Window(GAMMA), checkpoints=5,
                          cluster_dim=1)
    h0_blocks = split_blocks(h0, sectors)
    assert sum(np.array_equal(h, h0_blocks) for h in solved) == 1
    evals, evecs = flow.end_spectra[0]
    block, col = np.unravel_index(np.argmin(evals), evals.shape)
    v0 = evecs[block][:, [col]]
    p0 = np.zeros_like(evecs)
    p0[block] = v0 @ v0.conj().T
    np.testing.assert_array_equal(flow.p0, join_blocks(p0, flow.sectors))


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_flow_on_parity_blocks_matches_the_one_block_flow(k, complex_, seed):
    """The flow of a parity-even pair, run on its two parity blocks, agrees
    with the same flow run on one block holding the whole matrix, and keeps
    the blocks exactly."""
    h0, psi = even_pair(np.random.default_rng(seed), 2 ** k, complex_)
    args = (h0, psi, 0.05, Window(GAMMA))
    blocked = flow_unitaries(*args, checkpoints=5, cluster_dim=2)
    with patch.object(spectral_flow, "parity_sectors", _one_block):
        whole = flow_unitaries(*args, checkpoints=5, cluster_dim=2)
    assert len(blocked.sectors) == 2 and len(whole.sectors) == 1
    pairs = [(join_blocks(a, blocked.sectors), join_blocks(b, whole.sectors))
             for a, b in zip(blocked.unitaries + blocked.generators,
                             whole.unitaries + whole.generators)]
    for a, b in pairs + [(blocked.p0, whole.p0)]:
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(parity_even(a), a)
    assert blocked.gap_floor == pytest.approx(whole.gap_floor, abs=1e-12)
    assert blocked.projector_drift == pytest.approx(whole.projector_drift,
                                                    abs=1e-12)


def test_flow_of_a_parity_mixing_pair_runs_as_one_block(monkeypatch):
    h0, psi = even_pair(np.random.default_rng(4), 8, False)
    psi[0, 1] = psi[1, 0] = 0.1          # couples the two parity sectors
    shapes = []
    _counting(monkeypatch, "eigh", shapes)
    flow = flow_unitaries(h0, psi, 0.05, Window(GAMMA), checkpoints=5,
                          cluster_dim=2)
    assert shapes and set(shapes) == {(1, 8, 8)}
    assert len(flow.sectors) == 1
    assert join_blocks(flow.unitaries[-1], flow.sectors)[0, 1] != 0.0


def test_flow_rejects_closing_gap():
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])          # gap 1 - 2s collapses under the filter
    with pytest.raises(RuntimeError):
        flow_unitaries(h0, psi, 0.45, Window(GAMMA), checkpoints=9)


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
    model = paired_orbital_model(lam)
    eta = orbital_interaction(model, lam)
    pert = random_even_perturbation(lam, 1,
                                    {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0},
                                    seed=7)
    psi = split_edge_bulk(pert, lam, 1).bulk
    h0 = local_hamiltonian(eta, lam)
    hp = local_hamiltonian(psi, lam)
    kdim, _ = kernel_data(model, lam)
    window = Window(GAMMA)
    flow = flow_unitaries(h0.matrix, hp.matrix, 0.02, window,
                          checkpoints=9, cluster_dim=kdim)
    dec, = decompose_phi1(flow, eta, psi, lam)
    return {"lam": lam, "eta": eta, "psi": psi, "flow": flow,
            "p0": flow.p0, "dec": dec, "h0": h0.matrix, "hp": hp.matrix}


def test_generator_routes_agree_on_the_default_horizon(bundle):
    """On the chain (spectral width 8) the time quadrature, at the one
    horizon it has, reproduces the generator the flow ran to 1e-10, on the
    decompositions the flow kept at both ends: the solves of the two parity
    blocks."""
    flow, hp = bundle["flow"], bundle["hp"]
    assert np.ptp(np.linalg.eigvalsh(bundle["h0"])) == pytest.approx(8.0)
    sectors = parity_sectors(bundle["h0"], hp)
    assert len(sectors) == 2
    for mine, ref in zip(flow.sectors, sectors):
        np.testing.assert_array_equal(mine, ref)
    np.testing.assert_array_equal(flow.psi, split_blocks(hp, sectors))
    w = Window(GAMMA)
    ends = zip((0.0, flow.eps), (flow.generators[0], flow.generators[-1]),
               flow.end_spectra)
    for s, k_flow, (evals, evecs) in ends:
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
    assert all(u.dtype == np.float64 for u in flow.unitaries)
    oracle = _complex_rk4_flow(bundle["h0"], bundle["hp"], flow.eps_grid,
                               Window(GAMMA))
    assert len(oracle) == len(flow.unitaries)
    for u, u_ref in zip(flow.unitaries, oracle):
        assert np.max(np.abs(join_blocks(u, flow.sectors) - u_ref)) <= 1e-12
    _assert_transports(flow, bundle["h0"], bundle["hp"],
                       int(round(np.trace(bundle["p0"]))))


def test_flow_refinement_past_the_first_pair_matches_the_oracle(monkeypatch):
    """A tolerance below the Richardson estimate of one against two steps
    per interval sends the flow on to four steps, which solves only the
    generators off the checkpoint grid again (seven per interval), and its
    unitaries agree with the complex-arithmetic oracle run to the same
    tolerance."""
    h0, psi = even_pair(np.random.default_rng(0), 4, False)
    window, tol = Window(GAMMA), 1e-13
    calls = []
    original = spectral_flow.eigenbasis_generator

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_flow, "eigenbasis_generator", counted)
    first = flow_unitaries(h0, psi, 0.05, window, checkpoints=3,
                           cluster_dim=2, ode_tol=1.0)
    assert first.ode_error > tol and len(calls) == 4 * 2 + 1
    calls.clear()
    flow = flow_unitaries(h0, psi, 0.05, window, checkpoints=3,
                          cluster_dim=2, ode_tol=tol)
    assert flow.ode_error <= tol
    assert len(calls) == 4 * 2 + 1 + 7 * 2
    oracle = _complex_rk4_flow(h0, psi, flow.eps_grid, window, ode_tol=tol)
    for u, u_ref in zip(flow.unitaries, oracle):
        assert np.max(np.abs(join_blocks(u, flow.sectors) - u_ref)) <= 1e-12
    _assert_transports(flow, h0, psi, 2)


def _held_bytes(value):
    return sum(a.nbytes for a in _arrays(value))


def test_default_flow_solves_each_coupling_once_in_little_more_than_its_result(
        bundle, monkeypatch):
    """The default 33 checkpoints on the L = 8 chain: the lockstep pair of
    resolutions solves each of the 129 couplings once, and the traced peak
    of the flow stays within 1.75 times the bytes its result holds (the
    generators off the checkpoint grid are dropped as the flow goes)."""
    calls = []
    original = spectral_flow.eigenbasis_generator

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_flow, "eigenbasis_generator", counted)
    kdim = int(round(np.trace(bundle["p0"])))
    tracemalloc.start()
    try:
        flow = flow_unitaries(bundle["h0"], bundle["hp"], 0.02, Window(GAMMA),
                              cluster_dim=kdim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flow.eps_grid) == 33 and len(calls) == 129
    held = sum(_held_bytes(getattr(flow, f.name)) for f in fields(flow))
    assert peak <= 1.75 * held


def test_generator_and_filter_checks_work_in_small_phase_blocks(bundle):
    """The cross-checks of ``flow`` on the L = 8 chain (9168 nodes, 256
    eigenvalues): the time-quadrature generator at both ends and the filter
    identity on both widths, forming their time rule afresh, peak below
    8 MiB of traced memory, and the generator agrees with the one-shot
    product to 1e-15 of its largest entry."""
    flow, w = bundle["flow"], Window(GAMMA)
    _panel_rule.cache_clear()
    tracemalloc.start()
    try:
        generators = [time_quadrature_generator(evals, evecs, flow.psi, w)
                      for evals, evecs in flow.end_spectra]
        for evals, _ in flow.end_spectra:
            filter_identity_residual(w, np.linspace(0.0, np.ptp(evals), 401))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
    for k_time, (evals, evecs) in zip(generators, flow.end_spectra):
        ref = _time_quadrature_one_shot(evals, evecs, flow.psi, w)
        assert np.max(np.abs(k_time - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_decomposition_reconstructs_exactly(bundle):
    dec = bundle["dec"]
    total = sum(dec.anchors.values())
    assert operator_norm(total - dec.v_true) <= 1e-12
    assert dec.quadrature_residual <= 1e-8
    assert dec.max_kernel_commutator <= 1e-6


def test_ball_telescopes_close(bundle):
    from gaplab.operator_algebra import embed
    dec, lam = bundle["dec"], bundle["lam"]
    grouped = dec.ball_terms.anchored()
    for x, vx in dec.anchors.items():
        total = sum(embed(t.op, lam).matrix for t in grouped[x])
        assert operator_norm(total - vx) <= 1e-10


def test_upto_argument_is_validated(bundle):
    dec2, = decompose_phi1(bundle["flow"], bundle["eta"], bundle["psi"],
                           bundle["lam"], uptos=[4])
    assert dec2.eps == pytest.approx(bundle["flow"].eps_grid[4])
    for bad in (0, 3, 40):
        with pytest.raises(ValueError):
            decompose_phi1(bundle["flow"], bundle["eta"], bundle["psi"],
                           bundle["lam"], uptos=[4, bad])


def _as_one_block(flow):
    """The same flow with each of its block stacks joined into one block."""
    def one(m):
        return join_blocks(m, flow.sectors)[None]

    return replace(flow, sectors=[np.arange(flow.p0.shape[0])],
                   h0=one(flow.h0), psi=one(flow.psi),
                   unitaries=[one(u) for u in flow.unitaries],
                   generators=[one(k) for k in flow.generators])


def test_decomposition_on_parity_blocks_matches_one_block(bundle):
    """On the flow's parity blocks the decomposition agrees with the same
    decomposition of the same flow held as one block, and the decompositions
    at several couplings from one pass are those of separate passes, bit for
    bit."""
    flow, lam = bundle["flow"], bundle["lam"]
    terms = (bundle["eta"], bundle["psi"], lam)
    blocked = decompose_phi1(flow, *terms, uptos=[4, 8])
    whole = decompose_phi1(_as_one_block(flow), *terms, uptos=[4, 8])
    for dec, ref in zip(blocked, whole):
        assert dec.eps == ref.eps
        np.testing.assert_allclose(dec.v_true, ref.v_true, rtol=0, atol=1e-12)
        for x, vx in dec.anchors.items():
            np.testing.assert_allclose(vx, ref.anchors[x], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(parity_even(vx), vx)
        for name in ("quadrature_residual", "cross_residual",
                     "max_kernel_commutator"):
            assert getattr(dec, name) == pytest.approx(getattr(ref, name),
                                                       abs=1e-12)
    alone, = decompose_phi1(flow, *terms, uptos=[4])
    for x, vx in alone.anchors.items():
        np.testing.assert_array_equal(vx, blocked[0].anchors[x])
    np.testing.assert_array_equal(alone.v_true, blocked[0].v_true)


def test_flow_and_decomposition_solve_no_matrix_of_the_chains_side(
        bundle, monkeypatch):
    """On the L = 8 chain (side 256) every eigensolve of the flow and of its
    decomposition is taken on a parity block of side 128, and neither calls
    an SVD or a matrix 2-norm (a values-only SVD): the polar steps are
    Newton-Schulz products and every norm is an eigensolve."""
    shapes, svds = [], []
    for name in ("eigh", "eigvalsh"):
        _counting(monkeypatch, name, shapes)
    _counting(monkeypatch, "svd", svds)
    original_norm = np.linalg.norm

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            svds.append(np.shape(x))
        return original_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    kdim = int(round(np.trace(bundle["p0"])))
    flow = flow_unitaries(bundle["h0"], bundle["hp"], 0.02, Window(GAMMA),
                          checkpoints=9, cluster_dim=kdim)
    decompose_phi1(flow, bundle["eta"], bundle["psi"], bundle["lam"])
    assert (2, 128, 128) in shapes
    assert max(shape[-1] for shape in shapes) == 128
    assert svds == []


def _arrays(value):
    """Every array in ``value``, a list or tuple of them, or an array."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def test_flow_hands_on_block_stacks_and_the_decomposition_reads_them(
        bundle, monkeypatch):
    """On the L = 8 chain (side 256) the flow holds no array of side 256 but
    ``p0``.  Its decomposition assembles no Hamiltonian of the whole volume,
    only one matrix per anchor and interaction, and tests parity only on
    those anchored matrices, never on a matrix of the flow."""
    flow, eta, psi = bundle["flow"], bundle["eta"], bundle["psi"]
    held = []
    for field in fields(flow):
        for a in _arrays(getattr(flow, field.name)):
            if field.name == "p0":
                assert a.shape == (256, 256)
            else:
                assert 256 not in a.shape, field.name
                held.append(a)
    assembled, tested = [], []
    original_assembly = spectral_flow.local_hamiltonian
    original_sectors = spectral_flow.parity_sectors

    def assembly(phi, lam):
        assembled.append({t.anchor for t in phi.terms})
        return original_assembly(phi, lam)

    def sectors(*mats):
        tested.append(mats)
        return original_sectors(*mats)

    monkeypatch.setattr(spectral_flow, "local_hamiltonian", assembly)
    monkeypatch.setattr(spectral_flow, "parity_sectors", sectors)
    decompose_phi1(flow, eta, psi, bundle["lam"])
    anchors = set(eta.anchored()) | set(psi.anchored())
    assert len(assembled) == 2 * len(anchors)
    assert all(len(group) <= 1 for group in assembled)
    assert len(tested) == 1 and len(tested[0]) == 2 * len(anchors)
    assert not any(m is a for m in tested[0] for a in held + [flow.p0])


def test_decomposition_rejects_terms_that_break_the_flows_parity_blocks(
        bundle):
    """An odd term and its negative at two anchors leave Psi as it was, but
    each anchored sum breaks the parity blocks the flow ran on."""
    psi = bundle["psi"]
    term = psi.terms[0]
    odd = np.kron(SX, np.eye(term.op.matrix.shape[0] // 2))
    a, b = sorted(psi.anchored())[:2]
    broken = replace(psi, terms=psi.terms + [
        replace(term, op=replace(term.op, matrix=m), anchor=x)
        for m, x in ((odd, a), (-odd, b))])
    with pytest.raises(ValueError, match="parity blocks"):
        decompose_phi1(bundle["flow"], bundle["eta"], broken, bundle["lam"])


def test_ball_telescope_is_built_once_when_read(bundle, monkeypatch):
    """The decompositions of one pass build no ball telescope; reading one's
    ``ball_terms`` builds its own, once: one conditional expectation and
    ``R_x - 1`` layers per anchor."""
    calls = []
    for name in ("conditional_expectation", "delta_layer"):
        def counted(*args, _name=name,
                    _original=getattr(spectral_flow, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral_flow, name, counted)
    lam = bundle["lam"]
    decs = decompose_phi1(bundle["flow"], bundle["eta"], bundle["psi"], lam,
                          uptos=[4, 8])
    assert calls == []
    terms = decs[1].ball_terms
    anchors = decs[1].anchors
    layers = sum(boundary_distances(lam, x)[1] - 1 for x in anchors)
    assert calls.count("conditional_expectation") == len(anchors)
    assert calls.count("delta_layer") == layers
    assert decs[1].ball_terms is terms
    assert len(calls) == len(terms.terms) == len(anchors) + layers


def test_split_separates_blocks(bundle):
    dec, p0 = bundle["dec"], bundle["p0"]
    split = split_phi1(dec, p0)
    assert split.reconstruction_error <= 1e-10
    assert operator_norm(p0 @ split.phi2) <= 1e-12
    assert operator_norm(split.phi2 @ p0) <= 1e-12
    q = np.eye(p0.shape[0]) - p0
    assert operator_norm(q @ split.phi3) <= 1e-12
    assert isinstance(split.omega_value, float)


def _complex_typed(phi):
    """The same terms with their matrices stored as complex."""
    return Interaction([Term(replace(t.op, matrix=t.op.matrix.astype(complex)),
                             t.anchor, t.radius) for t in phi.terms],
                       phi.kind, phi.local_dim, ball_keyed=phi.ball_keyed)


def test_decomposition_of_complex_typed_real_terms(bundle):
    """Terms stored as complex but holding real values (as ``from_json`` and
    ``annihilator`` build them) assemble a real Hamiltonian, so the flow is
    real while the anchored pieces are complex; the decomposition, split and
    assembly still run and agree with the real-typed ones."""
    lam, flow, p0 = bundle["lam"], bundle["flow"], bundle["p0"]
    eta, psi = _complex_typed(bundle["eta"]), _complex_typed(bundle["psi"])
    assert all(t.op.matrix.dtype == np.complex128 for t in psi.terms)
    assert local_hamiltonian(psi, lam).matrix.dtype == np.float64
    dec, = decompose_phi1(flow, eta, psi, lam)
    ref = bundle["dec"]
    np.testing.assert_array_equal(dec.v_true, ref.v_true)
    for x, vx in dec.anchors.items():
        assert np.max(np.abs(vx - ref.anchors[x])) <= 1e-12
    split, split_ref = split_phi1(dec, p0), split_phi1(ref, p0)
    assert split.reconstruction_error <= 1e-10
    assert split.omega_value == pytest.approx(split_ref.omega_value,
                                              rel=1e-12)
    for name in ("phi_tilde", "phi2", "phi3", "remainder"):
        assert np.max(np.abs(getattr(split, name)
                             - getattr(split_ref, name))) <= 1e-12
    family = resolution_family(eta, lam, 3, p0)
    assembly = theta_assembly(dec, family)
    assert assembly.identity_error <= 1e-10
    assert assembly.annihilation_error <= 1e-10


def test_theta_assembly_identities(bundle):
    lam, eta, dec = bundle["lam"], bundle["eta"], bundle["dec"]
    family = resolution_family(eta, lam, 3, bundle["p0"])      # r_x = 3
    assembly = theta_assembly(dec, family)
    assert assembly.r_x == 3
    assert set(assembly.theta_beta) == {3}
    assert assembly.identity_error <= 1e-10
    assert assembly.annihilation_error <= 1e-10
