import numpy as np
import pytest
from scipy.integrate import quad

from gaplab.interaction import local_hamiltonian, split_edge_bulk
from gaplab.lattice import Interval
from gaplab.models import (kernel_data, orbital_interaction,
                           paired_orbital_model, random_even_perturbation)
from gaplab.operator_algebra import operator_norm
from gaplab.spectra import cluster_projector, diagonalize, resolution_family
from gaplab.spectral_flow import (Window, _filtered, _time_panels,
                                  decompose_phi1, eigenbasis_generator,
                                  filter_identity_residual, flow_unitaries,
                                  split_phi1, theta_assembly,
                                  time_quadrature_generator, time_weight)

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
    """H = diag(0, E) with a sigma^x coupling: D = wtilde(E) sigma^y."""
    w = Window(GAMMA)
    for energy in (1.3, 0.3):           # one outside the window, one inside
        h = np.diag([0.0, energy])
        d = eigenbasis_generator(h, SX, w)
        np.testing.assert_allclose(d, w.weight(energy) * SY, atol=1e-14)


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
    d_eig = eigenbasis_generator(h, psi, w)
    d_time = time_quadrature_generator(h, psi, w)
    assert operator_norm(d_eig - d_time) <= 1e-6


def test_phase_product_weight_matches_direct_sine_sum():
    """2 Im(Phi diag(c) Phi*) is the sum 2 sum_s c_s sin((E_i - E_j) s)."""
    h, psi = _random_pair()
    w = Window(GAMMA)
    evals, evecs = diagonalize(h)
    s_pts, s_wts = _time_panels(w, np.ptp(evals))
    coeff = s_wts * time_weight(s_pts, w)
    omega = evals[:, None] - evals[None, :]
    direct = np.zeros_like(omega)
    for lo in range(0, s_pts.size, 256):       # the sine tensor, chunked
        chunk = slice(lo, lo + 256)
        direct += 2.0 * np.einsum(
            "s,sij->ij", coeff[chunk],
            np.sin(s_pts[chunk, None, None] * omega[None, :, :]))
    np.testing.assert_allclose(_filtered(evals, evecs, psi, direct),
                               time_quadrature_generator(h, psi, w),
                               rtol=0.0, atol=1e-13)


# --- the flow ODE ------------------------------------------------------------------


def test_flow_two_level_transport():
    h0 = np.diag([0.0, 1.0])
    flow = flow_unitaries(h0, SX, 0.1, Window(GAMMA), checkpoints=8)
    assert len(flow.eps_grid) % 2 == 1          # even count is bumped
    assert flow.eps == pytest.approx(0.1)
    for u in flow.unitaries:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert flow.projector_drift <= 1e-8
    assert flow.gap_floor == pytest.approx(1.0, abs=1e-12)   # sqrt(1+4s^2) >= 1
    # conjugation preserves the spectrum
    v = flow.transported_coupling(h0, SX)
    np.testing.assert_allclose(np.linalg.eigvalsh(h0 + v),
                               np.linalg.eigvalsh(h0 + 0.1 * SX), atol=1e-10)


def test_flow_rejects_closing_gap():
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])          # gap 1 - 2s collapses under the filter
    with pytest.raises(RuntimeError):
        flow_unitaries(h0, psi, 0.45, Window(GAMMA), checkpoints=9)


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
    p0 = cluster_projector(h0.matrix, kdim)
    dec = decompose_phi1(flow, eta, psi, lam, p0)
    return {"lam": lam, "eta": eta, "psi": psi, "flow": flow,
            "p0": p0, "dec": dec, "h0": h0.matrix, "hp": hp.matrix}


def test_generator_routes_agree_on_the_default_horizon(bundle):
    """On the chain (spectral width 8) the time quadrature, at the one
    horizon it has, reproduces the eigenbasis filter to 1e-10."""
    h0, hp = bundle["h0"], bundle["hp"]
    assert np.ptp(np.linalg.eigvalsh(h0)) == pytest.approx(8.0)
    w = Window(GAMMA)
    for s in (0.0, bundle["flow"].eps):
        h = h0 + s * hp
        d_time = time_quadrature_generator(h, hp, w)
        assert operator_norm(eigenbasis_generator(h, hp, w) - d_time) <= 1e-10


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
    dec2 = decompose_phi1(bundle["flow"], bundle["eta"], bundle["psi"],
                          bundle["lam"], bundle["p0"], upto=4)
    assert dec2.eps == pytest.approx(bundle["flow"].eps_grid[4])
    for bad in (0, 3, 40):
        with pytest.raises(ValueError):
            decompose_phi1(bundle["flow"], bundle["eta"], bundle["psi"],
                           bundle["lam"], bundle["p0"], upto=bad)


def test_split_separates_blocks(bundle):
    dec, p0 = bundle["dec"], bundle["p0"]
    split = split_phi1(dec, p0)
    assert split.reconstruction_error <= 1e-10
    assert operator_norm(p0 @ split.phi2) <= 1e-12
    assert operator_norm(split.phi2 @ p0) <= 1e-12
    q = np.eye(p0.shape[0]) - p0
    assert operator_norm(q @ split.phi3) <= 1e-12
    assert isinstance(split.omega_value, float)


def test_theta_assembly_identities(bundle):
    lam, eta, dec = bundle["lam"], bundle["eta"], bundle["dec"]
    family = resolution_family(eta, lam, 3, bundle["p0"])      # r_x = 3
    assembly = theta_assembly(dec, family)
    assert assembly.r_x == 3
    assert set(assembly.theta_beta) == {3}
    assert assembly.identity_error <= 1e-10
    assert assembly.annihilation_error <= 1e-10
