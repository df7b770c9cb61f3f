from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from gaplab.interaction import (Interaction, Term, local_hamiltonian,
                                split_edge_bulk)
from gaplab.lattice import Interval
from gaplab.models import (kernel_data, orbital_interaction,
                           paired_orbital_model, random_even_perturbation)
from gaplab.operator_algebra import operator_norm
from gaplab.spectra import diagonalize, resolution_family
from gaplab.spectral_flow import (Window, _filtered, _polar_unitary,
                                  _time_panels, decompose_phi1,
                                  eigenbasis_generator,
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
                               time_quadrature_generator(evals, evecs, psi, w),
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
    # conjugation preserves the spectrum: V = U* H(eps) U - H0
    u = flow.unitaries[-1]
    v = u.conj().T @ (h0 + flow.eps * SX) @ u - h0
    np.testing.assert_allclose(np.linalg.eigvalsh(h0 + v),
                               np.linalg.eigvalsh(h0 + 0.1 * SX), atol=1e-10)


def _assert_transports(flow, h0, psi, cluster_dim):
    """Every U(s) is unitary to 1e-12 and carries P(0) to the cluster
    projector of H(s), solved afresh."""
    eye = np.eye(h0.shape[0])
    for s, u in zip(flow.eps_grid, flow.unitaries):
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
            np.testing.assert_allclose(k, -k.conj().T, rtol=0, atol=1e-14)
        _assert_transports(flow, h0, psi, 1)


def test_flow_solves_h0_once(monkeypatch):
    """H(0) is diagonalized once, for the generator at s = 0; the cluster
    projector p0 is read from that decomposition."""
    h0 = np.diag([0.0, 1.0, 1.2, 1.5])
    psi = _random_pair()[1][:4, :4]
    solved = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        solved.append(np.array(a, copy=True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    flow = flow_unitaries(h0, psi, 0.01, Window(GAMMA), checkpoints=5,
                          cluster_dim=1)
    assert sum(np.array_equal(h, h0) for h in solved) == 1
    v0 = flow.end_spectra[0][1][:, :1]
    np.testing.assert_array_equal(flow.p0, v0 @ v0.conj().T)


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
    v0 = diagonalize(h0.matrix)[1][:, :kdim]
    p0 = v0 @ v0.conj().T
    dec = decompose_phi1(flow, eta, psi, lam, p0)
    return {"lam": lam, "eta": eta, "psi": psi, "flow": flow,
            "p0": p0, "dec": dec, "h0": h0.matrix, "hp": hp.matrix}


def test_generator_routes_agree_on_the_default_horizon(bundle):
    """On the chain (spectral width 8) the time quadrature, at the one
    horizon it has, reproduces the generator the flow ran to 1e-10, on the
    decompositions the flow kept at both ends."""
    flow, hp = bundle["flow"], bundle["hp"]
    assert np.ptp(np.linalg.eigvalsh(bundle["h0"])) == pytest.approx(8.0)
    w = Window(GAMMA)
    ends = zip((0.0, flow.eps), (flow.generators[0], flow.generators[-1]),
               flow.end_spectra)
    for s, k_flow, (evals, evecs) in ends:
        h = bundle["h0"] + s * hp
        np.testing.assert_array_equal(evals, diagonalize(h)[0])
        np.testing.assert_array_equal(
            k_flow, eigenbasis_generator(evals, evecs, hp, w))
        d_time = time_quadrature_generator(evals, evecs, hp, w)
        assert operator_norm(k_flow - d_time) <= 1e-10


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
                u = _polar_unitary(u + (h_step / 6.0)
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
        assert np.max(np.abs(u - u_ref)) <= 1e-12
    _assert_transports(flow, bundle["h0"], bundle["hp"],
                       int(round(np.trace(bundle["p0"]))))


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
    dec = decompose_phi1(flow, eta, psi, lam, p0)
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
