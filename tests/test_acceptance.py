"""Acceptance suite: one test per advertised package guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee.  The heavy shared fixtures — the spectral-flow bundle
and the certified-constants bundle — are built once per module and reused
by the later tests, so the whole file stays well inside a 15-minute budget
on a single core.
"""

import time

import numpy as np
import pytest

from gaplab.cli import (_orbital, _volume, _window, base_envelope,
                        constants_bundle, flow_bundle, merged_config)
from gaplab.interaction import (fermion_to_spin, local_hamiltonian,
                                random_interaction, regroup_intervals)
from gaplab.lattice import Interval, ball, boundary_distances, interior
from gaplab.ltqo import ltqo_witness
from gaplab.models import aklt_interaction, auxiliary_basis, kernel_data
from gaplab.operator_algebra import kernel_count, operator_norm, parity_grade
from gaplab.spectra import (gap_curve, higher_gap_track, resolution_family,
                            sigma_projection, sp0_diameter_scan)
from gaplab.spectral_flow import (decompose_phi1, eigenbasis_generator,
                                  split_phi1, theta_assembly,
                                  time_quadrature_generator)
from gaplab.stability_bounds import (verify_form_bound, volume_form_constants)


@pytest.fixture(scope="module")
def cfg():
    return merged_config(None)


@pytest.fixture(scope="module")
def ctx():
    # shared memo for the flow and constants bundles
    return {}


def test_01_orbital_model_structure(cfg):
    """Ground energy 0, gap exactly 1, kernel 2^|free|, edge-supported
    auxiliary vectors — on chains of 6 to 12 sites, within 60 seconds."""
    start = time.monotonic()
    for length in cfg["lengths"]:
        for offset in (0, 1):
            lam = _window(length, offset)
            model, eta = _orbital(lam)
            evals = np.linalg.eigvalsh(local_hamiltonian(eta, lam).matrix)
            kdim = kernel_count(evals)
            kexp, free = kernel_data(model, lam)

            assert abs(evals[0]) <= 1e-10, f"ground energy on {lam}"
            gap = float(evals[kdim] - evals[kdim - 1])
            assert abs(gap - 1.0) <= 1e-9, f"gap on {lam}"
            assert kdim == kexp == 2 ** len(free), f"kernel dim on {lam}"
            assert len(free) <= 6 * model.R

            aux = auxiliary_basis(model, lam)
            assert aux.shape[1] <= 6 * model.R
            deep = interior(lam, 3 * model.R)
            if deep is not None and aux.size:
                idx = [i for i, s in enumerate(lam) if s in deep]
                assert float(np.max(np.abs(aux[idx, :]))) <= 1e-12, \
                    f"auxiliary vectors reach the deep interior of {lam}"
    assert time.monotonic() - start <= 60.0


def test_02_parity_ltqo_step(cfg):
    """Even-sector witnesses on the paired-orbital chain: certified zeros at
    separation >= D, lower bounds <= 2 below D."""
    depth = cfg["D"]
    lam = _window(cfg["ltqo"]["length"], 1)
    assert lam.diameter > 2 * depth
    _, eta = _orbital(lam)
    centre = (lam.a + lam.b) // 2
    n_zero = n_low = 0
    for x in (centre, centre + 1):
        r_near, _ = boundary_distances(lam, x)
        for n in range(2, r_near + 2):
            z = min(n, r_near)
            for k in range(0, z):
                sep = z - k
                if sep >= depth:
                    row = ltqo_witness(eta, lam, x, n, k, even_only=True,
                                       restarts=1, iters=1)
                    assert row.zero_deviation <= 1e-11, \
                        f"witness not exactly zero at (x={x}, n={n}, k={k})"
                    n_zero += 1
                else:
                    row = ltqo_witness(eta, lam, x, n, k,
                                       seed=cfg["seeds"][0], even_only=True,
                                       restarts=cfg["ltqo"]["restarts"],
                                       iters=cfg["ltqo"]["iters"])
                    assert row.value <= 2.0 + 1e-9, \
                        f"witness above amplitude at (x={x}, n={n}, k={k})"
                    n_low += 1
    assert n_zero > 0 and n_low > 0      # both regimes actually probed


def test_03_aklt_ltqo_decay(cfg):
    """Spin-1 projector chain: witness lower bounds under 1.5 (1/3)^sep,
    ground energy zero, four kernel states."""
    for length in cfg["ltqo"]["aklt_lengths"]:
        lam = _window(length)
        eta = aklt_interaction(lam)
        evals = np.linalg.eigvalsh(local_hamiltonian(eta, lam).matrix)
        assert abs(evals[0]) <= 1e-10, f"ground energy on {lam}"
        kdim = kernel_count(evals)
        assert kdim == 4, f"kernel dimension on {lam}"

        x = (lam.a + lam.b) // 2
        r_near, _ = boundary_distances(lam, x)
        for n in range(2, r_near + 1):
            z = min(n, r_near)
            for k in range(0, z):
                sep = z - k
                if sep < 1:
                    continue
                row = ltqo_witness(eta, lam, x, n, k, seed=cfg["seeds"][0],
                                   restarts=cfg["ltqo"]["restarts"],
                                   iters=cfg["ltqo"]["iters"])
                assert row.value <= 1.5 * (1.0 / 3.0) ** sep, \
                    f"decay violated at (L={length}, n={n}, k={k})"


def test_04_fermion_spin_spectral_equivalence(cfg):
    """Sorted spectra of the fermionic chain and its spin image agree to
    1e-10 on chains up to 10 sites; every transformed term is even."""
    for length in [n for n in cfg["lengths"] if n <= 10]:
        for offset in (0, 1):
            lam = _window(length, offset)
            _, eta = _orbital(lam)
            for t in eta.terms:
                assert parity_grade(t.op) == "even"
            spin = fermion_to_spin(eta)
            assert all(not t.op.string_attached for t in spin.terms)
            ev_f = np.linalg.eigvalsh(local_hamiltonian(eta, lam).matrix)
            ev_s = np.linalg.eigvalsh(local_hamiltonian(spin, lam).matrix)
            dev = float(np.max(np.abs(np.sort(ev_f) - np.sort(ev_s))))
            assert dev <= 1e-10, f"spectra disagree on {lam} ({dev:.2e})"


def test_05_regrouping_exactness(cfg):
    """Interval regrouping of 20 seeded interactions reproduces every
    subinterval Hamiltonian to 1e-12 and never increases the decay norm."""
    base = base_envelope(cfg)
    for i in range(20):
        lam = _window(6 + (i % 3))
        psi = random_interaction(lam, seed=cfg["seeds"][0] + i, n_terms=6,
                                 max_diameter=2, decay=base)
        grouped = regroup_intervals(psi)
        for a in range(lam.a, lam.b + 1):
            for b in range(a, lam.b + 1):
                sub = Interval(a, b)
                dev = float(np.max(np.abs(
                    local_hamiltonian(psi, sub).matrix
                    - local_hamiltonian(grouped, sub).matrix)))
                assert dev <= 1e-12, f"trial {i}: deviation on {sub}"
        assert grouped.f_norm() <= psi.f_norm(base), f"trial {i}: norm grew"


def test_06_spectral_flow_intertwining(cfg, ctx):
    """The flow unitary transports the kernel projector to 1e-6, anchored
    pieces commute with it, and both generator routes agree."""
    fb = flow_bundle(cfg, ctx)
    assert len(fb["lam"]) == 8 and fb["flow"].eps <= 0.02
    assert fb["flow"].projector_drift <= 1e-6
    assert fb["dec"].max_kernel_commutator <= 1e-6

    m0, mp, window = fb["h0"].matrix, fb["hp"].matrix, fb["window"]
    for s in (0.0, fb["flow"].eps):
        d_eig = eigenbasis_generator(m0 + s * mp, mp, window)
        d_time = time_quadrature_generator(m0 + s * mp, mp, window)
        assert operator_norm(d_eig - d_time) <= 1e-6


def test_07_decomposition_identities(cfg, ctx):
    """Interior/boundary split reconstructs the transported coupling to
    1e-10; the collected pieces reproduce the diagonal block and are
    annihilated by their ball projectors."""
    fb = flow_bundle(cfg, ctx)
    dec, p0, lam, eta = fb["dec"], fb["p0"], fb["lam"], fb["eta"]
    split = split_phi1(dec, p0)
    assert split.reconstruction_error <= 1e-10

    probed = 0
    for x in interior(lam, 2):
        r_near, _ = boundary_distances(lam, x)
        if r_near < 3:
            continue
        family = resolution_family(eta, lam, x)
        th = theta_assembly(dec, family)
        assert set(th.theta_beta) == set(range(3, family.r_x + 1))
        assert th.identity_error <= 1e-10, f"diagonal identity at x={x}"
        for n, tb in th.theta_beta.items():
            p_ball = family.locals[n - 1]
            assert operator_norm(p_ball @ tb) <= 1e-10
            assert operator_norm(tb @ p_ball) <= 1e-10
        probed += 1
    assert probed > 0


def test_08_resolution_identities(cfg, ctx):
    """Ball resolutions sum to the identity with the partial-sum and
    annihilation laws; sign-pattern projections resolve the identity,
    are orthogonal, and commute with the collected pieces."""
    fb = flow_bundle(cfg, ctx)
    lam, eta, dec = fb["lam"], fb["eta"], fb["dec"]
    dim = fb["h0"].matrix.shape[0]
    eye = np.eye(dim)
    inner = interior(lam, 2)

    for x in inner:
        family = resolution_family(eta, lam, x)
        assert operator_norm(sum(family.E) - eye) <= 1e-12
        partial = np.zeros_like(eye, dtype=complex)
        for k, e_k in enumerate(family.E[:-2], start=1):
            partial += e_k
            p_ball = family.locals[k - 1]
            assert operator_norm(partial - (eye - p_ball)) <= 1e-12
            assert operator_norm(p_ball @ e_k) <= 1e-12

    # spaced radius-1 family: completeness and orthogonality
    members = []
    for x in (inner.a, inner.a + 3):
        family = resolution_family(eta, lam, x)
        members.append((x, ball(lam, x, 1), family.locals[0]))
    xs = [x for x, _, _ in members]
    ss = [sigma_projection(members, dict(zip(xs, bits)))
          for bits in np.ndindex(*(2,) * len(members))]
    assert operator_norm(sum(ss) - eye) <= 1e-12
    for i, s_i in enumerate(ss):
        for s_j in ss[i + 1:]:
            assert operator_norm(s_i @ s_j) <= 1e-12

    # radius-3 patterns commute with the collected pieces they annihilate
    for x in (3, 4):
        family = resolution_family(eta, lam, x)
        th = theta_assembly(dec, family)
        theta = th.theta_beta[3]
        members = [(x, ball(lam, x, 3), family.locals[2])]
        for bit in (0, 1):
            s = sigma_projection(members, {x: bit})
            assert operator_norm(s @ theta - theta @ s) <= 1e-10


def test_09_relative_form_bound(cfg, ctx):
    """No violations of |<v, Phi2 v>| <= delta eps + beta eps <v, H v> over
    1000 seeded unit vectors plus every eigenvector, at three couplings."""
    fb = flow_bundle(cfg, ctx)
    cb = constants_bundle(cfg, ctx)
    delta, beta, alpha = volume_form_constants(cb["bc"], cb["psi_fnorm"])
    assert delta > 0 and beta > 0 and alpha > 0

    flow, p0 = fb["flow"], fb["p0"]
    couplings = []
    n_check = len(flow.eps_grid) - 1
    for frac in (0.25, 0.5, 1.0):
        upto = int(round(frac * n_check))
        if upto % 2 or upto == 0:
            continue
        dec_e = decompose_phi1(flow, fb["eta"], fb["psi"], fb["lam"], p0,
                               upto=upto)
        phi2 = split_phi1(dec_e, p0).phi2
        fr = verify_form_bound(fb["h0"].matrix, phi2, delta, beta, dec_e.eps,
                               n_vectors=1000, seed=cfg["seeds"][0])
        assert fr.violations == 0, f"violations at coupling {dec_e.eps}"
        assert fr.holds
        couplings.append(round(dec_e.eps, 12))
    assert couplings == [0.005, 0.01, 0.02]


def test_10_constants_ledger_and_gap_non_closing(cfg, ctx):
    """Certified constants are finite with reported tails, the two slope
    arrangements agree, and measured gaps dominate the certified line
    wherever it is positive (explicitly vacuous elsewhere)."""
    cb = constants_bundle(cfg, ctx)
    bc = cb["bc"]

    for value in (bc.j.j1, bc.j.j2, bc.j.j3, bc.m, bc.eps_threshold,
                  bc.beta, bc.alpha):
        assert np.isfinite(value) and value > 0
    assert len(bc.j.tails) == 3
    assert all(np.isfinite(t) and t >= 0 for t in bc.j.tails)

    tail_slack = sum(bc.j.tails) * bc.strengths * 5.0 + 1e-9 * bc.m
    assert abs(bc.m - bc.m_grouped()) <= tail_slack
    assert bc.m_grouped(min_n=3) <= bc.m * (1 + 1e-12)

    eps_star = bc.eps_threshold
    probe = sorted({0.0, 0.5 * eps_star, 0.9 * eps_star, 0.05})
    small = [e for e in probe if e <= min(0.05, eps_star)]
    assert len(small) >= 3               # the certified range is probed

    n_positive = n_vacuous = 0
    for length in (8, 10, 12):
        lam, model, eta, pert = _volume(cfg, length)
        kdim, _ = kernel_data(model, lam)
        h0 = local_hamiltonian(eta, lam).matrix
        hp = local_hamiltonian(pert, lam).matrix
        for sp in gap_curve(h0, hp, probe, cluster_dim=kdim):
            bound = float(bc.gap_lower_bound(sp.eps))
            if sp.eps <= min(0.05, eps_star):
                assert sp.gamma > 0.0, \
                    f"gap closed at eps={sp.eps} on {length} sites"
            if bound > 0.0:
                n_positive += 1
                assert sp.gamma >= bound - 1e-9, \
                    f"measured gap below the certified line at eps={sp.eps}"
            else:
                n_vacuous += 1
        # the window between the first two excitation clusters stays open
        for eps, measured in higher_gap_track(h0, hp, small, 1.0, 2.0):
            assert measured > 0.0, \
                f"higher window closed at eps={eps} on {length} sites"
    assert n_positive > 0 and n_vacuous > 0


def test_11_low_cluster_diameter_trend(cfg):
    """With the perturbation pushed deeper into the interior, the diameter
    of the tracked low cluster never grows (1e-8 slack), and it is exactly
    zero at coupling zero."""
    lam, _, eta, pert = _volume(cfg, cfg["sp0"]["length"])
    depths = cfg["sp0"]["depths"]
    assert list(depths) == [2, 3, 4, 5] and len(lam) == 12

    rows = sp0_diameter_scan(eta, pert, lam, cfg["sp0"]["eps"], depths)
    diams = [r["sp0_diam"] for r in sorted(rows, key=lambda r: r["depth"])]
    for a, b in zip(diams, diams[1:]):
        assert b <= a + 1e-8, f"diameter grew along depths: {diams}"

    at_zero = sp0_diameter_scan(eta, pert, lam, 0.0, depths)
    assert all(r["sp0_diam"] == 0.0 for r in at_zero)
