from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.interaction import Interaction, Term, local_hamiltonian, \
    random_interaction
from gaplab.lattice import Interval, ball, interior
from gaplab.models import orbital_interaction, paired_orbital_model, \
    random_even_perturbation
from gaplab.operator_algebra import LocalOperator, eigenvalues, \
    kernel_count, operator_norm
from gaplab.spectra import (FrustrationError, RefinementError,
                            cluster_projector, diagonalize, gap_curve,
                            ground_projector, higher_gap_track,
                            resolution_family, sigma_projection,
                            sp0_diameter_scan)
from gaplab import operator_algebra, spectra
from oracles import even_pair, random_hermitian, random_matrix

Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ising(lam):
    terms = [Term(LocalOperator((np.eye(4) - np.kron(Z, Z)) / 2.0,
                                Interval(x, x + 1), lam))
             for x in range(lam.a, lam.b)]
    return Interaction(terms)


def test_diagonalize_residual_certificate():
    h = np.diag([0.0, 1.0, 3.0])
    evals, evecs = diagonalize(h)
    np.testing.assert_allclose(evals, [0, 1, 3])
    np.testing.assert_allclose(evecs @ evecs.conj().T, np.eye(3), atol=1e-12)


def test_diagonalize_solves_and_certifies_a_block_stack():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((2, 8, 8))
    stack = m + m.swapaxes(-1, -2)
    evals, evecs = diagonalize(stack)
    assert evals.shape == (2, 8) and evecs.shape == (2, 8, 8)
    for block, ev, vecs in zip(stack, evals, evecs):
        np.testing.assert_array_equal(ev, np.linalg.eigh(block)[0])
        np.testing.assert_allclose(block @ vecs, vecs * ev, rtol=0,
                                   atol=1e-12)


def test_ground_projector_rank():
    lam = Interval(0, 3)
    p = ground_projector(local_hamiltonian(ising(lam), lam))
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)


def test_ground_projector_needs_kernel():
    with pytest.raises(FrustrationError):
        ground_projector(np.diag([1.0, 2.0]))


# --- gap curves -------------------------------------------------------------


def test_gap_curve_two_level_oracle():
    """H = diag(0, 1), psi = diag(1, -1): gap(eps) = 1 - 2 eps exactly."""
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])
    grid = [0.0, 0.1, 0.2]
    splits = gap_curve(h0, psi, grid)
    for sp in splits:
        assert sp.gamma == pytest.approx(1.0 - 2.0 * sp.eps, abs=1e-12)
        assert sp.sp0.size == 1


def test_gap_curve_tracks_through_shift():
    # uniform shift never closes the tracked gap
    h0 = np.diag([0.0, 0.0, 2.0])
    psi = np.eye(3)
    splits = gap_curve(h0, psi, np.linspace(0, 1, 5))
    for sp in splits:
        assert sp.gamma == pytest.approx(2.0, abs=1e-12)
        assert sp.sp0_diameter == pytest.approx(0.0, abs=1e-12)


def test_gap_curve_refinement_error_on_closing():
    # the perturbation closes the gap inside the sweep: tracking must refuse
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])
    with pytest.raises(RefinementError):
        gap_curve(h0, psi, [0.0, 0.5, 1.0], max_depth=3)


def test_gap_curve_respects_cluster_dim():
    h0 = np.diag([0.0, 0.001, 1.0])
    psi = np.zeros((3, 3))
    splits = gap_curve(h0, psi, [0.0, 0.1], cluster_dim=2)
    assert splits[0].sp0.size == 2
    assert splits[0].gamma == pytest.approx(0.999, abs=1e-12)


def _gapped(rng, side, complex_):
    """A Hermitian matrix with one kernel vector and the rest of its
    spectrum in [1.5, 3]."""
    q, _ = np.linalg.qr(random_matrix(rng, side, complex_))
    levels = np.concatenate(([0.0], rng.uniform(1.5, 3.0, side - 1)))
    h = (q * levels) @ q.conj().T
    return (h + h.conj().T) / 2.0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["equal", "unequal", "spin1"]), st.integers(2, 5),
       st.booleans(), st.floats(1e-3, 0.2), st.integers(0, 2 ** 32 - 1))
def test_gap_curve_on_blocks_is_the_dense_oracle_bit_for_bit(kind, n, complex_,
                                                             eps, seed):
    """``gap_curve`` splits ``H0`` and ``Psi`` once and solves each coupling
    block by block: every spectrum is ``eigenvalues(H0 + eps Psi)`` bit for
    bit, with one parity scan in all, each ``eigvalsh`` on a block, and one
    solve per coupling when the blocks are equal (a parity-even pair that
    leaves the last site alone), or on a spin-1 side 3^n, which does not
    split."""
    rng = np.random.default_rng(seed)
    if kind == "spin1":
        side = 3 ** min(n, 4)
        h0, psi = _gapped(rng, side, complex_), random_hermitian(rng, side,
                                                                 complex_)
        psi /= operator_norm(psi)
    elif kind == "unequal":
        side = 2 ** n
        h0, psi = even_pair(rng, side, complex_)
    else:
        side = 2 ** n
        h0, psi = (np.kron(m, np.eye(2))
                   for m in even_pair(rng, side // 2, complex_))
    block = side if kind == "spin1" else side // 2
    solves_per_coupling = 2 if kind == "unequal" else 1
    scans, shapes = [], []
    real_scan, real_solve = operator_algebra.parity_sectors, np.linalg.eigvalsh

    def scan(*mats):
        scans.append(1)
        return real_scan(*mats)

    def solve(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_solve(a, *args, **kwargs)

    grid = [0.0, 0.5 * eps, eps]
    with patch.object(spectra, "parity_sectors", scan), \
            patch.object(operator_algebra, "parity_sectors", scan), \
            patch.object(np.linalg, "eigvalsh", solve):
        splits = gap_curve(h0, psi, grid)
    assert len(scans) == 1
    assert set(shapes) == {(block, block)}
    # |Psi|, the spectrum at 0 and the two nonzero couplings
    assert len(shapes) == (2 + len(grid) - 1) * solves_per_coupling
    for sp, e in zip(splits, grid):
        spectrum = np.concatenate((sp.sp0, sp.sp1))
        assert spectrum.tobytes() == eigenvalues(h0 + e * psi).tobytes()


def test_cluster_projector():
    h = np.diag([0.0, 0.1, 5.0])
    p = cluster_projector(h, 2)
    np.testing.assert_allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    with pytest.raises(RefinementError):
        cluster_projector(np.diag([0.0, 0.0, 1.0]), 1)  # degenerate boundary


# --- resolution families ------------------------------------------------------


def _volume_projector(eta, lam):
    return ground_projector(local_hamiltonian(eta, lam))


def test_resolution_family_identities():
    lam = Interval(0, 6)
    eta = ising(lam)
    fam = resolution_family(eta, lam, 3, _volume_projector(eta, lam))
    assert fam.r_x == 3
    dim = fam.P.shape[0]
    total = sum(fam.E)
    np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
    # partial sums telescope to 1 - P_{b(x,n)}
    partial = np.zeros_like(fam.P)
    for n, e in enumerate(fam.E[:-2], start=1):
        partial = partial + e
        np.testing.assert_allclose(partial, np.eye(dim) - fam.locals[n - 1],
                                   atol=1e-10)
        # annihilation: P_{b(x,n)} E_n = 0
        assert operator_norm(fam.locals[n - 1] @ e) <= 1e-10
    # nesting makes every E_n a projector here
    for e in fam.E:
        np.testing.assert_allclose(e @ e, e, atol=1e-9)


def test_resolution_family_needs_interior_site():
    lam = Interval(0, 6)
    eta = ising(lam)
    p = _volume_projector(eta, lam)
    with pytest.raises(ValueError):
        resolution_family(eta, lam, 0, p)
    with pytest.raises(ValueError):
        resolution_family(eta, lam, 6, p)


def test_resolution_family_solves_only_its_balls(monkeypatch):
    """The volume's kernel projector is the caller's: no eigensolve of the
    volume's side, one per ball (the widest is [0, 6] of [0, 7])."""
    lam = Interval(0, 7)
    eta = ising(lam)
    p = _volume_projector(eta, lam)
    sides = []
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        sides.append(m.shape[0])
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    fam = resolution_family(eta, lam, 3, p)
    assert fam.P is p
    assert p.shape[0] not in sides
    assert len(sides) == fam.r_x


def test_sigma_projection_partition_of_identity():
    lam = Interval(0, 8)
    eta = ising(lam)
    members = []
    for x in (2, 6):
        b = ball(lam, x, 1)
        p = ground_projector(local_hamiltonian(eta.restricted(b), b))
        nl, nr = b.a - lam.a, lam.b - b.b
        p_full = np.kron(np.eye(2 ** nl), np.kron(p, np.eye(2 ** nr)))
        members.append((x, b, p_full))
    dim = 2 ** len(lam)
    total = np.zeros((dim, dim), dtype=complex)
    for bits in np.ndindex(2, 2):
        sig = {2: bits[0], 6: bits[1]}
        total = total + sigma_projection(members, sig)
    np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)


def test_sigma_projection_rejects_overlap():
    lam = Interval(0, 4)
    eta = ising(lam)
    members = []
    for x in (1, 2):
        b = ball(lam, x, 1)
        p = ground_projector(local_hamiltonian(eta.restricted(b), b))
        nl, nr = b.a - lam.a, lam.b - b.b
        members.append((x, b, np.kron(np.eye(2 ** nl),
                                      np.kron(p, np.eye(2 ** nr)))))
    with pytest.raises(ValueError):
        sigma_projection(members, {1: 0, 2: 0})


# --- higher windows and the diameter scan --------------------------------------


def test_higher_gap_track_analytic():
    h0 = np.diag([0.0, 1.0, 2.0, 3.0])
    psi = np.diag([0.0, 1.0, -1.0, 0.0])
    # window between 1 and 2: gamma(eps) = (2 - eps) - (1 + eps)
    rows = higher_gap_track(gap_curve(h0, psi, [0.0, 0.1, 0.2]),
                            nu=1.0, mu=2.0)
    for eps, g in rows:
        assert g == pytest.approx(1.0 - 2.0 * eps, abs=1e-12)


def test_higher_gap_track_keeps_rounded_levels_at_the_window_edges():
    # each edge level is degenerate and straddles nu or mu by rounding
    h0 = np.diag([0.0, 1.0 - 1e-15, 1.0 + 1e-15, 2.0 - 1e-15, 2.0 + 1e-15])
    psi = np.diag([0.0, -1.0, 1.0, -1.0, 1.0])
    rows = higher_gap_track(gap_curve(h0, psi, [0.0, 0.1, 0.2]),
                            nu=1.0, mu=2.0)
    for eps, g in rows:
        assert g == pytest.approx(1.0 - 2.0 * eps, abs=1e-12)


def test_higher_gap_track_window_must_be_populated():
    with pytest.raises(ValueError, match="no spectrum"):
        higher_gap_track(gap_curve(np.diag([5.0, 6.0]), np.eye(2), [0.0],
                                   cluster_dim=1), nu=1.0, mu=2.0)


def test_higher_gap_track_needs_coupling_zero_first():
    with pytest.raises(ValueError, match="coupling zero"):
        higher_gap_track(gap_curve(np.diag([0.0, 3.0]), np.eye(2), [0.1]),
                         nu=1.0, mu=2.0)


def test_higher_gap_identity_perturbation_is_constant():
    h0 = np.diag([0.0, 0.5, 2.0, 2.5])
    rows = higher_gap_track(gap_curve(h0, np.eye(4), [0.0, 0.3, 0.7]),
                            nu=0.5, mu=2.0)
    for _, g in rows:
        assert g == pytest.approx(1.5, abs=1e-12)


def test_sp0_scan_trivial_cases():
    lam = Interval(0, 5)
    eta = ising(lam)
    pert = random_interaction(lam, seed=1, n_terms=4, max_diameter=1)
    # depth swallowing the volume: perturbation drops out entirely
    rows = sp0_diameter_scan(eta, pert, lam, [0.1], [6])
    assert rows[0]["sp0_diam"] == pytest.approx(0.0, abs=1e-12)
    # eps = 0: every depth reads the spectrum of h0 and its measured diameter
    rows = sp0_diameter_scan(eta, pert, lam, [0.0], [1, 2])
    assert all(r["sp0_diam"] == r["sp0_max"] - r["sp0_min"] for r in rows)
    assert rows[0] == {**rows[1], "depth": 1}


def test_sp0_scan_reports_gamma():
    lam = Interval(0, 5)
    eta = ising(lam)
    pert = random_interaction(lam, seed=2, n_terms=4, max_diameter=1)
    rows = sp0_diameter_scan(eta, pert, lam, [0.05], [1])
    assert rows[0]["gamma"] > 0.5
    assert rows[0]["sp1_min"] >= rows[0]["sp0_max"]


def test_sp0_scan_matches_a_dense_recomputation():
    lam = Interval(1, 8)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    pert = random_even_perturbation(lam, 2, {"A": 1.0, "K": 0.5, "s": 1.0,
                                             "kappa": 4.0}, seed=7)
    couplings, depths = (0.0, 0.02, 0.05), (0, 1, 2, 3)
    rows = sp0_diameter_scan(eta, pert, lam, couplings, depths)
    assert [(r["eps"], r["depth"]) for r in rows] == \
        [(e, d) for e in couplings for d in depths]
    h0 = local_hamiltonian(eta, lam).matrix
    kdim = kernel_count(np.linalg.eigvalsh(h0))
    for row in rows:
        inner = interior(lam, row["depth"])
        kept = Interaction([t for t in pert.terms if t.support in inner],
                           pert.kind, pert.local_dim)
        evals = np.linalg.eigvalsh(
            h0 + row["eps"] * local_hamiltonian(kept, lam).matrix)
        sp0, sp1 = evals[:kdim], evals[kdim:]
        assert row["sp0_min"] == pytest.approx(sp0.min(), abs=1e-12)
        assert row["sp0_max"] == pytest.approx(sp0.max(), abs=1e-12)
        assert row["sp1_min"] == pytest.approx(sp1.min(), abs=1e-12)
        assert row["gamma"] == pytest.approx(sp1.min() - sp0.max(), abs=1e-12)
        assert row["sp0_diam"] == pytest.approx(sp0.max() - sp0.min(),
                                                abs=1e-12)


def test_sp0_scan_assembles_eta_once(monkeypatch):
    """``eta``'s matrix on its span is assembled once; a perturbed row
    assembles only its kept terms, on that span, and adds ``eta`` into their
    buffer.  At depth 0 the kept terms reach the end sites, off ``eta``'s
    span, and the row is solved by ``hamiltonian_eigenvalues`` instead."""
    lam = Interval(1, 8)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    pert = random_even_perturbation(lam, 2, {"A": 1.0, "K": 0.5, "s": 1.0,
                                             "kappa": 4.0}, seed=7)
    assert eta.span == Interval(2, 7) and pert.span == lam
    built, general = [], []
    real_build = spectra.local_hamiltonian
    real_general = spectra.hamiltonian_eigenvalues

    def build(phi, where):
        built.append((list(map(id, phi.terms)) == list(map(id, eta.terms)),
                      where))
        return real_build(phi, where)

    def solve_general(parts, where):
        general.append(parts)
        return real_general(parts, where)

    monkeypatch.setattr(spectra, "local_hamiltonian", build)
    monkeypatch.setattr(spectra, "hamiltonian_eigenvalues", solve_general)
    sp0_diameter_scan(eta, pert, lam, (0.0, 0.02, 0.05), (0, 1, 2))
    assert built[0] == (True, eta.span)
    assert len(built) == 1 + 2 * 2
    assert all(where == eta.span for _, where in built)
    assert len(general) == 2


def test_sp0_scan_at_the_default_length_matches_the_whole_volume():
    """At the default scan (12 sites, seed 7, depths 2-5, coupling 0.02) the
    span solves agree with the parity-block solves of the whole 4096-state
    matrices to 1e-12 of their scale.  The cluster of the span solve is one
    eigenvalue repeated over the two free end sites, so its diameter is
    exactly zero, and the whole-volume diameter is rounding."""
    lam = Interval(1, 12)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    pert = random_even_perturbation(lam, 2, {"A": 1.0, "K": 0.5, "s": 1.0,
                                             "kappa": 4.0}, seed=7)
    rows = sp0_diameter_scan(eta, pert, lam, (0.02,), (2, 3, 4, 5))
    h0 = local_hamiltonian(eta, lam).matrix
    kdim = kernel_count(eigenvalues(h0))
    assert kdim == 4
    for row in rows:
        inner = interior(lam, row["depth"])
        kept = Interaction([t for t in pert.terms if t.support in inner],
                           pert.kind, pert.local_dim)
        m = local_hamiltonian(kept, lam).matrix
        m *= row["eps"]
        m += h0
        evals = eigenvalues(m)
        del m
        sp0, sp1 = evals[:kdim], evals[kdim:]
        tol = 1e-12 * max(1.0, float(np.max(np.abs(evals))))
        assert row["sp0_min"] == pytest.approx(sp0.min(), abs=tol)
        assert row["sp0_max"] == pytest.approx(sp0.max(), abs=tol)
        assert row["sp1_min"] == pytest.approx(sp1.min(), abs=tol)
        assert row["sp0_diam"] == 0.0
        assert sp0.max() - sp0.min() <= tol
