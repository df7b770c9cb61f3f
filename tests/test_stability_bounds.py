import numpy as np
import pytest

from gaplab.ffunction import FFunctionSpec, WeightSpec, f_zero
from gaplab.lattice import Interval
from gaplab.models import random_even_perturbation
from gaplab.stability_bounds import (BoundConstants, OmegaProfile,
                                     bound_constants, calibrate_c,
                                     edge_bulk_strengths, fermion_constants,
                                     higher_gap_bound, higher_gap_threshold,
                                     j_constants,
                                     kappa_bound, stability_threshold,
                                     uniform_strengths, verify_form_bound,
                                     volume_form_constants)

BASE = FFunctionSpec(L=1.0, c=1.0, kappa=4.0,
                     weight=WeightSpec("stretched", K=0.5, s=1.0))
ENV = {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0}


# --- profiles ---------------------------------------------------------------------


def test_omega_profile_kinds():
    geo = OmegaProfile("geometric", 2.0, 0.5)
    assert geo(3.0) == pytest.approx(0.25)
    assert geo(-5.0) == geo(0.0) == 2.0          # negative arguments clamp
    pw = OmegaProfile("power", 1.0, 6.0)
    assert pw(1.0) == pytest.approx(2.0 ** -6)
    st = OmegaProfile("step", 3.0, 2.0)
    assert st(1.9) == 3.0 and st(2.0) == 0.0
    arr = geo(np.array([0.0, 1.0]))
    np.testing.assert_allclose(arr, [2.0, 1.0])


def test_omega_profile_sqrt():
    geo = OmegaProfile("geometric", 0.81, 0.25).sqrt()
    assert geo.amplitude == pytest.approx(0.9) and geo.rate == pytest.approx(0.5)
    pw = OmegaProfile("power", 4.0, 6.0).sqrt()
    assert pw(7.0) == pytest.approx(np.sqrt(4.0 * 8.0 ** -6))
    st = OmegaProfile("step", 4.0, 2.0).sqrt()
    assert st(0.0) == 2.0 and st.rate == 2.0


def test_omega_profile_validation():
    with pytest.raises(ValueError):
        OmegaProfile("exp", 1.0, 0.5)
    with pytest.raises(ValueError):
        OmegaProfile("geometric", -1.0, 0.5)
    with pytest.raises(ValueError):
        OmegaProfile("geometric", 1.0, 1.0)


# --- the J series against brute-force oracles ---------------------------------------


def brute_j(c, omega, f0, nmax=500):
    sq = omega.sqrt()

    def f0v(r):
        return f0(max(r, 0.0)) if f0 is not None else 0.0

    def bracket(n):
        return sq(max(0.5 * (n - 1), 0.0)) + f0v(0.5 * (n - 3))

    j1 = 40.0 * c * sum(n * bracket(n) for n in range(1, nmax))
    j2 = 20.0 * c * (bracket(0) + 2.0 * sum(bracket(n) for n in range(1, nmax)))
    j3 = (omega(0.0) + 2.0 * f0v(0.0)
          + 2.0 * sum(omega(0.5 * z) + 2.0 * f0v(np.floor(0.5 * z))
                      for z in range(1, nmax)))
    return j1, j2, j3


def test_j_constants_match_geometric_oracle():
    omega = OmegaProfile("geometric", 0.81, 0.25)
    j = j_constants(2.0, omega, None)
    b1, b2, b3 = brute_j(2.0, omega, None)
    # geometric tails at truncation 2000 are below rounding
    assert j.j1 == pytest.approx(b1, rel=1e-12)
    assert j.j2 == pytest.approx(b2, rel=1e-12)
    assert j.j3 == pytest.approx(b3, rel=1e-12)


def test_j_constants_certify_shifted_envelope():
    f0 = f_zero(BASE, 1)
    j_course = j_constants(1.0, OmegaProfile("geometric", 0.0, 0.0), f0,
                           truncation=200)
    j_fine = j_constants(1.0, OmegaProfile("geometric", 0.0, 0.0), f0,
                         truncation=2000)
    b1, b2, b3 = brute_j(1.0, OmegaProfile("geometric", 0.0, 0.0), f0,
                         nmax=60000)
    # every certified value is an upper bound; finer truncation tightens it
    for certified, coarse, brute in zip(
            (j_fine.j1, j_fine.j2, j_fine.j3),
            (j_course.j1, j_course.j2, j_course.j3), (b1, b2, b3)):
        assert brute <= certified <= coarse
        assert certified <= brute * 1.01


def test_j_scaling_in_flow_constant():
    omega = OmegaProfile("geometric", 0.5, 0.3)
    j1 = j_constants(1.0, omega, None)
    j2 = j_constants(2.0, omega, None)
    assert j2.j1 == pytest.approx(2.0 * j1.j1)
    assert j2.j2 == pytest.approx(2.0 * j1.j2)
    assert j2.j3 == pytest.approx(j1.j3)         # no flow constant in J_3
    with pytest.raises(ValueError):
        j_constants(0.0, omega, None)


def test_j_zero_envelopes_give_zero():
    j = j_constants(3.0, OmegaProfile("geometric", 0.0, 0.0), None)
    assert (j.j1, j.j2, j.j3) == (0.0, 0.0, 0.0)


def test_step_profile_needs_clearing_truncation():
    omega = OmegaProfile("step", 1.0, 10.0)
    with pytest.raises(ValueError):
        j_constants(1.0, omega, None, truncation=5)
    j = j_constants(1.0, omega, None, truncation=50)
    assert j.j1 > 0


# --- assembled constants ------------------------------------------------------------


@pytest.fixture(scope="module")
def bc():
    omega = OmegaProfile("geometric", 0.81, 0.25)
    return bound_constants(gamma0=1.0, c=0.01, eta_fnorm=2.0, m_int=0.5,
                           m_d=0.1, omega=omega, f0=None)


def test_constants_algebra(bc):
    s = bc.eta_fnorm + bc.m_int
    assert bc.strengths == pytest.approx(s)
    assert bc.delta == pytest.approx(bc.j.j2 * s)
    assert bc.beta == pytest.approx(3.0 / bc.gamma0 * bc.j.j1 * s)
    assert bc.alpha == pytest.approx(bc.c * s * (bc.j.j3 + 4.0) + bc.delta)
    assert bc.m == pytest.approx(
        (3.0 * bc.j.j1 + 2.0 * bc.j.j2 + bc.c * (bc.j.j3 + 8.0)) * s)
    assert bc.consistency_residual() <= 1e-12


def test_thresholds_and_gap_line(bc):
    assert bc.m_total == pytest.approx(bc.m + 2.0 * bc.m_d)
    assert bc.eps_interior == pytest.approx(min(1.0, bc.gamma0 / bc.m))
    thr = bc.eps_threshold
    assert thr == pytest.approx(min(1.0, bc.gamma0 / bc.m_total))
    assert bc.gap_lower_bound(0.0) == pytest.approx(bc.gamma0)
    if thr < 1.0:
        assert bc.gap_lower_bound(thr) == pytest.approx(0.0, abs=1e-12)
    m_prime, eps_prime = fermion_constants(bc)
    assert (m_prime, eps_prime) == (bc.m_total, thr)


def test_grouped_sum_routes(bc):
    grouped = bc.m_grouped()
    far = bc.m_grouped(min_n=3)
    assert abs(grouped - bc.m) <= 1e-9 * max(1.0, bc.m)
    assert far <= grouped
    # the gap is exactly the dropped |n| <= 2 terms of the weighted part
    sq = bc.omega.sqrt()
    dropped = (sq(0.0) + 5.0 * sq(0.0) + 8.0 * sq(0.5)) \
        * 40.0 * bc.c * bc.strengths
    assert grouped - far == pytest.approx(dropped, rel=1e-10)


def test_stability_threshold_report(bc):
    rep = stability_threshold(bc)
    assert rep["m"] == bc.m and rep["m_total"] == bc.m_total
    assert rep["m_grouped_far"] <= rep["m_grouped"]
    assert rep["eps_star"] == bc.eps_threshold
    assert rep["eps_interior"] == bc.eps_interior


def test_kappa_bound_formula(bc):
    sq = bc.omega.sqrt()
    for n, eps in ((1, 0.01), (4, 0.02)):
        want = 20.0 * bc.c * eps * (bc.eta_fnorm + bc.m_int) \
            * sq(max(0.5 * (n - 1), 0.0))
        assert kappa_bound(bc, n, eps) == pytest.approx(want)
    assert kappa_bound(bc, 3, 0.01, phi_fnorm=0.0) == pytest.approx(
        kappa_bound(bc, 3, 0.01) * bc.eta_fnorm / bc.strengths)


def test_higher_gap_formulas(bc):
    gamma, top = 0.7, 2.0
    eps = 0.003
    want = (1.0 - bc.beta * eps) * gamma \
        - 2.0 * (bc.alpha + bc.beta * top + bc.m_d) * eps
    assert higher_gap_bound(bc, gamma, top, eps) == pytest.approx(want)
    thr = higher_gap_threshold(bc, gamma, top)
    assert 0.0 < thr <= 1.0
    if thr < 1.0:
        assert higher_gap_bound(bc, gamma, top, thr) == pytest.approx(
            0.0, abs=1e-12)


def test_calibrate_c():
    assert calibrate_c(0.3, 0.02, 2.0, 1.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        calibrate_c(0.3, 0.0, 2.0, 1.0)


def test_form_constants_use_volume_norm(bc):
    delta, beta, alpha = volume_form_constants(bc, 0.25)
    s = bc.eta_fnorm + 0.25
    assert delta == pytest.approx(bc.j.j2 * s)
    assert beta == pytest.approx(3.0 / bc.gamma0 * bc.j.j1 * s)
    assert alpha == pytest.approx(bc.c * s * (bc.j.j3 + 4.0) + delta)


# --- direct form-bound verification -------------------------------------------------


def test_form_bound_diagonal_oracle():
    h = np.diag([0.0, 1.0, 2.0])
    phi2 = np.diag([0.05, 0.2, 0.3])
    rep = verify_form_bound(h, phi2, delta=1.0, beta=1.0, eps=0.1,
                            n_vectors=200)
    assert rep.holds and rep.violations == 0
    assert rep.min_eig_plus >= -1e-10 and rep.min_eig_minus >= -1e-10

    bad = verify_form_bound(h, np.diag([0.5, 0.0, 0.0]), delta=1.0,
                            beta=1.0, eps=0.1, n_vectors=200)
    assert not bad.holds
    assert bad.violations >= 1                   # the ground eigenvector fails
    assert bad.min_eig_minus == pytest.approx(-0.4, abs=1e-12)


def test_form_bound_margin_dominates_eigenvalues():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    h = a @ a.T                                   # nonnegative
    b = rng.standard_normal((8, 8))
    phi2 = 0.01 * (b + b.T)
    rep = verify_form_bound(h, phi2, delta=0.5, beta=0.2, eps=0.05,
                            n_vectors=500, seed=11)
    assert rep.sampled_margin >= min(rep.min_eig_plus, rep.min_eig_minus) - 1e-12


# --- volume strengths ---------------------------------------------------------------


def test_edge_bulk_strengths_split():
    lam = Interval(0, 5)
    pert = random_even_perturbation(lam, 1, ENV, seed=3)
    vs = edge_bulk_strengths(pert, lam, 1, BASE)
    assert vs.lam == lam
    assert vs.interior_fnorm > 0.0
    assert vs.edge_norm > 0.0
    assert vs.interior_fnorm <= pert.f_norm(BASE)


def test_uniform_strengths_suprema_and_threshold():
    volumes = [Interval(0, 5), Interval(0, 7)]
    phi_for = {lam: random_even_perturbation(lam, 1, ENV, seed=3)
               for lam in volumes}
    m_int, m_d, rows = uniform_strengths(phi_for, 1, 1, BASE)
    assert len(rows) == 2
    assert m_int == pytest.approx(max(r.interior_fnorm for r in rows))
    assert m_d == pytest.approx(max(r.edge_norm for r in rows))
    small = {Interval(0, 2): random_even_perturbation(Interval(0, 2), 1,
                                                      ENV, seed=3)}
    with pytest.raises(ValueError):
        uniform_strengths(small, 1, 1, BASE)
