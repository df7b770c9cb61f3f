from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.ffunction import FFunctionSpec, ShiftedEnvelope, WeightSpec
from gaplab.interaction import (Interaction, hamiltonian_eigenvalues,
                                local_hamiltonian, split_edge_bulk)
from gaplab.lattice import Interval
from gaplab.models import random_even_perturbation
from gaplab.operator_algebra import charge_sectors, join_blocks
from gaplab.stability_bounds import (OmegaProfile, _SAMPLE_COLUMNS,
                                     _SAMPLE_VECTORS, _support_clusters,
                                     bound_constants, calibrate_c,
                                     edge_bulk_strengths,
                                     higher_gap_bound, higher_gap_threshold,
                                     j_constants,
                                     kappa_bound, stability_threshold,
                                     uniform_strengths, verify_form_bound,
                                     volume_form_constants)
from oracles import SEED, TRUNCATION, even_pair, split_blocks

BASE = FFunctionSpec(L=1.0, c=1.0, kappa=4.0,
                     weight=WeightSpec(K=0.5, s=1.0))
ENV = {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0}


# --- the profile --------------------------------------------------------------------


F0 = ShiftedEnvelope(BASE, 1)
STEP = OmegaProfile(2.0, 3.0)


def test_omega_profile_kinds():
    """The one profile is a step: its amplitude below the cut-off, zero
    from it on, negative arguments clamped to zero."""
    st = OmegaProfile(3.0, 2.0)
    assert st(1.9) == 3.0 and st(2.0) == 0.0
    assert st(-5.0) == st(0.0) == 3.0
    np.testing.assert_allclose(st(np.array([0.0, 1.0, 2.0])), [3.0, 3.0, 0.0])


def test_omega_profile_sqrt():
    st = OmegaProfile(4.0, 2.0).sqrt()
    assert st(0.0) == 2.0 and st.cutoff == 2.0


def test_omega_profile_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        OmegaProfile(-1.0, 3.0)


# --- the J series against brute-force oracles ---------------------------------------


def brute_j(c, omega, f0, nmax=500):
    sq = omega.sqrt()

    def bracket(n):
        return sq(max(0.5 * (n - 1), 0.0)) + f0(max(0.5 * (n - 3), 0.0))

    j1 = 40.0 * c * sum(n * bracket(n) for n in range(1, nmax))
    j2 = 20.0 * c * (bracket(0) + 2.0 * sum(bracket(n) for n in range(1, nmax)))
    j3 = (omega(0.0) + 2.0 * f0(0.0)
          + 2.0 * sum(omega(0.5 * z) + 2.0 * f0(np.floor(0.5 * z))
                      for z in range(1, nmax)))
    return j1, j2, j3


def test_j_constants_match_the_brute_oracle():
    """Past their certified tails, the J sums are the brute sums of the
    step and the shifted envelope to the truncation, to 1e-12."""
    j = j_constants(2.0, STEP, F0, TRUNCATION)
    brute = brute_j(2.0, STEP, F0, nmax=TRUNCATION + 1)
    for value, tail, want in zip((j.j1, j.j2, j.j3), j.tails, brute):
        assert tail > 0.0
        assert value - tail == pytest.approx(want, rel=1e-12)


def test_j_constants_certify_shifted_envelope():
    j_course = j_constants(1.0, STEP, F0, 200)
    j_fine = j_constants(1.0, STEP, F0, TRUNCATION)
    b1, b2, b3 = brute_j(1.0, STEP, F0, nmax=60000)
    # every certified value is an upper bound; finer truncation tightens it
    for certified, coarse, brute in zip(
            (j_fine.j1, j_fine.j2, j_fine.j3),
            (j_course.j1, j_course.j2, j_course.j3), (b1, b2, b3)):
        assert brute <= certified <= coarse
        assert certified <= brute * 1.01


def test_j_scaling_in_flow_constant():
    j1 = j_constants(1.0, STEP, F0, TRUNCATION)
    j2 = j_constants(2.0, STEP, F0, TRUNCATION)
    assert j2.j1 == pytest.approx(2.0 * j1.j1)
    assert j2.j2 == pytest.approx(2.0 * j1.j2)
    assert j2.j3 == pytest.approx(j1.j3)         # no flow constant in J_3
    with pytest.raises(ValueError):
        j_constants(0.0, STEP, F0, TRUNCATION)


def test_step_profile_needs_clearing_truncation():
    """The square root's step ends at ``n = 2 cutoff + 1``: a truncation
    one short of it is refused, and from it on the step's tail is zero."""
    omega = OmegaProfile(1.0, 100.0)
    with pytest.raises(ValueError, match="does not clear the step"):
        j_constants(1.0, omega, F0, 199)
    j = j_constants(1.0, omega, F0, 200)
    assert j.j1 > 0


# --- assembled constants ------------------------------------------------------------


@pytest.fixture(scope="module")
def bc():
    return bound_constants(gamma0=1.0, c=0.01, eta_fnorm=2.0, m_int=0.5,
                           m_d=0.1, omega=STEP, f0=F0, truncation=TRUNCATION)


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


def test_grouped_sum_routes(bc):
    grouped = bc.m_grouped()
    far = bc.m_grouped(min_n=3)
    assert abs(grouped - bc.m) <= 1e-9 * max(1.0, bc.m)
    assert far <= grouped
    # the gap is exactly the dropped |n| <= 2 terms of the weighted part
    sq = bc.omega.sqrt()

    def bracket(n):
        return sq(max(0.5 * (n - 1), 0.0)) + bc.f0(0.5 * (n - 3))

    dropped = (bracket(0) + 5.0 * bracket(1) + 8.0 * bracket(2)) \
        * 40.0 * bc.c * bc.strengths
    assert grouped - far == pytest.approx(dropped, rel=1e-10)


def test_stability_threshold_report(bc):
    rep = stability_threshold(bc)
    assert rep == {"m_grouped": bc.m_grouped(),
                   "m_grouped_far": bc.m_grouped(min_n=3)}
    assert rep["m_grouped_far"] <= rep["m_grouped"]
    # the re-summation runs to the truncation the constants carry: one
    # that stops inside the step is refused
    assert bc.truncation == TRUNCATION
    with pytest.raises(ValueError, match="truncation does not clear"):
        stability_threshold(replace(bc, truncation=5))


def test_kappa_bound_formula(bc):
    sq = bc.omega.sqrt()
    for n, eps in ((1, 0.01), (4, 0.02), (12, 0.02)):
        want = 20.0 * bc.c * eps * (bc.eta_fnorm + bc.m_int) \
            * (sq(max(0.5 * (n - 1), 0.0)) + bc.f0(0.5 * (n - 3)))
        assert kappa_bound(bc, n, eps, bc.m_int) == pytest.approx(want)
    assert kappa_bound(bc, 3, 0.01, phi_fnorm=0.0) == pytest.approx(
        kappa_bound(bc, 3, 0.01, bc.m_int) * bc.eta_fnorm / bc.strengths)


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


def _one_block(h, vecs, phi2):
    """``h``, ``vecs`` and ``phi2`` as stacks of one block, and that one
    sector: the first arguments of ``verify_form_bound``."""
    return h[None], vecs[None], phi2[None], [np.arange(len(h))]


def test_form_bound_diagonal_oracle():
    h = np.diag([0.0, 1.0, 2.0])
    phi2 = np.diag([0.05, 0.2, 0.3])
    vecs = np.linalg.eigh(h)[1]
    rep = verify_form_bound(*_one_block(h, vecs, phi2), delta=1.0, beta=1.0,
                            eps=0.1, seed=SEED)
    assert rep.holds and rep.violations == 0
    assert rep.min_eig_plus >= -1e-10 and rep.min_eig_minus >= -1e-10

    bad = verify_form_bound(*_one_block(h, vecs, np.diag([0.5, 0.0, 0.0])),
                            delta=1.0, beta=1.0, eps=0.1, seed=SEED)
    assert not bad.holds
    assert bad.violations >= 1                   # the ground eigenvector fails
    assert bad.min_eig_minus == pytest.approx(-0.4, abs=1e-12)


def test_form_bound_margin_dominates_eigenvalues():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    h = a @ a.T                                   # nonnegative
    b = rng.standard_normal((8, 8))
    phi2 = 0.01 * (b + b.T)
    rep = verify_form_bound(*_one_block(h, np.linalg.eigh(h)[1], phi2),
                            delta=0.5, beta=0.2, eps=0.05, seed=11)
    assert rep.sampled_margin >= min(rep.min_eig_plus, rep.min_eig_minus) - 1e-12


def test_form_bound_margins_match_the_triple_einsum_oracle():
    """The sampled forms, taken as BLAS products, give the margins of the
    direct sum ``sum_ij conj(v_i) m_ij v_j`` to 1e-12, the samples drawn
    ``_SAMPLE_COLUMNS`` at a time, each block's real and imaginary parts
    together."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((32, 32))
    h = a @ a.T / 32.0
    b = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    for phi2 in (0.05 * (b + b.conj().T), 0.05 * (b + b.conj().T).real):
        delta, beta, eps, seed = 0.5, 0.3, 0.4, 13
        rep = verify_form_bound(*_one_block(h, np.linalg.eigh(h)[1], phi2),
                                delta, beta, eps, seed=seed)
        gen = np.random.default_rng(seed)
        vs = np.concatenate([re + 1j * im for re, im in (
            gen.standard_normal(
                (2, 32, min(_SAMPLE_COLUMNS, _SAMPLE_VECTORS - lo)))
            for lo in range(0, _SAMPLE_VECTORS, _SAMPLE_COLUMNS))], axis=1)
        vs /= np.linalg.norm(vs, axis=0)
        vs = np.concatenate([vs, np.linalg.eigh(h)[1].astype(complex)], axis=1)
        quad_h = np.real(np.einsum("iv,ij,jv->v", vs.conj(), h, vs))
        quad_p = np.real(np.einsum("iv,ij,jv->v", vs.conj(), phi2, vs))
        margins = delta * eps + beta * eps * quad_h - np.abs(quad_p)
        assert rep.sampled_margin == pytest.approx(margins.min(), rel=0,
                                                   abs=1e-12)
        assert rep.violations == int(np.sum(margins < -1e-10))
        assert 0 < rep.violations < _SAMPLE_VECTORS + 32   # some, not all


def test_form_bound_on_parity_blocks_matches_one_block():
    """On the two parity blocks of an even pair the eigenvalue checks run
    block by block and agree with the one-block solve to 1e-12; the samples
    are the same vectors, whose forms are summed over the two sectors, so
    their margins agree to 1e-12 and the violations are the same."""
    h, phi2 = even_pair(np.random.default_rng(2), 16, False)
    sectors = charge_sectors(4, 2, 2)
    vecs = np.linalg.eigh(split_blocks(h, sectors))[1]
    args = (0.3, 0.2, 0.5)
    blocked = verify_form_bound(split_blocks(h, sectors), vecs,
                                split_blocks(phi2, sectors), sectors, *args,
                                seed=SEED)
    whole = verify_form_bound(*_one_block(h, join_blocks(vecs, sectors),
                                          phi2), *args, seed=SEED)
    assert blocked.min_eig_plus == pytest.approx(whole.min_eig_plus,
                                                 abs=1e-12)
    assert blocked.min_eig_minus == pytest.approx(whole.min_eig_minus,
                                                  abs=1e-12)
    assert blocked.sampled_margin == pytest.approx(whole.sampled_margin,
                                                   abs=1e-12)
    assert blocked.violations == whole.violations


def test_form_bound_solves_no_eigenvectors(monkeypatch):
    """The eigenvectors of H0 come in as an argument; nothing re-solves
    them."""
    h = np.diag([0.0, 1.0, 2.0])
    vecs = np.linalg.eigh(h)[1]

    def refuse(*args, **kwargs):
        raise AssertionError("verify_form_bound called eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rep = verify_form_bound(*_one_block(h, vecs, np.diag([0.05, 0.2, 0.3])),
                            delta=1.0, beta=1.0, eps=0.1, seed=SEED)
    assert rep.holds


# --- volume strengths ---------------------------------------------------------------


def test_edge_bulk_strengths_split():
    lam = Interval(0, 5)
    pert = random_even_perturbation(lam, 1, ENV, seed=3)
    interior_fnorm, edge_norm = edge_bulk_strengths(pert, lam, 1, BASE)
    assert interior_fnorm > 0.0
    assert edge_norm > 0.0
    assert interior_fnorm <= pert.f_norm(BASE)


@settings(max_examples=12, deadline=None)
@given(st.integers(6, 10), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_edge_norm_from_support_clusters_is_the_dense_norm(n_sites, depth,
                                                           max_radius, seed):
    """The edge norm summed over the remainder's groups of overlapping
    supports is ``max|lambda|`` of the whole remainder solved dense, to
    1e-13, on random even perturbations of 6-10 sites; where the remainder
    is one group it is the whole remainder's spectrum bit for bit."""
    lam = Interval(1, n_sites)
    pert = random_even_perturbation(lam, max_radius, ENV, seed=seed)
    edge = split_edge_bulk(pert, lam, depth).edge
    _, edge_norm = edge_bulk_strengths(pert, lam, depth, BASE)
    dense = np.linalg.eigvalsh(local_hamiltonian(edge, lam).matrix)
    assert edge_norm == pytest.approx(np.max(np.abs(dense)), abs=1e-13)
    if len(_support_clusters(edge.terms)) == 1:
        assert edge_norm == float(np.max(np.abs(
            hamiltonian_eigenvalues(edge, lam))))


@pytest.mark.parametrize("n_sites, spans", [
    (8, [Interval(1, 8)]), (9, [Interval(1, 9)]),
    (10, [Interval(1, 5), Interval(6, 10)])])
def test_edge_remainder_splits_where_its_ends_do_not_meet(n_sites, spans):
    """At depth 3 and radius 2 the two ends' terms reach ``[1, 5]`` and
    ``[n - 4, n]``: one group at 8 sites, one at 9, where the ends share
    site 5, two at 10, each group keeping the terms' order."""
    lam = Interval(1, n_sites)
    edge = split_edge_bulk(random_even_perturbation(lam, 2, ENV, seed=7),
                           lam, 3).edge
    clusters = _support_clusters(edge.terms)
    assert [Interaction(group, "fermion").span for group in clusters] == spans
    assert [t for group in clusters for t in group] == edge.terms


def test_uniform_strengths_suprema_and_threshold():
    """The suprema run over every volume given, one of diameter 2 D too:
    the diameter threshold is the caller's (``cli._stability_lengths``).
    Only an empty family is refused."""
    volumes = [Interval(0, 5), Interval(0, 7), Interval(0, 2)]
    phi_for = {lam: random_even_perturbation(lam, 1, ENV, seed=3)
               for lam in volumes}
    rows = [edge_bulk_strengths(phi, lam, 1, BASE)
            for lam, phi in phi_for.items()]
    assert uniform_strengths(phi_for, 1, BASE) == tuple(map(max, zip(*rows)))
    for (lam, phi), row in zip(phi_for.items(), rows):
        assert uniform_strengths({lam: phi}, 1, BASE) == row
    with pytest.raises(ValueError, match="no volume"):
        uniform_strengths({}, 1, BASE)
