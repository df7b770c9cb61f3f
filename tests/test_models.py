import numpy as np
import pytest

from gaplab.interaction import local_hamiltonian
from gaplab.lattice import Interval, interior
from gaplab.models import (aklt_interaction, auxiliary_basis, kernel_data,
                           orbital_interaction, orbital_spectrum,
                           pair_spin2_projector, paired_orbital_model,
                           random_even_perturbation, validate_model)
from gaplab.operator_algebra import eigenvalues, operator_norm, \
    parity_grade, spin_matrices


def test_paired_model_covers_full_pairs_only():
    model = paired_orbital_model(Interval(0, 7))
    assert len(model.f_orbitals) == 4
    assert model.R == 1 and model.N0 == 2
    assert model.D == 3
    # offset window drops both half-pairs
    model = paired_orbital_model(Interval(1, 8))
    assert len(model.f_orbitals) == 3
    centers = [o.center for o in model.f_orbitals]
    assert centers == [2.5, 4.5, 6.5]


def test_validate_model_accepts_default():
    window = Interval(0, 9)
    model = paired_orbital_model(window)
    assert validate_model(model, window)


def test_validate_model_rejects_non_orthonormal():
    window = Interval(0, 3)
    model = paired_orbital_model(window)
    broken = type(model)(model.f_orbitals, model.f_orbitals, model.R, model.N0)
    with pytest.raises(ValueError):
        validate_model(broken, window)


def test_kernel_data_counts_free_sites():
    model = paired_orbital_model(Interval(0, 7))
    kdim, free = kernel_data(model, Interval(0, 7))
    assert (kdim, free) == (1, [])
    model = paired_orbital_model(Interval(1, 8))
    kdim, free = kernel_data(model, Interval(1, 8))
    assert kdim == 4 and free == [1, 8]


def test_orbital_hamiltonian_spectrum_is_integer():
    """The number of violated mode constraints: eigenvalues are 0, 1, 2, ..."""
    lam = Interval(0, 5)
    model = paired_orbital_model(lam)
    h = local_hamiltonian(orbital_interaction(model, lam), lam)
    evals = np.linalg.eigvalsh(h.matrix)
    np.testing.assert_allclose(evals, np.round(evals), atol=1e-10)
    assert evals[0] == pytest.approx(0.0, abs=1e-12)
    assert evals[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [4, 5, 6, 7, 8, 9, 10])
@pytest.mark.parametrize("offset", [0, 1])
def test_orbital_spectrum_closed_form(length, offset):
    """Level e has multiplicity C(2p, e) 2^|free| for p pairs inside lam."""
    lam = Interval(offset, offset + length - 1)
    model = paired_orbital_model(lam)
    h = local_hamiltonian(orbital_interaction(model, lam), lam)
    closed = orbital_spectrum(model, lam)
    assert closed.shape == (2 ** length,)
    np.testing.assert_allclose(eigenvalues(h.matrix), closed, rtol=0.0,
                               atol=1e-12)


def test_orbital_terms_are_even_commuting_projectors():
    lam = Interval(0, 3)
    model = paired_orbital_model(lam)
    eta = orbital_interaction(model, lam)
    assert eta.kind == "fermion"
    mats = [t.op.matrix for t in eta.terms]
    for t in eta.terms:
        assert parity_grade(t.op) == "even"
        m = t.op.matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if a.shape == b.shape:
                np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)


def test_auxiliary_basis_budget_and_support():
    lam = Interval(1, 10)
    model = paired_orbital_model(lam)
    aux = auxiliary_basis(model, lam)
    assert aux.shape == (10, 2)           # two uncovered edge sites
    assert aux.shape[1] <= 6 * model.R
    # orthonormal and orthogonal to every kept orbital
    np.testing.assert_allclose(aux.T @ aux, np.eye(aux.shape[1]), atol=1e-12)
    for o in model.f_orbitals + model.g_orbitals:
        v = o.vector(lam)
        np.testing.assert_allclose(aux.T @ v, 0.0, atol=1e-12)
    # supported outside the depth-3R interior
    inner = interior(lam, 3 * model.R)
    rows = [s - lam.a for s in inner]
    assert np.max(np.abs(aux[rows, :])) <= 1e-12


def test_auxiliary_basis_fully_covered_volume_is_empty():
    lam = Interval(0, 7)
    model = paired_orbital_model(lam)
    aux = auxiliary_basis(model, lam)
    assert aux.shape == (8, 0)


def test_auxiliary_basis_rejects_tiny_volume():
    lam = Interval(0, 2)
    model = paired_orbital_model(Interval(0, 7))
    with pytest.raises(ValueError):
        auxiliary_basis(model, lam)


# --- spin-1 chain ---------------------------------------------------------------


def test_pair_spin2_projector_is_projector_of_rank5():
    p = pair_spin2_projector()
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    assert np.trace(p).real == pytest.approx(5.0, abs=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)


def test_pair_spin2_projector_clebsch_gordan_oracle():
    """The top state |1,1>|1,1> has total spin 2: it must be fixed; the
    singlet combination sum_m (-1)^m |m>|-m>/sqrt(3) must be annihilated."""
    p = pair_spin2_projector()
    top = np.zeros(9)
    top[0] = 1.0                       # (m1, m2) = (+1, +1) in lexicographic order
    np.testing.assert_allclose(p @ top, top, atol=1e-12)
    singlet = np.zeros(9)
    # basis order m = +1, 0, -1: entries (0,2), (1,1), (2,0)
    singlet[0 * 3 + 2] = 1.0
    singlet[1 * 3 + 1] = -1.0
    singlet[2 * 3 + 0] = 1.0
    singlet /= np.sqrt(3.0)
    np.testing.assert_allclose(p @ singlet, 0.0, atol=1e-12)


def test_pair_spin2_commutes_with_total_spin():
    p = pair_spin2_projector()
    for s in spin_matrices(3):
        tot = np.kron(s, np.eye(3)) + np.kron(np.eye(3), s)
        np.testing.assert_allclose(p @ tot, tot @ p, atol=1e-12)


def test_aklt_chain_kernel_is_four_dimensional():
    lam = Interval(0, 4)
    h = local_hamiltonian(aklt_interaction(lam), lam)
    evals = np.linalg.eigvalsh(h.matrix)
    assert np.sum(evals < 1e-9) == 4
    assert evals[0] == pytest.approx(0.0, abs=1e-12)


def test_aklt_needs_two_sites():
    with pytest.raises(ValueError):
        aklt_interaction(Interval(3, 3))


# --- seeded perturbations ---------------------------------------------------------


def test_random_even_perturbation_norm_envelope():
    lam = Interval(0, 6)
    env = {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0}
    pert = random_even_perturbation(lam, 2, env, seed=7)
    assert pert.ball_keyed
    for t in pert.terms:
        n = t.radius
        expect = np.exp(-0.5 * n) / (1.0 + n) ** 4
        assert t.op.norm() == pytest.approx(expect, rel=1e-10)
        assert parity_grade(t.op) == "even"
        assert t.op.is_hermitian()
        assert not np.iscomplexobj(t.op.matrix) or \
            np.max(np.abs(t.op.matrix.imag)) == 0.0


def test_random_even_perturbation_deterministic():
    lam = Interval(0, 4)
    env = {"A": 2.0, "K": 0.25, "s": 1.0, "kappa": 3.0}
    a = random_even_perturbation(lam, 1, env, seed=3)
    b = random_even_perturbation(lam, 1, env, seed=3)
    for ta, tb in zip(a.terms, b.terms):
        np.testing.assert_array_equal(ta.op.matrix, tb.op.matrix)


def test_random_even_perturbation_ball_keys():
    lam = Interval(0, 5)
    env = {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0}
    pert = random_even_perturbation(lam, 2, env, seed=1)
    # one term per (site, radius) pair
    keys = [(t.anchor, t.radius) for t in pert.terms]
    assert len(keys) == len(set(keys)) == len(lam) * 2
    from gaplab.lattice import ball
    for t in pert.terms:
        assert t.support == ball(lam, t.anchor, t.radius)
