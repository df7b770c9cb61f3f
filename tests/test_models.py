import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import models
from gaplab.interaction import local_hamiltonian, to_json
from gaplab.lattice import Interval, interior
from gaplab.models import (aklt_interaction, auxiliary_basis, kernel_data,
                           orbital_interaction, orbital_pairs,
                           orbital_spectrum, pair_spin2_projector,
                           random_even_perturbation)
from gaplab.operator_algebra import conserved_modulus, eigenvalues, \
    operator_norm, spin_matrices
from oracles import is_hermitian


@settings(max_examples=40, deadline=None)
@given(offset=st.integers(0, 5), length=st.integers(2, 14))
def test_the_pair_rule_covers_full_even_pairs_only(offset, length):
    """``orbital_pairs`` is every disjoint even-aligned pair inside the
    window, left to right; only the end sites it leaves uncovered are free
    in ``kernel_data``; and ``orbital_spectrum`` counts every state."""
    lam = Interval(offset, offset + length - 1)
    pairs = orbital_pairs(lam)
    assert pairs == [(s, s + 1) for s in lam if s % 2 == 0 and s + 1 in lam]
    covered = [s for pair in pairs for s in pair]
    assert len(set(covered)) == len(covered)
    kdim, free = kernel_data(lam)
    ends = [s for s, uncovered in ((lam.a, lam.a % 2 == 1),
                                   (lam.b, lam.b % 2 == 0)) if uncovered]
    assert free == ends and kdim == 2 ** len(free)
    _, counts = np.unique(orbital_spectrum(lam), return_counts=True)
    assert counts.sum() == 2 ** len(lam)


def test_kernel_data_counts_free_sites():
    assert kernel_data(Interval(0, 7)) == (1, [])
    assert kernel_data(Interval(1, 8)) == (4, [1, 8])


def test_orbital_hamiltonian_spectrum_is_integer():
    """The number of violated mode constraints: eigenvalues are 0, 1, 2, ..."""
    lam = Interval(0, 5)
    h = local_hamiltonian(orbital_interaction(lam), lam)
    evals = np.linalg.eigvalsh(h.matrix)
    np.testing.assert_allclose(evals, np.round(evals), atol=1e-10)
    assert evals[0] == pytest.approx(0.0, abs=1e-12)
    assert evals[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length", [4, 5, 6, 7, 8, 9, 10])
@pytest.mark.parametrize("offset", [0, 1])
def test_orbital_spectrum_closed_form(length, offset):
    """Level e has multiplicity C(2p, e) 2^|free| for p pairs inside lam."""
    lam = Interval(offset, offset + length - 1)
    h = local_hamiltonian(orbital_interaction(lam), lam)
    closed = orbital_spectrum(lam)
    assert closed.shape == (2 ** length,)
    np.testing.assert_allclose(eigenvalues(h.matrix), closed, rtol=0.0,
                               atol=1e-12)


def test_orbital_terms_are_even_commuting_projectors():
    eta = orbital_interaction(Interval(0, 3))
    assert eta.kind == "fermion"
    mats = [t.op.matrix for t in eta.terms]
    assert conserved_modulus([t.op for t in eta.terms], (2,)) == 2
    for t in eta.terms:
        m = t.op.matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if a.shape == b.shape:
                np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)


def test_auxiliary_basis_budget_and_support():
    lam = Interval(1, 10)
    aux = auxiliary_basis(lam)
    assert aux.shape == (10, 2)           # two uncovered edge sites
    assert aux.shape[1] <= 6 * models.R
    # orthonormal and orthogonal to the f and g modes of every pair
    np.testing.assert_allclose(aux.T @ aux, np.eye(aux.shape[1]), atol=1e-12)
    for lo, hi in orbital_pairs(lam):
        for sign in (1.0, -1.0):
            v = np.zeros(len(lam))
            v[[lo - lam.a, hi - lam.a]] = 1.0, sign
            np.testing.assert_allclose(aux.T @ v, 0.0, atol=1e-12)
    # supported outside the depth-3R interior
    inner = interior(lam, 3 * models.R)
    rows = [s - lam.a for s in inner]
    assert np.max(np.abs(aux[rows, :])) <= 1e-12


def test_auxiliary_basis_fully_covered_volume_is_empty():
    assert auxiliary_basis(Interval(0, 7)).shape == (8, 0)


def test_auxiliary_basis_rejects_tiny_volume():
    with pytest.raises(ValueError):
        auxiliary_basis(Interval(0, 2))


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
    assert {t.radius for t in pert.terms} == {1, 2}
    for t in pert.terms:
        n = t.radius
        expect = np.exp(-0.5 * n) / (1.0 + n) ** 4
        assert t.op.norm() == pytest.approx(expect, rel=1e-10)
        assert conserved_modulus([t.op], (2,)) == 2
        assert is_hermitian(t.op)
        assert not np.iscomplexobj(t.op.matrix) or \
            np.max(np.abs(t.op.matrix.imag)) == 0.0


def test_random_even_perturbation_reads_every_constant_of_its_envelope():
    """The envelope is read as given: one without ``kappa`` is refused,
    not completed with a default."""
    env = {"A": 1.0, "K": 0.5, "s": 1.0}
    with pytest.raises(KeyError, match="kappa"):
        random_even_perturbation(Interval(0, 4), 1, env, seed=7)


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


def test_a_config_model_value_resolves_to_one_model(tmp_path):
    """``model_for`` names the orbital chain, reads a ``file:`` model and
    refuses any other value, or a file that does not load."""
    assert models.model_for("orbital") is models.ORBITAL
    with pytest.raises(ValueError, match="unknown model spec 'aklt'"):
        models.model_for("aklt")
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match=f"cannot load {missing}: "
                                         "FileNotFoundError"):
        models.model_for(f"file:{missing}")
    path = tmp_path / "aklt.json"
    path.write_text(to_json(aklt_interaction(Interval(0, 6))),
                    encoding="utf-8")
    custom = models.model_for(f"file:{path}")
    assert (custom.name, custom.kind, custom.local_dim, custom.shortest,
            custom.pipelines, custom.kernel, custom.certificate) == \
        ("custom", "spin", 3, 2, ("validate",), None, None)
    assert (models.ORBITAL.kind, models.ORBITAL.local_dim) == ("fermion", 2)
    assert (models.AKLT.kind, models.AKLT.local_dim) == ("spin", 3)
    lam = Interval(1, 4)
    read, built = custom.interaction(lam), aklt_interaction(lam)
    assert [t.support for t in read.terms] == [t.support for t in built.terms]
    assert all(np.array_equal(r.op.matrix, b.op.matrix)
               for r, b in zip(read.terms, built.terms))


def test_the_reference_models_read_their_builders_as_they_are_called(
        monkeypatch):
    """``ORBITAL`` and ``AKLT`` build through the module's current
    ``orbital_interaction`` and ``aklt_interaction``, so a rebinding (a
    tracer's span, a test's stand-in) reaches them; their kernel dimensions
    are the closed form's and four."""
    lam = Interval(0, 6)
    assert models.ORBITAL.kernel(lam) == kernel_data(lam)[0]
    assert models.AKLT.kernel(lam) == 4
    for name, model in (("orbital_interaction", models.ORBITAL),
                        ("aklt_interaction", models.AKLT)):
        monkeypatch.setattr(models, name, lambda lam, name=name: name)
        assert model.interaction(lam) == name
