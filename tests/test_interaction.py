from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import operator_algebra
from gaplab.ffunction import FFunctionSpec, WeightSpec
from gaplab.interaction import (Interaction, Term, fermion_to_spin, from_json,
                                hamiltonian_eigenvalues, local_hamiltonian,
                                random_interaction, regroup_intervals,
                                split_edge_bulk, to_json,
                                validate_unperturbed)
from gaplab.lattice import Interval, interior
from gaplab.operator_algebra import LocalOperator, ParityError, annihilator, \
    kernel_count
from oracles import (creator, is_hermitian, kron_placed, number_operator,
                     random_matrix)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

BASE = FFunctionSpec(weight=WeightSpec(K=0.5, s=1.0))


def two_site_ising(lam):
    """sum_x (1 - Z_x Z_{x+1})/2: classical frustration-free chain."""
    terms = []
    for x in range(lam.a, lam.b):
        supp = Interval(x, x + 1)
        m = (np.eye(4) - np.kron(Z, Z)) / 2.0
        terms.append(Term(LocalOperator(m, supp, lam)))
    return Interaction(terms)


def test_term_default_anchor_is_center():
    op = LocalOperator(np.eye(8), Interval(2, 4), Interval(0, 6))
    assert Term(op).anchor == 3
    op2 = LocalOperator(np.eye(4), Interval(2, 3), Interval(0, 6))
    assert Term(op2).anchor == 2  # ties go left


def test_interaction_rejects_kind_mismatch():
    op = LocalOperator(np.eye(2), Interval(0, 0), Interval(0, 0), kind="fermion")
    with pytest.raises(ValueError):
        Interaction([Term(op)], kind="spin")


def test_ball_keyed_requires_radii():
    op = LocalOperator(np.eye(2), Interval(0, 0), Interval(0, 0))
    with pytest.raises(ValueError):
        Interaction([Term(op)], ball_keyed=True)
    Interaction([Term(op, radius=0)], ball_keyed=True)


def test_range_and_uniform_bound():
    lam = Interval(0, 3)
    phi = two_site_ising(lam)
    assert phi.range == 1
    assert phi.uniform_bound == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 6), (3, 4)]), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1))
def test_local_hamiltonian_matches_manual_kron(dim_sites, n_random, seed):
    """Terms of random supports, real or complex, always with one on the
    left edge site and one on the whole chain, assemble to the sum of their
    Kronecker placements entry for entry."""
    d, n_sites = dim_sites
    lam = Interval(0, n_sites - 1)
    rng = np.random.default_rng(seed)
    supports = [Interval(0, 0), lam]
    for _ in range(n_random):
        a = int(rng.integers(0, n_sites))
        supports.append(Interval(a, int(rng.integers(a, n_sites))))
    terms, oracle = [], np.zeros((d ** n_sites,) * 2)
    for supp in supports:
        m = random_matrix(rng, d ** len(supp), bool(rng.integers(2)))
        terms.append(Term(LocalOperator(m, supp, lam, "spin", d)))
        oracle = oracle + kron_placed(m, d, supp.a - lam.a, lam.b - supp.b)
    h = local_hamiltonian(Interaction(terms, "spin", d), lam)
    assert h.matrix.dtype == (np.complex128 if np.iscomplexobj(oracle)
                              else np.float64)
    assert np.array_equal(h.matrix, oracle)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 4), (3, 2)]), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_hamiltonian_is_its_span_between_identities(dim_core, n_left, n_right,
                                                    n_terms, seed):
    """Projector terms, real or complex, on a core of sites with 0, 1 or 2
    untouched sites at each end, or no term at all: the volume's matrix is
    ``1 (x) H_span (x) 1`` entry for entry, and the span's spectrum, each
    eigenvalue repeated over the untouched sites, is the whole matrix's to
    1e-12 of its scale, with the same kernel."""
    d, core_max = dim_core
    rng = np.random.default_rng(seed)
    n_core = int(rng.integers(1, core_max + 1))
    lam = Interval(1, n_left + n_core + n_right)
    core = Interval(1 + n_left, n_left + n_core)
    supports = []
    if n_terms:
        # one term on each end of the core, the rest anywhere inside it
        supports = [Interval(core.a, int(rng.integers(core.a, core.b + 1))),
                    Interval(int(rng.integers(core.a, core.b + 1)), core.b)]
        for _ in range(n_terms - 1):
            a = int(rng.integers(core.a, core.b + 1))
            supports.append(Interval(a, int(rng.integers(a, core.b + 1))))
    terms = []
    for supp in supports:
        dim = d ** len(supp)
        q, _ = np.linalg.qr(random_matrix(rng, dim, bool(rng.integers(2))))
        v = q[:, :int(rng.integers(1, dim))]
        p = v @ v.conj().T
        terms.append(Term(LocalOperator((p + p.conj().T) / 2.0, supp, lam,
                                        "spin", d)))
    phi = Interaction(terms, "spin", d)
    whole = local_hamiltonian(phi, lam).matrix
    if n_terms:
        assert phi.span == core
        assert np.array_equal(whole, kron_placed(
            local_hamiltonian(phi, core).matrix, d, n_left, n_right))
    else:
        assert phi.span is None and not whole.any()
    evals = hamiltonian_eigenvalues(phi, lam)
    oracle = np.linalg.eigvalsh(whole)
    scale = max(1.0, float(np.max(np.abs(oracle))))
    assert np.max(np.abs(evals - oracle)) <= 1e-12 * scale
    assert kernel_count(evals) == kernel_count(oracle)


def test_hamiltonian_eigenvalues_of_a_weighted_sum():
    """``(c, phi)`` parts give the spectrum of ``sum c H_phi`` on the union
    of their spans, here a field term off the span of the chain."""
    lam = Interval(0, 5)
    ising = two_site_ising(Interval(1, 3))
    field = Interaction([Term(LocalOperator(X, Interval(4, 4), lam))])
    evals = hamiltonian_eigenvalues(((0.3, field), (1.0, ising)), lam)
    whole = (0.3 * local_hamiltonian(field, lam).matrix
             + local_hamiltonian(ising, lam).matrix)
    np.testing.assert_allclose(evals, np.linalg.eigvalsh(whole), atol=1e-12)
    # a later part is scaled in its own buffer: the same sum, bit for bit
    swapped = hamiltonian_eigenvalues(((1.0, ising), (0.3, field)), lam)
    assert swapped.tobytes() == evals.tobytes()


def test_local_hamiltonian_restricts_to_volume():
    lam = Interval(0, 4)
    phi = two_site_ising(lam)
    sub = Interval(1, 2)
    h = local_hamiltonian(phi, sub)
    zz = (np.eye(4) - np.kron(Z, Z)) / 2.0
    np.testing.assert_allclose(h.matrix, zz, atol=1e-15)


def test_local_hamiltonian_keeps_real_dtype():
    lam = Interval(0, 2)
    h = local_hamiltonian(two_site_ising(lam), lam)
    assert not np.iscomplexobj(h.matrix)


def test_validate_unperturbed_on_classical_chain():
    report = validate_unperturbed(two_site_ising,
                                  [Interval(0, 3), Interval(0, 4)])
    assert report.passed
    assert report.range == 1
    # doubly degenerate classical ground space, gap exactly 1
    for row in report.rows:
        assert row.kernel_dim == 2
        assert row.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert report.gamma0_candidate == pytest.approx(1.0, abs=1e-12)


def test_validate_unperturbed_flags_frustration():
    def frustrated(lam):
        terms = [Term(LocalOperator((np.eye(4) - np.kron(Z, Z)) / 2.0,
                                    Interval(x, x + 1), lam))
                 for x in range(lam.a, lam.b)]
        # a field term shifting the ground energy away from zero
        terms.append(Term(LocalOperator(X + 2 * np.eye(2), Interval(lam.a, lam.a), lam)))
        return Interaction(terms)

    report = validate_unperturbed(frustrated, [Interval(0, 2)])
    assert not report.passed


def test_split_edge_bulk_partition():
    lam = Interval(0, 7)
    phi = two_site_ising(lam)
    split = split_edge_bulk(phi, lam, 2)
    assert split.reconstructs(phi)
    inner = interior(lam, 2)
    for t in split.bulk.terms:
        assert t.anchor in inner
    for t in split.edge.terms:
        assert t.anchor not in inner
    # flags survive the split
    assert split.bulk.kind == phi.kind


def test_split_edge_bulk_depth_swallows_everything():
    lam = Interval(0, 3)
    phi = two_site_ising(lam)
    split = split_edge_bulk(phi, lam, 2)
    assert split.bulk.terms == []
    assert len(split.edge.terms) == len(phi.terms)


# --- regrouping ----------------------------------------------------------------


def test_regroup_merges_by_support():
    lam = Interval(0, 2)
    op1 = LocalOperator(np.kron(X, X), Interval(0, 1), lam)
    op2 = LocalOperator(np.kron(Z, Z), Interval(0, 1), lam)
    op3 = LocalOperator(X, Interval(2, 2), lam)
    psi = Interaction([Term(op1), Term(op2), Term(op3)])
    grouped = regroup_intervals(psi)
    assert len(grouped.terms) == 2
    mats = {t.support: t.op.matrix for t in grouped.terms}
    np.testing.assert_allclose(mats[Interval(0, 1)], np.kron(X, X) + np.kron(Z, Z))


def test_regroup_carries_derived_decay():
    lam = Interval(0, 3)
    psi = random_interaction(lam, seed=3, decay=BASE)
    grouped = regroup_intervals(psi)
    assert grouped.decay is not None
    assert grouped.decay.kind == "regrouped"
    # the regrouped norm (against its own decay) never exceeds the original
    assert grouped.f_norm() <= psi.f_norm(BASE) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_regroup_preserves_every_local_hamiltonian(seed):
    lam = Interval(0, 5)
    psi = random_interaction(lam, seed=seed, n_terms=5, max_diameter=2)
    grouped = regroup_intervals(psi)
    for a in range(lam.a, lam.b + 1):
        for b in range(a, lam.b + 1):
            sub = Interval(a, b)
            h0 = local_hamiltonian(psi, sub).matrix
            h1 = local_hamiltonian(grouped, sub).matrix
            np.testing.assert_allclose(h0, h1, atol=1e-13)


def test_regrouping_keeps_the_norm_of_a_support_with_one_term(monkeypatch):
    """A support that holds one term carries that term's norm: once the
    original terms' norms are known, the regrouped F-norm solves only the
    merged supports, and every regrouped norm is its matrix's norm."""
    lam = Interval(0, 5)
    psi = random_interaction(lam, seed=4, n_terms=8, decay=BASE)
    psi.f_norm()
    counts = Counter(t.support for t in psi.terms)
    merged = sum(1 for n in counts.values() if n > 1)
    assert 0 < merged < len(counts)
    solved = []
    original = operator_algebra.operator_norm

    def counted(m):
        solved.append(m.shape)
        return original(m)

    monkeypatch.setattr(operator_algebra, "operator_norm", counted)
    grouped = regroup_intervals(psi)
    grouped.f_norm()
    assert len(solved) == merged
    for t in grouped.terms:
        assert t.op.norm() == original(t.op.matrix)


def test_term_norms_are_computed_once(monkeypatch):
    """Each term's norm is solved on the first use and kept by the term:
    a second F-norm, the uniform bound and a split view solve nothing."""
    solves = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            solves.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    lam = Interval(0, 5)
    phi = random_interaction(lam, seed=4, n_terms=8, decay=BASE)
    solves.clear()
    first = phi.f_norm()
    n_first = len(solves)
    assert n_first >= len(phi.terms)
    assert phi.f_norm() == first
    assert phi.uniform_bound == max(t.op.norm() for t in phi.terms)
    split_edge_bulk(phi, lam, 1).bulk.f_norm()
    assert len(solves) == n_first


# --- fermion/spin dictionary -----------------------------------------------------


def test_fermion_to_spin_preserves_norms_and_spectra():
    lam = Interval(0, 3)
    terms = []
    for x in range(lam.a, lam.b):
        pair = Interval(x, x + 1)
        hop = (creator(pair, x).matrix @ annihilator(pair, x + 1).matrix)
        hop = hop + hop.conj().T
        terms.append(Term(LocalOperator(hop, pair, lam, kind="fermion")))
    phi = Interaction(terms, kind="fermion")
    spin = fermion_to_spin(phi)
    assert spin.kind == "spin"
    for t_f, t_s in zip(phi.terms, spin.terms):
        assert t_f.op.norm() == pytest.approx(t_s.op.norm(), rel=1e-12)
    ev_f = np.linalg.eigvalsh(local_hamiltonian(phi, lam).matrix)
    ev_s = np.linalg.eigvalsh(local_hamiltonian(spin, lam).matrix)
    np.testing.assert_allclose(ev_f, ev_s, atol=1e-12)


def test_fermion_to_spin_rejects_odd_terms():
    lam = Interval(0, 1)
    odd = Term(annihilator(lam, 0))
    phi = Interaction([odd], kind="fermion")
    with pytest.raises(ParityError):
        fermion_to_spin(phi)


# --- seeded generation and serialization ----------------------------------------


def test_random_interaction_is_deterministic():
    lam = Interval(0, 4)
    a = random_interaction(lam, seed=42)
    b = random_interaction(lam, seed=42)
    for ta, tb in zip(a.terms, b.terms):
        assert ta.support == tb.support
        np.testing.assert_array_equal(ta.op.matrix, tb.op.matrix)
    c = random_interaction(lam, seed=43)
    assert any(not np.array_equal(ta.op.matrix, tc.op.matrix)
               for ta, tc in zip(a.terms, c.terms))


def test_random_interaction_terms_are_normalized_hermitian():
    lam = Interval(0, 5)
    phi = random_interaction(lam, seed=9, n_terms=10, max_diameter=2)
    for t in phi.terms:
        assert is_hermitian(t.op)
        assert t.op.norm() <= 1.0 + 1e-12
        assert t.support in lam
        assert t.support.diameter <= 2


def test_json_round_trip():
    lam = Interval(0, 3)
    phi = random_interaction(lam, seed=5, n_terms=4)
    back = from_json(to_json(phi))
    assert back.kind == phi.kind
    assert len(back.terms) == len(phi.terms)
    for t0, t1 in zip(phi.terms, back.terms):
        assert t0.support == t1.support
        assert t0.anchor == t1.anchor
        np.testing.assert_allclose(t0.op.matrix, t1.op.matrix, atol=1e-15)
    h0 = local_hamiltonian(phi, lam).matrix
    h1 = local_hamiltonian(back, lam).matrix
    np.testing.assert_allclose(h0, h1, atol=1e-14)


def test_anchored_and_grouped_views():
    lam = Interval(0, 2)
    n0 = Term(number_operator(Interval(0, 0)), anchor=0)
    n1 = Term(number_operator(Interval(1, 1)), anchor=1)
    n1b = Term(number_operator(Interval(1, 1)), anchor=1)
    phi = Interaction([n0, n1, n1b], kind="fermion")
    anchored = phi.anchored()
    assert set(anchored) == {0, 1}
    assert len(anchored[1]) == 2
    grouped = phi.grouped()
    np.testing.assert_allclose(grouped[Interval(1, 1)],
                               2 * number_operator(Interval(1, 1)).matrix)
