import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import operator_algebra
from gaplab.ffunction import (FFunctionSpec, RegroupedDecay, WeightSpec,
                              regroup_decay)
from gaplab.interaction import (Interaction, Term, charge_blocks,
                                coupled_blocks, fermion_to_spin, from_json,
                                hamiltonian_eigenvalues, local_hamiltonian,
                                random_interaction, regroup_intervals,
                                split_edge_bulk, to_json,
                                validate_unperturbed)
from gaplab.lattice import Interval, interior
from gaplab.operator_algebra import LocalOperator, annihilator, embed, \
    kernel_count
from oracles import (TRUNCATION, creator, digit_sums, is_hermitian,
                     kron_placed, number_operator, random_hermitian,
                     random_matrix, split_blocks)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

BASE = FFunctionSpec(weight=WeightSpec(K=0.5, s=1.0))


def two_site_ising(lam):
    """sum_x (1 - Z_x Z_{x+1})/2: classical frustration-free chain."""
    terms = []
    for x in range(lam.a, lam.b):
        supp = Interval(x, x + 1)
        m = (np.eye(4) - np.kron(Z, Z)) / 2.0
        terms.append(Term(LocalOperator(m, supp)))
    return Interaction(terms)


def test_term_default_anchor_is_center():
    op = LocalOperator(np.eye(8), Interval(2, 4))
    assert Term(op).anchor == 3
    op2 = LocalOperator(np.eye(4), Interval(2, 3))
    assert Term(op2).anchor == 2  # ties go left


def test_interaction_rejects_kind_mismatch():
    op = LocalOperator(np.eye(2), Interval(0, 0), kind="fermion")
    with pytest.raises(ValueError):
        Interaction([Term(op)], kind="spin")


def test_range():
    lam = Interval(0, 3)
    phi = two_site_ising(lam)
    assert phi.range == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 6), (3, 4)]),
       st.sampled_from(["number", "parity", "mixed"]), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1))
def test_local_hamiltonian_matches_manual_kron(dim_sites, charge, n_random,
                                               seed):
    """Terms of random supports, real or complex, always with one on the
    left edge site and one on the whole chain, assemble to the sum of their
    Kronecker placements entry for entry.  Terms that conserve the number
    (or ``S^z``), only its parity, or neither give ``n (d - 1) + 1``, two
    or one charge blocks, in ascending charge: each block is the matching
    sub-block of the whole matrix entry for entry, every entry between two
    sectors is exactly zero, and the blocks' spectrum is the whole
    matrix's to 1e-12 of its scale."""
    d, n_sites = dim_sites
    lam = Interval(0, n_sites - 1)
    rng = np.random.default_rng(seed)
    supports = [Interval(0, 0), lam]
    for _ in range(n_random):
        a = int(rng.integers(0, n_sites))
        supports.append(Interval(a, int(rng.integers(a, n_sites))))
    rule = {"number": lambda q: q, "parity": lambda q: q % 2,
            "mixed": lambda q: 0 * q}[charge]
    terms, oracle = [], np.zeros((d ** n_sites,) * 2)
    for supp in supports:
        m = random_hermitian(rng, d ** len(supp), bool(rng.integers(2)))
        q = rule(digit_sums(len(supp), d))
        m = np.where(q[:, None] == q[None, :], m, 0.0)
        terms.append(Term(LocalOperator(m, supp, "spin", d)))
        oracle = oracle + kron_placed(m, d, supp.a - lam.a, lam.b - supp.b)
    phi = Interaction(terms, "spin", d)
    h = local_hamiltonian(phi, lam).matrix
    complex_ = any(np.iscomplexobj(t.op.matrix) and t.op.matrix.imag.any()
                   for t in terms)
    assert h.dtype == (np.complex128 if complex_ else np.float64)
    assert np.array_equal(h, oracle)

    q = rule(digit_sums(n_sites, d))
    sectors, blocks = charge_blocks(phi, lam)
    assert [int(q[s[0]]) for s in sectors] == sorted(set(q.tolist()))
    assert len(sectors) == {"number": n_sites * (d - 1) + 1, "parity": 2,
                            "mixed": 1}[charge]
    inside = np.zeros(h.shape, bool)
    for s, block in zip(sectors, blocks, strict=True):
        assert np.all(q[s] == q[s[0]])
        assert block.dtype == h.dtype
        assert np.array_equal(block, h[np.ix_(s, s)])
        inside[np.ix_(s, s)] = True
    assert inside.sum() == sum(len(s) ** 2 for s in sectors)
    assert not h[~inside].any()
    evals = hamiltonian_eigenvalues(phi, lam)
    dense = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(evals - dense)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 5), (3, 3)]), st.sampled_from([None, 2, 1]),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_fixed_modulus_blocks_are_the_whole_matrix_split_on_its_sectors(
        dim_sites, modulus, n_terms, seed):
    """``charge_blocks`` at a fixed modulus, on terms real or complex that
    keep the number (or ``S^z``), only its parity, or nothing, and on terms
    whose entries between their charges are rounding-size (1e-17 of the
    others).  When every term conserves the modulus, each block equals,
    entry for entry, the sector's sub-block of the whole matrix split on
    the sectors of the digit sums, the route the blocks replace
    (``local_hamiltonian``, and ``embed`` for one term).  When a term has
    an entry between unequal charges under the modulus, however small, the
    blocks are refused with a ``ValueError`` naming the volume and the
    modulus."""
    d, max_sites = dim_sites
    rng = np.random.default_rng(seed)
    lam = Interval(0, int(rng.integers(1, max_sites + 1)) - 1)
    terms, keeps = [], True
    for _ in range(n_terms):
        a = int(rng.integers(lam.a, lam.b + 1))
        supp = Interval(a, int(rng.integers(a, lam.b + 1)))
        m = random_hermitian(rng, d ** len(supp), bool(rng.integers(2)))
        k = digit_sums(len(supp), d)
        q = [k, k % 2, 0 * k, k][int(rng.integers(4))]
        cross = 1e-17 * m if rng.integers(2) else 0.0
        m = np.where(q[:, None] == q[None, :], m, cross)
        terms.append(Term(LocalOperator(m, supp, "spin", d)))
        # the entries drawn nonzero: within the charges of q, and every
        # other one when the cross entries are
        drawn = (q[:, None] == q[None, :]) | bool(np.any(cross))
        c = k if modulus is None else k % modulus
        keeps = keeps and not np.any(drawn & (c[:, None] != c[None, :]))
    phi = Interaction(terms, "spin", d)
    if not keeps:
        with pytest.raises(ValueError, match=re.escape(
                f"terms inside {lam} break the charge sectors at modulus "
                f"{modulus}")):
            charge_blocks(phi, lam, modulus)
        return
    digits = digit_sums(len(lam), d)
    q = digits if modulus is None else digits % modulus
    expected = [np.flatnonzero(q == c) for c in np.unique(q)]
    sectors, blocks = charge_blocks(phi, lam, modulus)
    wholes = [local_hamiltonian(phi, lam).matrix]
    if n_terms == 1:
        wholes.append(embed(terms[0].op, lam).matrix)
    splits = [split_blocks(whole, expected) for whole in wholes]
    for i, block in enumerate(blocks):
        np.testing.assert_array_equal(sectors[i], expected[i])
        assert block.dtype == wholes[0].dtype
        for split in splits:
            assert np.array_equal(block, split[i])
    assert i + 1 == len(expected) == len(sectors)


@pytest.mark.parametrize("cross", [1e-17, 0.0])
def test_a_fixed_modulus_refuses_a_term_that_breaks_it_by_rounding(cross):
    """A number-conserving two-site term with rounding-size entries between
    its charges is refused at the number and at the parity, and still
    placed in one sector; without them it is placed at every modulus."""
    lam = Interval(0, 1)
    m = np.diag([0.0, 1.0, 1.0, 2.0])
    m[1, 2] = m[2, 1] = 0.5                 # keeps the number
    m[0, 1] = m[1, 0] = cross               # changes it by one
    phi = Interaction([Term(LocalOperator(m, lam, "spin"))], "spin")
    for modulus in (None, 2):
        if cross:
            with pytest.raises(ValueError, match=f"modulus {modulus}"):
                charge_blocks(phi, lam, modulus)
        else:
            assert len(charge_blocks(phi, lam, modulus)[0]) == \
                {None: 3, 2: 2}[modulus]
    (block,) = charge_blocks(phi, lam, 1)[1]
    assert np.array_equal(block, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 5), (3, 3)]), st.sampled_from([None, 2, 1]),
       st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_coupled_blocks_hold_the_nonzeros_of_the_dense_blocks(
        dim_sites, modulus, n_eta, n_pert, cancel, seed):
    """The block plan of ``eta`` and ``pert``, terms real or complex that
    keep the number (or ``S^z``), only its parity, or nothing, holds for
    each sector exactly the flat nonzero positions, int32 and ascending,
    and the values of the sector's sub-block of ``local_hamiltonian`` of
    ``eta`` and of ``pert`` on their span, at the charge they conserve
    together, bit for bit: the entries are summed per position in term
    order, and exact zeros are dropped.  With ``cancel``, ``pert`` ends
    with its first term negated, so entries that only those two terms
    reach sum to exactly zero."""
    d, max_sites = dim_sites
    rng = np.random.default_rng(seed)
    lam = Interval(0, int(rng.integers(1, max_sites + 1)) - 1)

    def drawn(n_terms):
        terms = []
        for _ in range(n_terms):
            a = int(rng.integers(lam.a, lam.b + 1))
            supp = Interval(a, int(rng.integers(a, lam.b + 1)))
            m = random_hermitian(rng, d ** len(supp), bool(rng.integers(2)))
            k = digit_sums(len(supp), d)
            q = k if modulus is None else k % modulus
            m = np.where(q[:, None] == q[None, :], m, 0.0)
            terms.append(Term(LocalOperator(m, supp, "spin", d)))
        return Interaction(terms, "spin", d)

    eta, pert = drawn(n_eta), drawn(n_pert)
    if cancel:
        pert.terms.append(Term(pert.terms[0].op * -1.0))
    plan = coupled_blocks(eta, pert, lam)
    both = eta.terms + pert.terms
    span = Interaction(both, "spin", d).span
    found = operator_algebra.conserved_modulus([t.op for t in both])
    digits = digit_sums(len(span), d)
    q = digits if found is None else digits % found
    sectors = [np.flatnonzero(q == c) for c in np.unique(q)]
    assert plan.repeat == d ** (len(lam) - len(span))
    assert plan.sides == [len(s) for s in sectors]
    for phi, entries in ((eta, plan.h0), (pert, plan.psi)):
        whole = local_hamiltonian(phi, span).matrix
        for idx, (at, values) in zip(sectors, entries, strict=True):
            flat = whole[np.ix_(idx, idx)].reshape(-1)
            nonzero = np.flatnonzero(flat)
            assert at.dtype == np.int32 and values.dtype == whole.dtype
            assert np.array_equal(at, nonzero)
            assert values.tobytes() == flat[nonzero].tobytes()


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the resident size from /proc/self/status")
def test_building_the_default_l12_plan_holds_no_more_than_twice_its_bytes():
    """Building the block plan of the default L = 12 volume raises the
    resident size by at most twice the bytes its entries hold, in a fresh
    process where one 30 MiB array has been freed first (a free that
    raises the allocator's mmap threshold, as the pipelines before the
    sweep do in a default run): the scratch of the build is given back,
    so the sweep's solves do not sit on top of it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import numpy as np\n"
        "from gaplab.cli import _volume, _window, merged_config\n"
        "from gaplab.interaction import coupled_blocks\n"
        "def rss():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) * 1024 for line in f\n"
        "                    if line.startswith('VmRSS:'))\n"
        "lam, eta, pert = _volume(merged_config({}), _window(12, 1))\n"
        "scratch = np.ones(30 * 2 ** 20 // 8)\n"
        "del scratch\n"
        "before = rss()\n"
        "plan = coupled_blocks(eta, pert, lam)\n"
        "rise = rss() - before\n"
        "print(rise, sum(at.nbytes + values.nbytes\n"
        "                for at, values in plan.h0 + plan.psi))\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    rise, held = map(int, out.stdout.split())
    assert rise <= 2 * held, (rise, held)


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
        terms.append(Term(LocalOperator((p + p.conj().T) / 2.0, supp,
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
    # doubly degenerate classical ground space, gap exactly 1
    for row in report.rows:
        assert row.frustration_free
        assert row.kernel_dim == 2
        assert row.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert report.gamma0_candidate == pytest.approx(1.0, abs=1e-12)


def test_validate_unperturbed_flags_frustration():
    def frustrated(lam):
        terms = [Term(LocalOperator((np.eye(4) - np.kron(Z, Z)) / 2.0,
                                    Interval(x, x + 1)))
                 for x in range(lam.a, lam.b)]
        # a field term shifting the ground energy away from zero
        terms.append(Term(LocalOperator(X + 2 * np.eye(2), Interval(lam.a, lam.a))))
        return Interaction(terms)

    report = validate_unperturbed(frustrated, [Interval(0, 2)])
    assert not report.rows[0].frustration_free


def test_split_edge_bulk_partition():
    lam = Interval(0, 7)
    phi = two_site_ising(lam)
    split = split_edge_bulk(phi, lam, 2)
    assert len(split.edge.terms) + len(split.bulk.terms) == len(phi.terms)
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
    op1 = LocalOperator(np.kron(X, X), Interval(0, 1))
    op2 = LocalOperator(np.kron(Z, Z), Interval(0, 1))
    op3 = LocalOperator(X, Interval(2, 2))
    psi = Interaction([Term(op1), Term(op2), Term(op3)])
    grouped = regroup_intervals(psi)
    assert len(grouped.terms) == 2
    mats = {t.support: t.op.matrix for t in grouped.terms}
    np.testing.assert_allclose(mats[Interval(0, 1)], np.kron(X, X) + np.kron(Z, Z))


def test_regroup_carries_derived_decay():
    """Normed against the decay function that regrouping carries from the
    base, the regrouped interaction is no larger than the original."""
    lam = Interval(0, 3)
    psi = random_interaction(lam, seed=3)
    grouped = regroup_intervals(psi)
    decay = regroup_decay(BASE, TRUNCATION)
    assert isinstance(decay, RegroupedDecay)
    assert grouped.f_norm(decay) <= psi.f_norm(BASE) + 1e-12


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
    psi = random_interaction(lam, seed=4, n_terms=8)
    psi.f_norm(BASE)
    counts = Counter(t.support for t in psi.terms)
    merged = sum(1 for n in counts.values() if n > 1)
    assert 0 < merged < len(counts)
    solved = []
    original = operator_algebra.operator_norm

    def counted(m, sectors=None):
        solved.append(m.shape)
        return original(m, sectors)

    monkeypatch.setattr(operator_algebra, "operator_norm", counted)
    grouped = regroup_intervals(psi)
    grouped.f_norm(regroup_decay(BASE, TRUNCATION))
    assert len(solved) == merged
    for t in grouped.terms:
        assert t.op.norm() == original(t.op.matrix)


def test_regrouping_keeps_the_operator_of_a_support_with_one_term():
    """A support that holds one term keeps that term's operator object, so
    its matrix and its norm, once known, are the original's; a merged
    support holds a new operator."""
    lam = Interval(0, 5)
    psi = random_interaction(lam, seed=4, n_terms=8)
    counts = Counter(t.support for t in psi.terms)
    ops = {t.support: t.op for t in psi.terms}
    grouped = regroup_intervals(psi)
    assert {t.support for t in grouped.terms} == set(counts)
    for t in grouped.terms:
        assert (t.op is ops[t.support]) == (counts[t.support] == 1)


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
    phi = random_interaction(lam, seed=4, n_terms=8)
    solves.clear()
    first = phi.f_norm(BASE)
    n_first = len(solves)
    assert n_first >= len(phi.terms)
    assert phi.f_norm(BASE) == first
    split_edge_bulk(phi, lam, 1).bulk.f_norm(BASE)
    assert len(solves) == n_first


# --- fermion/spin dictionary -----------------------------------------------------


def test_fermion_to_spin_preserves_norms_and_spectra():
    lam = Interval(0, 3)
    terms = []
    for x in range(lam.a, lam.b):
        pair = Interval(x, x + 1)
        hop = (creator(pair, x).matrix @ annihilator(pair, x + 1).matrix)
        hop = hop + hop.conj().T
        terms.append(Term(LocalOperator(hop, pair, kind="fermion")))
    phi = Interaction(terms, kind="fermion")
    spin = fermion_to_spin(phi)
    assert spin.kind == "spin"
    for t_f, t_s in zip(phi.terms, spin.terms):
        assert t_f.op.norm() == pytest.approx(t_s.op.norm(), rel=1e-12)
    ev_f = np.linalg.eigvalsh(local_hamiltonian(phi, lam).matrix)
    ev_s = np.linalg.eigvalsh(local_hamiltonian(spin, lam).matrix)
    np.testing.assert_allclose(ev_f, ev_s, atol=1e-12)


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


def test_from_json_ignores_the_ball_keyed_key():
    """Files written with a ``ball_keyed`` key still load: the key is
    ignored, and the terms keep their anchors and radii."""
    lam = Interval(0, 3)
    op = LocalOperator(np.kron(Z, Z), Interval(1, 2))
    phi = Interaction([Term(op, anchor=1, radius=1)])
    data = json.loads(to_json(phi))
    assert "ball_keyed" not in data
    data["ball_keyed"] = True
    back = from_json(json.dumps(data))
    assert [(t.support, t.anchor, t.radius) for t in back.terms] == \
        [(Interval(1, 2), 1, 1)]
    assert to_json(back) == to_json(phi)


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
