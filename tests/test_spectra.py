from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.cli import ENVELOPE
from gaplab.interaction import Interaction, Term, coupled, \
    hamiltonian_eigenvalues, local_hamiltonian, random_interaction
from gaplab.lattice import Interval, ball, interior
from gaplab.models import aklt_interaction, orbital_interaction, \
    paired_orbital_model, random_even_perturbation
from gaplab.operator_algebra import LocalOperator, basis_charges, \
    charge_sectors, conserved_modulus, eigenvalues, join_blocks, \
    kernel_count, operator_norm
from gaplab.spectra import (FrustrationError, RefinementError,
                            cluster_projector, diagonalize, gap_curve,
                            ground_projector, higher_gap_track,
                            kernel_basis_dense, resolution_family,
                            sigma_projection, sp0_diameter_scan)
from gaplab import interaction, spectra
from oracles import dense_kernel_projector, on_chain, one_site, \
    parity_even, random_hermitian, split_blocks

Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ising(lam):
    terms = [Term(LocalOperator((np.eye(4) - np.kron(Z, Z)) / 2.0,
                                Interval(x, x + 1)))
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
    p = ground_projector(ising(lam), lam)
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)


def test_ground_projector_needs_kernel():
    with pytest.raises(FrustrationError):
        ground_projector(*on_chain(np.diag([1.0, 2.0])))


def _frustration_free(lam, seed):
    """``random_interaction(lam, seed)`` with each term ``m`` made
    ``q m^2 q``, ``q`` the complement of a seeded complex product state on
    its support: that state lies in the kernel, and the terms conserve no
    charge (one sector)."""
    phi = random_interaction(lam, seed)
    rng = np.random.default_rng(seed)
    site = rng.standard_normal((len(lam), 2)) \
        + 1j * rng.standard_normal((len(lam), 2))
    site /= np.linalg.norm(site, axis=1, keepdims=True)
    terms = []
    for t in phi.terms:
        state = np.ones(1, complex)
        for x in t.support:
            state = np.kron(state, site[x - lam.a])
        q = np.eye(state.size) - np.outer(state, state.conj())
        m = t.op.matrix
        terms.append(replace(t, op=replace(t.op, matrix=q @ m @ m @ q)))
    return replace(phi, terms=terms)


def _kernel_case(model, n, at, seed):
    """``(phi, lam, modulus)``: ``n`` sites at offset ``at`` of the orbital
    chain on [1, 8] (number blocks), of the AKLT chain on [0, 5] (``S^z``
    blocks), or of a frustration-free random chain on [0, 5] (one sector,
    complex), with the charge its terms inside ``lam`` conserve."""
    if model == "orbital":
        chain = Interval(1, 8)
        phi = orbital_interaction(paired_orbital_model(chain), chain)
    else:
        chain = Interval(0, 5)
        phi = aklt_interaction(chain) if model == "aklt" \
            else _frustration_free(chain, seed)
    n = min(n, len(chain))
    a = chain.a + at % (len(chain) - n + 1)
    lam = Interval(a, a + n - 1)
    return phi, lam, conserved_modulus([t.op for t in phi.terms
                                        if t.support in lam])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["orbital", "aklt", "random"]), st.integers(1, 8),
       st.integers(0, 7), st.integers(0, 2 ** 32 - 1))
def test_kernel_basis_matches_the_dense_oracle(model, n, at, seed):
    """The charge-block kernel basis has orthonormal columns, and its
    projector equals the kernel projector of ``eigh`` on the whole matrix
    to 1e-12 and is exactly zero between the sectors of the charge the
    terms conserve."""
    phi, lam, modulus = _kernel_case(model, n, at, seed)
    if model != "random":
        assert modulus is None
    elif any(t.support in lam for t in phi.terms):
        assert modulus == 1
    v = kernel_basis_dense(phi, lam)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), rtol=0,
                               atol=1e-12)
    p = ground_projector(phi, lam)
    np.testing.assert_allclose(p, dense_kernel_projector(phi, lam), rtol=0,
                               atol=1e-12)
    q = basis_charges(len(lam), phi.local_dim, modulus)
    assert not p[q[:, None] != q].any()


def test_kernel_cut_is_taken_on_the_merged_spectrum():
    """``diag(5e-9, 10)`` splits into two number blocks.  At the whole
    matrix's scale, 10, the cut is 1e-8 and ``5e-9`` is kernel, as the
    dense oracle finds; at its own block's scale, 1, it would not be."""
    phi, lam = on_chain(np.diag([5e-9, 10.0]))
    v = kernel_basis_dense(phi, lam)
    assert v.shape == (2, 1)
    p = ground_projector(phi, lam)
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(p, dense_kernel_projector(phi, lam), rtol=0,
                               atol=1e-12)


# --- gap curves -------------------------------------------------------------


def curve(h0, psi, grid, **kwargs):
    """``gap_curve`` of the one-site interactions holding ``h0`` and
    ``psi``: the oracle matrices are the Hamiltonians themselves."""
    return gap_curve(one_site(h0), one_site(psi), Interval(0, 0), grid,
                     **kwargs)


def test_gap_curve_two_level_oracle():
    """H = diag(0, 1), psi = diag(1, -1): gap(eps) = 1 - 2 eps exactly."""
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])
    grid = [0.0, 0.1, 0.2]
    splits = curve(h0, psi, grid)
    for sp in splits:
        assert sp.gamma == pytest.approx(1.0 - 2.0 * sp.eps, abs=1e-12)
        assert sp.sp0.size == 1


def test_gap_curve_tracks_through_shift():
    # uniform shift never closes the tracked gap
    h0 = np.diag([0.0, 0.0, 2.0])
    psi = np.eye(3)
    splits = curve(h0, psi, np.linspace(0, 1, 5))
    for sp in splits:
        assert sp.gamma == pytest.approx(2.0, abs=1e-12)
        assert sp.sp0_diameter == pytest.approx(0.0, abs=1e-12)


def test_gap_curve_refinement_error_on_closing():
    # the perturbation closes the gap inside the sweep: tracking must refuse
    h0 = np.diag([0.0, 1.0])
    psi = np.diag([1.0, -1.0])
    with pytest.raises(RefinementError):
        curve(h0, psi, [0.0, 0.5, 1.0], max_depth=3)


def test_gap_curve_respects_cluster_dim():
    h0 = np.diag([0.0, 0.001, 1.0])
    psi = np.zeros((3, 3))
    splits = curve(h0, psi, [0.0, 0.1], cluster_dim=2)
    assert splits[0].sp0.size == 2
    assert splits[0].gamma == pytest.approx(0.999, abs=1e-12)


def _sweep_case(kind, n, complex_, rng):
    """``(eta, pert, lam)`` of one sweep, each case with the charge its
    terms keep together:

    - ``whole``: an orbital volume with one even term on the whole volume
      (the parity);
    - ``interior``: the same volume with a seeded perturbation kept inside
      ``Int_2`` (the parity; the span is smaller than the volume, so every
      eigenvalue repeats);
    - ``number``: the orbital volume with a number-keeping term on three
      sites (the number);
    - ``aklt``: an AKLT chain with one random spin-1 bond term (none);
    - ``aklt_sz``: the same with an ``S^z``-keeping bond term (``S^z``).

    The whole-volume, three-site and bond terms have norm 1."""
    if kind.startswith("aklt"):
        lam = Interval(0, n - 1)
        bond = Interval(n // 2 - 1, n // 2)
        m = random_hermitian(rng, 9, complex_)
        if kind == "aklt_sz":
            q = basis_charges(2, 3)
            m = np.where(q[:, None] == q[None, :], m, 0.0)
        op = LocalOperator(m / operator_norm(m), bond, "spin", 3)
        return aklt_interaction(lam), Interaction([Term(op)], "spin", 3), lam
    lam = Interval(1, n + 4)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    if kind == "interior":
        pert = random_even_perturbation(lam, 2, ENVELOPE,
                                        int(rng.integers(2 ** 32)))
        return eta, pert.restricted(interior(lam, 2)), lam
    if kind == "number":
        q = basis_charges(3, 2)
        m = random_hermitian(rng, 8, complex_)
        m = np.where(q[:, None] == q[None, :], m, 0.0)
        op = LocalOperator(m / operator_norm(m), Interval(3, 5), "fermion")
        return eta, Interaction([Term(op)], "fermion", 2), lam
    m = parity_even(random_hermitian(rng, 2 ** len(lam), complex_))
    op = LocalOperator(m / operator_norm(m), lam, "fermion")
    return eta, Interaction([Term(op)], "fermion", 2), lam


_KEPT = {"whole": 2, "interior": 2, "number": None, "aklt": 1,
         "aklt_sz": None}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_KEPT)), st.integers(3, 5), st.booleans(),
       st.floats(1e-3, 0.05), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gap_curve_is_the_span_rule_on_the_coupled_interaction(kind, n,
                                                               complex_, eps,
                                                               bisect, seed):
    """Each split of ``gap_curve`` at coupling 0 is
    ``hamiltonian_eigenvalues(eta)`` bit for bit; every spectrum its block
    plan solves, bisection midpoints included, is that of
    ``coupled(eta, pert, eps)`` to ``1e-13 max(1, |lambda|)`` eigenvalue by
    eigenvalue, and the dense ``eigvalsh(H0 + eps Psi)`` of the volume to
    1e-12 of its scale.  With ``bisect`` the perturbation also holds one of
    its terms scaled to norm ``2 / eps`` and to norm ``-2 / eps``: they
    cancel, but the term norms that bound ``|Psi|`` grow by ``4 / eps``, so
    the step ``eps / 2`` must be bisected beside any gap of at most 1.
    ``|Psi|``, the largest ``|lambda|`` of ``pert``, is ``operator_norm`` of
    its volume Hamiltonian, bit for bit on its parity sectors when its span
    is the volume."""
    eta, pert, lam = _sweep_case(kind, n, complex_, np.random.default_rng(seed))
    if bisect:
        t = pert.terms[0]
        big = 2.0 / (eps * t.op.norm())
        pert = replace(pert, terms=pert.terms + [
            Term(t.op * big, t.anchor, t.radius),
            Term(t.op * -big, t.anchor, t.radius)])
    ops = [t.op for t in eta.terms + pert.terms if t.support in lam]
    assert conserved_modulus(ops) == _KEPT[kind]
    assert (pert.span == lam) == (kind == "whole")
    grid = [0.0, 0.5 * eps, eps]
    solved = []
    real_solve = interaction.CoupledBlocks.eigenvalues

    def recorded(plan, e):
        solved.append((e, real_solve(plan, e)))
        return solved[-1][1]

    with patch.object(interaction.CoupledBlocks, "eigenvalues", recorded):
        splits = gap_curve(eta, pert, lam, grid)
    assert len({e for e, _ in solved} - set(grid)) > 0 if bisect \
        else [e for e, _ in solved] == grid[1:]
    for e, spectrum in solved:
        ref = hamiltonian_eigenvalues(coupled(eta, pert, e), lam)
        assert spectrum.shape == ref.shape
        assert np.all(np.abs(spectrum - ref)
                      <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    h0 = local_hamiltonian(eta, lam).matrix
    psi = local_hamiltonian(pert, lam).matrix
    for sp, e in zip(splits, grid, strict=True):
        spectrum = np.concatenate((sp.sp0, sp.sp1))
        if e == 0.0:
            assert spectrum.tobytes() == \
                hamiltonian_eigenvalues(eta, lam).tobytes()
        else:
            assert any(f == e and np.array_equal(spectrum, got)
                       for f, got in solved)
        dense = np.linalg.eigvalsh(h0 + e * psi)
        scale = max(1.0, float(np.max(np.abs(dense))))
        np.testing.assert_allclose(spectrum, dense, rtol=0, atol=1e-12 * scale)
    psi_norm = float(np.max(np.abs(hamiltonian_eigenvalues(pert, lam))))
    if kind == "whole":
        assert psi_norm == operator_norm(psi, charge_sectors(len(lam), 2, 2))
    assert psi_norm == pytest.approx(operator_norm(psi), rel=1e-12)


def test_sweep_solves_come_from_one_plan_and_scan_solves_from_hamiltonian_eigenvalues(
        monkeypatch):
    """``gap_curve`` and ``sp0_diameter_scan`` solve nothing themselves.
    The sweep reads ``hamiltonian_eigenvalues`` of ``eta`` once, for
    coupling 0, and every other coupling from its one block plan, with no
    ``coupled`` interaction; the scan reads ``hamiltonian_eigenvalues`` for
    every spectrum.  No solve is made for ``|Psi|``, which is bounded by
    ``pert``'s term norms (cached on its operators)."""
    lam = Interval(1, 8)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    pert = random_even_perturbation(lam, 2, ENVELOPE, seed=7)
    for t in pert.terms:
        t.op.norm()
    depth, solves, read, planned = [0], [], [], []
    real_read = spectra.hamiltonian_eigenvalues
    real_plan = interaction.CoupledBlocks.eigenvalues

    def inside(log, fn):
        def wrapped(first, arg):
            log.append((first, arg))
            depth[0] += 1
            try:
                return fn(first, arg)
            finally:
                depth[0] -= 1
        return wrapped

    def solver(real):
        def solve(*args, **kwargs):
            solves.append(depth[0])
            return real(*args, **kwargs)
        return solve

    def refuse(*args):
        raise AssertionError("the sweep built a coupled interaction")

    monkeypatch.setattr(spectra, "hamiltonian_eigenvalues",
                        inside(read, real_read))
    monkeypatch.setattr(interaction.CoupledBlocks, "eigenvalues",
                        inside(planned, real_plan))
    monkeypatch.setattr(spectra, "coupled", refuse)
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, solver(getattr(np.linalg, name)))
    grid = [0.0, 0.01, 0.02]
    gap_curve(eta, pert, lam, grid)
    assert read == [(eta, lam)]
    assert [eps for _, eps in planned] == grid[1:]
    assert solves and all(solves)
    monkeypatch.setattr(spectra, "coupled", interaction.coupled)
    read.clear()
    solves.clear()
    sp0_diameter_scan(eta, pert, lam, (0.0, 0.02), (0, 1, 2))
    assert len(read) == 4 and read[0] == (eta, lam)
    assert solves and all(solves)


def test_gap_curve_makes_as_many_charge_blocks_calls_for_any_grid(
        monkeypatch):
    """One ``gap_curve`` call asks ``charge_blocks`` for ``eta``'s blocks at
    coupling 0 and for the plan's two families once, and finds the charge
    modulus as often, however many couplings its grid holds: 2, 6 or 12
    points, the two-point grid's one step bisected (one term, at norm 10
    and at norm -10, adds 20 to the term norms beside a gap of 1)."""
    lam = Interval(1, 8)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    pert = random_even_perturbation(lam, 2, ENVELOPE, seed=7)
    t = pert.terms[0]
    big = 10.0 / t.op.norm()
    pert = replace(pert, terms=pert.terms + [
        Term(t.op * big, t.anchor, t.radius),
        Term(t.op * -big, t.anchor, t.radius)])
    calls = {"charge_blocks": [], "conserved_modulus": [], "solves": []}

    def counted(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name].append(args[1] if name == "charge_blocks" else None)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counted(interaction, "charge_blocks")
    counted(interaction, "conserved_modulus")
    real_solve = interaction.CoupledBlocks.eigenvalues
    monkeypatch.setattr(interaction.CoupledBlocks, "eigenvalues",
                        lambda plan, e: calls["solves"].append(e)
                        or real_solve(plan, e))
    counts = []
    for size in (2, 6, 12):
        for log in calls.values():
            log.clear()
        gap_curve(eta, pert, lam, np.linspace(0.0, 0.05, size))
        counts.append((len(calls["charge_blocks"]),
                       len(calls["conserved_modulus"]),
                       len(calls["solves"]) - (size - 1)))
    assert counts[0][2] > 0
    assert counts[0][0] == 3 and len({c[:2] for c in counts}) == 1


def test_cluster_projector():
    """The cluster is cut on the merged spectrum of a block stack: the gap
    above its ``dim`` lowest values, and each block's share of their
    eigenvectors, a copy, possibly empty.  Ties go to the earlier block, so
    a degenerate boundary reads a zero gap."""
    evals, evecs = diagonalize(np.stack([np.diag([0.0, 5.0, 7.0]),
                                         np.diag([0.1, 3.0, 6.0])]))
    gap, frames = cluster_projector(evals, evecs, 3)
    assert gap == pytest.approx(2.0)
    assert [v.shape for v in frames] == [(3, 1), (3, 2)]
    assert not any(np.shares_memory(v, evecs) for v in frames)
    np.testing.assert_allclose(
        np.stack([v @ v.conj().T for v in frames]),
        np.stack([np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])]),
        atol=1e-12)
    evals, evecs = diagonalize(np.stack([np.diag([0.0, 1.0]),
                                         np.diag([0.0, 2.0])]))
    gap, frames = cluster_projector(evals, evecs, 1)
    assert gap == 0.0 and [v.shape[1] for v in frames] == [1, 0]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(2, 6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_cluster_projector_matches_the_whole_matrix(blocks, side, complex_,
                                                    seed):
    """On a random stack the gap is that of the block-diagonal matrix the
    stack stands for, and, where the gap is open, the frames span its
    ``dim`` lowest eigenvectors: both solves leave residuals near
    ``eps |H|``, so the projectors differ by about ``eps |H| / gap``
    (Davis-Kahan), under 1e-11 for a gap above 1e-3."""
    rng = np.random.default_rng(seed)
    h = np.stack([random_hermitian(rng, side, complex_)
                  for _ in range(blocks)])
    sectors = list(np.arange(blocks * side).reshape(blocks, side))
    dim = int(rng.integers(1, blocks * side))
    gap, frames = cluster_projector(*diagonalize(h), dim)
    ref_evals, ref_evecs = np.linalg.eigh(join_blocks(h, sectors))
    assert abs(gap - (ref_evals[dim] - ref_evals[dim - 1])) <= 1e-12
    if gap > 1e-3:
        p = join_blocks(np.stack([v @ v.conj().T for v in frames]), sectors)
        v = ref_evecs[:, :dim]
        np.testing.assert_allclose(p, v @ v.conj().T, atol=1e-9)


# --- resolution families ------------------------------------------------------


def _volume_projector(eta, lam):
    """The kernel projector of the volume as a stack on its parity
    sectors, and their modulus, 2."""
    sectors = charge_sectors(len(lam), 2, 2)
    return split_blocks(ground_projector(eta, lam), sectors), 2


def test_resolution_family_identities():
    lam = Interval(0, 6)
    eta = ising(lam)
    p, modulus = _volume_projector(eta, lam)
    fam = resolution_family(eta, lam, 3, p, modulus)
    assert fam.r_x == 3
    assert all(m.shape == (2, 64, 64) for m in fam.locals + fam.E)
    eye = np.broadcast_to(np.eye(64), fam.P.shape)
    total = sum(fam.E)
    np.testing.assert_allclose(total, eye, atol=1e-10)
    # partial sums telescope to 1 - P_{b(x,n)}
    partial = np.zeros_like(fam.P)
    for n, e in enumerate(fam.E[:-2], start=1):
        partial = partial + e
        np.testing.assert_allclose(partial, eye - fam.locals[n - 1],
                                   atol=1e-10)
        # annihilation: P_{b(x,n)} E_n = 0
        assert operator_norm(fam.locals[n - 1] @ e) <= 1e-10
    # nesting makes every E_n a projector here
    for e in fam.E:
        np.testing.assert_allclose(e @ e, e, atol=1e-9)


def test_resolution_family_needs_interior_site():
    lam = Interval(0, 6)
    eta = ising(lam)
    p, modulus = _volume_projector(eta, lam)
    with pytest.raises(ValueError):
        resolution_family(eta, lam, 0, p, modulus)
    with pytest.raises(ValueError):
        resolution_family(eta, lam, 6, p, modulus)


def test_resolution_family_solves_only_its_balls(monkeypatch):
    """The volume's kernel projector is the caller's: no eigensolve of the
    volume's side, and every ``eigh`` is one number block of one ball, in
    order (the widest ball is [0, 6] of [0, 7])."""
    lam = Interval(0, 7)
    eta = ising(lam)
    p, modulus = _volume_projector(eta, lam)
    sides = []
    eigh = np.linalg.eigh

    def counting_eigh(m, *args, **kwargs):
        sides.append(m.shape[0])
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    fam = resolution_family(eta, lam, 3, p, modulus)
    assert fam.P is p
    balls = [ball(lam, 3, n) for n in range(1, fam.r_x + 1)]
    assert sides == [idx.size for b in balls
                     for idx in charge_sectors(len(b), 2, None)]
    assert 2 ** len(lam) not in sides
    assert max(sides) < 2 ** len(balls[-1])


def test_sigma_projection_partition_of_identity():
    lam = Interval(0, 8)
    eta = ising(lam)
    members = []
    for x in (2, 6):
        b = ball(lam, x, 1)
        p = ground_projector(eta, b)
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
        p = ground_projector(eta, b)
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
    rows = higher_gap_track(curve(h0, psi, [0.0, 0.1, 0.2]),
                            nu=1.0, mu=2.0)
    for eps, g in rows:
        assert g == pytest.approx(1.0 - 2.0 * eps, abs=1e-12)


def test_higher_gap_track_keeps_rounded_levels_at_the_window_edges():
    # each edge level is degenerate and straddles nu or mu by rounding
    h0 = np.diag([0.0, 1.0 - 1e-15, 1.0 + 1e-15, 2.0 - 1e-15, 2.0 + 1e-15])
    psi = np.diag([0.0, -1.0, 1.0, -1.0, 1.0])
    rows = higher_gap_track(curve(h0, psi, [0.0, 0.1, 0.2]),
                            nu=1.0, mu=2.0)
    for eps, g in rows:
        assert g == pytest.approx(1.0 - 2.0 * eps, abs=1e-12)


def test_higher_gap_track_window_must_be_populated():
    with pytest.raises(ValueError, match="no spectrum"):
        higher_gap_track(curve(np.diag([5.0, 6.0]), np.eye(2), [0.0],
                               cluster_dim=1), nu=1.0, mu=2.0)
    with pytest.raises(ValueError, match="no spectrum at or above mu = 9.0"):
        higher_gap_track(curve(np.diag([0.0, 6.0]), np.eye(2), [0.0],
                               cluster_dim=1), nu=1.0, mu=9.0)


def test_higher_gap_track_needs_coupling_zero_first():
    with pytest.raises(ValueError, match="coupling zero"):
        higher_gap_track(curve(np.diag([0.0, 3.0]), np.eye(2), [0.1]),
                         nu=1.0, mu=2.0)


def test_higher_gap_identity_perturbation_is_constant():
    h0 = np.diag([0.0, 0.5, 2.0, 2.5])
    rows = higher_gap_track(curve(h0, np.eye(4), [0.0, 0.3, 0.7]),
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


def test_sp0_scan_without_a_kernel_is_refused():
    """An ``H0`` with no kernel has no cluster to split: the scan refuses
    it as ``gap_curve`` does, and never reads an empty cluster."""
    lam = Interval(0, 5)
    eta = random_interaction(lam, seed=1)
    pert = random_interaction(lam, seed=2, n_terms=4, max_diameter=1)
    for scan in (lambda: gap_curve(eta, pert, lam, [0.0, 0.1]),
                 lambda: sp0_diameter_scan(eta, pert, lam, [0.1], [1])):
        with pytest.raises(FrustrationError, match="no kernel"):
            scan()


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
    # depth 4 leaves no interior, so it keeps no term
    couplings, depths = (0.0, 0.02, 0.05), (0, 1, 2, 3, 4)
    rows = sp0_diameter_scan(eta, pert, lam, couplings, depths)
    assert [(r["eps"], r["depth"]) for r in rows] == \
        [(e, d) for e in couplings for d in depths]
    h0 = local_hamiltonian(eta, lam).matrix
    kdim = kernel_count(np.linalg.eigvalsh(h0))
    ev0 = hamiltonian_eigenvalues(eta, lam)
    for row in rows:
        inner = interior(lam, row["depth"])
        kept = Interaction([t for t in pert.terms
                            if inner is not None and t.support in inner],
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
        if row["depth"] == 4:
            assert inner is None and not kept.terms
        if row["eps"] == 0.0 or not kept.terms:
            # the unperturbed rows read the spectrum of eta, bit for bit
            assert (row["sp0_min"], row["sp0_max"], row["sp1_min"]) == \
                (ev0[0], ev0[kdim - 1], ev0[kdim])
            assert row["sp0_diam"] == ev0[kdim - 1] - ev0[0]
            assert row["gamma"] == ev0[kdim] - ev0[kdim - 1]
        if row["depth"] == 0 and row["eps"] != 0.0:
            # depth 0 keeps every term, the end sites' included: the row is
            # the whole-volume H0 + eps Psi, and its cluster splits
            assert len(kept.terms) == len(pert.terms)
            assert row["sp0_diam"] > 1e-6


def test_sp0_scan_solves_each_row_on_its_hull(monkeypatch):
    """Every spectrum is ``hamiltonian_eigenvalues`` of an interaction: that
    of ``eta`` once, then one per perturbed row, ``eta``'s terms followed by
    the kept terms scaled by the coupling, solved in the charge blocks of
    its span, the hull of ``eta``'s span and the kept terms.  At depth 0
    the kept terms reach the end sites, off ``eta``'s span, so the hull is
    the volume; deeper rows stay on ``eta``'s span.  ``eta`` conserves the
    particle number and splits into the seven number sectors of its six
    sites; a perturbed row conserves only the parity.  No whole matrix is
    assembled, by the scan or by ``hamiltonian_eigenvalues``."""
    lam = Interval(1, 8)
    eta = orbital_interaction(paired_orbital_model(lam), lam)
    pert = random_even_perturbation(lam, 2, {"A": 1.0, "K": 0.5, "s": 1.0,
                                             "kappa": 4.0}, seed=7)
    assert eta.span == Interval(2, 7) and pert.span == lam
    built = []
    real_blocks = interaction.charge_blocks

    def blocks(phi, where):
        sectors, gen = real_blocks(phi, where)
        built.append((phi.terms, where, [len(s) for s in sectors]))
        return sectors, gen

    def refuse(*args):
        raise AssertionError("a whole matrix was assembled")

    monkeypatch.setattr(interaction, "charge_blocks", blocks)
    monkeypatch.setattr(interaction, "local_hamiltonian", refuse)
    sp0_diameter_scan(eta, pert, lam, (0.0, 0.02, 0.05), (0, 1, 2))
    number = [1, 6, 15, 20, 15, 6, 1]
    assert [(where, sides) for _, where, sides in built] == \
        [(eta.span, number)] + [(lam, [128, 128]), (eta.span, [32, 32]),
                                (eta.span, [32, 32])] * 2
    n = len(eta.terms)
    assert all(a is b for a, b in zip(built[0][0], eta.terms, strict=True))
    rows = [(eps, depth) for eps in (0.02, 0.05) for depth in (0, 1, 2)]
    for (terms, _, _), (eps, depth) in zip(built[1:], rows):
        assert all(a is b for a, b in zip(terms[:n], eta.terms))
        kept = [t for t in pert.terms if t.support in interior(lam, depth)]
        assert len(terms) == n + len(kept)
        for t, k in zip(terms[n:], kept):
            assert (t.support, t.anchor, t.radius) == \
                (k.support, k.anchor, k.radius)
            assert np.array_equal(t.op.matrix, k.op.matrix * eps)


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
    sectors = charge_sectors(len(lam), 2, 2)
    kdim = kernel_count(eigenvalues(split_blocks(h0, sectors)))
    assert kdim == 4
    for row in rows:
        inner = interior(lam, row["depth"])
        kept = Interaction([t for t in pert.terms if t.support in inner],
                           pert.kind, pert.local_dim)
        m = local_hamiltonian(kept, lam).matrix
        m *= row["eps"]
        m += h0
        evals = eigenvalues(split_blocks(m, sectors))
        del m
        sp0, sp1 = evals[:kdim], evals[kdim:]
        tol = 1e-12 * max(1.0, float(np.max(np.abs(evals))))
        assert row["sp0_min"] == pytest.approx(sp0.min(), abs=tol)
        assert row["sp0_max"] == pytest.approx(sp0.max(), abs=tol)
        assert row["sp1_min"] == pytest.approx(sp1.min(), abs=tol)
        assert row["sp0_diam"] == 0.0
        assert sp0.max() - sp0.min() <= tol
