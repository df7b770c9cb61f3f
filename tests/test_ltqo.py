import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import cli, ltqo
from gaplab.cli import _orbital, _window, cmd_ltqo, merged_config
from gaplab.interaction import Interaction
from gaplab.lattice import Interval, ball
from gaplab.ltqo import (ascent_lower_bound, exact_zero_certificate,
                         ltqo_witness, witness_tensor)
from gaplab.models import aklt_interaction
from gaplab.operator_algebra import LocalOperator, embed, operator_norm
from gaplab.spectra import ground_projector, kernel_basis_dense
from oracles import parity_even, projected_ascent, random_hermitian, \
    traced_peak


def _volume(model: str):
    """(interaction, volume, interior region): a 5-site AKLT chain and a
    6-site orbital chain."""
    if model == "aklt":
        vol = Interval(0, 4)
        return aklt_interaction(vol), vol, Interval(1, 3)
    vol = _window(6, 1)
    return _orbital(vol)[1], vol, Interval(3, 5)


def _tensor(eta, vol, region):
    basis = kernel_basis_dense(eta.restricted(vol), vol)
    return witness_tensor(basis, eta.local_dim, vol, region)


@pytest.fixture(scope="module", params=["aklt", "orbital"])
def volume(request):
    eta, vol, region = _volume(request.param)
    return eta, vol, region, _tensor(eta, vol, region), \
        ground_projector(eta, vol)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), complex_=st.booleans())
def test_value_matches_the_dense_witness(volume, seed, complex_):
    """w(A) from the centred map equals |P A P - omega(A) P|_2 formed on the
    whole volume."""
    eta, vol, region, wt, p = volume
    a = random_hermitian(np.random.default_rng(seed),
                         eta.local_dim ** len(region), complex_)
    full = embed(LocalOperator(a, region, vol, "spin", eta.local_dim),
                 vol).matrix
    omega = np.trace(p @ full) / np.trace(p)
    dense = operator_norm(p @ full @ p - omega * p)
    assert wt.value(a) == pytest.approx(dense, abs=1e-12)


def test_zero_certificate_bounds_even_witnesses():
    """Orbital rows at separation 3 (>= D) and at 2 and 1 (inside the
    cut-off): the even-entry certificate is at rounding level, and so is
    w(A) for every even A."""
    lam = _window(8, 1)
    eta = _orbital(lam)[1]
    x = (lam.a + lam.b) // 2
    rng = np.random.default_rng(0)
    for k in (0, 1, 2):
        region = ball(lam, x, k)
        wt = _tensor(eta, ball(lam, x, 3), region)
        assert exact_zero_certificate(wt, even_only=True) <= 1e-11
        for _ in range(10):
            a = parity_even(random_hermitian(rng, 2 ** len(region), True))
            assert wt.value(a / operator_norm(a)) <= 1e-11


def test_orbital_checks_fail_on_a_broken_chain(monkeypatch):
    """Without the empty-``f`` projector of the pair {4, 5} on [1, 8], the
    kernel is no longer one fixed state on that pair: every orbital row
    reads a witness far over budget, and both orbital checks fail."""
    real = cli._orbital

    def broken(lam):
        model, eta = real(lam)
        drop = next(t for t in eta.terms if t.support == Interval(4, 5))
        return model, Interaction([t for t in eta.terms if t is not drop],
                                  eta.kind, eta.local_dim)

    monkeypatch.setattr(cli, "_orbital", broken)
    rep = cmd_ltqo(merged_config({"ltqo": {"aklt_lengths": [5]}}), {})
    verdicts = {label: ok for label, ok, _ in rep.checks}
    for side in ("beyond", "inside"):
        assert verdicts[f"orbital witnesses vanish {side} the cut-off"] \
            is False
    _, rows = rep.tables["ltqo.csv"]
    assert all(row[6] > 0.1 and row[8] == "fail" for row in rows
               if row[0] == "orbital")


def test_fermionic_ascent_is_refused():
    """An ascent on a fermionic interaction is refused: its witnesses are
    read from the exact-zero certificate."""
    eta, vol, _ = _volume("orbital")
    with pytest.raises(ValueError):
        ltqo_witness(eta, vol, 4, 2, 0, {}, ascent=(0, 1, 1))


@pytest.mark.parametrize("model", ["aklt"])
def test_ascent_returns_its_observable(model, monkeypatch):
    """The ascent's observable has norm at most 1 and attains its value;
    each value is read from an ``eigh``, so the ascent calls no SVD."""
    eta, vol, region = _volume(model)
    wt = _tensor(eta, vol, region)
    svds = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: svds.append(args))
    monkeypatch.setattr(np.linalg, "norm",
                        lambda *args, **kwargs: svds.append(args))
    value, a = ascent_lower_bound(wt, seed=3, restarts=2, iters=20)
    assert svds == []
    assert np.allclose(a, a.conj().T)
    assert operator_norm(a) <= 1.0 + 1e-12
    assert wt.value(a) == value


@pytest.mark.parametrize("model", ["aklt"])
def test_ascent_matches_the_walk_that_projects_every_step(model):
    """Taking each step's sign matrix as it is, not projected again onto the
    unit ball, moves the witness values by rounding only; the observable
    returned is Hermitian and of norm at most 1."""
    eta, vol, region = _volume(model)
    wt = _tensor(eta, vol, region)
    for seed in (0, 3):
        value, a = ascent_lower_bound(wt, seed=seed, restarts=4, iters=150)
        ref, _ = projected_ascent(wt, seed=seed, restarts=4, iters=150)
        assert value == pytest.approx(ref, rel=1e-12)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12
        assert operator_norm(a) <= 1.0 + 1e-12


@pytest.mark.parametrize("model", ["aklt"])
def test_ascent_normalises_only_its_starts(model, monkeypatch):
    """One ascent makes one ``eigvalsh``, of side ``dx``, per restart (the
    random start's norm) and none per step; each step makes two ``eigh``
    calls, one of the ``dx``-sided objective and one of the centred map."""
    eta, vol, region = _volume(model)
    wt = _tensor(eta, vol, region)
    dx = eta.local_dim ** len(region)
    calls = {"eigvalsh": [], "eigh": []}

    def counted(name):
        real = getattr(np.linalg, name)

        def solve(m, *args, **kwargs):
            calls[name].append(m.shape[-1])
            return real(m, *args, **kwargs)
        return solve

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    ascent_lower_bound(wt, seed=3, restarts=3, iters=20)
    steps = calls["eigh"].count(dx)
    assert wt.rank != dx and steps > 0
    assert calls["eigvalsh"] == [dx] * 3
    assert calls["eigh"].count(wt.rank) == 3 + steps
    assert len(calls["eigh"]) == 3 + 2 * steps


def test_each_witness_is_computed_once_per_run(monkeypatch):
    """One ``cmd_ltqo`` call solves each distinct volume kernel once and runs
    each distinct ascent once, on spin-1 sites alone; the 6-site AKLT
    chain's rows are its 5-site rows again, and every orbital row is a
    certified zero."""
    kernels, ascents, regions = [], [], []

    def kernel(phi, vol):
        kernels.append((len(vol), tuple(
            (t.support.a - vol.a, len(t.support), t.op.matrix.tobytes())
            for t in phi.terms if t.support in vol)))
        return kernel_basis_dense(phi, vol)

    def ascent(wt, *args, **kwargs):
        ascents.append((wt.D.tobytes(), args, tuple(kwargs.items())))
        regions.append((math.isqrt(wt.D.shape[1]), wt.region))
        return ascent_lower_bound(wt, *args, **kwargs)

    monkeypatch.setattr(ltqo, "kernel_basis_dense", kernel)
    monkeypatch.setattr(ltqo, "ascent_lower_bound", ascent)
    rep = cmd_ltqo(merged_config({"ltqo": {"aklt_lengths": [5, 6]}}), {})
    assert rep.passed
    assert len(set(kernels)) == len(kernels) == 6
    assert len(set(ascents)) == len(ascents)
    _, rows = rep.tables["ltqo.csv"]
    kinds = [row[5] for row in rows if row[0] == "orbital"]
    values = {m: [row[6] for row in rows if row[0] == m]
              for m in ("aklt5", "aklt6")}
    assert set(kinds) == {"zero"}
    assert len(ascents) == len(values["aklt5"])
    assert all(dx == 3 ** len(region) for dx, region in regions)
    assert values["aklt6"] == values["aklt5"] and len(values["aklt5"]) == 2


def test_aklt_kernel_is_solved_without_the_whole_matrix():
    """The 7-site AKLT witness solves its kernel in ``S^z`` blocks (at most
    393 states): the memory it raises stays below one whole 2,187-sided
    float64 matrix (38.3 MB)."""
    lam = Interval(0, 6)
    _, peak = traced_peak(lambda: ltqo_witness(aklt_interaction(lam), lam,
                                               3, 3, 1, {}))
    assert peak < 2187 ** 2 * 8
