import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import ltqo
from gaplab.cli import _orbital, _window, cmd_ltqo, merged_config
from gaplab.interaction import local_hamiltonian
from gaplab.lattice import Interval, ball
from gaplab.ltqo import (ascent_lower_bound, exact_zero_certificate,
                         witness_tensor)
from gaplab.models import aklt_interaction
from gaplab.operator_algebra import LocalOperator, embed, operator_norm
from gaplab.spectra import ground_projector, kernel_basis_dense
from oracles import parity_even, projected_ascent, random_hermitian


def _volume(model: str):
    """(interaction, volume, interior region): a 5-site AKLT chain and a
    6-site orbital chain."""
    if model == "aklt":
        vol = Interval(0, 4)
        return aklt_interaction(vol), vol, Interval(1, 3)
    vol = _window(6, 1)
    return _orbital(vol)[1], vol, Interval(3, 5)


def _tensor(eta, vol, region):
    basis = kernel_basis_dense(local_hamiltonian(eta.restricted(vol), vol))
    return witness_tensor(basis, eta.local_dim, vol, region)


@pytest.fixture(scope="module", params=["aklt", "orbital"])
def volume(request):
    eta, vol, region = _volume(request.param)
    h = local_hamiltonian(eta.restricted(vol), vol)
    return eta, vol, region, _tensor(eta, vol, region), ground_projector(h)


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
    """An orbital zero row (separation >= D): the even-entry certificate is
    at rounding level, and so is w(A) for every even A."""
    lam = _window(8, 1)
    eta = _orbital(lam)[1]
    x = (lam.a + lam.b) // 2
    wt = _tensor(eta, ball(lam, x, 3), ball(lam, x, 0))
    assert exact_zero_certificate(wt, even_only=True) <= 1e-11
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = parity_even(random_hermitian(rng, 2, True))
        assert wt.value(a / operator_norm(a)) <= 1e-11


@pytest.mark.parametrize("model", ["aklt", "orbital"])
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
    value, a = ascent_lower_bound(wt, seed=3, restarts=2, iters=20,
                                  even_only=model == "orbital")
    assert svds == []
    assert np.allclose(a, a.conj().T)
    assert operator_norm(a) <= 1.0 + 1e-12
    assert wt.value(a) == value


@pytest.mark.parametrize("model, even_only", [("aklt", False),
                                              ("orbital", False),
                                              ("orbital", True)])
def test_ascent_matches_the_walk_that_projects_every_step(model, even_only):
    """Taking each step's sign matrix as it is, not projected again onto the
    unit ball, moves the witness values by rounding only; the observable
    returned is Hermitian, of norm at most 1, and exactly even under
    ``even_only``."""
    eta, vol, region = _volume(model)
    wt = _tensor(eta, vol, region)
    for seed in (0, 3):
        value, a = ascent_lower_bound(wt, seed=seed, restarts=4, iters=150,
                                      even_only=even_only)
        ref, _ = projected_ascent(wt, seed=seed, restarts=4, iters=150,
                                  even_only=even_only)
        assert value == pytest.approx(ref, rel=1e-12)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12
        assert operator_norm(a) <= 1.0 + 1e-12
        if even_only:
            assert np.array_equal(a, parity_even(a))


@pytest.mark.parametrize("model", ["aklt", "orbital"])
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
    ascent_lower_bound(wt, seed=3, restarts=3, iters=20,
                       even_only=model == "orbital")
    steps = calls["eigh"].count(dx)
    assert wt.rank != dx and steps > 0
    assert calls["eigvalsh"] == [dx] * 3
    assert calls["eigh"].count(wt.rank) == 3 + steps
    assert len(calls["eigh"]) == 3 + 2 * steps


def test_each_witness_is_computed_once_per_run(monkeypatch):
    """One ``cmd_ltqo`` call solves each distinct volume kernel once and runs
    each distinct ascent once; the 6-site AKLT chain's rows are its 5-site
    rows again, and the orbital zero rows run no ascent."""
    kernels, ascents = [], []

    def kernel(h):
        kernels.append(h.matrix.tobytes())
        return kernel_basis_dense(h)

    def ascent(wt, *args, **kwargs):
        ascents.append((wt.D.tobytes(), args, tuple(kwargs.items())))
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
    assert len(ascents) == kinds.count("ascent") + len(values["aklt5"])
    assert values["aklt6"] == values["aklt5"] and len(values["aklt5"]) == 2
