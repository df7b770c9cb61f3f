import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import ltqo, models, pipelines
from gaplab.cli import main
from gaplab.config import ConfigError, _window, admit, merged_config
from gaplab.pipelines import cmd_ltqo
from gaplab.interaction import Interaction
from gaplab.lattice import Interval, ball
from gaplab.ltqo import (ascent_lower_bound, ltqo_witness, witness_bracket,
                         witness_tensor, witness_upper)
from gaplab.models import aklt_interaction, orbital_interaction
from gaplab.operator_algebra import LocalOperator, embed, operator_norm, \
    parity_matrix
from gaplab.spectra import ground_projector, kernel_basis_dense
from oracles import even_certificate, even_upper, parity_even, \
    projected_ascent, random_hermitian, random_matrix, recorded, traced_peak


def _volume(model: str):
    """(interaction, volume, interior region): a 5-site AKLT chain and a
    6-site orbital chain."""
    if model == "aklt":
        vol = Interval(0, 4)
        return aklt_interaction(vol), vol, Interval(1, 3)
    vol = _window(6, 1)
    return orbital_interaction(vol), vol, Interval(3, 5)


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
    full = embed(LocalOperator(a, region, "spin", eta.local_dim),
                 vol).matrix
    omega = np.trace(p @ full) / np.trace(p)
    dense = operator_norm(p @ full @ p - omega * p)
    assert wt.value(a) == pytest.approx(dense, abs=1e-12)


def test_zero_certificate_bounds_even_witnesses():
    """Orbital rows at separation 3 (>= D) and at 2 and 1 (inside the
    cut-off): the even-entry certificate is at rounding level, and so is
    w(A) for every even A."""
    lam = _window(8, 1)
    eta = orbital_interaction(lam)
    x = (lam.a + lam.b) // 2
    rng = np.random.default_rng(0)
    for k in (0, 1, 2):
        region = ball(lam, x, k)
        wt = _tensor(eta, ball(lam, x, 3), region)
        assert even_certificate(wt) <= 1e-11
        for _ in range(10):
            a = parity_even(random_hermitian(rng, 2 ** len(region), True))
            assert wt.value(a / operator_norm(a)) <= 1e-11


def test_orbital_checks_fail_on_a_broken_chain(monkeypatch):
    """Without the empty-``f`` projector of the pair {4, 5} on [1, 8], the
    kernel is no longer one fixed state on that pair: every orbital row
    reads a witness far over budget, and both orbital checks fail."""
    def broken(lam):
        eta = orbital_interaction(lam)
        drop = next(t for t in eta.terms if t.support == Interval(4, 5))
        return Interaction([t for t in eta.terms if t is not drop],
                           eta.kind, eta.local_dim)

    monkeypatch.setattr(models, "orbital_interaction", broken)
    rep = cmd_ltqo(merged_config({"ltqo": {"aklt_lengths": [5]}}), {})
    verdicts = {label: ok for label, ok, _ in rep.checks}
    for side in ("beyond", "inside"):
        assert verdicts[f"orbital witnesses vanish {side} the cut-off"] \
            is False
    _, rows = rep.tables["ltqo.csv"]
    assert all(row[6] > 0.1 and row[8] == "fail" for row in rows
               if row[0] == "orbital")


def test_fermionic_rows_read_the_certificate_and_an_even_upper_end(
        monkeypatch):
    """A fermionic witness reads the exact-zero certificate and the upper
    end over the even columns alone, and forms no lower end: filling the
    odd columns of the centred map it builds moves neither, but moves the
    upper end read over every column."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fermionic row formed a lower end")

    monkeypatch.setattr(ltqo, "witness_bracket", refuse)
    eta, vol, _ = _volume("orbital")
    x, n, k = 4, 2, 1
    value, upper = ltqo_witness(eta, vol, x, n, k, {})
    wt = _tensor(eta, ball(vol, x, n), ball(vol, x, k))
    assert value == even_certificate(wt)
    assert upper == even_upper(wt) <= 1e-11
    dx = math.isqrt(wt.D.shape[1])
    odd = parity_even(np.ones((dx, dx))).ravel() == 0
    wt.D[:, odd] = 1.0
    assert witness_upper(wt) > 1.0
    monkeypatch.setattr(ltqo, "witness_tensor", lambda *args: wt)
    assert ltqo_witness(eta, vol, x, n, k, {}) == (value, upper)


def _even_reads_match(eta, lam, x, n, k, basis):
    """``ltqo_witness`` of a fermionic row, bit for bit the oracle reads
    over the even columns of the whole map of ``basis``."""
    wt = witness_tensor(basis, 2, ball(lam, x, n), ball(lam, x, k))
    return ltqo_witness(eta, lam, x, n, k, {}) == (even_certificate(wt),
                                                   even_upper(wt))


def test_fermionic_rows_match_the_even_column_reads(monkeypatch):
    """On every orbital row of the default ``ltqo`` grid, the witness read
    off the map whose odd columns were zeroed where it was built equals,
    bit for bit, the certificate over the even columns of the whole map
    and the upper end over its even-zeroed slices."""
    rows = []

    def checked(eta, lam, x, n, k, seen):
        if eta.kind == "fermion":
            vol = ball(lam, x, n)
            basis = kernel_basis_dense(eta.restricted(vol), vol)
            assert _even_reads_match(eta, lam, x, n, k, basis)
            rows.append((x, n, k))
        return ltqo_witness(eta, lam, x, n, k, seen)

    monkeypatch.setattr(pipelines, "ltqo_witness", checked)
    _, table = cmd_ltqo(merged_config({}), {}).tables["ltqo.csv"]
    assert rows == [tuple(row[1:4]) for row in table if row[0] == "orbital"]
    assert len(rows) > 10


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_fermionic_rows_match_the_even_column_reads_on_random_kernels(
        sites, rank, complex_, seed):
    """On a random orthonormal kernel of ``rank`` columns, each even or
    odd, on ``sites`` fermionic sites, and a random ball inside them, the
    witness equals the even-column reads bit for bit."""
    rng = np.random.default_rng(seed)
    lam = Interval(0, sites - 1)
    even, half = parity_matrix(sites) > 0, 2 ** (sites - 1)
    n_even = int(rng.integers(max(0, rank - half), min(rank, half) + 1))
    basis = np.zeros((2 ** sites, rank), complex if complex_ else float)
    for rows, cols in ((even, slice(0, n_even)), (~even, slice(n_even, rank))):
        q = np.linalg.qr(random_matrix(rng, half, complex_))[0]
        basis[rows, cols] = q[:, :cols.stop - cols.start]
    x = int(rng.integers(0, sites))
    k = int(rng.integers(0, 2))
    eta = Interaction([], "fermion", 2)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(ltqo, "kernel_basis_dense", lambda phi, vol: basis)
        assert _even_reads_match(eta, lam, x, sites, k, basis)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(2, 5), st.integers(1, 4),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_bracket_holds_every_witness_on_random_kernels(d, sites, rank,
                                                       complex_, seed):
    """On a random orthonormal kernel of ``rank`` columns and a random
    region of the volume, the bracket's lower end is ``value`` of its own
    observable, which is Hermitian and of norm at most 1, and it is at
    least each entry's reach, the trace norm of the Hermitian part of
    ``phase D_ab^T`` for each phase in ``{1, i}``; ``w(A)`` lies below the
    upper end for random ``A`` of norm 1, and so does the lower end."""
    rng = np.random.default_rng(seed)
    sites = min(sites, 4) if d == 3 else sites
    vol = Interval(0, sites - 1)
    a = int(rng.integers(0, sites))
    region = Interval(a, int(rng.integers(a, min(a + 2, sites - 1) + 1)))
    basis = np.linalg.qr(random_matrix(rng, d ** sites, complex_))[0]
    wt = witness_tensor(basis[:, :rank], d, vol, region)
    lower, upper, obs = witness_bracket(wt)
    assert lower == wt.value(obs)
    assert np.array_equal(obs, obs.conj().T) or \
        np.max(np.abs(obs - obs.conj().T)) <= 1e-14
    assert operator_norm(obs) <= 1.0 + 1e-14
    slack = 1e-14 * max(1.0, upper)
    assert lower <= upper + slack
    # the sign matrix of Re(phase X_ab) makes that entry the trace norm of
    # the Hermitian part of phase D_ab^T, and w(A) >= |X_ab|
    dx = d ** len(region)
    slices = wt.D.reshape(-1, dx, dx)
    entry = max(float(np.sum(np.abs(np.linalg.eigvalsh(h + h.conj().T)))) / 2
                for z in slices for h in (z.T, 1j * z.T))
    assert lower >= entry - slack
    for _ in range(5):
        obs = random_hermitian(rng, d ** len(region), complex_)
        assert wt.value(obs / operator_norm(obs)) <= upper + slack


@pytest.mark.parametrize("phase", [1.0, 1j, np.exp(0.3j)])
def test_bracket_is_tight_on_one_entry(phase):
    """A centred map of rank 2 with one entry ``x = tr(D_01^T A)``, where
    ``D_01 = phase S`` for a real symmetric ``S`` with eigenvalues of both
    signs, and its adjoint ``D_10 = conj(phase) S``: ``X(A)`` has
    eigenvalues ``±|x|``, so the supremum is ``|S|_1``, and both ends read
    it, whichever of the two phases reaches it (at ``phase = i`` the sign
    matrix of the real part reaches only ``|tr S|``)."""
    rng = np.random.default_rng(5)
    s = random_hermitian(rng, 4, False)
    reach = float(np.sum(np.abs(np.linalg.eigvalsh(s))))
    assert abs(np.trace(s)) < 0.9 * reach
    zero = np.zeros(16)
    d = np.stack([zero, phase * s.ravel(), np.conj(phase) * s.ravel(), zero])
    wt = ltqo.WitnessTensor(d.astype(complex), 2)
    lower, upper, _ = witness_bracket(wt)
    assert lower == pytest.approx(reach, rel=1e-14)
    assert upper == pytest.approx(reach, rel=1e-14)


def _aklt_rows(cfg):
    """``(length, x, n, k, value)`` of every AKLT row of ``cmd_ltqo``."""
    _, rows = cmd_ltqo(cfg, {}).tables["ltqo.csv"]
    return [(int(m[4:]), x, n, k, value)
            for m, x, n, k, _, _, value, *_ in rows if m.startswith("aklt")]


# the ascent's restarts and iterations per restart, the config's values
# before the one-pass bracket replaced the ascent in the runs
_RESTARTS, _ITERS = 6, 150
# the ascent's value on the (n = 3, k = 2) row at those restarts and
# iterations and the default seed, as ``ltqo.csv`` recorded it before the
# one-pass bracket; that ascent takes about 21 s
_ASCENT_3_2 = 0.39010064683705487


@pytest.mark.parametrize("patch", [{"lengths": [8, 10], "ltqo":
                                    {"aklt_lengths": [6]}}, {}],
                         ids=["all-L10", "default"])
def test_one_pass_lower_end_is_at_least_the_ascent(patch):
    """On every AKLT row of the ``all-L10`` workload and of the default
    config, the one-pass lower end is at least the ascent's value at
    ``_RESTARTS``, ``_ITERS`` and the default seed, less
    ``1e-15 max(1, value)``; the (n = 3, k = 2) row is compared with its
    recorded ascent value."""
    cfg = merged_config(patch)
    ascents = {}
    for length, x, n, k, value in _aklt_rows(cfg):
        if (n, k) == (3, 2):
            ascent = _ASCENT_3_2
        else:
            if (n, k) not in ascents:
                lam = _window(length)
                eta = aklt_interaction(lam)
                wt = _tensor(eta, ball(lam, x, n), ball(lam, x, k))
                ascents[n, k] = ascent_lower_bound(
                    wt, cfg["seeds"][0], _RESTARTS, _ITERS)[0]
            ascent = ascents[n, k]
        assert value >= ascent - 1e-15 * max(1.0, ascent)


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
    solved = {name: recorded(monkeypatch, name)
              for name in ("eigvalsh", "eigh")}
    ascent_lower_bound(wt, seed=3, restarts=3, iters=20)
    calls = {name: [a.shape[-1] for a in arrays]
             for name, arrays in solved.items()}
    steps = calls["eigh"].count(dx)
    assert wt.rank != dx and steps > 0
    assert calls["eigvalsh"] == [dx] * 3
    assert calls["eigh"].count(wt.rank) == 3 + steps
    assert len(calls["eigh"]) == 3 + 2 * steps


def test_each_witness_is_computed_once_per_run(monkeypatch):
    """One ``cmd_ltqo`` call solves each distinct volume kernel once and
    reads each distinct witness once: a bracket on spin-1 sites for each
    AKLT row, an upper end of a map with zeroed odd columns for each
    orbital row; no ascent runs.  The 6-site AKLT chain's rows are its
    5-site rows again, and every orbital row is a certified zero."""
    kernels, brackets, uppers, tensors = [], [], [], []

    def kernel(phi, vol):
        kernels.append((len(vol), tuple(
            (t.support.a - vol.a, len(t.support), t.op.matrix.tobytes())
            for t in phi.terms if t.support in vol)))
        return kernel_basis_dense(phi, vol)

    def tensor(basis, local_dim, vol, region):
        tensors.append((witness_tensor(basis, local_dim, vol, region),
                        region))
        return tensors[-1][0]

    def region_of(wt):
        return next(region for made, region in tensors if made is wt)

    def bracket(wt):
        brackets.append((wt.D.tobytes(), math.isqrt(wt.D.shape[1]),
                         region_of(wt)))
        return witness_bracket(wt)

    def upper(wt):
        p = parity_matrix(len(region_of(wt)))
        zeroed = math.isqrt(wt.D.shape[1]) == p.size and not np.any(
            wt.D[:, (p[:, None] != p[None, :]).ravel()])
        uppers.append((wt.D.tobytes(), zeroed))
        return witness_upper(wt)

    def refuse(*args, **kwargs):
        raise AssertionError("an ascent ran")

    monkeypatch.setattr(ltqo, "kernel_basis_dense", kernel)
    monkeypatch.setattr(ltqo, "witness_tensor", tensor)
    monkeypatch.setattr(ltqo, "witness_bracket", bracket)
    monkeypatch.setattr(ltqo, "witness_upper", upper)
    monkeypatch.setattr(ltqo, "ascent_lower_bound", refuse)
    rep = cmd_ltqo(merged_config({"ltqo": {"aklt_lengths": [5, 6]}}), {})
    assert rep.passed
    assert len(set(kernels)) == len(kernels) == 6
    assert len(set(brackets)) == len(brackets)
    assert len(set(uppers)) == len(uppers)
    _, rows = rep.tables["ltqo.csv"]
    kinds = {m: {row[5] for row in rows if row[0] == m}
             for m in ("orbital", "aklt5", "aklt6")}
    values = {m: [row[6] for row in rows if row[0] == m]
              for m in ("aklt5", "aklt6")}
    assert kinds == {"orbital": {"zero"}, "aklt5": {"bracket"},
                     "aklt6": {"bracket"}}
    assert len(brackets) == len(values["aklt5"])
    assert all(dx == 3 ** len(region) for _, dx, region in brackets)
    assert sum(zeroed for _, zeroed in uppers) == len(uppers) - len(brackets)
    assert values["aklt6"] == values["aklt5"] and len(values["aklt5"]) == 2
    assert all(row[9] >= row[6] for row in rows)


# the config line that refuses each config with a verdict over no row
NO_ROW_LINES = {
    '{"ltqo": {"aklt_lengths": []}}': "ltqo.aklt_lengths: chains of [] "
    "sites read no aklt witness: need one of 5 sites",
    '{"ltqo": {"aklt_lengths": [2, 3]}}': "ltqo.aklt_lengths: chains of "
    "[2, 3] sites read no aklt witness: need one of 5 sites",
    '{"ltqo": {"aklt_lengths": [4]}}': "ltqo.aklt_lengths: chains of [4] "
    "sites read no aklt witness: need one of 5 sites",
    '{"ltqo": {"length": 6}}': "ltqo.length: 6 sites read no orbital "
    "witness beyond the cut-off D = 3: need 7 sites",
    '{"D": 1}': "D: ltqo reads no orbital witness inside the cut-off D = 1: "
    "need D >= 2"}


@pytest.mark.parametrize("patch, label", [
    ({"ltqo": {"aklt_lengths": []}}, "aklt witness lower bounds decay "
                                     "geometrically"),
    ({"ltqo": {"aklt_lengths": [2, 3]}}, "aklt witness lower bounds decay "
                                         "geometrically"),
    ({"ltqo": {"aklt_lengths": [4]}}, "aklt witness lower bounds decay "
                                      "geometrically"),
    ({"ltqo": {"length": 6}}, "orbital witnesses vanish beyond the cut-off"),
    ({"D": 1}, "orbital witnesses vanish inside the cut-off")])
def test_a_witness_verdict_over_no_row_fails(patch, label, tmp_path, capsys):
    """A verdict with no witness row under it fails with the detail ``no
    witness row`` when ``cmd_ltqo`` is called directly: a spin-1 chain of
    at most 4 sites has no AKLT row, the 6-site orbital chain none at
    separation ``D = 3``, and ``D = 1`` leaves no orbital row inside the
    cut-off.  Every other verdict passes.  A run admits no such config:
    ``main`` exits 2 with one config line naming the key, before any
    pipeline or artifact."""
    rep = cmd_ltqo(merged_config(patch), {})
    assert [(name, detail) for name, ok, detail in rep.checks if not ok] \
        == [(label, "no witness row")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(patch), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ltqo", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"config error: {NO_ROW_LINES[json.dumps(patch)]}\n"
    assert not out.exists()


def test_the_ltqo_admission_rule_matches_the_witness_rows(monkeypatch):
    """Over ``ltqo.length`` 3-10, ``D`` 1-4 and the spin-1 chain lists
    ``[]``, ``[2, 3]``, ``[4]`` and ``[5]``, ``admit`` accepts an ``ltqo``
    run exactly when ``cmd_ltqo``, called directly, reads at least one
    witness row under every verdict.  The rows depend on the loops alone,
    so each witness is a stand-in zero."""
    monkeypatch.setattr(pipelines, "ltqo_witness",
                        lambda *args: (0.0, 0.0))
    for length in range(3, 11):
        for depth in range(1, 5):
            for aklt in ([], [2, 3], [4], [5]):
                cfg = merged_config({"D": depth, "ltqo": {
                    "length": length, "aklt_lengths": aklt}})
                rep = cmd_ltqo(cfg, {})
                rows = all(detail != "no witness row"
                           for _, _, detail in rep.checks)
                try:
                    admit(cfg, ["ltqo"])
                except ConfigError:
                    admitted = False
                else:
                    admitted = True
                assert admitted == rows, (length, depth, aklt)


def test_aklt_kernel_is_solved_without_the_whole_matrix():
    """The 7-site AKLT witness solves its kernel in ``S^z`` blocks (at most
    393 states): the memory it raises stays below one whole 2,187-sided
    float64 matrix (38.3 MB)."""
    lam = Interval(0, 6)
    _, peak = traced_peak(lambda: ltqo_witness(aklt_interaction(lam), lam,
                                               3, 3, 1, {}))
    assert peak < 2187 ** 2 * 8
