"""Acceptance suite: one test per advertised package guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee.  The module runs the seven pipelines of ``gaplab all``
once, in order, on the default config and one shared context, timing each.
Every test then asserts that the pipeline checks carrying its guarantee
passed, plus structural facts read from the report tables and the shared
flow, constants and sweep objects.  Each tolerance lives in the pipeline
that checks it; nothing here re-solves a spectrum, the flow, the
decomposition or the gap sweep.
"""

import time
from unittest.mock import patch

import numpy as np
import pytest

from gaplab import pipelines
from gaplab.config import _window, merged_config
from gaplab.pipelines import PIPELINES
from gaplab.interaction import fermion_to_spin
from gaplab.lattice import ball
from gaplab.models import orbital_interaction
from gaplab.operator_algebra import conserved_modulus, operator_norm
from gaplab.spectra import sigma_projection


@pytest.fixture(scope="module")
def assembled():
    """The collected-piece assemblies of the run, by site, with the stacks
    that the flow fixture drops once their norms are taken."""
    return {}


@pytest.fixture(scope="module")
def families():
    """The ball families of the run, by site, which the flow fixture lets
    go once it has read them."""
    return {}


@pytest.fixture(scope="module")
def done(assembled, families):
    """(cfg, ctx, reports by name, seconds by name) of one in-process run."""
    cfg, ctx = merged_config(None), {}
    reports, seconds = {}, {}

    def assembly(terms, family):
        assembled[family.x] = cli_assembly(terms, family)
        return assembled[family.x]

    def family(eta, lam, x, *args):
        families[x] = cli_family(eta, lam, x, *args)
        return families[x]

    cli_assembly, cli_family = pipelines.theta_assembly, \
        pipelines.resolution_family
    with patch.object(pipelines, "theta_assembly", assembly), \
            patch.object(pipelines, "resolution_family", family):
        for name, pipeline in PIPELINES.items():
            start = time.monotonic()
            reports[name] = pipeline(cfg, ctx)
            seconds[name] = time.monotonic() - start
    return cfg, ctx, reports, seconds


def passed(rep, prefix: str) -> int:
    """Number of checks of ``rep`` labelled ``prefix...``; all must pass."""
    hits = [(label, ok, detail) for label, ok, detail in rep.checks
            if label.startswith(prefix)]
    assert hits, f"{rep.name} has no check {prefix!r}"
    failed = [f"{label} ({detail})" for label, ok, detail in hits if not ok]
    assert not failed, f"{rep.name}: {failed}"
    return len(hits)


def rows(rep, filename: str) -> list[dict]:
    header, table = rep.tables[filename]
    return [dict(zip(header, row)) for row in table]


def test_01_orbital_model_structure(done):
    """Ground energy 0, gap exactly 1, kernel 2^|free|, edge-supported
    auxiliary vectors — on chains of 6 to 12 sites, within 60 seconds."""
    cfg, _, reports, seconds = done
    rep = reports["validate"]
    assert passed(rep, "orbital structure on ") == 2 * len(cfg["lengths"])
    orbital = [r for r in rows(rep, "validate.csv") if r["model"] == "orbital"]
    assert sorted({r["length"] for r in orbital}) == cfg["lengths"]
    for r in orbital:
        k = r["kernel_dim"]
        assert k == r["kernel_expected"] and k & (k - 1) == 0
    assert seconds["validate"] <= 60.0


def test_02_parity_ltqo_step(done):
    """Even-sector witnesses on the paired-orbital chain: certified zeros on
    both sides of the cut-off D."""
    cfg, _, reports, _ = done
    rep = reports["ltqo"]
    passed(rep, "orbital witnesses vanish beyond the cut-off")
    passed(rep, "orbital witnesses vanish inside the cut-off")
    orbital = [r for r in rows(rep, "ltqo.csv") if r["model"] == "orbital"]
    assert {r["kind"] for r in orbital} == {"zero"}
    seps = {int(r["separation"]) for r in orbital}
    assert min(seps) < cfg["D"] <= max(seps)   # both sides probed


def test_03_aklt_ltqo_decay(done):
    """Spin-1 projector chain: witness lower bounds under 1.5 (1/3)^sep,
    ground energy zero, four kernel states."""
    cfg, _, reports, _ = done
    lengths = cfg["ltqo"]["aklt_lengths"]
    assert passed(reports["validate"], "aklt structure on ") == len(lengths)
    rep = reports["ltqo"]
    passed(rep, "aklt witness lower bounds decay geometrically")
    models = {r["model"] for r in rows(rep, "ltqo.csv")}
    assert {f"aklt{n}" for n in lengths} <= models


def test_04_fermion_spin_spectral_equivalence(done):
    """The spectrum of the spin image of the fermionic chain agrees with the
    closed-form free-fermion spectrum to 1e-10 on chains up to 10 sites;
    every transformed term is even."""
    cfg, _, reports, _ = done
    short = [n for n in cfg["lengths"] if n <= 10]
    assert passed(reports["validate"], "fermion/spin spectra on ") \
        == 2 * len(short)
    for lam in [_window(n, offset) for n in short for offset in (0, 1)]:
        eta = orbital_interaction(lam)
        assert conserved_modulus([t.op for t in eta.terms], (2,)) == 2
        spin = fermion_to_spin(eta)
        assert [t.support for t in spin.terms] \
            == [t.support for t in eta.terms]


def test_05_regrouping_exactness(done):
    """Interval regrouping of 20 seeded interactions reproduces every
    subinterval Hamiltonian to 1e-12 and never increases the decay norm."""
    _, _, reports, _ = done
    rep = reports["validate"]
    passed(rep, "regrouping exact on all subintervals (20 trials)")
    passed(rep, "regrouped norm never exceeds the original")
    assert len(rows(rep, "regroup.csv")) == 20


def test_06_spectral_flow_intertwining(done):
    """The flow unitary transports the kernel projector to 1e-6, anchored
    pieces commute with it, and both generator routes agree."""
    _, ctx, reports, _ = done
    fb = ctx["flow"]
    assert len(fb["lam"]) == 8 and fb["flow"].eps <= 0.02
    rep = reports["flow"]
    passed(rep, "projector transported along the flow")
    passed(rep, "anchored pieces commute with the kernel projector")
    passed(rep, "filter and time-quadrature generators agree")


def test_07_decomposition_identities(done):
    """Interior/boundary split reconstructs the transported coupling to
    1e-10; the collected pieces reproduce the diagonal block and are
    annihilated by their ball projectors."""
    _, ctx, reports, _ = done
    rep = reports["flow"]
    passed(rep, "interior/boundary split reconstructs the coupling")
    passed(rep, "collected pieces reproduce the diagonal block")
    passed(rep, "collected pieces annihilated by their ball projectors")
    thetas = ctx["flow"]["thetas"]
    assert thetas
    for th in thetas.values():
        assert set(th.beta_norms) == set(range(3, th.r_x + 1))


def test_08_resolution_identities(done, assembled, families):
    """Ball resolutions sum to the identity with the partial-sum and
    annihilation laws; sign-pattern projections resolve the identity,
    are orthogonal, and commute with the collected pieces."""
    _, ctx, reports, _ = done
    fb, rep = ctx["flow"], reports["flow"]
    passed(rep, "spectral resolutions exact")
    passed(rep, "sign-pattern projections resolve the identity")
    identities = {r["identity"] for r in rows(rep, "resolutions.csv")}
    assert "sign_patterns_n1" in identities

    # radius-3 patterns commute with the collected pieces they annihilate
    for x in (3, 4):
        family, theta = families[x], assembled[x].theta_beta[3]
        members = [(x, ball(fb["lam"], x, 3), family.locals[2])]
        for bit in (0, 1):
            s = sigma_projection(members, {x: bit})
            assert operator_norm(s @ theta - theta @ s) <= 1e-10


def test_09_relative_form_bound(done):
    """No violations of |<v, Phi2 v>| <= delta eps + beta eps <v, H v> over
    1000 seeded unit vectors plus every eigenvector, at three couplings."""
    _, _, reports, _ = done
    rep = reports["bounds"]
    assert passed(rep, "form bound holds at coupling ") == 3
    passed(rep, "no sampled form-bound violations")
    table = rows(rep, "formbound.csv")
    assert [round(r["eps"], 12) for r in table] == [0.005, 0.01, 0.02]
    assert all(r["delta"] > 0 and r["beta"] > 0 for r in table)


def test_10_constants_ledger_and_gap_non_closing(done):
    """Certified constants are finite with reported tails, the two slope
    arrangements agree, and measured gaps dominate the certified line
    wherever it is positive (explicitly vacuous elsewhere)."""
    _, ctx, reports, _ = done
    bc = ctx["constants"]["bc"]
    for value in (bc.j.j1, bc.j.j2, bc.j.j3, bc.m, bc.eps_threshold,
                  bc.beta, bc.alpha):
        assert np.isfinite(value) and value > 0
    assert len(bc.j.tails) == 3
    assert all(np.isfinite(t) and t >= 0 for t in bc.j.tails)
    passed(reports["bounds"], "both arrangements of the slope constant agree")
    passed(reports["bounds"], "far-offset arrangement is dominated")

    rep = reports["gapsweep"]
    passed(rep, "measured gap stays open on the sweep")
    passed(rep, "measured gap dominates the certified bound where it bites")
    passed(reports["highergaps"], "window between spectral branches stays open")
    table = rows(rep, "gapsweep.csv")
    assert list(ctx["sweep"]) == [8, 10, 12]
    for length in (8, 10, 12):
        statuses = {r["status"] for r in table if r["length"] == length}
        assert {"dominates", "vacuous"} <= statuses
    eps_star = bc.eps_threshold
    grid = {r["eps"] for r in table}
    assert {0.0, 0.5 * eps_star, 0.9 * eps_star, 0.05} <= grid
    assert len([e for e in grid if e <= min(0.05, eps_star)]) >= 3


def test_11_low_cluster_diameter_trend(done):
    """With the perturbation pushed deeper into the interior, the diameter
    of the tracked low cluster never grows (1e-8 slack), and it is exactly
    zero at coupling zero."""
    cfg, _, reports, _ = done
    rep = reports["sp0scan"]
    passed(rep, "low-cluster diameter non-increasing in the interior depth")
    passed(rep, "low-cluster diameter vanishes at coupling zero")
    for eps in (0.0, cfg["sp0"]["eps"]):
        scan = [(r["length"], r["D"]) for r in rows(rep, "sp0scan.csv")
                if r["eps"] == eps]
        assert scan == [(12, 2), (12, 3), (12, 4), (12, 5)]
