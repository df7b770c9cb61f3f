import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gaplab.cli as cli
from gaplab import artifacts, config, ffunction, interaction, models, \
    pipelines, spectral_flow, stability_bounds
from gaplab.artifacts import Report, _cell, summary_lines, write_artifacts
from gaplab.cli import build_parser, main
from gaplab.config import DEFAULTS, ConfigError, admit, load_config, \
    merged_config
from gaplab.pipelines import PIPELINES, cmd_flow, cmd_sp0scan, cmd_validate, \
    flow_bundle, run
from gaplab.interaction import Term, random_interaction, to_json
from gaplab.lattice import Interval
from gaplab.models import aklt_interaction, kernel_data, orbital_interaction
from gaplab.operator_algebra import LocalOperator, conserved_modulus, \
    operator_norm
from gaplab.spectra import gap_curve
from oracles import norm_oracle, telescope_oracle, traced_peak


# --- configuration ------------------------------------------------------------------


def test_defaults_round_trip():
    cfg = merged_config(None)
    assert cfg == DEFAULTS
    cfg["lengths"].append(99)
    assert DEFAULTS["lengths"] == [6, 8, 10, 12]    # no aliasing


def test_readme_defaults_block_is_the_config_defaults():
    """README's ``json`` block parses to ``DEFAULTS`` exactly, every number
    of the same type, so the defaults it documents are the ones a run
    merges a config over."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```json\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    assert json.dumps(json.loads(blocks[0]), sort_keys=True) == \
        json.dumps(DEFAULTS, sort_keys=True)


def test_deep_merge_preserves_siblings():
    cfg = merged_config({"flow": {"eps": 0.01}})
    assert cfg["flow"]["eps"] == 0.01
    assert cfg["flow"]["checkpoints"] == DEFAULTS["flow"]["checkpoints"]


def test_unknown_field_is_reported():
    with pytest.raises(ConfigError, match=r"flow\.step_count: unknown"):
        merged_config({"flow": {"step_count": 5}})


def test_type_errors_are_reported():
    with pytest.raises(ConfigError, match="gamma: expected a number"):
        merged_config({"gamma": "wide"})
    with pytest.raises(ConfigError, match="expected a list"):
        merged_config({"lengths": 8})
    with pytest.raises(ConfigError, match="D: expected an integer"):
        merged_config({"D": True})
    # every field whose default is an integer takes integers only
    with pytest.raises(ConfigError) as err:
        merged_config({"lengths": [6.5], "D": 3.0, "seeds": [7.5],
                       "eps_grid": {"steps": 11.0},
                       "constants": {"truncation": 2000.5},
                       "flow": {"length": 8.0, "max_radius": 2.0,
                                "checkpoints": 33.0},
                       "ltqo": {"length": 8.0, "aklt_lengths": [6.0]},
                       "sp0": {"length": 12.0, "depths": [2.5]}})
    lines = str(err.value).splitlines()
    assert len(lines) == 12
    assert all(line.endswith(": expected an integer") for line in lines)


def test_structural_errors_short_circuit_semantic_ones():
    try:
        merged_config({"eps_grid": {"stop": 0.0, "bogus": 1}})
    except ConfigError as exc:
        msg = str(exc)
        assert "bogus: unknown field" in msg
        assert "stop > 0" not in msg         # semantic pass never ran
    else:
        pytest.fail("expected a ConfigError")


@pytest.mark.parametrize("patch,fragment", [
    ({"eps_grid": {"start": 0.0}}, "eps_grid.start: unknown field"),
    ({"eps_grid": {"steps": 1}}, "steps >= 2"),
    ({"eps_grid": {"stop": 0.0}}, "stop > 0"),
    ({"D": 0}, "interior depth"),
    ({"lengths": [6, 1]}, "at least 2 sites"),
    ({"lengths": []}, "at least 2 sites"),
    ({"seeds": []}, "at least one seed"),
    ({"gamma": 0.0}, "must be positive"),
    ({"model": "ising"}, "unknown model spec"),
    ({"constants": {"C": -1.0}}, "positive number or null"),
    ({"constants": {"C": True}}, "positive number or null"),
    ({"flow": {"checkpoints": 2}}, "at least 3 grid points"),
    ({"outputs": {"formats": ["yaml"]}}, "unsupported"),
    ({"model": "aklt"}, "unknown model spec"),
    ({"lengths": [14, 15]}, r"lengths: chains of \[15\] sites exceed"),
    ({"flow": {"length": 15}}, "flow.length: .* exceed the dense limit"),
    ({"ltqo": {"length": 15}}, "ltqo.length: .* exceed the dense limit"),
    ({"ltqo": {"aklt_lengths": [9, 10]}}, r"aklt_lengths: chains of \[10\]"),
    ({"sp0": {"length": 15}}, "sp0.length: .* exceed the dense limit"),
    ({"flow": {"eps": 0.0}}, "flow.eps: must be positive"),
    ({"flow": {"ode_tol": 0.0}}, "flow.ode_tol: must be positive"),
    ({"ltqo": {"restarts": 6}}, "ltqo.restarts: unknown field"),
    ({"ltqo": {"iters": 150}}, "ltqo.iters: unknown field"),
    ({"sp0": {"depths": []}}, "sp0.depths: need at least one depth"),
    ({"sp0": {"depths": [2, -1]}}, "sp0.depths: depths must be non-negative"),
    ({"sp0": {"eps": 0.0}}, "sp0.eps: must be positive"),
    ({"flow": {"window": "bump"}}, "flow.window: unknown field"),
    ({"constants": {"F": {"kappa": 2}}}, "constants.F: kappa must exceed 2"),
    ({"constants": {"F": {"s": 2}}}, r"constants.F: .* s in \(0, 1\]"),
    ({"constants": {"F": {"K": -1}}}, "constants.F: .* needs K >= 0"),
    ({"constants": {"F": {"c": 0}}}, "constants.F: L and c must be positive"),
    ({"constants": {"F": {"L": 0}}}, "constants.F: L and c must be positive"),
    ({"constants": {"truncation": 1}},
     "constants.truncation: truncation does not clear the step profile"),
    ({"constants": {"truncation": 5}},
     "constants.truncation: truncation does not clear the step profile"),
    ({"flow": {"max_radius": -1}}, "flow.max_radius: must be non-negative"),
    ({"flow": {"length": 3}}, r"flow.length: chains of \[3\] sites are too"),
    ({"flow": {"length": 4}}, r"flow.length: chains of \[4\] sites are too"),
    ({"lengths": [2]}, r"lengths: chains of \[2\] sites are too short"),
    ({"lengths": [3]}, r"lengths: chains of \[3\] sites are too short"),
    ({"sp0": {"length": 2}}, r"sp0.length: chains of \[2\] sites are too"),
    ({"ltqo": {"length": 2}}, r"ltqo.length: chains of \[2\] sites are too"),
    ({"ltqo": {"aklt_lengths": [1]}},
     r"aklt_lengths: chains of \[1\] sites are too short"),
    ({"constants": {"F": {"K": 0}}},
     "constants.F: gamma, nu, K must be positive"),
    ({"seeds": [7, 11]}, "seeds: every pipeline reads one seed; got 2"),
    ({"flow": {"window": "cosine"}}, "flow.window: unknown field"),
    ({"higher": {"mu": 1.0}}, "higher: need mu above nu"),
    ({"higher": {"nu": 3.0}}, "higher: need mu above nu"),
    ({"eps_grid": {"steps": 10 ** 12}},
     "eps_grid.steps: at most 1000 couplings; got 1000000000000"),
    ({"flow": {"checkpoints": 10 ** 12}},
     "flow.checkpoints: at most 10000 grid points; got 1000000000000"),
])
def test_semantic_validation(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        admit(merged_config(patch), PIPELINES)


def test_a_short_chain_names_the_sites_the_model_needs():
    """The orbital model admits lengths at its own local dimension, and the
    refusal names the sites its chain needs."""
    with pytest.raises(ConfigError,
                       match=r"lengths: chains of \[3\] sites are too short: "
                             "need 4 sites for the orbital chain"):
        admit(merged_config({"lengths": [3]}), ["validate"])


def test_model_file_spec_and_explicit_c_pass():
    cfg = merged_config({"model": "file:pert.json", "constants": {"C": 2.5}})
    assert cfg["model"] == "file:pert.json"
    assert cfg["constants"]["C"] == 2.5


def test_load_config_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    rootlist = tmp_path / "list.json"
    rootlist.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="root must be an object"):
        load_config(rootlist)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"gamma": 0.9}), encoding="utf-8")
    assert load_config(good)["gamma"] == 0.9


# --- deterministic formatting ---------------------------------------------------------


def test_cell_formatting():
    assert _cell(0.1) == "0.1"
    assert _cell(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
    assert _cell(np.int64(5)) == "5" and _cell(7) == "7"
    assert _cell("orbital") == "orbital"


def test_report_and_summary():
    rep = Report("demo")
    assert rep.check("gap positive", True, "gamma=1.0")
    assert not rep.check("norm bounded", False)
    assert not rep.passed
    lines = summary_lines([rep])
    assert lines == ["[PASS] demo: gap positive  (gamma=1.0)",
                     "[FAIL] demo: norm bounded"]


def test_write_artifacts_formats(tmp_path):
    rep = Report("demo")
    rep.check("ok", True)
    rep.table("demo.csv", ["x", "value", "status"],
              [(1, 0.25, "pass"), (2, 1.0 / 3.0, "fail")])
    rep.ledger = {"b": 2, "a": {"nested": 0.5}}

    for sub in ("both", "csv"):
        (tmp_path / sub).mkdir()
    both = write_artifacts([rep], tmp_path / "both", ("csv", "json"))
    assert (both / "demo.csv").read_text(encoding="utf-8") == (
        "x,value,status\n1,0.25,pass\n2,0.3333333333333333,fail\n")
    ledger = json.loads((both / "constants.json").read_text(encoding="utf-8"))
    assert ledger == {"a": {"nested": 0.5}, "b": 2}
    assert (both / "summary.txt").read_text(encoding="utf-8") == \
        "[PASS] demo: ok\n"

    csv_only = write_artifacts([rep], tmp_path / "csv", ("csv",))
    assert not (csv_only / "constants.json").exists()
    assert (csv_only / "demo.csv").exists()


def test_run_emits_byte_identical_artifacts(tmp_path):
    cfg = merged_config({"flow": {"length": 6, "max_radius": 1,
                                  "checkpoints": 5, "eps": 0.01}})
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        reports = run(cfg, ["flow"], out)
        assert all(rep.passed for rep in reports)
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "flow.csv" in names and "summary.txt" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# --- entry point ----------------------------------------------------------------------


def test_main_requires_a_command(capsys):
    assert main([]) == 2
    assert "command is required" in capsys.readouterr().err


def test_main_flags_config_errors(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"gamma": -1.0}), encoding="utf-8")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_rejects_unloadable_model_file(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    no_terms = tmp_path / "no_terms.json"
    no_terms.write_text(json.dumps({"kind": "spin"}), encoding="utf-8")
    # a fermionic model with one odd term (a hopping term of the spin
    # picture, X on a site) is refused as it loads
    lam = Interval(0, 3)
    data = json.loads(to_json(orbital_interaction(lam)))
    data["terms"].append({"support": [1, 1], "anchor": 1, "radius": None,
                          "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]})
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps(data), encoding="utf-8")
    # a spin model with 5|00><11| on every bond of [0, 7]: its lower
    # triangle, all that a Hermitian solver reads, is zero
    flip = [[0, 0]] * 16
    flip[3] = [5, 0]
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"kind": "spin", "local_dim": 2, "terms": [
        {"support": [x, x + 1], "anchor": x, "radius": None, "matrix": flip}
        for x in range(7)]}), encoding="utf-8")
    errs = []
    for model in (tmp_path / "missing.json", bad_json, no_terms, skew, odd):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": f"file:{model}"}),
                       encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model: cannot load")
        assert err.count("\n") == 1
        errs.append(err)
    assert "ValueError: term on Interval(a=0, b=1) is not Hermitian" \
        in errs[-2]
    assert "ParityError: fermionic operator on Interval(a=1, b=1) is not even" \
        in errs[-1]


def test_a_model_file_is_admitted_at_its_own_local_dimension(tmp_path,
                                                             capsys):
    """A ``file:`` model's ``lengths`` are checked against the dense limit
    at the model's local dimension: the spin-1 chain at 10 sites (59,049
    states) is one config line, exit 2, from ``main`` and from
    ``cmd_validate`` alike, and no solve starts."""
    model = tmp_path / "aklt.json"
    model.write_text(to_json(aklt_interaction(Interval(0, 11))),
                     encoding="utf-8")
    user = {"model": f"file:{model}", "lengths": [6, 10]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user), encoding="utf-8")
    line = "lengths: chains of [10] sites exceed the dense limit of 19683 " \
        "states"
    assert main(["validate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    with pytest.raises(ConfigError) as refused:
        cmd_validate(merged_config(user), {})
    assert str(refused.value) == line


def test_main_validates_a_model_file(tmp_path, capsys):
    lam = Interval(0, 5)
    model = tmp_path / "orbital.json"
    model.write_text(to_json(orbital_interaction(lam)), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": f"file:{model}", "lengths": [4, 6]}),
                   encoding="utf-8")
    assert main(["validate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.count("[PASS] validate: custom") == 2


def test_a_model_file_is_read_once_per_run(tmp_path, monkeypatch, capsys):
    """``main`` parses a ``file:`` model once: its admission at its own
    local dimension and ``validate`` read the one interaction."""
    real, parsed = interaction.from_json, []

    def counted(text):
        parsed.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("gaplab") and vars(module).get("from_json") is real:
            monkeypatch.setattr(module, "from_json", counted)
    model = tmp_path / "orbital.json"
    model.write_text(to_json(orbital_interaction(Interval(0, 5))),
                     encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": f"file:{model}", "lengths": [4, 6]}),
                   encoding="utf-8")
    assert main(["validate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(parsed) == 1


def test_a_model_files_gap_is_the_step_above_its_kernel(tmp_path):
    """A ``file:`` model's ``validate.csv`` rows read the gap above the
    kernel, ``E_k - E_{k-1}``, as the orbital rows do: the orbital chain on
    [0, 5] saved to a file reads the orbital row's gap, and a model with no
    kernel reads ``nan``, not its ground energy, and fails."""
    lam = Interval(0, 5)
    orbital = tmp_path / "orbital.json"
    orbital.write_text(to_json(orbital_interaction(lam)), encoding="utf-8")
    frustrated = tmp_path / "random.json"
    frustrated.write_text(to_json(random_interaction(Interval(0, 11), seed=3,
                                                     n_terms=8)),
                          encoding="utf-8")

    def validate(patch):
        rep = cmd_validate(merged_config(patch), {})
        return rep, rep.tables["validate.csv"][1]

    _, rows = validate({"lengths": [6], "ltqo": {"aklt_lengths": [4]}})
    (ref,) = [row for row in rows if row[:3] == ("orbital", 6, 0)]
    rep, (row,) = validate({"model": f"file:{orbital}", "lengths": [6]})
    assert rep.passed and row[5] == ref[5] == 1
    assert row[4] == pytest.approx(ref[4], rel=0, abs=1e-14)
    rep, rows = validate({"model": f"file:{frustrated}", "lengths": [6, 8]})
    assert not rep.passed and len(rows) == 2
    for _, _, _, ground, gap, kdim, *_, status in rows:
        assert ground < -1.0 and kdim == 0 and status == "fail"
        assert np.isnan(gap)


@pytest.mark.parametrize("command", ["ltqo", "flow", "bounds", "gapsweep",
                                     "highergaps", "sp0scan", "all"])
def test_a_model_file_is_refused_by_every_pipeline_but_validate(
        tmp_path, monkeypatch, capsys, command):
    """Only ``validate`` reads a ``file:`` model; any other pipeline would
    run the orbital chain in its place, so the run exits 2 before the first
    pipeline, with one line naming the pipelines and the model, and writes
    no artifact."""
    called = []
    monkeypatch.setattr(pipelines, "PIPELINES", {
        name: lambda cfg, ctx, name=name: called.append(name)
        for name in PIPELINES})
    lam = Interval(0, 5)
    model = tmp_path / "orbital.json"
    model.write_text(to_json(orbital_interaction(lam)), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": f"file:{model}"}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    names = [n for n in PIPELINES if n != "validate"] \
        if command == "all" else [command]
    assert capsys.readouterr().err == (
        f"config error: {', '.join(names)}: only validate runs the model "
        f"file:{model}\n")
    assert called == [] and not out.exists()


def test_main_reports_an_uncertified_step_as_a_failed_check(tmp_path,
                                                             capsys):
    # a filter width above the tracked gap stops the flow before any check
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 5.0, "flow": {
        "length": 6, "max_radius": 1, "checkpoints": 5}}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "[FAIL] flow: not certified  (tracked gap" in stdout
    assert (out / "summary.txt").read_text(encoding="utf-8") == \
        stdout.splitlines()[0] + "\n"


def test_an_empty_side_of_the_higher_window_is_one_failed_check(tmp_path,
                                                                capsys):
    """A window with no eigenvalue at or above ``mu`` at coupling 0 is one
    failed check naming the volume, not a traceback: the other checks still
    run, the artifacts are written and the run exits 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lengths": [8], "higher": {"mu": 50.0},
        "flow": {"length": 6, "max_radius": 1, "checkpoints": 5}}),
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["highergaps", "--config", str(cfg), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("[FAIL] highergaps: window has spectrum on both "
                        "sides at length 8  (no spectrum at or above "
                        "mu = 50.0 at coupling zero)")
    assert sum(line.startswith("[FAIL]") for line in lines) == 1
    assert (out / "summary.txt").exists()
    assert (out / "highergaps.csv").read_text(encoding="utf-8") == \
        "length,eps,gamma_window,gamma_bound,status\n"


def test_the_configured_truncation_reaches_every_series(tmp_path,
                                                        monkeypatch):
    """At a truncation other than the default, every certified series, the
    lattice norm under ``C_F``, the regrouped decay and the J sums, is cut
    there, in the config check and in the pipelines alike, and the ledger
    names it."""
    received = {"norm_sum": [], "regroup_decay": [], "j_constants": []}

    def spy(module, name):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            bound = inspect.signature(original).bind(*args, **kwargs)
            bound.apply_defaults()
            received[name].append(bound.arguments["truncation"])
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)

    spy(ffunction, "norm_sum")
    spy(config, "regroup_decay")
    spy(pipelines, "regroup_decay")
    spy(config, "j_constants")
    spy(stability_bounds, "j_constants")
    cfg = merged_config({
        "lengths": [8], "ltqo": {"aklt_lengths": [4]},
        "constants": {"truncation": 500},
        "flow": {"length": 6, "max_radius": 1, "checkpoints": 5}})
    reports = run(cfg, ["validate", "bounds"], tmp_path)
    assert all(rep.passed for rep in reports)
    for name, truncations in received.items():
        assert truncations and set(truncations) == {500}, name
    ledger = json.loads((tmp_path / "constants.json").read_text(
        encoding="utf-8"))
    assert ledger["inputs"]["truncation"] == 500


def test_a_truncation_past_the_cap_is_refused_before_any_series(
        tmp_path, monkeypatch, capsys):
    """A ``constants.truncation`` one past 10^6 exits 2 with one
    ``constants.truncation`` line before any series is summed, any pipeline
    runs or any artifact is written; at the cap itself the series are
    summed.  The series are spies that raise if called, so nothing of the
    size of the truncation is allocated."""
    def refuse(*args, **kwargs):
        raise AssertionError("a series was summed")

    for module, name in ((config, "j_constants"), (ffunction, "norm_sum"),
                         (config, "regroup_decay")):
        monkeypatch.setattr(module, name, refuse)
    called = _recording_pipelines(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constants": {"truncation": 10 ** 6 + 1}}),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: constants.truncation: at most 1000000 terms; "
        "got 1000001\n")
    assert called == [] and not out.exists()
    with pytest.raises(AssertionError, match="a series was summed"):
        merged_config({"constants": {"truncation": 10 ** 6}})


def test_bounds_runs_with_a_steep_weight(tmp_path):
    """A weight whose decay function underflows within the lattice sums
    (``K = 2``) still yields the constants, their checks and artifacts."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lengths": [8], "constants": {"F": {"K": 2.0}},
        "flow": {"length": 6, "max_radius": 1, "checkpoints": 5}}),
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.txt").read_text(encoding="utf-8").startswith(
        "[PASS] bounds: ")
    assert (out / "constants.json").exists()


def test_a_supplied_flow_constant_below_the_measured_one_is_refused(
        tmp_path, capsys):
    """``constants.C`` below the flow constant the run measures is not
    admissible: the three pipelines that build on it report one failed
    "not certified" check each and the run exits 1; above it, every check
    passes."""
    small = {"lengths": [8],
             "flow": {"length": 6, "max_radius": 1, "checkpoints": 5},
             "ltqo": {"length": 7, "aklt_lengths": [6]},
             "sp0": {"length": 8}}
    measured = pipelines.constants_bundle(merged_config(small),
                                          {})["c_measured"]
    stability = ("bounds", "gapsweep", "highergaps")
    for c, code in ((0.5 * measured, 1), (2.0 * measured, 0)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**small, "constants": {"C": c}}),
                       encoding="utf-8")
        out = tmp_path / f"out-{code}"
        assert main(["all", "--config", str(cfg), "--out", str(out)]) == code
        lines = capsys.readouterr().out.splitlines()[:-1]
        failed = [line for line in lines if not line.startswith("[PASS]")]
        if code:
            assert [line.split(":")[0] for line in failed] == \
                [f"[FAIL] {name}" for name in stability]
            assert all(f"not certified  (supplied flow constant C = {c:.6g} "
                       f"is below the measured {measured:.6g})" in line
                       for line in failed)
        else:
            assert failed == []
            assert {line.split(":")[0] for line in lines} >= \
                {f"[PASS] {name}" for name in stability}


@pytest.mark.parametrize("command", ["all", "bounds", "gapsweep",
                                     "highergaps"])
def test_short_chains_stop_the_stability_pipelines_before_any_runs(
        tmp_path, monkeypatch, capsys, command):
    """A config whose chains are all too short for the stability pipelines
    exits 2 before the first pipeline runs, so no finished work is thrown
    away; ``validate`` alone still takes it."""
    called = []

    def record(name):
        def pipeline(cfg, ctx):
            called.append(name)
            return Report(name)
        return pipeline

    monkeypatch.setattr(pipelines, "PIPELINES",
                        {name: record(name) for name in PIPELINES})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lengths": [6]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: lengths: no chain exceeds diameter 2 D" in \
        capsys.readouterr().err
    assert called == [] and not out.exists()
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    assert called == ["validate"]


def _recording_pipelines(monkeypatch) -> list:
    """Replace every pipeline by one that records its name; the list."""
    called = []
    monkeypatch.setattr(pipelines, "PIPELINES", {
        name: lambda cfg, ctx, name=name: called.append(name) or Report(name)
        for name in PIPELINES})
    return called


# each refusal ``admit`` makes: a command, a config patch ("{model}" is a
# model file of the orbital chain) and the config lines of its refusal
REFUSALS = {
    "unknown-model": ("all", {"model": "ising"},
                      ["model: unknown model spec 'ising'"]),
    "unreadable-model": ("validate", {"model": "file:{missing}"},
                         ["model: cannot load {missing}: FileNotFoundError: "
                          "[Errno 2] No such file or directory: "
                          "'{missing}'"]),
    "dense-limit": ("validate", {"lengths": [14, 15]},
                    ["lengths: chains of [15] sites exceed the dense limit "
                     "of 19683 states"]),
    "short-chains": ("sp0scan", {"flow": {"length": 4},
                                 "sp0": {"length": 2},
                                 "ltqo": {"aklt_lengths": [1, 6]}},
                     ["flow.length: chains of [4] sites are too short: need "
                      "an interior two sites deep",
                      "sp0.length: chains of [2] sites are too short: need a "
                      "full orbital pair",
                      "ltqo.aklt_lengths: chains of [1] sites are too short: "
                      "need a bond"]),
    "model-pipelines": ("ltqo", {"model": "file:{model}"},
                        ["ltqo: only validate runs the model file:{model}"]),
    "ltqo-inside": ("ltqo", {"D": 1},
                    ["D: ltqo reads no orbital witness inside the cut-off "
                     "D = 1: need D >= 2"]),
    "ltqo-beyond": ("all", {"ltqo": {"length": 6}},
                    ["ltqo.length: 6 sites read no orbital witness beyond "
                     "the cut-off D = 3: need 7 sites"]),
    "ltqo-aklt": ("ltqo", {"ltqo": {"aklt_lengths": [4]}},
                  ["ltqo.aklt_lengths: chains of [4] sites read no aklt "
                   "witness: need one of 5 sites"]),
    "stability-lengths": ("gapsweep", {"lengths": [6]},
                          ["lengths: no chain exceeds diameter 2 D for the "
                           "stability pipelines"]),
    "bulk-radius": ("bounds", {"flow": {"max_radius": 0}},
                    ["flow.max_radius: the stability pipelines need a bulk "
                     "perturbation, and the 8-site flow chain has none at "
                     "radius 0"]),
    "three-keys": ("all", {"D": 1, "ltqo": {"aklt_lengths": [4]},
                           "flow": {"max_radius": 0}},
                   ["D: ltqo reads no orbital witness inside the cut-off "
                    "D = 1: need D >= 2",
                    "ltqo.aklt_lengths: chains of [4] sites read no aklt "
                    "witness: need one of 5 sites",
                    "flow.max_radius: the stability pipelines need a bulk "
                    "perturbation, and the 8-site flow chain has none at "
                    "radius 0"]),
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_a_refused_run_enters_no_pipeline(tmp_path, monkeypatch, capsys,
                                          refusal):
    """Each refusal ``admit`` makes stops ``main`` with exit 2 and one
    stderr line per refused key, before any pipeline is called or the
    output directory is made."""
    command, patch, lines = REFUSALS[refusal]
    model = tmp_path / "orbital.json"
    model.write_text(to_json(orbital_interaction(Interval(0, 5))),
                     encoding="utf-8")
    names = {"model": model, "missing": tmp_path / "missing.json"}
    patch = json.loads(json.dumps(patch).replace("{model}", str(model))
                       .replace("{missing}", str(names["missing"])))
    lines = [line.format(**names) for line in lines]
    called = _recording_pipelines(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(patch), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: " + "\n".join(lines) + "\n"
    assert called == [] and not out.exists()


def test_a_run_is_admitted_once(tmp_path, monkeypatch):
    """``run`` admits its config once, and every pipeline of ``all`` reads
    the model that admission resolved."""
    calls = []

    def counted(cfg, names):
        calls.append(list(names))
        return config.admit(cfg, names)

    monkeypatch.setattr(pipelines, "admit", counted)
    called = _recording_pipelines(monkeypatch)
    run(merged_config(None), ["all"], tmp_path / "out")
    assert calls == [list(PIPELINES)] and called == list(PIPELINES)


def test_the_cli_holds_what_the_benchmark_reads():
    """``gaplab.cli`` defines ``build_parser`` and ``main`` alone, and
    holds every name the benchmark harness reads from it: ``load_config``,
    ``run``, ``PIPELINES`` and each function the tracer wraps under
    ``cli``.  Each is the object its defining module holds, in
    ``config``, ``artifacts`` or ``pipelines``, and ``cli.PIPELINES`` is
    the dict ``run`` reads, so a span the tracer installs through ``cli``
    is the one a run calls."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    layers = runpy.run_path(str(path))["LAYERS"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert {type(node) for node in tree.body} <= {
        ast.Expr, ast.Import, ast.ImportFrom, ast.FunctionDef, ast.If}
    assert [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)] == ["build_parser", "main"]
    assert cli.main.__module__ == "gaplab.cli"
    assert cli.PIPELINES is pipelines.PIPELINES
    for name in ["load_config", "run", *layers["cli"]]:
        obj = getattr(cli, name)
        home = sys.modules[obj.__module__]
        assert home in (config, artifacts, pipelines), name
        assert getattr(home, name) is obj, name


@pytest.mark.parametrize("command", ["bounds", "gapsweep", "highergaps",
                                     "all"])
@pytest.mark.parametrize("radius", [0, 3])
def test_a_flow_chain_without_a_bulk_perturbation_stops_the_stability_runs(
        tmp_path, monkeypatch, capsys, command, radius):
    """At ``flow.max_radius`` 0 the seeded perturbation has no term, and at
    3 no site of the 6-site flow chain lies that deep: either way its bulk
    is empty, so the velocity is 0 and ``F_phi`` cannot be built.  A run of
    a stability pipeline exits 2 before the first pipeline, with one line
    naming ``flow.max_radius``, and writes no artifact."""
    called = _recording_pipelines(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lengths": [8], "flow": {
        "max_radius": radius, "length": 6, "checkpoints": 5}}),
        encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: flow.max_radius: the stability pipelines need a bulk "
        f"perturbation, and the 6-site flow chain has none at radius "
        f"{radius}\n")
    assert called == [] and not out.exists()


def test_the_flow_runs_on_a_chain_without_a_perturbation(tmp_path, capsys):
    """``flow`` alone reads no velocity, so it still runs at
    ``flow.max_radius`` 0, where the stability pipelines are refused, and
    passes every check."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lengths": [8], "flow": {
        "max_radius": 0, "length": 6, "checkpoints": 5}}), encoding="utf-8")
    assert main(["flow", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert lines and all(line.startswith("[PASS] flow:") for line in lines)


@pytest.mark.parametrize("route", ["config", "flag"])
def test_a_negative_seed_is_a_config_error(tmp_path, monkeypatch, capsys,
                                           route):
    """A negative seed, from the config's seed list or from ``--seed``,
    exits 2 with one line, before any pipeline runs or any directory is
    made."""
    called = _recording_pipelines(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [-1]} if route == "config" else {}),
                   encoding="utf-8")
    out = tmp_path / "out"
    argv = ["sp0scan", "--config", str(cfg), "--out", str(out)]
    if route == "flag":
        argv += ["--seed", "-3"]
    assert main(argv) == 2
    seed = -1 if route == "config" else -3
    assert capsys.readouterr().err == (
        f"config error: seeds: a seed must be non-negative; got {seed}\n")
    assert called == [] and not out.exists()


@pytest.mark.parametrize("route", ["out", "config"])
def test_an_output_directory_that_cannot_be_made_is_a_config_error(
        tmp_path, monkeypatch, capsys, route):
    """An output directory under a regular file, from ``--out`` or from
    ``outputs.directory``, exits 2 with one line naming it, before any
    pipeline runs."""
    called = _recording_pipelines(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out"
    cfg = tmp_path / "cfg.json"
    argv = ["sp0scan", "--config", str(cfg)]
    if route == "out":
        cfg.write_text("{}", encoding="utf-8")
        argv += ["--out", str(out)]
    else:
        cfg.write_text(json.dumps({"outputs": {"directory": str(out)}}),
                       encoding="utf-8")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: outputs.directory: cannot make "
                          f"{out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert called == []


def test_an_artifact_that_cannot_be_written_is_a_config_error(tmp_path,
                                                              capsys):
    """A directory standing where an artifact goes exits 2, once the
    pipelines have run, with one line naming the file."""
    out = tmp_path / "out"
    (out / "sp0scan.csv").mkdir(parents=True)
    assert main(["sp0scan", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: outputs.directory: cannot write an "
                          "artifact: ")
    assert str(out / "sp0scan.csv") in err
    assert err.count("\n") == 1 and "Traceback" not in err


# a chain short enough for a quick ``validate``, at a given weight exponent
def _weight_config(tmp_path, s):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constants": {"F": {"s": s}}, "lengths": [6],
                               "ltqo": {"aklt_lengths": [6]}}),
                   encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("command", ["validate", "all"])
def test_a_weight_whose_regrouping_tail_cannot_be_certified_is_refused(
        tmp_path, monkeypatch, capsys, command):
    """A stretched weight too flat for the regrouping tail at the
    truncation (``s = 0.1`` at ``K = 0.5``) exits 2 with one
    ``constants.truncation`` line, the series that refuses the truncation,
    before any pipeline runs or any artifact is written."""
    called = _recording_pipelines(monkeypatch)
    out = tmp_path / "out"
    argv = [command, "--config", _weight_config(tmp_path, 0.1), "--out",
            str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: constants.truncation: truncation too small to "
        "certify the prefactor tail\n")
    assert called == [] and not out.exists()


def test_a_weight_whose_regrouping_tail_is_certified_validates(tmp_path):
    """At ``s = 0.5`` the regrouping tail is certified and ``validate``
    passes."""
    out = tmp_path / "out"
    assert main(["validate", "--config", _weight_config(tmp_path, 0.5),
                 "--out", str(out)]) == 0
    assert "[FAIL]" not in (out / "summary.txt").read_text(encoding="utf-8")


# the config patch of the benchmark's ``all-L10`` workload
ALL_L10 = {"lengths": [8, 10], "ltqo": {"aklt_lengths": [6]},
           "sp0": {"length": 10}}


def test_the_stability_pipelines_need_no_closed_form(tmp_path, monkeypatch):
    """With the orbital chain's closed forms (the kernel dimension, the
    spectrum and the auxiliary basis) made to raise, every pipeline but
    ``validate``, whose certificate they are, runs on the ``all-L10``
    workload's config and passes every check."""
    def refuse(*args, **kwargs):
        raise AssertionError("a closed form was read")

    for name in ("kernel_data", "orbital_spectrum", "auxiliary_basis"):
        monkeypatch.setattr(models, name, refuse)
    cfg = merged_config(ALL_L10)
    names = [name for name in PIPELINES if name != "validate"]
    reports = run(cfg, names, tmp_path / "out")
    assert [rep.name for rep in reports] == names
    assert all(rep.checks and rep.passed for rep in reports)


@pytest.mark.parametrize("eps, measured, bound, expected", [
    # a gap at or below 0 at a nonzero coupling is closed, whatever its line
    (0.02, -0.1, 0.5, ("closed", False, False)),
    (0.02, 0.0, -0.3, ("closed", True, False)),
    # coupling 0 is open at any gap
    (0.0, -0.1, 0.5, ("fail", False, True)),
    (0.0, 0.0, 0.0, ("vacuous", True, True)),
    # a bound at or below 0 is vacuous
    (0.02, 0.3, 0.0, ("vacuous", True, True)),
    (0.02, 0.3, -0.2, ("vacuous", True, True)),
    # the 1e-9 slack, from inside and from outside
    (0.02, 0.5, 0.5, ("dominates", True, True)),
    (0.02, 0.5 - 0.9e-9, 0.5, ("dominates", True, True)),
    (0.02, 0.5 - 1.1e-9, 0.5, ("fail", False, True)),
    # a NaN gap is closed, and dominates no line that bites
    (0.02, np.nan, 0.5, ("closed", False, False)),
    (0.02, np.nan, -0.5, ("closed", True, False)),
])
def test_a_gap_against_its_line_reads_one_status(eps, measured, bound,
                                                 expected):
    """``_against_line`` is the one open/closed and line rule of both
    ``gapsweep`` and ``highergaps``: ``(status, dominated, opened)``."""
    assert pipelines._against_line(eps, measured, bound) == expected


def test_gap_curves_read_their_cluster_off_the_spectra_they_solve():
    """On every volume of the ``all-L10`` workload the gap curve, which
    counts the kernel of the coupling-zero spectrum it solves, tracks a
    cluster of the closed-form kernel dimension at every coupling."""
    cfg = merged_config(ALL_L10)
    grid = np.linspace(0.0, 0.05, 11)
    lengths = config._stability_lengths(cfg)
    assert lengths == [8, 10]
    for length in lengths:
        lam, eta, pert = pipelines._volume(cfg, {}, config._window(length, 1))
        kdim, _ = kernel_data(lam)
        read = gap_curve(eta, pert, lam, grid)
        assert [sp.eps for sp in read] == list(grid)
        assert all(sp.k == kdim for sp in read)


def test_benchmark_workloads_keep_their_artifacts(tmp_path):
    """Each benchmark workload, run in process at seed 7, writes as many
    rows per artifact as its reference and fails no check."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    bench = runpy.run_path(str(path))
    for name, spec in bench["WORKLOADS"].items():
        out = tmp_path / name
        cfg = merged_config(bench["config_for"](name, 7, str(out)))
        run(cfg, [spec["command"]], out)
        rows = {artifact: bench["artifact_rows"](out / artifact)
                for artifact in spec["artifacts"]}
        assert rows == spec["artifacts"], name
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert "[FAIL]" not in summary, name


def test_tracer_layers_name_package_functions(tmp_path):
    """Every span the benchmark tracer installs names a gaplab function.
    Installed in process, the tracer sees a small ``validate`` and ``ltqo``
    call both model builders and ``cmd_validate``: a model that captured
    its builder at import would call it past the span the tracer rebinds.
    Every binding the tracer replaced is put back afterwards."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer_module = runpy.run_path(str(path))
    for modname, names in tracer_module["LAYERS"].items():
        module = importlib.import_module(f"gaplab.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    modules = [np.linalg] + [module for name, module in sys.modules.items()
                             if name.startswith("gaplab")]
    saved = [(module, dict(vars(module))) for module in modules]
    saved_pipelines = dict(PIPELINES)
    tracer = tracer_module["Tracer"]()
    try:
        tracer.install()
        cfg = merged_config({"lengths": [6], "ltqo": {
            "length": 7, "aklt_lengths": [5]}})
        reports = run(cfg, ["validate", "ltqo"], tmp_path)
    finally:
        for module, attrs in saved:
            for attr, value in attrs.items():
                if vars(module)[attr] is not value:
                    setattr(module, attr, value)
        PIPELINES.update(saved_pipelines)
    assert all(rep.passed for rep in reports)
    calls = tracer.metrics(0.0)
    for span in ("models.orbital_interaction", "models.aklt_interaction",
                 "cli.cmd_validate"):
        assert calls[f"{span}.calls"] > 0, span
    assert PIPELINES == saved_pipelines \
        and np.linalg.eigh is saved[0][1]["eigh"]


def test_benchmark_workloads_merge_as_configs(tmp_path):
    """Every benchmark workload's config passes the config rules and the
    admission of its command, as the defaults pass that of ``all``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    bench = runpy.run_path(str(path))
    for name, spec in bench["WORKLOADS"].items():
        cfg = merged_config(bench["config_for"](name, 7, str(tmp_path)))
        admit(cfg, PIPELINES if spec["command"] == "all"
              else [spec["command"]])
    admit(merged_config(None), PIPELINES)


def test_values_only_solves_go_through_the_spectral_layer():
    """Only ``operator_algebra.eigenvalues`` calls ``np.linalg.eigvalsh``;
    the witness ascent in ``ltqo.py`` keeps its own solves until it is
    rewritten.  ``pipelines.py`` calls neither ``eigenvalues`` nor
    ``hamiltonian_eigenvalues`` itself: every volume spectrum there comes
    through ``validate_unperturbed`` or ``gamma0_candidate``, whose
    ``hamiltonian_eigenvalues`` hands the charge blocks of the span of its
    terms to ``eigenvalues`` and assembles no whole matrix."""
    src = Path(__file__).resolve().parents[1] / "src" / "gaplab"
    callers = {p.name for p in src.glob("*.py")
               if "linalg.eigvalsh(" in p.read_text(encoding="utf-8")}
    assert callers <= {"operator_algebra.py", "ltqo.py"}
    run_text = (src / "pipelines.py").read_text(encoding="utf-8")
    assert not re.search(r"eigenvalues\(", run_text)
    # one call reads every volume of validate, of each of its models
    assert inspect.getsource(cmd_validate).count(
        "validate_unperturbed(") == 1
    assert "gamma0_candidate(" in inspect.getsource(
        pipelines.constants_bundle)
    for reader in (interaction.validate_unperturbed,
                   interaction.gamma0_candidate):
        body = inspect.getsource(reader).split('"""')[-1]
        assert re.search(r"hamiltonian_eigenvalues\((phi|build\(lam\)), lam\)",
                         body)
    body = inspect.getsource(interaction.hamiltonian_eigenvalues) \
        .split('"""')[-1]
    assert "eigenvalues(charge_blocks(" in body
    assert "local_hamiltonian(" not in body


def test_sp0scan_solves_each_matrix_once(monkeypatch):
    """sp0scan solves three matrices, each once, never on the volume
    [1, 8]: ``h0``, whose three equal pairs are solved as one pair [2, 3]
    (four states), and the rows of depths 1 and 2, each one group on the
    span [2, 7] of its terms (64 states).  Depth 3 keeps no term and every
    coupling-0 row reads ``h0``.  The pair conserves the particle number
    (three blocks, of sides 1, 2 and 1); a perturbed row conserves only
    the parity (two blocks of 32).  Every assembled block goes to
    ``eigvalsh`` exactly once (two blocks of the pair may be equal, and are
    then solved twice, once each); every other solve is a term norm of the
    perturbation (at most 5 sites: parity blocks of 16)."""
    def key(m):
        m = np.ascontiguousarray(m)
        return m.shape[0], hashlib.blake2b(m.tobytes()).hexdigest()

    spans, assembled, solves = [], [], []
    real_blocks = interaction.charge_blocks
    original = np.linalg.eigvalsh

    def recorded(phi, lam):
        sectors, blocks = real_blocks(phi, lam)
        spans.append((lam, [len(s) for s in sectors]))

        def keyed():
            for block in blocks:
                assembled.append(key(block))
                yield block
        return sectors, keyed()

    def counted(a, *args, **kwargs):
        solves.append(key(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(interaction, "charge_blocks", recorded)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = merged_config({"sp0": {"length": 8, "depths": [1, 2, 3]}})
    assert cmd_sp0scan(cfg, {}).passed
    span = Interval(2, 7)
    assert spans == [(Interval(2, 3), [1, 2, 1]), (span, [32, 32]),
                     (span, [32, 32])]
    assert len(assembled) == 7 and len(set(assembled[3:])) == 4
    solved = Counter(solves)
    assert all(solved[k] == n for k, n in Counter(assembled).items())
    assert all(side <= 16 for side, _ in set(solves) - set(assembled))


def test_flow_checks_solve_no_matrix_again(monkeypatch):
    """Once validate and the flow fixture have run, the flow checks solve no
    matrix that was solved before: the generator cross-check and the
    frequency grid read the decompositions the flow made.  Inputs are keyed
    by shape, dtype and a hash of their bytes; residual matrices at rounding
    level (largest entry at most 1e-12) are left out, since two of them can
    coincide bit for bit (both exactly zero, say).  A residual's level is
    read where ``operator_norm`` takes it: the Gram matrix it solves for a
    non-Hermitian residual is scaled by a power of two to entries of order
    one, and the two parity blocks of a residual that leaves an end site
    alone are equal."""
    solved, repeats = set(), []
    in_flow_checks, in_residual = [False], [False]

    def hashed(fn):
        def wrapper(a, *args, **kwargs):
            m = np.ascontiguousarray(a)
            key = (m.shape, m.dtype.str,
                   hashlib.blake2b(m.tobytes()).hexdigest())
            if in_flow_checks[0] and key in solved and not in_residual[0] \
                    and np.max(np.abs(m)) > 1e-12:
                repeats.append((fn.__name__, m.shape))
            solved.add(key)
            return fn(a, *args, **kwargs)
        return wrapper

    def norm(m):
        in_residual[0] = np.max(np.abs(m)) <= 1e-12
        try:
            return operator_norm(m)
        finally:
            in_residual[0] = False

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, hashed(getattr(np.linalg, name)))
    monkeypatch.setattr(pipelines, "operator_norm", norm)
    cfg = merged_config({"lengths": [8], "ltqo": {"aklt_lengths": [6]}})
    ctx = {}
    assert cmd_validate(cfg, ctx).passed
    flow_bundle(cfg, ctx)
    in_flow_checks[0] = True
    assert cmd_flow(cfg, ctx).passed
    assert repeats == []


def _reachable_arrays(value, seen: set):
    """Every array buffer reachable from ``value`` through dicts, sequences
    and object attributes, once each (a view yields its base)."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        base = value.base if isinstance(value.base, np.ndarray) else None
        if base is None:
            yield value
        else:
            yield from _reachable_arrays(base, seen)
    elif isinstance(value, dict):
        for item in [*value, *value.values()]:
            yield from _reachable_arrays(item, seen)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            yield from _reachable_arrays(item, seen)
    elif hasattr(value, "__dict__"):
        yield from _reachable_arrays(vars(value), seen)


def _fixture_bytes(fb) -> int:
    return sum(a.nbytes for a in _reachable_arrays(fb, set()))


def test_flow_fixture_keeps_only_what_its_readers_read(monkeypatch):
    """On the default L = 8 chain (side 256) the flow fixture keeps
    3.04 MiB of arrays; the bound sits just above it, so a fixture that
    grows again fails here.  The flow keeps no checkpoint's unitary or
    generator, the decomposition neither its pieces nor ``V(eps)`` (only
    its residuals, and its ball terms as ``(support, norm)`` pairs, those of
    the whole telescope bit for bit and in its order), the collected pieces
    only their norms and errors, the ball families only their
    ``resolutions.csv`` rows and the ball projectors the sign patterns read,
    and every array it keeps is at most of side 128, a parity block."""
    decs = []

    def split(dec, p0, **kwargs):
        decs.append(replace(dec, anchors=dict(dec.anchors)))
        return cli_split(dec, p0, **kwargs)

    cli_split = pipelines.split_phi1
    monkeypatch.setattr(pipelines, "split_phi1", split)
    fb = flow_bundle(merged_config(None), {})
    assert fb["flow"].unitaries == {}
    assert "generators" not in {f.name for f in fields(fb["flow"])}
    assert fb["dec"].anchors is None and fb["dec"].v_true is None
    assert all(th.theta_beta is None and th.theta_alpha is None
               for th in fb["thetas"].values())
    assert "families" not in fb
    assert fb["ball_norms"] == [(t.support, t.op.norm())
                                for t in telescope_oracle(decs[-1]).terms]
    assert all(isinstance(norm, float) for _, norm in fb["ball_norms"])
    assert {n: [x for x, _, _ in members]
            for n, members in fb["sign_members"].items()} == {1: [2, 5],
                                                              3: []}
    kept = list(_reachable_arrays(fb, set()))
    assert sum(a.nbytes for a in kept) <= 3.1 * 2 ** 20
    assert max(a.shape[-1] for a in kept) == 128


def test_flow_fixture_takes_no_norm_of_the_couplings_before_eps(monkeypatch):
    """The default fixture decomposes and splits the transported coupling
    at checkpoints 8, 16 and 32 of 33.  ``bounds`` reads only ``phi2``
    before ``eps`` and ``flow`` the residuals at ``eps`` alone, so at 8 and
    16 neither takes an ``operator_norm`` and their residuals read ``None``;
    their pieces, ``phi2`` and ``omega`` are those of a decomposition and
    split that take their norms, bit for bit."""
    taken, calls = [0], []          # (norms taken, args, result) per call

    def norm(m, *args, **kwargs):
        taken[0] += 1
        return operator_norm(m, *args, **kwargs)

    def counted(fn):
        def wrapper(*args, **kwargs):
            before = taken[0]
            out = fn(*args, **kwargs)
            calls.append((taken[0] - before, args, out))
            return out
        return wrapper

    decompose, split = pipelines.decompose_phi1, pipelines.split_phi1
    monkeypatch.setattr(spectral_flow, "operator_norm", norm)
    monkeypatch.setattr(pipelines, "decompose_phi1", counted(decompose))
    monkeypatch.setattr(pipelines, "split_phi1", counted(split))
    fb = flow_bundle(merged_config(None), {})
    # a decomposition and its split at each form-bound checkpoint, in turn
    assert [args[4] for _, args, _ in calls[::2]] == [8, 16, 32]
    assert [n for n, _, _ in calls[:4]] == [0] * 4
    assert calls[4][0] > 0 and calls[5][0] > 0
    for (_, args, dec), (_, _, got) in zip(calls[0:4:2], calls[1:4:2]):
        assert (dec.anchor_sum_residual, dec.cross_residual,
                dec.max_kernel_commutator, got.reconstruction_error) \
            == (None,) * 4
        full = decompose(*args)
        assert all(np.array_equal(dec.anchors[x], v)
                   for x, v in full.anchors.items())
        ref = split(full, fb["flow"].p0)
        assert np.array_equal(got.phi2, ref.phi2)
        assert got.omega_value == ref.omega_value
    assert isinstance(fb["splits"][32].reconstruction_error, float)
    assert all(isinstance(getattr(fb["dec"], name), float)
               for name in ("anchor_sum_residual", "cross_residual",
                            "max_kernel_commutator"))


def test_every_term_norm_of_the_flow_fixture_is_the_parity_scans_bit_for_bit(
        monkeypatch):
    """Every term norm the default flow fixture takes (those that normalise
    the perturbation, the ball terms'), and those of the terms of ``eta``
    and of the perturbation, split on the sectors of the charge each term
    keeps, equal bit for bit the norms split on the parity sectors scanned
    from the whole matrix, as they were taken before: the orbital terms'
    number blocks included, and the ball terms' Gram matrices, formed
    whole before they are split."""
    taken = []                  # (a copy of the matrix, its charge, norm)
    original = LocalOperator.norm

    def norm(op):
        if op._norm is None:
            taken.append((op.matrix.copy(), conserved_modulus([op]),
                          original(op)))
        return original(op)

    monkeypatch.setattr(LocalOperator, "norm", norm)
    fb = flow_bundle(merged_config(None), {})
    for t in fb["eta"].terms + fb["psi"].terms:
        t.op.norm()
    assert len(taken) >= len(fb["ball_norms"]) + len(fb["eta"].terms) \
        + 2 * len(fb["psi"].terms)
    assert {modulus for _, modulus, _ in taken} == {None, 2}
    assert all(value == norm_oracle(m) for m, _, value in taken)


def test_flow_fixture_size_does_not_grow_with_the_checkpoints():
    """The fixture at 9 and at 33 checkpoints keeps the same bytes but for
    the checkpoint grid itself: nothing of a checkpoint outlives the pass."""
    sizes = {n: _fixture_bytes(flow_bundle(
        merged_config({"flow": {"checkpoints": n}}), {})) for n in (9, 33)}
    assert sizes[33] - sizes[9] == (33 - 9) * 8


def test_flow_fixture_walks_its_anchors_in_a_peak_the_checkpoints_do_not_set():
    """The default flow fixture on the L = 8 chain raises traced memory by
    at most 5 % above the measured 8.96 MiB (12.10 MiB while the anchored
    pieces were integrated along the flow and the collected pieces held
    every ball term at once, 18.15 MiB while the whole ball telescope and
    every ball family were held at once), and its peaks at 9 and 33
    checkpoints agree to 1 %: one anchor's ball terms and family are alive
    at a time, and nothing of a checkpoint outlives the pass but the
    unitaries at the form-bound couplings."""
    # one-time imports and caches are not traced
    flow_bundle(merged_config({"flow": {"checkpoints": 9}}), {})
    peaks = {n: traced_peak(lambda n=n: flow_bundle(
        merged_config({"flow": {"checkpoints": n}}), {}))[1] for n in (9, 33)}
    assert peaks[33] <= 1.05 * 8.96 * 2 ** 20
    assert abs(peaks[33] - peaks[9]) <= 0.01 * peaks[9]


def test_cli_import_loads_no_sparse_module():
    """Hamiltonians are assembled dense, so importing the CLI loads no
    part of ``scipy.sparse``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, gaplab.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.sparse')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_runs_import_no_masked_arrays():
    """No run imports ``numpy.ma``, which ``np.unique`` loads on its first
    call unless it is asked for the inverse: neither an ``sp0scan`` run nor
    an ``all`` run at the ``all-L10`` benchmark's sizes loads it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, tempfile; from gaplab.cli import run\n"
            "from gaplab.config import merged_config\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    run(merged_config({}), ['sp0scan'], tmp + '/sp0')\n"
            "    print('numpy.ma' in sys.modules)\n"
            "    run(merged_config({'lengths': [8, 10], 'sp0': {'length': 10},"
            " 'ltqo': {'aklt_lengths': [6]}}), ['all'], tmp + '/all')\n"
            "    print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["False", "False"]


def test_validate_fails_a_spin_image_that_differs(monkeypatch):
    """The fermion/spin rows compare the spin image's matrix with the
    fermionic one entry for entry: a relative change of 1e-14 in one term,
    far below the spectral tolerance, fails every row."""
    original = models.fermion_to_spin

    def perturbed(phi):
        spin = original(phi)
        first = spin.terms[0]
        op = replace(first.op, matrix=first.op.matrix * (1.0 + 1e-14))
        return replace(spin, terms=[replace(first, op=op)] + spin.terms[1:])

    monkeypatch.setattr(models, "fermion_to_spin", perturbed)
    cfg = merged_config({"lengths": [6], "ltqo": {"aklt_lengths": [4]}})
    rep = cmd_validate(cfg, {})
    _, rows = rep.tables["jw.csv"]
    assert len(rows) == 2
    assert all(row[2] <= 1e-10 and row[3] == "fail" for row in rows)
    assert not rep.passed


def test_validate_reads_no_gap_off_an_empty_kernel(monkeypatch):
    """An orbital or spin-1 volume whose Hamiltonian has no kernel (here a
    one-site term ``0.5 * 1`` added) reads ``gap`` ``nan``, as a ``file:``
    model's row does, not the difference of its highest and lowest
    eigenvalues, and its row fails."""
    def lifted(phi, lam):
        shift = LocalOperator(0.5 * np.eye(phi.local_dim),
                              Interval(lam.a, lam.a), phi.kind,
                              phi.local_dim)
        return replace(phi, terms=phi.terms + [Term(shift)])

    for name in ("orbital_interaction", "aklt_interaction"):
        build = getattr(models, name)
        monkeypatch.setattr(models, name,
                            lambda lam, build=build: lifted(build(lam), lam))
    cfg = merged_config({"lengths": [6], "ltqo": {"aklt_lengths": [4]}})
    rep = cmd_validate(cfg, {})
    _, rows = rep.tables["validate.csv"]
    assert [row[0] for row in rows] == ["orbital", "orbital", "aklt"]
    for row in rows:
        assert row[5] == 0 and np.isnan(row[4]) and row[9] == "fail"
    assert not rep.passed


def test_validate_passes_on_the_default_config():
    """The default ``validate`` passes every check.  Its AKLT rows at 6, 7
    and 8 sites have a four-dimensional kernel and the gaps of the dense
    whole-matrix solve (``eigvalsh`` of ``local_hamiltonian``, which the
    charge blocks matched to 7.7e-14)."""
    rep = cmd_validate(merged_config(None), {})
    assert rep.checks and all(ok for _, ok, _ in rep.checks)
    _, rows = rep.tables["validate.csv"]
    aklt = {row[1]: row for row in rows if row[0] == "aklt"}
    gaps = {6: 0.398451231780, 7: 0.386595263982, 8: 0.379349133070}
    assert sorted(aklt) == sorted(gaps)
    for length, gap in gaps.items():
        assert aklt[length][5] == 4 and aklt[length][9] == "ok"
        assert aklt[length][4] == pytest.approx(gap, rel=0.0, abs=1e-9)


def test_validate_owns_the_auxiliary_basis_budget(monkeypatch):
    """``auxiliary_basis`` returns its completion whatever its size; the
    orbital structure check fails one that exceeds ``6R`` columns and
    reaches the depth-``3R`` interior."""
    monkeypatch.setattr(models, "auxiliary_basis",
                        lambda lam: np.eye(len(lam)))
    cfg = merged_config({"lengths": [8], "ltqo": {"aklt_lengths": [4]}})
    rep = cmd_validate(cfg, {})
    _, rows = rep.tables["validate.csv"]
    orbital = [row for row in rows if row[0] == "orbital"]
    assert len(orbital) == 2
    assert all(row[7] == 8 and row[8] == 1.0 and row[9] == "fail"
               for row in orbital)
    assert not rep.passed


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["anneal"])
