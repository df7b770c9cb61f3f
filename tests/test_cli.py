import json

import numpy as np
import pytest

from gaplab.cli import (DEFAULTS, ConfigError, Report, _cell, build_parser,
                        load_config, main, merged_config, run, summary_lines,
                        write_artifacts)
from gaplab.interaction import to_json
from gaplab.lattice import Interval
from gaplab.models import orbital_interaction, paired_orbital_model


# --- configuration ------------------------------------------------------------------


def test_defaults_round_trip():
    cfg = merged_config(None)
    assert cfg == DEFAULTS
    cfg["lengths"].append(99)
    assert DEFAULTS["lengths"] == [6, 8, 10, 12]    # no aliasing


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
                       "ltqo": {"length": 8.0, "aklt_lengths": [6.0],
                                "restarts": 6.0, "iters": 1.5e2},
                       "sp0": {"length": 12.0, "depths": [2.5]}})
    lines = str(err.value).splitlines()
    assert len(lines) == 14
    assert all(line.endswith(": expected an integer") for line in lines)


def test_structural_errors_short_circuit_semantic_ones():
    try:
        merged_config({"eps_grid": {"start": 5.0, "bogus": 1}})
    except ConfigError as exc:
        msg = str(exc)
        assert "bogus: unknown field" in msg
        assert "coupling 0" not in msg       # semantic pass never ran
    else:
        pytest.fail("expected a ConfigError")


@pytest.mark.parametrize("patch,fragment", [
    ({"eps_grid": {"start": 0.01}}, "start at coupling 0"),
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
])
def test_semantic_validation(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        merged_config(patch)


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
    assert _cell(True) == "true" and _cell(np.bool_(False)) == "false"
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
    rep.table("demo.csv", ["x", "value", "flag"],
              [(1, 0.25, True), (2, 1.0 / 3.0, False)])
    rep.ledger = {"b": 2, "a": {"nested": 0.5}}

    both = write_artifacts([rep], tmp_path / "both", ("csv", "json"))
    assert (both / "demo.csv").read_text(encoding="utf-8") == (
        "x,value,flag\n1,0.25,true\n2,0.3333333333333333,false\n")
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
    for model in (tmp_path / "missing.json", bad_json, no_terms):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": f"file:{model}"}),
                       encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model: cannot load")
        assert err.count("\n") == 1


def test_main_validates_a_model_file(tmp_path, capsys):
    lam = Interval(0, 5)
    model = tmp_path / "orbital.json"
    model.write_text(to_json(orbital_interaction(paired_orbital_model(lam),
                                                 lam)), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": f"file:{model}", "lengths": [4, 6]}),
                   encoding="utf-8")
    assert main(["validate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.count("[PASS] validate: custom") == 2


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["anneal"])
