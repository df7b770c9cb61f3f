"""The benchmark's workloads: a gaplab command and a config patch each.

Each patch is merged over ``gaplab.cli.DEFAULTS`` exactly as a user's
``--config`` file would be.  The workload seed reaches the program only as
``seeds: [seed]``.  ``samples`` is the most pipeline runs one benchmark run
measures; perfbench/run.py stops earlier when the next would end after
``--seconds``.  ``artifacts`` holds the data rows (lines after the CSV
header; lines of ``summary.txt``) that every artifact had at the commit that
introduced the benchmark; a run whose artifacts differ fails all its checks.
"""

import hashlib
import json

WORKLOADS = {
    "all-L10": {
        "command": "all",
        "patch": {"lengths": [8, 10], "ltqo": {"aklt_lengths": [6]},
                  "sp0": {"length": 10}},
        "samples": 1,
        "why": "The whole chain of facts at in-cache sizes (n <= 1024): "
               "structure, witnesses (AKLT too, no parity), the flow, the "
               "constants, gap lines and interior eigenvalues.",
        "artifacts": {
            "validate.csv": 5, "jw.csv": 4, "regroup.csv": 20,
            "ltqo.csv": 18, "flow.csv": 15, "theta.csv": 4,
            "resolutions.csv": 25, "bounds.csv": 15, "formbound.csv": 3,
            "kappa.csv": 4, "gapsweep.csv": 26, "highergaps.csv": 26,
            "sp0scan.csv": 8, "constants.json": None, "summary.txt": 40,
        },
    },
    "sp0-L12": {
        "command": "sp0scan",
        "patch": {"sp0": {"depths": [2]}},
        "samples": 3,
        "why": "sp0scan at L=12: four dense eigvalsh at n=4096 (two repeat "
               "an input) on parity-even real 134 MB matrices, past the L3: "
               "where parity blocks and partial spectra show.",
        "artifacts": {"sp0scan.csv": 2, "summary.txt": 2},
    },
}


def config_for(name: str, seed: int, out_dir: str) -> dict:
    """The user config of one run of workload ``name``."""
    cfg = dict(WORKLOADS[name]["patch"])
    cfg["seeds"] = [seed]
    cfg["outputs"] = {"directory": out_dir, "formats": ["csv", "json"]}
    return cfg


def artifact_rows(path) -> int | None:
    """Data rows of one artifact: CSV lines after the header, other lines."""
    if path.suffix == ".json":
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    return len(lines) - 1 if path.suffix == ".csv" else len(lines)


def config_sha256(cfg: dict) -> str:
    """Hash of a merged config without its seed and output settings."""
    kept = {k: v for k, v in cfg.items() if k not in ("seeds", "outputs")}
    text = json.dumps(kept, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
