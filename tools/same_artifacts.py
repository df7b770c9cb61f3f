"""Check that two source trees write byte-identical artifacts.

    python3 tools/same_artifacts.py PARENT CHANGE

Each tree is a checkout of this repository.  For each tree in turn,
``gaplab all`` runs with ``PYTHONPATH=<tree>/src`` into a fresh directory:
on the default config, and on the ``all-L10`` benchmark workload's config
(read from this repository's ``perfbench/workloads.py``) at seeds 7 and 11.
The runs go one process at a time, since two BLAS processes on a small
machine slow each other.  Every file that differs between the trees, or that
only one of them wrote, is printed; the exit code is 0 when there is none
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def runs(work: Path) -> dict:
    """Run name -> config file (``None``: the defaults)."""
    bench = runpy.run_path(str(WORKLOADS))
    out = {"default": None}
    for seed in (7, 11):
        path = work / f"all-L10-{seed}.json"
        # the output directory is given by --out on each run
        path.write_text(json.dumps(bench["config_for"]("all-L10", seed, ".")),
                        encoding="utf-8")
        out[f"all-L10-seed{seed}"] = path
    return out


def run_tree(tree: Path, config: Path | None, out: Path) -> int:
    argv = [sys.executable, "-m", "gaplab.cli", "all", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run(argv, cwd=out.parent, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode == 2:
        sys.stderr.write(done.stderr)
    return done.returncode


def differing(a: Path, b: Path) -> list[str]:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [name for name in names
            if not ((a / name).is_file() and (b / name).is_file()
                    and (a / name).read_bytes() == (b / name).read_bytes())]


def verdicts(out: Path) -> str:
    lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    passed = sum(line.startswith("[PASS]") for line in lines)
    failed = sum(line.startswith("[FAIL]") for line in lines)
    return f"{passed} [PASS], {failed} [FAIL]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, config in runs(work).items():
            outs = []
            for tag, tree in (("parent", args.parent), ("change", args.change)):
                out = work / name / tag
                out.parent.mkdir(exist_ok=True)
                code = run_tree(tree, config, out)
                if code == 2:
                    print(f"{name}: {tag} refused its config")
                    return 1
                outs.append(out)
            diff = differing(*outs)
            same = same and not diff
            print(f"{name}: {verdicts(outs[0])} (parent), "
                  f"{verdicts(outs[1])} (change), "
                  f"{len(diff)} differing file(s)")
            for filename in diff:
                print(f"  differs: {filename}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
