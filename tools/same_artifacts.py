"""Check that two source trees write byte-identical artifacts.

    python3 tools/same_artifacts.py PARENT CHANGE

Each tree is a checkout of this repository.  For each tree in turn,
``gaplab all`` runs with ``PYTHONPATH=<tree>/src`` into a fresh directory:
on the default config, and on the ``all-L10`` benchmark workload's config
(read from this repository's ``perfbench/workloads.py``) at seeds 7 and 11.
The runs go one process at a time, since two BLAS processes on a small
machine slow each other.  Every file that differs between the trees, or that
only one of them wrote, is printed with what moved in it: each column of a
CSV that only one side holds, each moved cell of the columns both hold,
matched by name (its row, counted from the first data row, that row's first
cell in the parent, its column, parent -> change), and the file's largest
relative and absolute move, each moved key of a JSON file, each changed
line of a text file.  Each run's summary line gives, for each tree, its
verdict counts and its peak resident size in MB, read from that process's
own ``ru_maxrss``.  The first line names the BLAS thread variables the
runs inherit, or says they are unset: rounding, and so "0 differing
files", holds at one thread count.  The exit code is 0 when no file
differs and 1 otherwise; a run that refuses its config, or writes no
``summary.txt``, stops the comparison with one line (the run, the tree,
the exit code and the last line of its stderr) and exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS")


def threads_line() -> str:
    """The BLAS thread variables of this process, which every run inherits."""
    held = [f"{k}={os.environ[k]}" for k in THREAD_VARS if k in os.environ]
    return "BLAS threads: " + (", ".join(held) or "unset")


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


def run_tree(tree: Path, config: Path | None,
             out: Path) -> tuple[int, str, float]:
    """The exit code of ``gaplab all`` from ``tree``, the last line it
    wrote to stderr and its peak resident size in MB.  The peak is the
    child's own ``ru_maxrss``, from ``wait4``: ``RUSAGE_CHILDREN`` is the
    largest over every child so far, so it cannot tell one run from
    another.  Linux carries this process's own peak (about 18 MB) into the
    child's at ``exec``, so no run reads below it."""
    argv = [sys.executable, "-m", "gaplab.cli", "all", "--out", str(out)]
    if config is not None:
        argv += ["--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    with subprocess.Popen(argv, cwd=out.parent, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == 2:
        sys.stderr.write(stderr)
    return (proc.returncode, (stderr.strip().splitlines() or [""])[-1],
            usage.ru_maxrss / 1024)


def _move(x: str, y: str):
    """The relative and absolute move from ``x`` to ``y``, or ``None`` when
    either is not a finite number."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    scale = max(abs(a), abs(b))
    return (abs(a - b) / scale if scale else 0.0), abs(a - b)


def _cells(pairs) -> list[str]:
    """A line per moved cell of ``pairs`` (label, parent, change), then the
    largest relative and absolute move among the numbers."""
    lines, worst = [], None
    for label, x, y in pairs:
        if x != y:
            lines.append(f"{label}: {x} -> {y}")
            move = _move(x, y)
            if move is not None:
                worst = move if worst is None else tuple(map(max, worst, move))
    if worst is not None:
        lines.append(f"largest move: {worst[0]:.2e} relative, "
                     f"{worst[1]:.2e} absolute")
    return lines


def _csv_moves(a: str, b: str) -> list[str]:
    """Columns are matched by name: a column only one side holds is named,
    and the cells of the shared columns are compared row by row."""
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    head_a, head_b = (rows_a or [[]])[0], (rows_b or [[]])[0]
    if len(rows_a) != len(rows_b) or any(
            len(ra) != len(head_a) for ra in rows_a) or any(
            len(rb) != len(head_b) for rb in rows_b):
        return [f"columns or rows differ: {len(rows_a) - 1} rows in parent, "
                f"{len(rows_b) - 1} in change"]
    lines = [f"column only in {side}: {col}"
             for side, head, other in (("parent", head_a, head_b),
                                       ("change", head_b, head_a))
             for col in head if col not in other]
    where = {col: i for i, col in enumerate(head_b)}
    return lines + _cells(
        (f"row {i} [{ra[0]}] {col}", x, rb[where[col]])
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), 1)
        for col, x in zip(head_a, ra) if col in where)


def _leaves(value, prefix=""):
    """Dotted key -> leaf value of a JSON document."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        out = {}
        for key, item in items:
            out.update(_leaves(item, f"{prefix}.{key}" if prefix else str(key)))
        return out
    return {prefix: value}


def _json_moves(a: str, b: str) -> list[str]:
    leaves_a, leaves_b = _leaves(json.loads(a)), _leaves(json.loads(b))
    return _cells((key, json.dumps(leaves_a.get(key)),
                   json.dumps(leaves_b.get(key)))
                  for key in sorted(leaves_a.keys() | leaves_b.keys()))


def _line_moves(a: str, b: str) -> list[str]:
    diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(),
                                     lineterm="", n=0))
    return [line for line in diff[2:] if not line.startswith("@@")]


READERS = {".csv": _csv_moves, ".json": _json_moves, ".txt": _line_moves}


def differing(a: Path, b: Path) -> dict[str, list[str]]:
    """Each file that differs between the artifact directories ``a``
    (parent) and ``b`` (change), or that only one holds, with the lines
    saying what moved in it."""
    out = {}
    for name in sorted({p.name for p in a.iterdir()}
                       | {p.name for p in b.iterdir()}):
        in_a, in_b = (a / name).is_file(), (b / name).is_file()
        if not (in_a and in_b):
            out[name] = [f"only in {'parent' if in_a else 'change'}"]
            continue
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if bytes_a != bytes_b:
            reader = READERS.get(Path(name).suffix)
            out[name] = [] if reader is None else reader(
                bytes_a.decode("utf-8"), bytes_b.decode("utf-8"))
    return out


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
    print(threads_line())
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, config in runs(work).items():
            outs, sides = [], []
            for tag, tree in (("parent", args.parent), ("change", args.change)):
                out = work / name / tag
                out.parent.mkdir(exist_ok=True)
                code, last, peak = run_tree(tree, config, out)
                if code == 2:
                    print(f"{name}: {tag} refused its config")
                    return 1
                if not (out / "summary.txt").is_file():
                    print(f"{name}: {tag} tree {tree} wrote no artifacts "
                          f"(exit {code}): {last}")
                    return 1
                outs.append(out)
                sides.append(f"{verdicts(out)} ({tag}, peak {peak:.1f} MB)")
            diff = differing(*outs)
            same = same and not diff
            print(f"{name}: {', '.join(sides)}, "
                  f"{len(diff)} differing file(s)")
            for filename, lines in diff.items():
                print(f"  differs: {filename}")
                for line in lines:
                    print(f"    {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
