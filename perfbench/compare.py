"""Summarize benchmark runs and compare a candidate with a baseline.

    python3 perfbench/compare.py summarize .bench_runs [--write FILE]
    python3 perfbench/compare.py compare perfbench/baseline.json .bench_runs

A source is a summary file written by ``summarize --write`` (such as
perfbench/baseline.json) or a directory searched for the ``result.json``
files that perfbench/run.py writes.  Per workload and end-to-end metric the
summary holds the median, the quartiles and the spread (quartile distance
over median) of the per-run values; traced runs give the tracing overhead,
their ``trace.wall_s`` minus the untraced median ``wall_s``.

``compare`` prints, for every workload and end-to-end metric, the change of
the median as a share of the baseline median against the bound in
BENCHMARK.json: ``regressed`` when it is worse by more than the bound,
``unresolved`` when either side spreads wider than the bound, else ``ok``.
It flags a workload whose environment or config differs between the sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV_KEYS = ("python", "numpy", "scipy", "openblas", "blas_threads", "nproc",
            "cpu_model", "l3_cache", "config_sha256")


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarize_runs(directory: Path) -> dict:
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    grouped: dict[str, dict[int, list]] = {}
    for path in sorted(directory.rglob("result.json")):
        rec = json.loads(path.read_text())
        grouped.setdefault(rec["workload"], {}).setdefault(
            rec["trace"], []).append(rec)
    out = {}
    for name, by_trace in grouped.items():
        if name not in WORKLOADS:
            continue
        plain, traced = by_trace.get(0, []), by_trace.get(1, [])
        entry = {"why": WORKLOADS[name]["why"],
                 "command": WORKLOADS[name]["command"],
                 "patch": WORKLOADS[name]["patch"],
                 "runs": len(plain),
                 "seeds": sorted(r["seed"] for r in plain),
                 "metrics": {}}
        for metric, unit in units.items():
            values = [r["metrics"][metric]["value"] for r in plain]
            if values:
                st = summarize(values)
                st["spread"] = (st["q3"] - st["q1"]) / st["median"]
                st["unit"] = unit
                entry["metrics"][metric] = st
        runs = plain + traced
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["checks"] = {"attempted": attempted, "failed": failed,
                           "checks_failed_frac": (failed / attempted
                                                  if attempted else None)}
        if traced:
            walls = [r["metrics"]["trace.wall_s"]["value"] for r in traced]
            entry["traced"] = {"runs": len(traced),
                               "trace.wall_s": statistics.median(walls)}
            if "wall_s" in entry["metrics"]:
                overhead = entry["traced"]["trace.wall_s"] - \
                    entry["metrics"]["wall_s"]["median"]
                entry["traced"]["tracing_overhead_s"] = overhead
                entry["traced"]["tracing_overhead_frac"] = \
                    overhead / entry["metrics"]["wall_s"]["median"]
        envs = {json.dumps({k: r["provenance"].get(k) for k in ENV_KEYS},
                           sort_keys=True) for r in runs}
        entry["environment"] = json.loads(envs.pop()) if len(envs) == 1 \
            else {"mixed": sorted(envs)}
        entry["git_commits"] = sorted({r["provenance"].get("git_commit")
                                       or "unknown" for r in runs})
        out[name] = entry
    return {"workloads": out}


def load(source: str) -> dict:
    path = Path(source)
    if path.is_dir():
        return summarize_runs(path)
    return json.loads(path.read_text())


def compare(base: dict, cand: dict) -> int:
    spec = benchmark_spec()
    regressed = False
    for name in WORKLOADS:
        b, c = base["workloads"].get(name), cand["workloads"].get(name)
        if b is None or c is None:
            print(f"{name}: missing on the "
                  f"{'baseline' if b is None else 'candidate'} side")
            continue
        if b["environment"] != c["environment"]:
            diff = sorted(k for k in ENV_KEYS
                          if b["environment"].get(k)
                          != c["environment"].get(k))
            print(f"{name}: ENVIRONMENT DIFFERS ({', '.join(diff) or 'mixed'})"
                  " - the comparison does not hold")
        for m in spec["end_to_end"]:
            bm, cm = b["metrics"].get(m["name"]), c["metrics"].get(m["name"])
            if bm is None or cm is None:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (cm["median"] - bm["median"]) / bm["median"]
            if change > m["bound"]:
                verdict = "regressed"
                regressed = True
            elif max(bm["spread"], cm["spread"]) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:8s} {m['name']:12s} base {bm['median']:10.4f} "
                  f"cand {cm['median']:10.4f} {m['unit']:3s} "
                  f"worse by {change:+.3%} (bound {m['bound']:.0%}, "
                  f"spreads {bm['spread']:.3f}/{cm['spread']:.3f}) {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    sub = parser.add_subparsers(dest="action", required=True)
    p_sum = sub.add_parser("summarize")
    p_sum.add_argument("source")
    p_sum.add_argument("--write", type=Path)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.action == "compare":
        return compare(load(args.baseline), load(args.candidate))
    summary = load(args.source)
    text = json.dumps(summary, indent=1, sort_keys=True)
    if args.write:
        args.write.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
