"""Benchmark of gaplab pipelines, run as a user runs them.

    python3 perfbench/run.py --workload all-L10 [--seed 7] [--seconds 60]
                             [--trace 0|1]

Every sample is a fresh ``python3`` process (perfbench/worker.py) that
imports gaplab from ``src/``, merges the workload's config and runs one
pipeline: a closed loop with one client, one run after another, BLAS at its
default thread count.

``--trace 0`` first starts the process several times only to set up, then
runs the workload's number of pipeline samples, fewer if the next would end
after ``--seconds`` (at least one), and reports medians of
the end-to-end metrics: ``wall_s`` (first pipeline call to artifacts
written), ``setup_s`` (interpreter start, imports, config merge) and
``peak_rss_mb``.  ``--trace 1`` runs one sample with spans installed by
perfbench/tracer.py and reports the per-layer metrics instead.

Every sample passes a correctness gate.  If the process raises, exits
non-zero, or leaves an expected artifact missing or with another row count
than the reference in perfbench/workloads.py, all its checks count as
failed; otherwise the ``[FAIL]`` lines of ``summary.txt`` do.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with provenance and every sample, goes to
``.bench_runs/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, artifact_rows, config_for  # noqa: E402

SETUP_SAMPLES = 4
DEADLINE_S = 170.0          # the whole run stays under 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS")


def summarize(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path,
                 deadline_s: float = DEADLINE_S):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.deadline_s = deadline_s
        self.count = 0
        # BLAS at its default thread count, whatever the caller's settings
        self.env = {k: v for k, v in os.environ.items()
                    if k not in THREAD_VARS}

    def remaining(self) -> float:
        return self.deadline_s - (time.monotonic() - self.started)

    def sample(self, mode: str) -> dict:
        """Start one worker process and gate its outputs."""
        self.count += 1
        out_dir = self.run_dir / f"sample{self.count}"
        cfg = config_for(self.name, self.seed, str(out_dir))
        cfg_path = self.run_dir / f"config{self.count}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        spawn_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--command", self.spec["command"], "--config", str(cfg_path),
               "--spawn-ns", str(spawn_ns), "--mode", mode]
        rec = {"mode": mode}
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1))
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            rc, stdout, stderr = None, exc.stdout or "", "timed out"
            if isinstance(stdout, bytes):
                stdout = stdout.decode(errors="replace")
        rec["elapsed_s"] = (time.monotonic_ns() - spawn_ns) / 1e9
        rec["children_peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        rec["exit_code"] = rc
        result = None
        lines = stdout.strip().splitlines()
        if lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = None
        if result is not None:
            rec.update(result)
        reasons = []
        if result is None:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            reasons.append(f"no result ({tail[0]})")
        if rc != 0:
            reasons.append(f"exit code {rc}")
        if mode != "setup":
            reasons += self._check_artifacts(out_dir, rec)
        rec["failures"] = reasons
        reference = self.spec["artifacts"]["summary.txt"]
        if mode == "setup":
            rec["attempted"] = rec["failed"] = reference if reasons else 0
        else:
            rec["attempted"] = len(rec.get("verdicts", [])) or reference
            rec["failed"] = (rec["attempted"] if reasons
                             else rec["fail_lines"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def _check_artifacts(self, out_dir: Path, rec: dict) -> list[str]:
        reasons = []
        rows = {}
        for name, expected in self.spec["artifacts"].items():
            path = out_dir / name
            if not path.is_file():
                reasons.append(f"{name} missing")
                continue
            rows[name] = artifact_rows(path)
            if expected is not None and rows[name] != expected:
                reasons.append(f"{name} has {rows[name]} rows, "
                               f"reference {expected}")
        summary = out_dir / "summary.txt"
        text = summary.read_text(encoding="utf-8") if summary.is_file() else ""
        rec["fail_lines"] = sum(line.startswith("[FAIL]")
                                for line in text.splitlines())
        rec["artifact_rows"] = rows
        return reasons


def provenance(workload: str, seed: int, samples: list[dict]) -> dict:
    import glob
    import hashlib
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {s["blas_threads"] for s in samples if "blas_threads" in s}
    hashes = {s["config_sha256"] for s in samples if "config_sha256" in s}
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = None
    caches = "/sys/devices/system/cpu/cpu0/cache/index*"
    for index in sorted(glob.glob(caches)):
        try:
            if Path(index, "level").read_text().strip() == "3":
                l3 = Path(index, "size").read_text().strip()
        except OSError:
            pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_threads": threads.pop() if len(threads) == 1 else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_cache": l3,
        "git_commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "config_sha256": hashes.pop() if len(hashes) == 1 else None,
    }


def _median(recs: list[dict], key: str, fallback: str) -> dict:
    values = [r[key] if key in r else r[fallback] for r in recs]
    return summarize(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaplab" / "cli.py").is_file():
        print(f"perfbench: no gaplab source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_runs" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir)

    setups, samples = [], []
    if args.trace:
        samples.append(runner.sample("trace"))
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(runner.sample("setup"))
        window = time.monotonic()
        while len(samples) < runner.spec["samples"]:
            samples.append(runner.sample("run"))
            longest = max(s["elapsed_s"] for s in samples)
            elapsed = time.monotonic() - window
            if (elapsed + longest > args.seconds
                    or longest > runner.remaining()):
                break

    attempted = sum(s["attempted"] for s in setups + samples)
    failed = sum(s["failed"] for s in setups + samples)
    checks_failed_frac = failed / attempted if attempted else 1.0
    if args.trace:
        trace = samples[0].get("trace", {})
        metrics = {name: {"value": trace.get(name, 0),
                          "unit": tracer.metric_unit(name)}
                   for name in tracer.metric_names()}
        stats = {}
        if "trace" in samples[0]:
            wall = trace["trace.wall_s"]
            accounted = samples[0]["self_time_total_s"] + \
                trace["trace.outside_s"]
            stats["accounting_residual_s"] = accounted - wall
    else:
        stats = {
            "wall_s": _median(samples, "wall_s", "elapsed_s"),
            "setup_s": _median(setups + samples, "setup_s", "elapsed_s"),
            "peak_rss_mb": _median(samples, "peak_rss_mb",
                                   "children_peak_rss_mb"),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v["median"], "unit": units[k]}
                   for k, v in stats.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "command": runner.spec["command"],
        "config": config_for(args.workload, args.seed, "<sample dir>"),
        "provenance": provenance(args.workload, args.seed, setups + samples),
        "attempted": attempted, "failed": failed,
        "checks_failed_frac": checks_failed_frac,
        "stats": stats, "metrics": metrics,
        "setup_samples": setups, "samples": samples,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1),
                                         encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} pipeline sample(s), {len(setups)} set-up "
          f"sample(s), {time.monotonic() - runner.started:.1f} s")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
        if "accounting_residual_s" in stats:
            print(f"  self times + outside - traced wall = "
                  f"{stats['accounting_residual_s']:.3g} s")
    else:
        for name, st in stats.items():
            print(f"  {name:12s} {st['median']:12.4f} {units[name]:3s} "
                  f"(median; q1 {st['q1']:.4f}, q3 {st['q3']:.4f}; "
                  f"n={st['n']})")
    print(f"  {'checks_failed_frac':12s} {checks_failed_frac:12.4f} fraction "
          f"({failed} of {attempted} checks failed)")
    for s in setups + samples:
        for reason in s["failures"]:
            print(f"  FAILED {s['mode']} sample: {reason}")
    prov = record["provenance"]
    print("  env: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"  full record: {run_dir.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
