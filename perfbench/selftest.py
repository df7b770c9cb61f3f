"""Self-test of the benchmark's tracing, run by hand:

    python3 perfbench/selftest.py [--workload NAME ...] [--seed 7]

For each workload it starts one untraced and one profiled worker and checks:

* every declared span saw exactly as many calls as the original function
  executed (counted by ``sys.setprofile``), so no binding escaped the
  tracer, and the kernel spans saw every ``eigvalsh``, ``eigh`` and SVD,
  including the SVDs that matrix 2-norms run;
* every span records at least one call on each workload that the mapping
  table names as its heavy one;
* the traced run reports the same check verdicts as the untraced run;
* the self times of all spans plus the time outside any span add up to the
  traced wall time.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_workload(name: str, seed: int) -> list[str]:
    run_dir = run.ROOT / ".bench_runs" / f"selftest-{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = run.Runner(name, seed, run_dir, deadline_s=900.0)
    plain = runner.sample("run")
    traced = runner.sample("profile")
    problems = []
    for rec, label in ((plain, "untraced"), (traced, "traced")):
        for reason in rec["failures"]:
            problems.append(f"{label} run failed: {reason}")
    if problems:
        return problems

    spans = traced["trace"]
    counted = traced["profile_calls"]
    kernels = [f"kernel.{op}" for op in tracer.KERNELS]
    for span in tracer.span_names() + kernels:
        seen = spans[f"{span}.calls"]
        if seen != counted[span]:
            problems.append(f"{span}: span saw {seen} calls, "
                            f"function ran {counted[span]} times")
        if name in tracer.heavy_workloads(span) and seen == 0:
            problems.append(f"{span}: no call on its heavy workload")
    if plain["verdicts"] != traced["verdicts"]:
        problems.append("traced verdicts differ from untraced verdicts")
    wall = spans["trace.wall_s"]
    residual = traced["self_time_total_s"] + spans["trace.outside_s"] - wall
    if abs(residual) > 1e-6 * wall:
        problems.append(f"self times + outside differ from the traced wall "
                        f"by {residual:.3g} s")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/selftest.py")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    failed = False
    for name in args.workload or list(WORKLOADS):
        problems = check_workload(name, args.seed)
        failed = failed or bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {name}")
        for problem in problems:
            print(f"    {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
