"""One fresh gaplab process, started by perfbench/run.py for each sample.

    python3 perfbench/worker.py --root DIR --command CMD --config FILE
        --spawn-ns T --mode {setup,run,trace,profile}

``setup`` stops after imports and the config merge; ``run`` also runs the
pipeline; ``trace`` runs it with spans installed; ``profile`` adds a call
counter on the original functions, which the self-test compares with the
spans.  The last line of standard output is one JSON object.  The exit code
is gaplab's own: 0 when every check passed, 1 when one failed; an exception
propagates as a traceback and exit code 1.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "profile"))
    return parser.parse_args(argv)


def _call_counter(tracer_module):
    """Counts calls of the original traced functions via sys.setprofile."""
    import importlib

    import numpy.linalg as linalg

    targets = {}
    for modname, funcs in tracer_module.LAYERS.items():
        module = importlib.import_module(f"gaplab.{modname}")
        for fn in funcs:
            targets[getattr(module, fn).__code__] = f"{modname}.{fn}"
    for op in tracer_module.KERNELS:
        targets[getattr(linalg, op)._implementation.__code__] = f"kernel.{op}"
    counts = dict.fromkeys(targets.values(), 0)

    def count(frame, event, arg):
        if event == "call":
            name = targets.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    return counts, count


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                func = getattr(handle, sym)
                func.restype = ctypes.c_int
                return func()
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(args.root / "src"))
    from gaplab import cli

    cfg = cli.load_config(args.config)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    from workloads import config_sha256

    result = {"setup_s": setup_s, "config_sha256": config_sha256(cfg),
              "blas_threads": _blas_threads()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = counts = None
    if args.mode in ("trace", "profile"):
        import tracer as tracer_module

        if args.mode == "profile":
            counts, count = _call_counter(tracer_module)
        tracer = tracer_module.Tracer()
        tracer.install()
        if counts is not None:
            sys.setprofile(count)
    out_dir = Path(cfg["outputs"]["directory"])
    start = time.perf_counter()
    reports = cli.run(cfg, [args.command], out_dir)
    wall_s = time.perf_counter() - start
    sys.setprofile(None)

    passed = all(rep.passed for rep in reports)
    result.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        verdicts=[[rep.name, label, ok]
                  for rep in reports for label, ok, _ in rep.checks])
    if tracer is not None:
        result["trace"] = tracer.metrics(wall_s)
        result["self_time_total_s"] = tracer.self_time_total()
    if counts is not None:
        result["profile_calls"] = counts
    print(json.dumps(result))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
