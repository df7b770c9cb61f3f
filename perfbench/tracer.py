"""Spans around gaplab's public functions and numpy.linalg kernels.

Everything here is installed from outside the program: the tracer replaces
each declared function with a timing wrapper in its defining module, in every
``gaplab`` module that imported it by name, and in ``cli.PIPELINES``.  Calls
through any of those bindings land in the same span.

A span's self time is its duration minus the time its child spans cover, so
over one traced run the self times of all spans plus the time outside any
span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

# The per-layer functions the benchmark traces, by module.
LAYERS = {
    "cli": ["cmd_validate", "cmd_ltqo", "cmd_flow", "cmd_bounds",
            "cmd_gapsweep", "cmd_highergaps", "cmd_sp0scan", "flow_bundle",
            "constants_bundle", "write_artifacts"],
    "interaction": ["local_hamiltonian", "validate_unperturbed",
                    "regroup_intervals", "fermion_to_spin"],
    "models": ["orbital_interaction", "aklt_interaction",
               "random_even_perturbation", "auxiliary_basis"],
    "operator_algebra": ["operator_norm", "embed", "conditional_expectation",
                         "delta_layer"],
    "spectra": ["diagonalize", "gap_curve", "higher_gap_track",
                "sp0_diameter_scan", "cluster_projector", "resolution_family",
                "ground_projector", "kernel_basis_dense", "sigma_projection"],
    "ltqo": ["ltqo_witness", "witness_tensor", "ascent_lower_bound",
             "exact_zero_certificate"],
    "spectral_flow": ["flow_unitaries", "eigenbasis_generator",
                      "time_quadrature_generator", "filter_identity_residual",
                      "decompose_phi1", "split_phi1", "theta_assembly"],
    "stability_bounds": ["uniform_strengths", "bound_constants",
                         "stability_threshold", "verify_form_bound"],
    "ffunction": ["f_norm", "convolution_constant"],
}

KERNELS = ("eigvalsh", "eigh", "svd")

# The workload on which each span does the work the mapping table in
# perfbench/README.md assigns to it; the self-test requires a call there.
HEAVY = {
    "cli.cmd_sp0scan": ["sp0-L12"],
    "interaction.local_hamiltonian": ["all-L10", "sp0-L12"],
    "spectra.sp0_diameter_scan": ["sp0-L12"],
    "kernel.eigvalsh": ["sp0-L12"],
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def heavy_workloads(span: str) -> list[str]:
    return HEAVY.get(span, ["all-L10"])


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    for op in KERNELS:
        names += [f"kernel.{op}.calls", f"kernel.{op}.s", f"kernel.{op}.gflop"]
    names += ["kernel.max_n", "kernel.eig.repeat_frac", "trace.wall_s",
              "trace.outside_s", "trace.hash_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".gflop"):
        return "gflop-computed"
    if name == "kernel.max_n":
        return "dim"
    if name.endswith("_frac"):
        return "fraction"
    return "s"


# ---------------------------------------------------------------------------
# operation counts (Golub & Van Loan, Matrix Computations, 4th ed., 8.3 and
# 8.6): symmetric eigenvalues 4n^3/3, with vectors 9n^3; singular values of
# an m x n matrix (m >= n) 4mn^2 - 4n^3/3, with full U and V
# 4m^2 n + 8mn^2 + 9n^3, with thin U and V 14mn^2 + 8n^3.  Complex
# arithmetic is weighted x4.  These are computed, not measured.


def _batch_and_dims(a: np.ndarray):
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return batch, a.shape[-2], a.shape[-1]


def kernel_flops(op: str, a: np.ndarray, vectors: bool,
                 full_matrices: bool = True) -> float:
    batch, rows, cols = _batch_and_dims(a)
    if op in ("eigvalsh", "eigh"):
        n = rows
        flops = 9.0 * n ** 3 if vectors else 4.0 * n ** 3 / 3.0
    else:
        m, n = max(rows, cols), min(rows, cols)
        if not vectors:
            flops = 4.0 * m * n ** 2 - 4.0 * n ** 3 / 3.0
        elif full_matrices:
            flops = 4.0 * m ** 2 * n + 8.0 * m * n ** 2 + 9.0 * n ** 3
        else:
            flops = 14.0 * m * n ** 2 + 8.0 * n ** 3
    if np.iscomplexobj(a):
        flops *= 4.0
    return batch * flops


# ---------------------------------------------------------------------------
# spans


def _rebind(original, replacement):
    """Point every gaplab module binding of ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "gaplab"
                                  or modname.startswith("gaplab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """In-memory span recorder; nothing is written until ``metrics``."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.stack: list[list] = []          # [name, start, child_time]
        self.top_level_s = 0.0
        self.gflop = {op: 0.0 for op in KERNELS}
        self.max_n = 0
        self.eig_solves = 0
        self.eig_repeats = 0
        self.seen: set = set()

    def enter(self, name: str):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        stat.calls += 1
        stat.self_s += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.top_level_s += duration

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def spanned(*args, **kwargs):
            self.enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.exit()
        return spanned

    # -- kernels -----------------------------------------------------------

    def _note_matrix(self, op: str, a: np.ndarray, vectors: bool,
                     full_matrices: bool = True):
        if a.ndim < 2:
            return              # numpy rejects it; nothing to count
        self.max_n = max(self.max_n, *a.shape[-2:])
        self.gflop[op] += kernel_flops(op, a, vectors, full_matrices) / 1e9

    def _note_eig_input(self, a: np.ndarray):
        self.enter("trace.hash")
        try:
            buf = np.ascontiguousarray(a)
            digest = hashlib.blake2b(buf.view(np.uint8).reshape(-1),
                                     digest_size=16)
            digest.update(f"{buf.dtype.str}{buf.shape}".encode())
            key = digest.digest()
        finally:
            self.exit()
        self.eig_solves += 1
        if key in self.seen:
            self.eig_repeats += 1
        else:
            self.seen.add(key)

    def kernel_wrappers(self, linalg) -> dict:
        orig_eigvalsh, orig_eigh = linalg.eigvalsh, linalg.eigh
        orig_svd, orig_norm = linalg.svd, linalg.norm

        def eigvalsh(a, *args, **kwargs):
            self.enter("kernel.eigvalsh")
            try:
                arr = np.asarray(a)
                self._note_matrix("eigvalsh", arr, vectors=False)
                self._note_eig_input(arr)
                return orig_eigvalsh(a, *args, **kwargs)
            finally:
                self.exit()

        def eigh(a, *args, **kwargs):
            self.enter("kernel.eigh")
            try:
                arr = np.asarray(a)
                self._note_matrix("eigh", arr, vectors=True)
                self._note_eig_input(arr)
                return orig_eigh(a, *args, **kwargs)
            finally:
                self.exit()

        def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            self.enter("kernel.svd")
            try:
                self._note_matrix("svd", np.asarray(a), vectors=compute_uv,
                                  full_matrices=full_matrices)
                return orig_svd(a, full_matrices, compute_uv, *args, **kwargs)
            finally:
                self.exit()

        def norm(x, ord=None, axis=None, keepdims=False):
            # a matrix 2-norm is the largest singular value: numpy computes
            # it with a values-only SVD that bypasses numpy.linalg.svd
            arr = np.asarray(x)
            if ord != 2 or arr.ndim != 2 or axis not in (None, (0, 1)):
                return orig_norm(x, ord, axis, keepdims)
            self.enter("kernel.svd")
            try:
                self._note_matrix("svd", arr, vectors=False)
                return orig_norm(x, ord, axis, keepdims)
            finally:
                self.exit()

        return {"eigvalsh": eigvalsh, "eigh": eigh, "svd": svd, "norm": norm}

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        import numpy.linalg as linalg

        cli = importlib.import_module("gaplab.cli")
        for modname, funcs in LAYERS.items():
            module = importlib.import_module(f"gaplab.{modname}")
            for fn in funcs:
                original = getattr(module, fn)
                wrapped = self.wrap(f"{modname}.{fn}", original)
                _rebind(original, wrapped)
                for key, value in list(cli.PIPELINES.items()):
                    if value is original:
                        cli.PIPELINES[key] = wrapped
        for name, wrapped in self.kernel_wrappers(linalg).items():
            original = getattr(linalg, name)
            setattr(linalg, name, wrapped)
            _rebind(original, wrapped)

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        def stat(name):
            return self.stats.get(name, _Stat())

        out = {}
        for span in span_names():
            out[f"{span}.calls"] = stat(span).calls
            out[f"{span}.self_s"] = stat(span).self_s
        for op in KERNELS:
            out[f"kernel.{op}.calls"] = stat(f"kernel.{op}").calls
            out[f"kernel.{op}.s"] = stat(f"kernel.{op}").self_s
            out[f"kernel.{op}.gflop"] = self.gflop[op]
        out["kernel.max_n"] = self.max_n
        out["kernel.eig.repeat_frac"] = (self.eig_repeats / self.eig_solves
                                         if self.eig_solves else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.outside_s"] = wall_s - self.top_level_s
        out["trace.hash_s"] = stat("trace.hash").self_s
        return out

    def self_time_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())
