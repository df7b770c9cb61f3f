"""Config-driven experiment runner emitting deterministic CSV/JSON artifacts.

Subcommands cover the pipeline stages: ``validate`` (frustration-free
structure, fermion/spin spectral agreement, interval regrouping), ``ltqo``
(indistinguishability witnesses), ``flow`` (projector transport and the
anchored decomposition identities), ``bounds`` (certified constants and the
relative form bound), ``gapsweep`` / ``highergaps`` (measured gaps against
the certified lower bounds), ``sp0scan`` (low-cluster diameter versus
interior depth) and ``all``.

Identical config and seeds, at one BLAS thread count, give byte-identical
CSV files: floats are printed with ``repr`` (shortest round-trip decimal),
rows follow fixed orders, and nothing time- or host-dependent is written.
Exit codes: 0 all requested checks passed, 1 at least one failed, 2 config
error.  A numerical step that cannot be certified (a refinement, gap, ODE
or eigensolver failure) is a failed check, ``[FAIL] <pipeline>: not
certified`` with the reason, so it exits 1 with the artifacts written.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ffunction import DressedDecay, FFunctionSpec, ShiftedEnvelope, \
    WeightSpec, convolution_constant, f_norm, regroup_decay
from .interaction import Interaction, fermion_to_spin, from_json, \
    local_hamiltonian, random_interaction, regroup_intervals, \
    split_edge_bulk, validate_unperturbed
from .lattice import Interval, ball, boundary_distances, interior
from .ltqo import ltqo_witness
from .models import aklt_interaction, auxiliary_basis, kernel_data, \
    orbital_interaction, orbital_spectrum, paired_orbital_model, \
    random_even_perturbation, validate_model
from .operator_algebra import MAX_DENSE_DIM, operator_norm
from .spectra import FrustrationError, gap_curve, higher_gap_track, \
    resolution_family, sigma_projection, sp0_diameter_scan
from .spectral_flow import Window, decompose_phi1, \
    filter_identity_residual, flow_unitaries, split_phi1, \
    theta_assembly, time_quadrature_generator
from .stability_bounds import FORMULAS, OmegaProfile, bound_constants, \
    calibrate_c, higher_gap_bound, higher_gap_threshold, j_constants, \
    kappa_bound, stability_threshold, uniform_strengths, verify_form_bound, \
    volume_form_constants

COMMANDS = ("validate", "ltqo", "flow", "bounds", "gapsweep", "highergaps",
            "sp0scan", "all")

# term-norm envelope of the seeded perturbations: A exp(-K n^s) / (1+n)^kappa
ENVELOPE = {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0}

# the largest constants.truncation: each series is summed as a dense array
# of its terms, about 85 MB per million
MAX_TRUNCATION = 10 ** 6

DEFAULTS = {
    "model": "orbital",          # orbital | file:<interaction.json>
    "lengths": [6, 8, 10, 12],
    "D": 3,                      # interior depth / profile cut-off
    "eps_grid": {"start": 0.0, "stop": 0.05, "steps": 11},
    "gamma": 0.8,                # filter width and gap-tracking floor
    "seeds": [7],
    "constants": {
        "C": None,               # null -> calibrate from the flow
        "F": {"L": 1.0, "c": 1.0, "kappa": 4.0, "K": 0.5, "s": 1.0},
        "truncation": 2000,
    },
    "flow": {"length": 8, "max_radius": 2, "eps": 0.02, "checkpoints": 33,
             "window": "bump", "ode_tol": 1e-8},
    "ltqo": {"length": 8, "aklt_lengths": [6, 7, 8], "restarts": 6,
             "iters": 150},
    "sp0": {"length": 12, "eps": 0.02, "depths": [2, 3, 4, 5]},
    "higher": {"nu": 1.0, "mu": 2.0, "top": 2.0},
    "outputs": {"directory": "results", "formats": ["csv", "json"]},
}


class ConfigError(ValueError):
    """Invalid configuration; message carries field diagnostics."""


# ---------------------------------------------------------------------------
# configuration


def _check_tree(value, default, path, errors):
    label = path or "config"
    if isinstance(default, dict):
        if not isinstance(value, dict):
            errors.append(f"{label}: expected a table")
            return
        for key in value:
            if key not in default:
                errors.append(f"{label}.{key}: unknown field"
                              if path else f"{key}: unknown field")
        for key, sub in default.items():
            if key in value:
                sub_path = f"{path}.{key}" if path else key
                _check_tree(value[key], sub, sub_path, errors)
    elif isinstance(default, list):
        if not isinstance(value, list):
            errors.append(f"{label}: expected a list")
        elif default:
            for i, item in enumerate(value):
                _check_tree(item, default[0], f"{path}[{i}]", errors)
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{label}: expected an integer")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{label}: expected a number")
    elif isinstance(default, str):
        if not isinstance(value, str):
            errors.append(f"{label}: expected a string")
    # a None default places no constraint (optional field)


def merged_config(user: dict | None) -> dict:
    cfg = copy.deepcopy(DEFAULTS)

    def deep(dst, src):
        for key, val in src.items():
            if isinstance(val, dict) and isinstance(dst.get(key), dict):
                deep(dst[key], val)
            else:
                dst[key] = copy.deepcopy(val)

    deep(cfg, user or {})
    errors: list[str] = []
    _check_tree(cfg, DEFAULTS, "", errors)
    if not errors:
        grid = cfg["eps_grid"]
        if grid["start"] != 0.0:
            errors.append("eps_grid.start: sweeps must start at coupling 0")
        if grid["stop"] <= 0 or grid["steps"] < 2:
            errors.append("eps_grid: need stop > 0 and steps >= 2")
        if cfg["D"] < 1:
            errors.append("D: interior depth must be at least 1")
        if not cfg["lengths"] or any(n < 2 for n in cfg["lengths"]):
            errors.append("lengths: need chain lengths of at least 2 sites")
        if not cfg["seeds"]:
            errors.append("seeds: need at least one seed")
        elif len(cfg["seeds"]) > 1:
            errors.append(f"seeds: every pipeline reads one seed; got "
                          f"{len(cfg['seeds'])}, run once per seed")
        elif cfg["seeds"][0] < 0:
            errors.append(f"seeds: a seed must be non-negative; got "
                          f"{cfg['seeds'][0]}")
        if cfg["gamma"] <= 0:
            errors.append("gamma: the tracking floor must be positive")
        if cfg["higher"]["mu"] <= cfg["higher"]["nu"]:
            errors.append("higher: need mu above nu for a window")
        model = cfg["model"]
        if model != "orbital" and not model.startswith("file:"):
            errors.append(f"model: unknown model spec {model!r}")
        for field, sizes, d in (
                ("lengths", cfg["lengths"], 2),
                ("flow.length", [cfg["flow"]["length"]], 2),
                ("ltqo.length", [cfg["ltqo"]["length"]], 2),
                ("ltqo.aklt_lengths", cfg["ltqo"]["aklt_lengths"], 3),
                ("sp0.length", [cfg["sp0"]["length"]], 2)):
            big = [n for n in sizes if d ** min(n, 64) > MAX_DENSE_DIM]
            if big:
                errors.append(f"{field}: chains of {big} sites exceed the "
                              f"dense limit of {MAX_DENSE_DIM} states")
        cval = cfg["constants"]["C"]
        if cval is not None and (isinstance(cval, bool)
                                 or not isinstance(cval, (int, float))
                                 or cval <= 0):
            errors.append("constants.C: must be a positive number or null")
        if cfg["flow"]["checkpoints"] < 3:
            errors.append("flow.checkpoints: need at least 3 grid points")
        for field in ("eps", "ode_tol"):
            if cfg["flow"][field] <= 0:
                errors.append(f"flow.{field}: must be positive")
        for field in ("restarts", "iters"):
            if cfg["ltqo"][field] < 1:
                errors.append(f"ltqo.{field}: need at least 1")
        sp0 = cfg["sp0"]
        if not sp0["depths"]:
            errors.append("sp0.depths: need at least one depth")
        if any(d < 0 for d in sp0["depths"]):
            errors.append("sp0.depths: depths must be non-negative")
        if sp0["eps"] <= 0:
            errors.append("sp0.eps: must be positive")
        bad = [f for f in cfg["outputs"]["formats"] if f not in ("csv", "json")]
        if bad:
            errors.append(f"outputs.formats: unsupported {bad}")
        if cfg["flow"]["max_radius"] < 0:
            errors.append("flow.max_radius: must be non-negative")
        errors += _short_chains(cfg) + _config_objects(cfg)
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def _short_chains(cfg: dict) -> list[str]:
    """Config lines for chains shorter than the geometry their pipelines
    need: the orbital structure check an auxiliary basis (a diameter above
    the model's ``N0``), the flow's resolutions an interior two sites deep,
    the orbital chains on ``[1, L]`` a full pair, the spin-1 chain a bond."""
    def has_pair(n):
        return bool(paired_orbital_model(_window(n, 1)).f_orbitals)

    def has_basis(n):
        lam = _window(n)
        return lam.diameter > paired_orbital_model(lam).N0

    rules = [("flow.length", [cfg["flow"]["length"]],
              lambda n: interior(_window(n), 2) is not None,
              "an interior two sites deep"),
             ("ltqo.length", [cfg["ltqo"]["length"]], has_pair,
              "a full orbital pair"),
             ("sp0.length", [cfg["sp0"]["length"]], has_pair,
              "a full orbital pair"),
             ("ltqo.aklt_lengths", cfg["ltqo"]["aklt_lengths"],
              lambda n: _window(n).diameter >= 1, "a bond")]
    if cfg["model"] == "orbital":
        rules.append(("lengths", cfg["lengths"], has_basis,
                      "a diameter above N0 for the auxiliary basis"))
    errors = []
    for field, sizes, fits, need in rules:
        short = [n for n in sizes if n < 1 or not fits(n)]
        if short:
            errors.append(f"{field}: chains of {short} sites are too short: "
                          f"need {need}")
    return errors


def _config_objects(cfg: dict) -> list[str]:
    """Check the filter window's kind, build what the pipelines build from
    config alone, and turn each constructor's ``ValueError`` into a config
    line: the base envelope with its shifted envelope ``F_0`` and dressed
    decay ``F_phi`` on ``constants.F``, then every certified series at the
    one truncation on ``constants.truncation``, which is refused above
    ``MAX_TRUNCATION`` before any is summed: the J sums of the step profile
    and ``F_0``, the lattice norm under ``C_F`` and the regrouped decay (a
    weight whose regrouping tail cannot be certified there is refused).
    ``F_phi`` is taken at filter width and velocity 1, the J sums at flow
    constant 1: these only scale them."""
    errors = []
    if cfg["flow"]["window"] != "bump":
        errors.append("flow.window: unknown window kind "
                      f"{cfg['flow']['window']!r}")
    try:
        base = base_envelope(cfg)
        f0 = ShiftedEnvelope(base, R=1)
        DressedDecay(f0, 1.0, 1.0)
    except ValueError as exc:
        return errors + [f"constants.F: {exc}"]
    truncation = cfg["constants"]["truncation"]
    if truncation > MAX_TRUNCATION:
        return errors + [f"constants.truncation: at most {MAX_TRUNCATION} "
                         f"terms; got {truncation}"]
    try:
        j_constants(1.0, _step_profile(cfg), f0, truncation)
        convolution_constant(base, truncation)
        regroup_decay(base, truncation)
    except ValueError as exc:
        errors.append(f"constants.truncation: {exc}")
    return errors


def load_config(path: Path | None, seed: int | None = None) -> dict:
    """The config of ``path`` (or the defaults), ``seed`` as its seeds."""
    user = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config root must be an object")
    if seed is not None:
        user["seeds"] = [seed]
    cfg = merged_config(user)
    if cfg["model"].startswith("file:"):
        _model_file(cfg)
    return cfg


def _model_file(cfg: dict) -> Interaction:
    """The interaction of a ``file:<interaction.json>`` model spec."""
    path = Path(cfg["model"][len("file:"):])
    try:
        return from_json(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"model: cannot load {path}: "
                          f"{type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# report plumbing


class Report:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[tuple[str, bool, str]] = []
        self.tables: dict[str, tuple[list[str], list[tuple]]] = {}
        self.ledger: dict | None = None

    def check(self, label: str, ok, detail: str = "") -> bool:
        self.checks.append((label, bool(ok), detail))
        return bool(ok)

    def table(self, filename: str, header: list[str], rows: list[tuple]):
        self.tables[filename] = (header, rows)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_artifacts(reports: list[Report], out_dir: Path, formats) -> Path:
    """Write every report's tables (``csv``), its ledger (``json``) and the
    summary into the existing directory ``out_dir``; a file that cannot be
    written raises its ``OSError``."""
    out_dir = Path(out_dir)
    for rep in reports:
        if "csv" in formats:
            for filename, (header, rows) in rep.tables.items():
                with open(out_dir / filename, "w", encoding="utf-8",
                          newline="") as fh:
                    fh.write(",".join(header) + "\n")
                    for row in rows:
                        fh.write(",".join(_cell(v) for v in row) + "\n")
        if "json" in formats and rep.ledger is not None:
            with open(out_dir / "constants.json", "w", encoding="utf-8") as fh:
                json.dump(rep.ledger, fh, indent=2, sort_keys=True)
                fh.write("\n")
    lines = summary_lines(reports)
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")
    return out_dir


def summary_lines(reports: list[Report]) -> list[str]:
    lines = []
    for rep in reports:
        for label, ok, detail in rep.checks:
            tag = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            lines.append(f"[{tag}] {rep.name}: {label}{suffix}")
    return lines


# ---------------------------------------------------------------------------
# shared fixtures


def _window(length: int, offset: int = 0) -> Interval:
    return Interval(offset, offset + length - 1)


def _orbital(lam: Interval):
    model = paired_orbital_model(lam)
    validate_model(model, lam)
    return model, orbital_interaction(model, lam)


def base_envelope(cfg: dict) -> FFunctionSpec:
    f = cfg["constants"]["F"]
    weight = WeightSpec(K=f["K"], s=f["s"])
    return FFunctionSpec(L=f["L"], c=f["c"], kappa=f["kappa"], weight=weight)


def _step_profile(cfg: dict) -> OmegaProfile:
    """The indistinguishability profile: amplitude 2 below the depth D."""
    return OmegaProfile(2.0, float(cfg["D"]))


def _volume(cfg: dict, lam: Interval):
    """``(lam, eta, pert)``: the orbital chain on ``lam`` and its seeded
    perturbation of radius ``flow.max_radius``."""
    _, eta = _orbital(lam)
    pert = random_even_perturbation(lam, cfg["flow"]["max_radius"], ENVELOPE,
                                    cfg["seeds"][0])
    return lam, eta, pert


def _form_bound_checkpoints(n_check: int) -> list[int]:
    """Checkpoint indices of the couplings at which the form bound is
    checked: a quarter, half and all of the flow's ``n_check`` steps, each
    kept when it is nonzero."""
    uptos = (int(round(frac * n_check)) for frac in (0.25, 0.5, 1.0))
    return [upto for upto in uptos if upto]


def flow_bundle(cfg: dict, ctx: dict) -> dict:
    """The shared flow fixture: orbital chain + seeded bulk perturbation.

    The flow keeps its unitary at the form-bound couplings alone, and the
    anchored decomposition at each is read off it and split; only the last,
    at ``eps``, is kept, and the unitaries are let go.  The decomposition
    at ``eps`` is then walked one anchor at a time, in order: the anchor's
    ball terms are built, their ``(support, norm)`` pairs kept, and, two
    sites inside, its ball family built, its collected pieces assembled and
    its ``resolutions.csv`` rows taken; then the anchor's piece and family
    are let go.  The fixture keeps only what ``flow``, ``bounds`` and
    ``constants_bundle`` read, as block stacks on the flow's parity
    sectors: the flow (its ``end_spectra`` carry the generators at both
    ends), the residuals of the decomposition at ``eps``, the pairs of its
    ball terms, the form-bound piece of the split at each form-bound
    coupling, the resolution rows, the ball projectors the sign patterns
    read, and the norms and errors of the collected pieces.
    """
    if "flow" in ctx:
        return ctx["flow"]
    fc = cfg["flow"]
    lam, eta, pert = _volume(cfg, _window(fc["length"]))
    psi = split_edge_bulk(pert, lam, fc["max_radius"]).bulk
    window = Window(cfg["gamma"])
    uptos = _form_bound_checkpoints(fc["checkpoints"] - 1)
    flow = flow_unitaries(eta, psi, lam, fc["eps"], window,
                          checkpoints=fc["checkpoints"],
                          ode_tol=fc["ode_tol"], keep=uptos)
    splits = {}
    for upto in uptos:
        # the norms are read at eps alone: before it, only phi2
        at_eps = upto == uptos[-1]
        dec = decompose_phi1(flow, eta, psi, lam, upto, norms=at_eps)
        splits[upto] = split_phi1(dec, flow.p0, norms=at_eps)
        if not at_eps:
            del dec                 # let it go before the next is made
    flow, dec = replace(flow, unitaries={}), replace(dec, v_true=None)
    # one anchor at a time: its ball terms, and two sites inside its ball
    # family, collected pieces (where r_x >= 3) and resolution rows
    inner = interior(lam, 2)
    ball_norms, thetas, resolution_rows = [], {}, []
    sign_members = {1: [], 3: []}
    for x in sorted({*dec.anchors, *inner}):
        terms = dec.ball_terms(x)
        ball_norms += [(t.support, t.op.norm()) for t in terms]
        if x in inner:
            family = resolution_family(eta, lam, x, flow.p0, flow.modulus)
            if family.r_x >= 3:
                thetas[x] = replace(theta_assembly(terms, family),
                                    theta_beta=None, theta_alpha=None)
            resolution_rows += _resolution_rows(family)
            for n, members in sign_members.items():
                if (x - inner.a) % (2 * n + 1) == 0 and family.r_x >= n:
                    members.append((x, ball(lam, x, n),
                                    family.locals[n - 1]))
        dec.anchors.pop(x, None)
        terms = family = None       # let go before the next anchor's
    ctx["flow"] = {"lam": lam, "eta": eta, "psi": psi, "window": window,
                   "flow": flow, "dec": replace(dec, anchors=None),
                   "ball_norms": ball_norms, "splits": splits,
                   "resolution_rows": resolution_rows,
                   "sign_members": sign_members, "thetas": thetas}
    return ctx["flow"]


def _resolution_rows(family) -> list[tuple]:
    """The ``resolutions.csv`` rows of one ball family: its resolution's
    completeness, and the partial-sum and annihilation laws of each of its
    terms below the last two, each term formed once and summed as it goes."""
    x, eye = family.x, np.eye(family.P.shape[-1])
    partial, rows = 0.0, []
    for k in range(1, family.r_x + 3):
        e_k = family.e(k)
        partial = partial + e_k
        if k <= family.r_x:
            rows += [(x, f"partial_sum_{k}",
                      operator_norm(partial - family.q(k))),
                     (x, f"annihilation_{k}",
                      operator_norm(family.locals[k - 1] @ e_k))]
    return [(x, "sum_to_identity", operator_norm(partial - eye))] + rows


def _stability_lengths(cfg: dict) -> list[int]:
    """The configured chains the stability pipelines probe: those of
    diameter above 2 D; a config without one is a config error."""
    lengths = [n for n in cfg["lengths"] if n - 1 > max(2 * cfg["D"], 1)]
    if not lengths:
        raise ConfigError("lengths: no chain exceeds diameter 2 D for the "
                          "stability pipelines")
    return lengths


def constants_bundle(cfg: dict, ctx: dict) -> dict:
    """Certified constants for the orbital model, reusing the flow fixture.

    A supplied ``constants.C`` below the one the flow measures is not
    admissible: it raises ``RuntimeError``, so no line is built on it."""
    if "constants" in ctx:
        return ctx["constants"]
    fb = flow_bundle(cfg, ctx)
    base = base_envelope(cfg)
    depth = cfg["D"]
    truncation = cfg["constants"]["truncation"]

    eta_fnorm = fb["eta"].f_norm(base)
    psi_fnorm = fb["psi"].f_norm(base)
    nu = 2.0 * convolution_constant(base, truncation) * psi_fnorm
    f0 = ShiftedEnvelope(base, R=1)
    f_phi = DressedDecay(f0, fb["window"].gamma, nu)
    omega = _step_profile(cfg)

    c_user = cfg["constants"]["C"]
    phi1_fnorm = f_norm(fb["ball_norms"], f_phi)
    c_measured = calibrate_c(phi1_fnorm, fb["flow"].eps, eta_fnorm, psi_fnorm)
    if c_user is not None and c_user < c_measured:
        raise RuntimeError(f"supplied flow constant C = {c_user:.6g} is below "
                           f"the measured {c_measured:.6g}")
    c_used = float(c_user) if c_user is not None else max(c_measured, 1e-12)

    # uniform strengths over the probe volumes, each built once and kept
    # for the gap sweep
    volumes = {n: _volume(cfg, _window(n, 1))
               for n in _stability_lengths(cfg)}
    phi_for = {lam: pert for lam, _, pert in volumes.values()}
    m_int, m_d = uniform_strengths(phi_for, depth, base)

    gamma0 = validate_unperturbed(lambda lam: _orbital(lam)[1],
                                  [_window(6), _window(8, 1)]).gamma0_candidate

    bc = bound_constants(gamma0, c_used, eta_fnorm, m_int, m_d, omega, f0,
                         truncation)
    ctx["constants"] = {
        "bc": bc, "psi_fnorm": psi_fnorm, "nu": nu, "c_user": c_user,
        "c_measured": c_measured, "phi1_fnorm": phi1_fnorm,
        "volumes": volumes,
    }
    return ctx["constants"]


# ---------------------------------------------------------------------------
# pipelines


_VALIDATE_HEADER = ["model", "length", "offset", "ground_energy", "gap",
                    "kernel_dim", "kernel_expected", "aux_dim",
                    "aux_interior_leak", "status"]


def cmd_validate(cfg: dict, ctx: dict) -> Report:
    """Model structure, one ``validate.csv`` row per volume.  Every volume,
    of a ``file:`` model, the orbital chain or the spin-1 chain, is read
    through ``interaction.validate_unperturbed``: its spectrum, ground
    energy, kernel and ``gap``, the step above its kernel."""
    rep = Report("validate")
    rows = []

    if cfg["model"].startswith("file:"):
        volumes = [_window(n) for n in cfg["lengths"]]
        report = validate_unperturbed(_model_file(cfg).restricted, volumes)
        for r in report.rows:
            rows.append(("custom", len(r.lam), r.lam.a, r.ground_energy,
                         r.gap, r.kernel_dim, -1, -1, 0.0,
                         "ok" if r.frustration_free else "fail"))
            rep.check(f"custom ground energy on {r.lam}", r.frustration_free,
                      f"E0 = {r.ground_energy:.2e}")
        rep.table("validate.csv", _VALIDATE_HEADER, rows)
        return rep

    # orbital chain on both window alignments; to 10 sites, the spin image
    # must equal the fermionic matrix and its spectrum the closed form
    volumes = [_window(length, offset) for length in cfg["lengths"]
               for offset in (0, 1)]
    chains = {lam: _orbital(lam) for lam in volumes}
    report = validate_unperturbed(lambda lam: chains[lam][1], volumes)
    jw_rows = []
    for r in report.rows:
        lam, (model, eta) = r.lam, chains[r.lam]
        kexp, free = kernel_data(model, lam)
        aux = auxiliary_basis(model, lam)
        deep = interior(lam, 3 * model.R)
        if deep is not None:
            idx = [i for i, s in enumerate(lam) if s in deep]
            leak = float(np.max(np.abs(aux[idx, :]))) if aux.size else 0.0
        else:
            leak = 0.0
        ok = (r.frustration_free and abs(r.gap - 1.0) <= 1e-9
              and r.kernel_dim == kexp and len(free) <= 6 * model.R
              and aux.shape[1] <= 6 * model.R and leak <= 1e-12)
        rows.append(("orbital", len(lam), lam.a, r.ground_energy, r.gap,
                     r.kernel_dim, kexp, aux.shape[1], leak,
                     "ok" if ok else "fail"))
        rep.check(f"orbital structure on {lam}", ok,
                  f"E0 = {r.ground_energy:.1e}, gap = {r.gap:.12f}, "
                  f"kernel {r.kernel_dim}/{kexp}, leak = {leak:.1e}")
        if len(lam) <= 10:
            # the same supports and matrices, in the same order, place
            # into the same Hamiltonian entry for entry on every volume
            spin = fermion_to_spin(eta).terms
            same = len(spin) == len(eta.terms) and all(
                s.support == t.support
                and np.array_equal(s.op.matrix, t.op.matrix)
                for s, t in zip(spin, eta.terms))
            dev = float(np.max(np.abs(r.evals
                                      - orbital_spectrum(model, lam))))
            jw_rows.append((len(lam), lam.a, dev,
                            "ok" if same and dev <= 1e-10 else "fail"))

    # spin-1 projector chain
    volumes = [_window(n) for n in cfg["ltqo"]["aklt_lengths"]]
    for r in validate_unperturbed(aklt_interaction, volumes).rows:
        ok = r.frustration_free and r.kernel_dim == 4
        rows.append(("aklt", len(r.lam), 0, r.ground_energy, r.gap,
                     r.kernel_dim, 4, -1, 0.0, "ok" if ok else "fail"))
        rep.check(f"aklt structure on {r.lam}", ok,
                  f"E0 = {r.ground_energy:.1e}, kernel {r.kernel_dim}/4, "
                  f"gap = {r.gap:.6f}")
    rep.table("validate.csv", _VALIDATE_HEADER, rows)
    for length, offset, dev, status in jw_rows:
        rep.check(f"fermion/spin spectra on {_window(length, offset)}",
                  status == "ok", f"max deviation {dev:.2e}")
    rep.table("jw.csv", ["length", "offset", "spectrum_deviation", "status"],
              jw_rows)

    # interval regrouping is exact on every subinterval and norm-decreasing
    base = base_envelope(cfg)
    regrouped = regroup_decay(base, cfg["constants"]["truncation"])
    rg_rows = []
    worst_dev, worst_norm = 0.0, -np.inf
    for i in range(20):
        length = 6 + (i % 3)
        lam = _window(length)
        psi = random_interaction(lam, seed=cfg["seeds"][0] + i, n_terms=6,
                                 max_diameter=2)
        grouped = regroup_intervals(psi)
        dev = 0.0
        for a in range(lam.a, lam.b + 1):
            for b in range(a, lam.b + 1):
                sub = Interval(a, b)
                h_before = local_hamiltonian(psi, sub).matrix
                h_after = local_hamiltonian(grouped, sub).matrix
                dev = max(dev, float(np.max(np.abs(h_before - h_after))))
        norm_before = psi.f_norm(base)
        norm_after = grouped.f_norm(regrouped)
        rg_rows.append((i, length, dev, norm_after, norm_before,
                        "ok" if dev <= 1e-12 and norm_after <= norm_before
                        else "fail"))
        worst_dev = max(worst_dev, dev)
        worst_norm = max(worst_norm, norm_after - norm_before)
    rep.table("regroup.csv",
              ["trial", "length", "max_subinterval_deviation",
               "regrouped_norm", "original_norm", "status"], rg_rows)
    rep.check("regrouping exact on all subintervals (20 trials)",
              worst_dev <= 1e-12, f"max deviation {worst_dev:.2e}")
    rep.check("regrouped norm never exceeds the original",
              worst_norm <= 0.0, f"max excess {worst_norm:.2e}")
    return rep


def cmd_ltqo(cfg: dict, ctx: dict) -> Report:
    """Order witnesses: certified zeros on the paired-orbital chain, one-pass
    brackets on the spin-1 chain, and every row's certified upper end.

    Every orbital row ``(x, n, k)`` has ``k < min(n, r_near)``, so its region
    ``b(x, k)`` lies strictly inside the volume ``b(x, n)`` and misses the
    volume's end sites, the only sites not covered by a full pair.  On every
    other site the kernel of the commuting pair projectors is one fixed state
    per pair, so ``P A P = omega(A) P`` for every even ``A``: the certificate
    is exact on both sides of the cut-off.  The AKLT verdict reads the
    bracket's lower end, ``value``, against the geometric budget.
    """
    rep = Report("ltqo")
    lc = cfg["ltqo"]
    depth = cfg["D"]
    seen: dict = {}     # each kernel and witness once per call
    rows = []

    # paired-orbital chain: certified zeros over the even columns
    lam = _window(lc["length"], 1)
    _, eta = _orbital(lam)
    budget = 1e-11
    values = {"beyond": [], "inside": []}
    centre = (lam.a + lam.b) // 2
    for x in (centre, centre + 1):
        r_near, _ = boundary_distances(lam, x)
        for n in range(2, r_near + 2):
            z = min(n, r_near)
            for k in range(0, z):
                sep = z - k
                value, upper = ltqo_witness(eta, lam, x, n, k, seen)
                ok = value <= budget
                values["beyond" if sep >= depth else "inside"].append(value)
                rows.append(("orbital", x, n, k, sep, "zero", value, budget,
                             "ok" if ok else "fail", upper))
                if not ok:
                    rep.check(f"orbital witness (x={x}, n={n}, k={k})", False,
                              f"value {value:.3e} over budget {budget:.1e}")
    for side, found in values.items():
        peak = max(found, default=0.0)
        rep.check(f"orbital witnesses vanish {side} the cut-off",
                  peak <= budget, f"max zero deviation {peak:.2e}")

    # spin-1 chain: geometric decay of the witness lower bounds
    geo_ok = True
    for length in lc["aklt_lengths"]:
        lam = _window(length)
        eta = aklt_interaction(lam)
        x = (lam.a + lam.b) // 2
        r_near, _ = boundary_distances(lam, x)
        for n in range(2, r_near + 1):
            for k in range(0, n):
                sep = n - k
                value, upper = ltqo_witness(eta, lam, x, n, k, seen)
                bound = 1.5 * (1.0 / 3.0) ** sep
                ok = value <= bound
                geo_ok = geo_ok and ok
                rows.append((f"aklt{length}", x, n, k, sep, "bracket",
                             value, bound, "ok" if ok else "fail", upper))
                if not ok:
                    rep.check(
                        f"aklt witness (L={length}, x={x}, n={n}, k={k})",
                        False, f"value {value:.3e} over {bound:.3e}")
    rep.check("aklt witness lower bounds decay geometrically", geo_ok)
    rep.table("ltqo.csv",
              ["model", "x", "n", "k", "separation", "kind", "value",
               "budget", "status", "upper"], rows)
    return rep


def cmd_flow(cfg: dict, ctx: dict) -> Report:
    rep = Report("flow")
    fb = flow_bundle(cfg, ctx)
    flow, dec = fb["flow"], fb["dec"]
    lam, window = fb["lam"], fb["window"]
    agreement_budget = 1e-6          # filter against time-quadrature K
    identity_budget = 1e-10          # collected pieces: diagonal identity
    annihilation_budget = 1e-10      # collected pieces: ball annihilation
    rows = []

    def record(name, value, budget, ok=None):
        ok = (value <= budget) if ok is None else ok
        rows.append((name, value, budget, "ok" if ok else "fail"))
        return ok

    rep.check("projector transported along the flow",
              record("projector_drift", flow.projector_drift, 1e-6),
              f"drift {flow.projector_drift:.2e}")
    rep.check("flow ODE self-consistent",
              record("ode_error", flow.ode_error, cfg["flow"]["ode_tol"]),
              f"Richardson error {flow.ode_error:.2e}")
    rep.check("tracked gap stays above the filter width",
              record("gap_floor", flow.gap_floor, window.gamma,
                     ok=flow.gap_floor >= window.gamma),
              f"floor {flow.gap_floor:.4f} vs {window.gamma:.4f}")

    # the generator the flow ran at both ends against the time quadrature
    # on the same decomposition, block by block
    agree_worst = 0.0
    for s, (evals, evecs, k_eig) in zip((0.0, flow.eps), flow.end_spectra):
        k_time = time_quadrature_generator(evals, evecs, flow.psi, window)
        diff = operator_norm(k_eig - k_time)
        agree_worst = max(agree_worst, diff)
        record(f"generator_agreement_eps_{_cell(float(s))}", diff,
               agreement_budget)
    rep.check("filter and time-quadrature generators agree",
              agree_worst <= agreement_budget,
              f"max difference {agree_worst:.2e}")
    # the identity on the frequencies of each end's rule, which is the rule
    # its generators ran
    resid = max(filter_identity_residual(
        window, np.linspace(0.0, width, 401))
        for width in {float(np.ptp(evals)) for evals, _, _ in flow.end_spectra})
    rep.check("weight reproduced by the time quadrature",
              record("filter_identity_residual", resid, 1e-6),
              f"residual {resid:.2e}")

    # anchored commutation with the unperturbed kernel projector
    rep.check("anchored pieces commute with the kernel projector",
              record("max_kernel_commutator", dec.max_kernel_commutator,
                     1e-6),
              f"max commutator {dec.max_kernel_commutator:.2e}")
    record("anchor_sum_residual", dec.anchor_sum_residual, 1e-6)
    record("cross_block_residual", dec.cross_residual, 1e-6)

    # interior/boundary split reconstructs the transported coupling
    split = fb["splits"][len(flow.eps_grid) - 1]
    rep.check("interior/boundary split reconstructs the coupling",
              record("split_reconstruction", split.reconstruction_error,
                     1e-10),
              f"residual {split.reconstruction_error:.2e}")
    rows.append(("omega_value", split.omega_value, np.inf, "ok"))

    # collected two-sided pieces: diagonal identity and annihilation
    theta_rows = []
    ident_worst, annih_worst = 0.0, 0.0
    for x, th in fb["thetas"].items():
        ident_worst = max(ident_worst, th.identity_error)
        annih_worst = max(annih_worst, th.annihilation_error)
        for n in sorted(th.beta_norms):
            theta_rows.append((x, n, th.beta_norms[n]))
        theta_rows.append((x, th.r_x + 1, th.alpha_norm))
        record(f"theta_identity_x{x}", th.identity_error, identity_budget)
        record(f"theta_annihilation_x{x}", th.annihilation_error,
               annihilation_budget)
    rep.check("collected pieces reproduce the diagonal block",
              ident_worst <= identity_budget,
              f"max residual {ident_worst:.2e}")
    rep.check("collected pieces annihilated by their ball projectors",
              annih_worst <= annihilation_budget,
              f"max residual {annih_worst:.2e}")
    rep.table("theta.csv", ["x", "n", "theta_norm"], theta_rows)

    # resolution families: completeness, partial sums, annihilation
    res_rows = list(fb["resolution_rows"])
    res_worst = max(0.0, *(r[-1] for r in res_rows))
    rep.check("spectral resolutions exact", res_worst <= 1e-12,
              f"max residual {res_worst:.2e}")

    # sign-pattern projections: completeness and orthogonality
    sig_worst = 0.0
    eye = np.eye(flow.p0.shape[-1])
    for n, members in fb["sign_members"].items():
        if not members:
            continue
        xs = [x for x, _, _ in members]
        sigmas = [dict(zip(xs, bits))
                  for bits in np.ndindex(*(2,) * len(members))]
        ss = [sigma_projection(members, sigma) for sigma in sigmas]
        sig_worst = max(sig_worst, operator_norm(sum(ss) - eye))
        for i, s_i in enumerate(ss):
            for s_j in ss[i + 1:]:
                sig_worst = max(sig_worst, operator_norm(s_i @ s_j))
        res_rows.append((interior(lam, 2).a, f"sign_patterns_n{n}",
                         sig_worst))
    rep.check("sign-pattern projections resolve the identity",
              sig_worst <= 1e-12, f"max residual {sig_worst:.2e}")
    rep.table("resolutions.csv", ["x", "identity", "residual"], res_rows)

    rep.table("flow.csv", ["quantity", "value", "budget", "status"], rows)
    return rep


def cmd_bounds(cfg: dict, ctx: dict) -> Report:
    rep = Report("bounds")
    fb = flow_bundle(cfg, ctx)
    cb = constants_bundle(cfg, ctx)
    bc = cb["bc"]
    flow = fb["flow"]

    thresholds = stability_threshold(bc)

    # the two arrangements of m agree up to the certified tails
    tail_slack = sum(bc.j.tails) * bc.strengths * 5.0 + 1e-9 * bc.m
    m_gap = abs(bc.m - thresholds["m_grouped"])
    rep.check("both arrangements of the slope constant agree",
              m_gap <= tail_slack,
              f"|difference| {m_gap:.3e} within slack {tail_slack:.3e}")
    rep.check("far-offset arrangement is dominated",
              thresholds["m_grouped_far"] <= bc.m * (1 + 1e-12),
              f"{thresholds['m_grouped_far']:.6e} <= {bc.m:.6e}")
    rep.check("assembled slope consistent with its parts",
              bc.consistency_residual() <= 1e-12,
              f"residual {bc.consistency_residual():.2e}")

    # relative form bound for the diagonal interior piece
    psi_fnorm = cb["psi_fnorm"]
    delta_v, beta_v, alpha_v = volume_form_constants(bc, psi_fnorm)
    fb_rows = []
    violations = 0
    for upto, split in fb["splits"].items():
        fr = verify_form_bound(flow.h0, flow.end_spectra[0][1], split.phi2,
                               flow.sectors, delta_v, beta_v,
                               float(flow.eps_grid[upto]),
                               seed=cfg["seeds"][0])
        violations += fr.violations
        fb_rows.append((fr.eps, fr.delta, fr.beta, fr.min_eig_plus,
                        fr.min_eig_minus, fr.sampled_margin, fr.violations,
                        "ok" if fr.holds else "fail"))
        rep.check(f"form bound holds at coupling {_cell(fr.eps)}", fr.holds,
                  f"eigenvalue margin "
                  f"{min(fr.min_eig_plus, fr.min_eig_minus):.3e}, "
                  f"{fr.violations} violations")
    rep.table("formbound.csv",
              ["eps", "delta", "beta", "min_eig_plus", "min_eig_minus",
               "sampled_margin", "violations", "status"], fb_rows)
    rep.check("no sampled form-bound violations", violations == 0,
              f"{violations} total")

    # collected-piece norms against their certified bounds
    kappa_rows = []
    for x, th in fb["thetas"].items():
        # the alpha part is listed as n = -1 and bounded at n = r_x
        pieces = [(n, n, th.beta_norms[n]) for n in sorted(th.beta_norms)]
        for label, n, norm in pieces + [(-1, th.r_x, th.alpha_norm)]:
            bound = kappa_bound(bc, n, flow.eps, phi_fnorm=psi_fnorm)
            kappa_rows.append((x, label, norm, bound,
                               "ok" if norm <= bound else "fail"))
    rep.check("collected-piece norms below their certified bounds",
              all(r[-1] == "ok" for r in kappa_rows))
    rep.table("kappa.csv", ["x", "n", "theta_norm", "kappa_bound", "status"],
              kappa_rows)

    def entry(key, value):
        return {"value": float(value), "formula": FORMULAS[key]}

    ledger = {
        "inputs": {
            "model": "orbital",
            "gamma0": bc.gamma0,
            "filter_width": fb["window"].gamma,
            "window_kind": cfg["flow"]["window"],
            "depth": cfg["D"],
            "envelope": cfg["constants"]["F"],
            "omega_profile": {"kind": "step",
                              "amplitude": bc.omega.amplitude,
                              "cutoff": bc.omega.cutoff},
            "flow_fixture": {"length": cfg["flow"]["length"],
                             "eps": cfg["flow"]["eps"],
                             "max_radius": cfg["flow"]["max_radius"],
                             "seed": cfg["seeds"][0]},
            "volumes": sorted(cb["volumes"]),
            "truncation": bc.truncation,
        },
        "flow_constant": {
            "value": bc.c,
            "measured": cb["c_measured"],
            "supplied": cb["c_user"],
            "provenance": ("supplied" if cb["c_user"] is not None
                           else "calibrated"),
            "formula": FORMULAS["C"],
        },
        "strengths": {
            "eta_fnorm": bc.eta_fnorm,
            "psi_fnorm": cb["psi_fnorm"],
            "phi1_fnorm": cb["phi1_fnorm"],
            "M_int": bc.m_int,
            "M_D": bc.m_d,
            "velocity": cb["nu"],
        },
        "constants": {
            "J1": entry("J1", bc.j.j1),
            "J2": entry("J2", bc.j.j2),
            "J3": entry("J3", bc.j.j3),
            "delta": entry("delta", bc.delta),
            "beta": entry("beta", bc.beta),
            "alpha": entry("alpha", bc.alpha),
            "p": entry("p", bc.beta),
            "q": entry("q", bc.alpha),
            "m": entry("m", bc.m),
            "m_grouped": entry("m_grouped", thresholds["m_grouped"]),
            "m_grouped_far": entry("m_grouped_far",
                                   thresholds["m_grouped_far"]),
            "m_fermion": entry("m_fermion", bc.m_total),
            "eps_interior": entry("eps_interior", bc.eps_interior),
            "eps_star": entry("eps_star", bc.eps_threshold),
            "eps_star_fermion": entry("eps_star_fermion", bc.eps_threshold),
        },
        "tails": {"J1": bc.j.tails[0], "J2": bc.j.tails[1],
                  "J3": bc.j.tails[2]},
        "bounds": {"gap": FORMULAS["gap_bound"],
                   "higher_gap": FORMULAS["higher_gap_bound"],
                   "kappa": FORMULAS["kappa"]},
        "vacuity": {
            "gap_bound_positive_below": bc.eps_threshold,
            "note": "for couplings above eps_star the certified bound is"
                    " vacuous and only the measured gap is reported",
        },
    }
    rep.ledger = ledger
    rep.table("bounds.csv", ["constant", "value"],
              [(k, v["value"]) for k, v in sorted(ledger["constants"].items())])
    return rep


def _sweep_grid(cfg: dict, bc) -> list[float]:
    grid_cfg = cfg["eps_grid"]
    grid = list(np.linspace(grid_cfg["start"], grid_cfg["stop"],
                            grid_cfg["steps"]))
    eps_star = bc.eps_threshold
    for extra in (0.5 * eps_star, 0.9 * eps_star):
        if 0.0 < extra <= grid_cfg["stop"]:
            grid.append(extra)
    return sorted(set(float(e) for e in grid))


def sweep_bundle(cfg: dict, ctx: dict) -> dict:
    """The shared gap sweep: ``{length: gap_curve(...)}`` on the sweep grid.

    The volumes are those ``constants_bundle`` built, one ``gap_curve``
    call on the interactions of each; only the spectrum splits are kept,
    for ``gapsweep`` and ``highergaps`` alike.
    """
    if "sweep" in ctx:
        return ctx["sweep"]
    cb = constants_bundle(cfg, ctx)
    grid = _sweep_grid(cfg, cb["bc"])
    ctx["sweep"] = {length: gap_curve(eta, pert, lam, grid)
                    for length, (lam, eta, pert) in cb["volumes"].items()}
    return ctx["sweep"]


def _against_line(eps: float, measured: float, bound: float):
    """The one rule for a measured gap at coupling ``eps`` against a
    certified line: ``(status, dominated, opened)``.  The gap is open where
    it is positive or the coupling is 0, and ``closed`` otherwise (a NaN
    gap too).  An open gap reads ``vacuous`` where the bound is not
    positive, else ``dominates`` or ``fail`` with a 1e-9 slack; it is
    dominated unless that line status is ``fail``, closed or not."""
    if bound <= 0.0:
        line = "vacuous"
    else:
        line = "dominates" if measured >= bound - 1e-9 else "fail"
    opened = measured > 0.0 or eps == 0.0
    return (line if opened else "closed"), line != "fail", opened


def cmd_gapsweep(cfg: dict, ctx: dict) -> Report:
    rep = Report("gapsweep")
    bc = constants_bundle(cfg, ctx)["bc"]
    rows = []
    all_open, all_dominated = True, True
    for length, splits in sweep_bundle(cfg, ctx).items():
        for sp in splits:
            bound = float(bc.gap_lower_bound(sp.eps))
            status, dominated, opened = _against_line(sp.eps, sp.gamma, bound)
            all_dominated = all_dominated and dominated
            all_open = all_open and opened
            rows.append((length, sp.eps, sp.gamma, bound, sp.sp0_diameter,
                         status))
    rep.table("gapsweep.csv",
              ["length", "eps", "gamma_measured", "gamma_bound",
               "sp0_diameter", "status"], rows)
    rep.check("measured gap stays open on the sweep", all_open)
    rep.check("measured gap dominates the certified bound where it bites",
              all_dominated)
    return rep


def cmd_highergaps(cfg: dict, ctx: dict) -> Report:
    rep = Report("highergaps")
    bc = constants_bundle(cfg, ctx)["bc"]
    hc = cfg["higher"]
    gamma_win = hc["mu"] - hc["nu"]
    rows = []
    all_open, all_dominated = True, True
    for length, splits in sweep_bundle(cfg, ctx).items():
        try:
            track = higher_gap_track(splits, hc["nu"], hc["mu"])
        except ValueError as exc:
            rep.check(f"window has spectrum on both sides at length {length}",
                      False, str(exc))
            continue
        for eps, measured in track:
            bound = float(higher_gap_bound(bc, gamma_win, hc["top"], eps))
            status, dominated, opened = _against_line(eps, measured, bound)
            all_dominated = all_dominated and dominated
            all_open = all_open and opened
            rows.append((length, eps, measured, bound, status))
    rep.table("highergaps.csv",
              ["length", "eps", "gamma_window", "gamma_bound", "status"],
              rows)
    rep.check("window between spectral branches stays open", all_open)
    rep.check("window dominates the certified bound where it bites",
              all_dominated)
    rep.check("certified window threshold is positive",
              higher_gap_threshold(bc, gamma_win, hc["top"]) > 0.0)
    return rep


def cmd_sp0scan(cfg: dict, ctx: dict) -> Report:
    rep = Report("sp0scan")
    sc = cfg["sp0"]
    lam, eta, pert = _volume(cfg, _window(sc["length"], 1))
    rows = [("orbital", sc["length"], r["depth"], r["eps"], r["gamma"],
             r["sp0_min"], r["sp0_max"], r["sp0_diam"], r["sp1_min"])
            for r in sp0_diameter_scan(eta, pert, lam, (0.0, sc["eps"]),
                                       sc["depths"])]
    rep.table("sp0scan.csv",
              ["model", "length", "D", "eps", "gamma", "sp0_min", "sp0_max",
               "sp0_diam", "sp1_min"], rows)
    at_eps = sorted((r[2], r[7]) for r in rows if r[3] != 0.0)
    diams = [d for _, d in at_eps]
    monotone = all(b <= a + 1e-8 for a, b in zip(diams, diams[1:]))
    rep.check("low-cluster diameter non-increasing in the interior depth",
              monotone, "diameters " + ", ".join(f"{d:.3e}" for d in diams))
    at_zero = [r[7] for r in rows if r[3] == 0.0]
    rep.check("low-cluster diameter vanishes at coupling zero",
              all(d == 0.0 for d in at_zero))
    return rep


PIPELINES = {
    "validate": cmd_validate,
    "ltqo": cmd_ltqo,
    "flow": cmd_flow,
    "bounds": cmd_bounds,
    "gapsweep": cmd_gapsweep,
    "highergaps": cmd_highergaps,
    "sp0scan": cmd_sp0scan,
}


def run(cfg: dict, commands, out_dir) -> list[Report]:
    """Execute the requested pipelines and write their artifacts.

    ``all`` runs every pipeline in order on one shared context.  A config
    the requested pipelines cannot run (a ``file:`` model reaches only
    ``validate``) or the stability pipelines cannot probe is rejected
    before the first pipeline runs; so is an output directory that cannot
    be made then, and an artifact that cannot be written at the end is a
    ``ConfigError`` naming it.  A pipeline whose numerical step cannot be
    certified (a ``RuntimeError`` or a ``FrustrationError``) is reported as
    one failed check carrying the reason, and the remaining pipelines still
    run.
    """
    names = [n for c in commands for n in (PIPELINES if c == "all" else [c])]
    unsupported = [n for n in names if n != "validate"]
    if cfg["model"].startswith("file:") and unsupported:
        raise ConfigError(f"{', '.join(unsupported)}: only validate runs the "
                          f"model {cfg['model']}")
    if {"bounds", "gapsweep", "highergaps"} & set(names):
        _stability_lengths(cfg)
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"outputs.directory: cannot make {out_dir}: "
                          f"{exc}") from None
    ctx: dict = {}
    reports: list[Report] = []
    for name in names:
        try:
            reports.append(PIPELINES[name](cfg, ctx))
        except (RuntimeError, FrustrationError) as exc:
            rep = Report(name)
            rep.check("not certified", False, str(exc))
            reports.append(rep)
    try:
        write_artifacts(reports, out_dir, cfg["outputs"]["formats"])
    except OSError as exc:
        raise ConfigError(f"outputs.directory: cannot write an artifact: "
                          f"{exc}") from None
    return reports


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="finite-chain gap stability laboratory")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="pipeline to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config merged over the defaults")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact directory (default from config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed list with one seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("gaplab: a command is required", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, args.seed)
        out_dir = args.out or Path(cfg["outputs"]["directory"])
        reports = run(cfg, [args.command], out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(reports):
        print(line)
    print(f"artifacts written to {out_dir}")
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
