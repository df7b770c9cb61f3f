"""Run configuration: the defaults, their merge, and the one admission.

``load_config`` merges a JSON config over ``DEFAULTS`` and refuses what
its values alone refuse.  ``admit(cfg, names)`` resolves the run's model
once and makes every other refusal before the first pipeline.  Each
refusal is one line of one ``ConfigError``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from . import models
from .ffunction import DressedDecay, FFunctionSpec, ShiftedEnvelope, \
    WeightSpec, convolution_constant, regroup_decay
from .lattice import Interval, interior
from .operator_algebra import MAX_DENSE_DIM
from .stability_bounds import OmegaProfile, j_constants

# the largest constants.truncation: each series is summed as a dense array
# of its terms, about 85 MB per million
MAX_TRUNCATION = 10 ** 6

# the largest eps_grid.steps: each sweep point keeps one full spectrum per
# length, 32 KB at 12 sites, so the sweep at the cap keeps 32 MB per length
MAX_SWEEP_STEPS = 10 ** 3

# the largest flow.checkpoints: each checkpoint is one generator solve, about
# 5 ms at the default 8 sites on one BLAS thread of a Xeon core, and the
# first pass takes one to four solves per checkpoint: 1-4 minutes at the cap
MAX_CHECKPOINTS = 10 ** 4

DEFAULTS = {
    "model": "orbital",          # orbital | file:<interaction.json>
    "lengths": [6, 8, 10, 12],
    "D": 3,                      # interior depth / profile cut-off
    "eps_grid": {"stop": 0.05, "steps": 11},   # couplings from 0 to stop
    "gamma": 0.8,                # filter width and gap-tracking floor
    "seeds": [7],
    "constants": {
        "C": None,               # null -> calibrate from the flow
        "F": {"L": 1.0, "c": 1.0, "kappa": 4.0, "K": 0.5, "s": 1.0},
        "truncation": 2000,
    },
    "flow": {"length": 8, "max_radius": 2, "eps": 0.02, "checkpoints": 33,
             "ode_tol": 1e-8},
    "ltqo": {"length": 8, "aklt_lengths": [6, 7, 8]},
    "sp0": {"length": 12, "eps": 0.02, "depths": [2, 3, 4, 5]},
    "higher": {"nu": 1.0, "mu": 2.0, "top": 2.0},
    "outputs": {"directory": "results", "formats": ["csv", "json"]},
}


class ConfigError(ValueError):
    """Invalid configuration; message carries field diagnostics."""


def _check_tree(value, default, path, errors):
    label = path or "config"
    if isinstance(default, dict):
        if not isinstance(value, dict):
            errors.append(f"{label}: expected a table")
            return
        paths = {key: f"{path}.{key}" if path else key for key in value}
        errors += [f"{paths[key]}: unknown field" for key in value
                   if key not in default]
        for key, sub in default.items():
            if key in value:
                _check_tree(value[key], sub, paths[key], errors)
    elif isinstance(default, list):
        if not isinstance(value, list):
            errors.append(f"{label}: expected a list")
        elif default:
            for i, item in enumerate(value):
                _check_tree(item, default[0], f"{path}[{i}]", errors)
    elif default is not None:       # a None default places no constraint
        accepted, name = {int: (int, "an integer"), str: (str, "a string"),
                          float: ((int, float), "a number")}[type(default)]
        if isinstance(value, bool) or not isinstance(value, accepted):
            errors.append(f"{label}: expected {name}")


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
        grid, flow, sp0 = cfg["eps_grid"], cfg["flow"], cfg["sp0"]
        seeds, cval = cfg["seeds"], cfg["constants"]["C"]
        formats = [f for f in cfg["outputs"]["formats"]
                   if f not in ("csv", "json")]
        rules = [
            (grid["stop"] <= 0 or grid["steps"] < 2,
             "eps_grid: need stop > 0 and steps >= 2"),
            (grid["steps"] > MAX_SWEEP_STEPS, f"eps_grid.steps: at most "
             f"{MAX_SWEEP_STEPS} couplings; got {grid['steps']}"),
            (cfg["D"] < 1, "D: interior depth must be at least 1"),
            (not cfg["lengths"] or any(n < 2 for n in cfg["lengths"]),
             "lengths: need chain lengths of at least 2 sites"),
            (not seeds, "seeds: need at least one seed"),
            (len(seeds) > 1, f"seeds: every pipeline reads one seed; got "
             f"{len(seeds)}, run once per seed"),
            (len(seeds) == 1 and seeds[0] < 0, f"seeds: a seed must be "
             f"non-negative; got {min(seeds, default=0)}"),
            (cfg["gamma"] <= 0, "gamma: the tracking floor must be positive"),
            (cfg["higher"]["mu"] <= cfg["higher"]["nu"],
             "higher: need mu above nu for a window"),
            (cval is not None and (isinstance(cval, bool) or not isinstance(
                cval, (int, float)) or cval <= 0),
             "constants.C: must be a positive number or null"),
            (flow["checkpoints"] < 3,
             "flow.checkpoints: need at least 3 grid points"),
            (flow["checkpoints"] > MAX_CHECKPOINTS, f"flow.checkpoints: at "
             f"most {MAX_CHECKPOINTS} grid points; got {flow['checkpoints']}"),
            (flow["eps"] <= 0, "flow.eps: must be positive"),
            (flow["ode_tol"] <= 0, "flow.ode_tol: must be positive"),
            (not sp0["depths"], "sp0.depths: need at least one depth"),
            (any(d < 0 for d in sp0["depths"]),
             "sp0.depths: depths must be non-negative"),
            (sp0["eps"] <= 0, "sp0.eps: must be positive"),
            (bool(formats), f"outputs.formats: unsupported {formats}"),
            (flow["max_radius"] < 0, "flow.max_radius: must be non-negative")]
        errors += [line for bad, line in rules if bad]
        errors += _config_objects(cfg)
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def _config_objects(cfg: dict) -> list[str]:
    """Build what the pipelines build from config alone, each constructor's
    ``ValueError`` a config line: on ``constants.F`` the base envelope,
    ``F_0`` and ``F_phi`` (at filter width, velocity and flow constant 1,
    which only scale it and the J sums), then, at a truncation not above
    ``MAX_TRUNCATION``, every certified series: the J sums of the step
    profile and ``F_0``, the lattice norm under ``C_F`` and the regrouped
    decay, whose regrouping tail must be certified there."""
    try:
        base = base_envelope(cfg)
        f0 = ShiftedEnvelope(base, R=1)
        DressedDecay(f0, 1.0, 1.0)
    except ValueError as exc:
        return [f"constants.F: {exc}"]
    truncation = cfg["constants"]["truncation"]
    if truncation > MAX_TRUNCATION:
        return [f"constants.truncation: at most {MAX_TRUNCATION} terms; "
                f"got {truncation}"]
    try:
        j_constants(1.0, _step_profile(cfg), f0, truncation)
        convolution_constant(base, truncation)
        regroup_decay(base, truncation)
    except ValueError as exc:
        return [f"constants.truncation: {exc}"]
    return []


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
    return merged_config(user)


def _window(length: int, offset: int = 0) -> Interval:
    return Interval(offset, offset + length - 1)


def base_envelope(cfg: dict) -> FFunctionSpec:
    f = cfg["constants"]["F"]
    weight = WeightSpec(K=f["K"], s=f["s"])
    return FFunctionSpec(L=f["L"], c=f["c"], kappa=f["kappa"], weight=weight)


def _step_profile(cfg: dict) -> OmegaProfile:
    """The indistinguishability profile: amplitude 2 below the depth D."""
    return OmegaProfile(2.0, float(cfg["D"]))


def _stability_lengths(cfg: dict) -> list[int]:
    """The chains of ``lengths`` the stability pipelines probe: those of
    diameter above 2 D."""
    return [n for n in cfg["lengths"] if n - 1 > 2 * cfg["D"]]


def _has_pair(length: int) -> bool:
    """Whether the chain on ``[1, length]`` holds a full orbital pair."""
    return bool(models.orbital_pairs(_window(length, 1)))


def _chain_lines(cfg: dict, model: models.Model) -> list[str]:
    """Config lines for the chains a run cannot read: past ``MAX_DENSE_DIM``
    states at their model's local dimension, or too short for what their
    pipeline needs (the model's shortest chain, the flow's resolutions an
    interior two sites deep, the orbital chains a full pair, a bond)."""
    aklt = models.AKLT
    rules = [("flow.length", [cfg["flow"]["length"]], 2,
              lambda n: interior(_window(n), 2) is not None,
              "an interior two sites deep"),
             ("ltqo.length", [cfg["ltqo"]["length"]], 2, _has_pair,
              "a full orbital pair"),
             ("sp0.length", [cfg["sp0"]["length"]], 2, _has_pair,
              "a full orbital pair"),
             ("ltqo.aklt_lengths", cfg["ltqo"]["aklt_lengths"],
              aklt.local_dim, lambda n: n >= aklt.shortest, "a bond"),
             ("lengths", cfg["lengths"], model.local_dim,
              lambda n: n >= model.shortest,
              f"{model.shortest} sites for the {model.name} chain")]
    errors = []
    for field, sizes, d, fits, need in rules:
        if big := [n for n in sizes if d ** min(n, 64) > MAX_DENSE_DIM]:
            errors.append(f"{field}: chains of {big} sites exceed the dense "
                          f"limit of {MAX_DENSE_DIM} states")
        if short := [n for n in sizes if n < 1 or not fits(n)]:
            errors.append(f"{field}: chains of {short} sites are too short: "
                          f"need {need}")
    return errors


def _ltqo_lines(cfg: dict) -> list[str]:
    """Config lines for the ``ltqo`` verdicts over no witness row, on chains
    ``_chain_lines`` admits.  The orbital rows on ``[1, L]`` reach
    separations 1 to ``(L - 1) // 2``: one inside the cut-off needs
    ``D >= 2``, one beyond it ``2 D + 1`` sites.  A spin-1 chain has rows
    from 5 sites on."""
    length, aklt = cfg["ltqo"]["length"], cfg["ltqo"]["aklt_lengths"]
    depth = cfg["D"]
    rules = [(depth < 2, f"D: ltqo reads no orbital witness inside the "
              f"cut-off D = {depth}: need D >= 2"),
             (_has_pair(length) and length < 2 * depth + 1,
              f"ltqo.length: {length} sites read no orbital witness beyond "
              f"the cut-off D = {depth}: need {2 * depth + 1} sites"),
             (all(models.AKLT.shortest <= n < 5 for n in aklt),
              f"ltqo.aklt_lengths: chains of {aklt} sites read no aklt "
              f"witness: need one of 5 sites")]
    return [line for bad, line in rules if bad]


def admit(cfg: dict, names) -> models.Model:
    """The model of ``cfg`` for a run of the pipelines ``names``, resolved
    once (a ``file:`` model is read here), after every refusal the run
    would meet in a pipeline: the chains, the pipelines the model does not
    accept, ``ltqo``'s verdicts over no row, and the stability pipelines'
    chains above diameter 2 D and bulk perturbation."""
    try:
        model = models.model_for(cfg["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    errors = _chain_lines(cfg, model)
    if refused := [n for n in names if n not in model.pipelines]:
        errors.append(f"{', '.join(refused)}: only "
                      f"{', '.join(model.pipelines)} runs the model "
                      f"{cfg['model']}")
    if "ltqo" in names:
        errors += _ltqo_lines(cfg)
    if {"bounds", "gapsweep", "highergaps"} & set(names):
        if not _stability_lengths(cfg):
            errors.append("lengths: no chain exceeds diameter 2 D for the "
                          "stability pipelines")
        length, radius = cfg["flow"]["length"], cfg["flow"]["max_radius"]
        if radius < 1 or interior(_window(length), radius) is None:
            errors.append(f"flow.max_radius: the stability pipelines need "
                          f"a bulk perturbation, and the {length}-site "
                          f"flow chain has none at radius {radius}")
    if errors:
        raise ConfigError("\n".join(errors))
    return model
