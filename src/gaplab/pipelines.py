"""The pipelines, the fixtures they share once per run, and ``run``.

Each ``cmd_*`` reads the merged config and the run's context: the model
``run`` admitted (``config.admit``) and the shared volumes, flow,
constants and sweep.  ``PIPELINES`` is the one table ``run`` reads.  At
one BLAS thread count, identical config and seeds give byte-identical
artifacts: rows follow fixed orders, and nothing time- or host-dependent
is written.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from . import models
from .artifacts import Report, _cell, write_artifacts
from .config import ConfigError, _stability_lengths, _step_profile, \
    _window, admit, base_envelope
from .ffunction import DressedDecay, ShiftedEnvelope, convolution_constant, \
    f_norm, regroup_decay
from .interaction import gamma0_candidate, local_hamiltonian, \
    random_interaction, regroup_intervals, split_edge_bulk, \
    validate_unperturbed
from .lattice import Interval, ball, boundary_distances, interior
from .ltqo import ltqo_witness
from .models import random_even_perturbation
from .operator_algebra import operator_norm
from .spectra import FrustrationError, gap_curve, higher_gap_track, \
    resolution_family, sigma_projection, sp0_diameter_scan
from .spectral_flow import Window, decompose_phi1, \
    filter_identity_residual, flow_unitaries, split_phi1, \
    theta_assembly, time_quadrature_generator
from .stability_bounds import FORMULAS, bound_constants, calibrate_c, \
    higher_gap_bound, higher_gap_threshold, kappa_bound, \
    stability_threshold, uniform_strengths, verify_form_bound, \
    volume_form_constants

# term-norm envelope of the seeded perturbations: A exp(-K n^s) / (1+n)^kappa
ENVELOPE = {"A": 1.0, "K": 0.5, "s": 1.0, "kappa": 4.0}


def _model(cfg: dict, ctx: dict) -> models.Model:
    """The model ``run`` admitted into ``ctx``; on a fresh context (a
    pipeline called directly), the one ``admit`` gives for no pipeline."""
    if "model" not in ctx:
        ctx["model"] = admit(cfg, ())
    return ctx["model"]


def _volume(cfg: dict, ctx: dict, lam: Interval):
    """``(lam, eta, pert)``: the run's model on ``lam`` and its seeded
    perturbation of radius ``flow.max_radius``, built once per run."""
    built = ctx.setdefault("volumes", {})
    if lam not in built:
        built[lam] = (lam, _model(cfg, ctx).interaction(lam),
                      random_even_perturbation(lam, cfg["flow"]["max_radius"],
                                               ENVELOPE, cfg["seeds"][0]))
    return built[lam]


def _form_bound_checkpoints(n_check: int) -> list[int]:
    """Checkpoint indices of the couplings at which the form bound is
    checked: a quarter, half and all of the flow's ``n_check`` steps, each
    kept when it is nonzero."""
    uptos = (int(round(frac * n_check)) for frac in (0.25, 0.5, 1.0))
    return [upto for upto in uptos if upto]


def flow_bundle(cfg: dict, ctx: dict) -> dict:
    """The shared flow fixture: orbital chain + seeded bulk perturbation.

    The flow keeps its unitary at the form-bound couplings alone; the
    anchored decomposition at each is read off it and split, and only the
    last, at ``eps``, is kept.  That one is walked one anchor at a time:
    the anchor's ball terms are built and their ``(support, norm)`` pairs
    kept, and, two sites inside, its ball family built, its collected
    pieces assembled and its ``resolutions.csv`` rows taken, before both
    are let go.  The fixture keeps, as block stacks on the flow's parity
    sectors, only what ``flow``, ``bounds`` and ``constants_bundle`` read:
    the flow (its ``end_spectra`` carry the generators at both ends), the
    decomposition's residuals at ``eps``, the ball-term pairs, the
    form-bound piece of the split at each form-bound coupling, the
    resolution rows, the ball projectors the sign patterns read, and the
    collected pieces' norms and errors.
    """
    if "flow" in ctx:
        return ctx["flow"]
    fc = cfg["flow"]
    lam, eta, pert = _volume(cfg, ctx, _window(fc["length"]))
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


def constants_bundle(cfg: dict, ctx: dict) -> dict:
    """Certified constants for the orbital model, reusing the flow fixture,
    probed on the chains ``_stability_lengths`` keeps.  A supplied
    ``constants.C`` below the one the flow measures is not admissible: it
    raises ``RuntimeError``, so no line is built on it."""
    if "constants" in ctx:
        return ctx["constants"]
    fb = flow_bundle(cfg, ctx)
    base = base_envelope(cfg)
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

    # uniform strengths over the probe volumes, kept for the gap sweep
    volumes = {n: _volume(cfg, ctx, _window(n, 1))
               for n in _stability_lengths(cfg)}
    phi_for = {lam: pert for lam, _, pert in volumes.values()}
    m_int, m_d = uniform_strengths(phi_for, cfg["D"], base)

    gamma0 = gamma0_candidate(_model(cfg, ctx).interaction,
                              [_window(6), _window(8, 1)])

    bc = bound_constants(gamma0, c_used, eta_fnorm, m_int, m_d, omega, f0,
                         truncation)
    ctx["constants"] = {
        "bc": bc, "psi_fnorm": psi_fnorm, "nu": nu, "c_user": c_user,
        "c_measured": c_measured, "phi1_fnorm": phi1_fnorm,
        "volumes": volumes,
    }
    return ctx["constants"]


def cmd_validate(cfg: dict, ctx: dict) -> Report:
    """Model structure, one ``validate.csv`` row per volume of the run's
    model on ``lengths`` and, where it runs ``ltqo``, of the spin-1 chain on
    ``ltqo.aklt_lengths``: one ``validate_unperturbed`` split each, held to
    its kernel dimension where known and to its ``certificate``, if any, on
    both pair alignments; that run alone checks the spin image
    (``jw.csv``) and interval regrouping."""
    rep = Report("validate")
    model = _model(cfg, ctx)
    chains = [(model, cfg["lengths"])]
    if "ltqo" in model.pipelines:
        chains.append((models.AKLT, cfg["ltqo"]["aklt_lengths"]))
    rows, jw_rows = [], []
    for chain, lengths in chains:
        volumes = [_window(n, offset) for n in lengths
                   for offset in ((0, 1) if chain.certificate else (0,))]
        built = {lam: chain.interaction(lam) for lam in volumes}
        splits = validate_unperturbed(built.__getitem__, volumes)
        for lam, sp in zip(volumes, splits):
            kexp = chain.kernel(lam) if chain.kernel else -1
            ok = sp.frustration_free and kexp in (-1, sp.k)
            aux_dim, leak = -1, 0.0
            detail = f"E0 = {sp.evals[0]:.1e}, kernel {sp.k}/{kexp}, " \
                     f"gap = {sp.gamma:.6f}"
            if chain.certificate:
                holds, aux_dim, leak, image = chain.certificate(
                    lam, built[lam], sp)
                ok = ok and holds
                detail = f"E0 = {sp.evals[0]:.1e}, gap = {sp.gamma:.12f}, " \
                         f"kernel {sp.k}/{kexp}, leak = {leak:.1e}"
                if image is not None:
                    dev, image_ok = image
                    jw_rows.append((len(lam), lam.a, dev,
                                    "ok" if image_ok else "fail"))
            rows.append((chain.name, len(lam), lam.a, sp.evals[0], sp.gamma,
                         sp.k, kexp, aux_dim, leak, "ok" if ok else "fail"))
            rep.check(f"{chain.name} structure on {lam}", ok, detail)
    rep.table("validate.csv", ["model", "length", "offset", "ground_energy",
                               "gap", "kernel_dim", "kernel_expected",
                               "aux_dim", "aux_interior_leak", "status"], rows)
    if model.certificate is None:
        return rep
    for length, offset, dev, status in jw_rows:
        rep.check(f"fermion/spin spectra on {_window(length, offset)}",
                  status == "ok", f"max deviation {dev:.2e}")
    rep.table("jw.csv", ["length", "offset", "spectrum_deviation", "status"],
              jw_rows)

    # interval regrouping is exact on every subinterval and norm-decreasing
    base = base_envelope(cfg)
    regrouped = regroup_decay(base, cfg["constants"]["truncation"])
    rg_rows = []
    for i in range(20):
        lam = _window(6 + i % 3)
        psi = random_interaction(lam, seed=cfg["seeds"][0] + i, n_terms=6,
                                 max_diameter=2)
        grouped = regroup_intervals(psi)
        subs = [Interval(a, b) for a in lam for b in range(a, lam.b + 1)]
        dev = max(float(np.max(np.abs(local_hamiltonian(psi, s).matrix
                                      - local_hamiltonian(grouped, s).matrix)))
                  for s in subs)
        before, after = psi.f_norm(base), grouped.f_norm(regrouped)
        rg_rows.append((i, len(lam), dev, after, before,
                        "ok" if dev <= 1e-12 and after <= before else "fail"))
    worst_dev = max(row[2] for row in rg_rows)
    worst_norm = max(row[3] - row[4] for row in rg_rows)
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
    bracket's lower end, ``value``, against the geometric budget.  A
    verdict over no row fails, with the detail ``no witness row``.
    """
    rep = Report("ltqo")
    lc, depth = cfg["ltqo"], cfg["D"]
    seen: dict = {}     # each kernel and witness once per call
    rows = []

    # paired-orbital chain: certified zeros over the even columns
    model, aklt = _model(cfg, ctx), models.AKLT
    lam = _window(lc["length"], 1)
    eta = model.interaction(lam)
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
                rows.append((model.name, x, n, k, sep, "zero", value, budget,
                             "ok" if ok else "fail", upper))
                if not ok:
                    rep.check(f"orbital witness (x={x}, n={n}, k={k})", False,
                              f"value {value:.3e} over budget {budget:.1e}")
    for side, found in values.items():
        rep.check(f"orbital witnesses vanish {side} the cut-off",
                  found and max(found) <= budget,
                  f"max zero deviation {max(found):.2e}" if found
                  else "no witness row")

    # spin-1 chain: geometric decay of the witness lower bounds
    geo = []
    for length in lc["aklt_lengths"]:
        lam = _window(length)
        eta = aklt.interaction(lam)
        x = (lam.a + lam.b) // 2
        r_near, _ = boundary_distances(lam, x)
        for n in range(2, r_near + 1):
            for k in range(0, n):
                sep = n - k
                value, upper = ltqo_witness(eta, lam, x, n, k, seen)
                bound = 1.5 * (1.0 / 3.0) ** sep
                ok = value <= bound
                geo.append(ok)
                rows.append((f"{aklt.name}{length}", x, n, k, sep, "bracket",
                             value, bound, "ok" if ok else "fail", upper))
                if not ok:
                    rep.check(
                        f"aklt witness (L={length}, x={x}, n={n}, k={k})",
                        False, f"value {value:.3e} over {bound:.3e}")
    rep.check("aklt witness lower bounds decay geometrically",
              geo and all(geo), "" if geo else "no witness row")
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
        theta_rows += [(x, n, th.beta_norms[n]) for n in sorted(th.beta_norms)]
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
    bc, flow = cb["bc"], fb["flow"]

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
    fb_rows, violations = [], 0
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

    values = {"J1": bc.j.j1, "J2": bc.j.j2, "J3": bc.j.j3, "delta": bc.delta,
              "beta": bc.beta, "alpha": bc.alpha, "p": bc.beta, "q": bc.alpha,
              "m": bc.m, "m_grouped": thresholds["m_grouped"],
              "m_grouped_far": thresholds["m_grouped_far"],
              "m_fermion": bc.m_total, "eps_interior": bc.eps_interior,
              "eps_star": bc.eps_threshold,
              "eps_star_fermion": bc.eps_threshold}
    fc = cfg["flow"]
    ledger = {
        "inputs": {
            "model": _model(cfg, ctx).name, "gamma0": bc.gamma0,
            "filter_width": fb["window"].gamma, "window_kind": "bump",
            "depth": cfg["D"], "envelope": cfg["constants"]["F"],
            "omega_profile": {"kind": "step",
                              "amplitude": bc.omega.amplitude,
                              "cutoff": bc.omega.cutoff},
            "flow_fixture": {"length": fc["length"], "eps": fc["eps"],
                             "max_radius": fc["max_radius"],
                             "seed": cfg["seeds"][0]},
            "volumes": sorted(cb["volumes"]), "truncation": bc.truncation,
        },
        "flow_constant": {
            "value": bc.c, "measured": cb["c_measured"],
            "supplied": cb["c_user"], "formula": FORMULAS["C"],
            "provenance": ("supplied" if cb["c_user"] is not None
                           else "calibrated"),
        },
        "strengths": {
            "eta_fnorm": bc.eta_fnorm, "psi_fnorm": cb["psi_fnorm"],
            "phi1_fnorm": cb["phi1_fnorm"], "M_int": bc.m_int,
            "M_D": bc.m_d, "velocity": cb["nu"],
        },
        "constants": {key: {"value": float(value), "formula": FORMULAS[key]}
                      for key, value in values.items()},
        "tails": dict(zip(("J1", "J2", "J3"), bc.j.tails)),
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
    stop, steps = cfg["eps_grid"]["stop"], cfg["eps_grid"]["steps"]
    extra = [e for e in (0.5 * bc.eps_threshold, 0.9 * bc.eps_threshold)
             if 0.0 < e <= stop]
    return sorted({float(e) for e in [*np.linspace(0.0, stop, steps), *extra]})


def sweep_bundle(cfg: dict, ctx: dict) -> dict:
    """The shared gap sweep: ``{length: gap_curve(...)}`` on the sweep
    grid, one call on each volume ``constants_bundle`` built; only the
    spectrum splits are kept, for ``gapsweep`` and ``highergaps`` alike."""
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
    lam, eta, pert = _volume(cfg, ctx, _window(sc["length"], 1))
    scan = sp0_diameter_scan(eta, pert, lam, (0.0, sc["eps"]), sc["depths"])
    rep.table("sp0scan.csv",
              ["model", "length", "D", "eps", "gamma", "sp0_min", "sp0_max",
               "sp0_diam", "sp1_min"],
              [(_model(cfg, ctx).name, sc["length"], depth, sp.eps, sp.gamma,
                sp.evals[0], sp.evals[sp.k - 1], sp.sp0_diameter,
                np.min(sp.evals[sp.k:], initial=np.inf))
               for depth, sp in scan])
    diams = [d for _, d in sorted((depth, sp.sp0_diameter)
                                  for depth, sp in scan if sp.eps != 0.0)]
    monotone = all(b <= a + 1e-8 for a, b in zip(diams, diams[1:]))
    rep.check("low-cluster diameter non-increasing in the interior depth",
              monotone, "diameters " + ", ".join(f"{d:.3e}" for d in diams))
    rep.check("low-cluster diameter vanishes at coupling zero",
              all(sp.sp0_diameter == 0.0 for _, sp in scan if sp.eps == 0.0))
    return rep


# each pipeline by its command name, in the order ``all`` runs them
PIPELINES = {cmd.__name__[len("cmd_"):]: cmd for cmd in (
    cmd_validate, cmd_ltqo, cmd_flow, cmd_bounds, cmd_gapsweep,
    cmd_highergaps, cmd_sp0scan)}


def run(cfg: dict, commands, out_dir) -> list[Report]:
    """Run the requested pipelines (``all``: each in order) on one shared
    context, admitted once, and write their artifacts.  An output
    directory that cannot be made before the first pipeline, or an
    artifact that cannot be written after the last, is a ``ConfigError``.
    A pipeline whose numerical step cannot be certified (a
    ``RuntimeError`` or a ``FrustrationError``) is one failed check
    carrying the reason, and the remaining pipelines still run."""
    names = [n for c in commands for n in (PIPELINES if c == "all" else [c])]
    ctx = {"model": admit(cfg, names)}
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"outputs.directory: cannot make {out_dir}: "
                          f"{exc}") from None
    reports: list[Report] = []
    for name in names:
        try:
            reports.append(PIPELINES[name](cfg, ctx))
        except (RuntimeError, FrustrationError) as exc:
            reports.append(Report(name))
            reports[-1].check("not certified", False, str(exc))
    try:
        write_artifacts(reports, out_dir, cfg["outputs"]["formats"])
    except OSError as exc:
        raise ConfigError(f"outputs.directory: cannot write an artifact: "
                          f"{exc}") from None
    return reports
