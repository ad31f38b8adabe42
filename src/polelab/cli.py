"""Command-line front end.

Subcommands: check, fields, holonomy, angmom, absim, vortex, confine.
Each reads flag values, optionally overridden by a JSON --config file,
resolves them against a per-command schema of key -> default, whose
defaults come from the library wherever it sets them (unknown keys are
rejected), and writes results into --out. Every data file carries the
sha256 of the resolved configuration in a provenance header, so identical
configurations produce byte-identical files, and holds only finite numbers.
Wall-clock data goes only into the run manifest, written for every run.

Exit codes: 0 success, 1 quantization condition not satisfied (check);
EXIT_CODES maps each error class to 2 usage or configuration error,
3 convergence failure or 4 stability bound violated; any other exception
is 5, a crash, with manifest status "crash".
"""

import argparse
import contextlib
import dataclasses
import datetime
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .angmom import QuadratureSpec, angular_momentum_sweep
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     StabilityError)
from .fields import (PhysicalConfig, local_charge, monopole_field,
                     yukawa_electric_field)
from .gauge import DEFAULT_TOL, cap_flux, check_quantization
from .interference import (FluxLine, InterferenceConfig,
                           check_fringe_window, intensity_slice,
                           measure_fringe, measure_invisibility,
                           run_experiment, save_snapshot)
from .vortex import (HiggsModel, confinement_energy, energy_density_profile,
                     magnetic_profile, solve_vortex, vortex_flux)

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_STABILITY = 4
EXIT_CRASH = 5

EXIT_CODES = {
    DomainError: EXIT_USAGE,
    ConvergenceError: EXIT_CONVERGENCE,
    AccuracyError: EXIT_CONVERGENCE,
    StabilityError: EXIT_STABILITY,
}

# fields --samples above this is refused before anything is allocated
MAX_SAMPLES = 2**20


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_CAP_FLUX = inspect.signature(cap_flux).parameters
_SOLVE_VORTEX = inspect.signature(solve_vortex).parameters
_VORTEX_KEYS = ("r_max", "grid", "tol", "max_iter")

_PAIR = {"q": 1.0, "g": 0.5}

# key -> default. The default's type is the key's type: bool, int, float,
# str, a list of floats, or None for an optional float.
SCHEMAS = {
    "check": {**_PAIR, "tol": DEFAULT_TOL},
    "fields": {
        **_PAIR,
        "mu": 1.0,
        "r_min": 0.1,
        "r_max": 10.0,
        "samples": 64,
    },
    "holonomy": {
        **_PAIR,
        "radius": 2.0,
        "theta": 2.2,
        "base_segments": _CAP_FLUX["n0"].default,
        "levels": _CAP_FLUX["levels"].default,
        "tol": DEFAULT_TOL,
    },
    "angmom": {
        **_PAIR,
        "mu_list": [0.0, 1.0],
        "d_list": [0.5, 1.0, 2.0, 4.0],
        "tol": QuadratureSpec.target_tol,
        "gl_order": QuadratureSpec.gl_order,
        "levels": QuadratureSpec.levels,
    },
    "absim": {
        "q": 1.0,
        "flux": 2.0 * math.pi,
        "fringe_fluxes": [0.5 * math.pi, math.pi, 1.5 * math.pi],
        "mode": "both",
        **dataclasses.asdict(InterferenceConfig()),
        "cut": FluxLine.cut,
        "snapshots": True,
    },
    "vortex": {
        "q": 1.0,
        "v": 1.0,
        "lam": 2.0,
        "n": 1,
        **{key: _SOLVE_VORTEX[key].default for key in _VORTEX_KEYS},
    },
}
SCHEMAS["confine"] = {**SCHEMAS["vortex"],
                      "lengths": [0.0, 1.0, 2.0, 4.0, 8.0]}


def _coerce(cmd, key, value):
    """The one conversion of a value to its key's type, for a flag's text
    and a config file's JSON alike. A list may be given as "a,b" text, whose
    empty tokens are dropped; a boolean is true/false, 0/1 or "0"/"1"."""
    default = SCHEMAS[cmd][key]
    try:
        if isinstance(default, bool):
            if isinstance(value, float) or value not in (0, 1, "0", "1"):
                raise ValueError(f"expected true/false or 0/1, got {value!r}")
            return value in (1, "1")
        if isinstance(default, int):
            out = int(value)
            if isinstance(value, float) and value != out:
                raise ValueError("not an integer")
            return out
        if isinstance(default, list):
            if isinstance(value, str):
                value = [tok for tok in value.split(",") if tok.strip()]
            return [float(x) for x in value]
        if default is None:
            return None if value is None else float(value)
        return type(default)(value)     # float or str
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"config key {key!r}: {exc}")


def resolve_config(cmd, args):
    """defaults < command-line flags < --config file; returns a plain dict."""
    schema = SCHEMAS[cmd]
    supplied = {key: getattr(args, key) for key in schema
                if getattr(args, key) is not None}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config: {exc}")
        if not isinstance(loaded, dict):
            raise DomainError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(schema))
        if unknown:
            raise DomainError(f"unknown config keys for {cmd}: {unknown}")
        supplied.update(loaded)
    return {**schema, **{key: _coerce(cmd, key, value)
                         for key, value in supplied.items()}}


def config_hash(resolved):
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _column_text(column):
    """One column's cells as text: a bool column as 1/0, any other as
    float64, checked finite once and written by repr."""
    values = np.asarray(column)
    if values.dtype == bool:
        return ["1" if x else "0" for x in values.tolist()]
    values = values.astype(float, copy=False)
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(f"result {values[~finite][0]} is not finite")
    return list(map(repr, values.tolist()))


def write_csv(path, header_cols, columns, sha):
    """A CSV file of equal-length columns, one line per row."""
    lines = [f"# config_sha256={sha}", ",".join(header_cols)]
    lines += map(",".join, zip(*map(_column_text, columns), strict=True))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload, sha):
    body = {"config_sha256": sha, **payload}
    try:
        text = json.dumps(body, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{os.path.basename(path)}: {exc}")
    _atomic_write(path, text + "\n")


class Run:
    """Times each stage, each run once, and writes the manifest no matter
    what."""

    def __init__(self, cmd, resolved, out_dir):
        self.cmd = cmd
        self.config = resolved
        self.sha = config_hash(resolved)
        self.out_dir = out_dir
        self.stages = {}
        self.diagnostics = {}
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"cannot use --out: {exc}")

    def path(self, name):
        return os.path.join(self.out_dir, name)

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = time.perf_counter() - t0

    def write_manifest(self, status, error=None):
        manifest = {
            "command": self.cmd,
            "config": self.config,
            "config_sha256": self.sha,
            "version": __version__,
            "status": status,
            "error": error,
            "stages_seconds": {k: round(v, 6) for k, v in self.stages.items()},
            "diagnostics": self.diagnostics,
            "written_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
        }
        _atomic_write(self.path(f"{self.cmd}_manifest.json"),
                      json.dumps(manifest, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(run):
    cfg = run.config
    with run.stage("solve"):
        report = check_quantization(cfg["q"], cfg["g"], tol=cfg["tol"])
    run.diagnostics["residual"] = report.residual
    with run.stage("write"):
        write_json(run.path("check.json"), report.to_dict(), run.sha)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_fields(run):
    cfg = run.config
    if cfg["r_min"] <= 0 or cfg["r_max"] <= cfg["r_min"]:
        raise DomainError("need 0 < r_min < r_max")
    # every field squares |r|: refused here, before np.geomspace overflows
    # on its way to an r_max near the float limit
    if not math.isfinite(cfg["r_max"] * cfg["r_max"]):
        raise DomainError("r_max^2 overflows: coordinates too large")
    if not 2 <= cfg["samples"] <= MAX_SAMPLES:
        raise DomainError(f"samples must lie in [2, {MAX_SAMPLES}]")
    if cfg["g"] == 0:
        raise DomainError("g must be nonzero: b_over_coulomb divides by it")
    with run.stage("solve"):
        phys = PhysicalConfig(q=cfg["q"], g=cfg["g"], mu=cfg["mu"])
        r = np.geomspace(cfg["r_min"], cfg["r_max"], cfg["samples"])
        pts = np.outer(r, (0.0, 0.0, 1.0))
        # hypot, unlike norm, does not overflow by squaring a huge field
        e_mag = np.hypot.reduce(yukawa_electric_field(phys, pts), axis=1)
        b_mag = np.hypot.reduce(monopole_field(phys, pts), axis=1)
        q_loc = local_charge(phys, r)
        # per element: a vectorised r**2 can differ from ri**2 in the last bit
        ratio = [bi * ri**2 / cfg["g"] for ri, bi in zip(r, b_mag)]
    with run.stage("write"):
        write_csv(run.path("fields.csv"),
                  ["r", "e_screened", "q_local", "b_pole", "b_over_coulomb"],
                  [r, e_mag, q_loc, b_mag, ratio], run.sha)
    return EXIT_OK


def cmd_holonomy(run):
    cfg = run.config
    if not 0 < cfg["theta"] < math.pi:
        raise DomainError("theta must lie strictly between 0 and pi")
    # the report does not depend on the flux: a 2*q*g it refuses is refused
    # before the solve
    report = check_quantization(cfg["q"], cfg["g"], tol=cfg["tol"])
    # |q * cap flux| is at most the string's phase, q * 4 pi g
    if not math.isfinite(4.0 * math.pi * (cfg["q"] * cfg["g"])):
        raise DomainError("the string's phase q*4*pi*g is not finite")
    with run.stage("solve"):
        flux, flux_err = cap_flux(cfg["g"], cfg["theta"], cfg["radius"],
                                  n0=cfg["base_segments"],
                                  levels=cfg["levels"])
        expected = 2.0 * math.pi * cfg["g"] * (1.0 - math.cos(cfg["theta"]))
        phase = cfg["q"] * flux
    run.diagnostics["flux_rule_error"] = flux_err
    with run.stage("write"):
        write_json(run.path("holonomy.json"), {
            "cap_flux": flux,
            "cap_flux_expected": expected,
            "cap_flux_error_estimate": flux_err,
            "holonomy_phase": phase,
            "holonomy_factor_re": math.cos(phase),
            "holonomy_factor_im": math.sin(phase),
            "quantization": report.to_dict(),
        }, run.sha)
    return EXIT_OK


def cmd_angmom(run):
    cfg = run.config
    quad = QuadratureSpec(target_tol=cfg["tol"], levels=cfg["levels"],
                          gl_order=cfg["gl_order"])
    with run.stage("solve"):
        cells = angular_momentum_sweep(cfg["q"], cfg["g"], cfg["mu_list"],
                                       cfg["d_list"], quad)
    n_failed = sum(0 if c.converged else 1 for c in cells)
    run.diagnostics["cells"] = len(cells)
    run.diagnostics["failed_cells"] = n_failed
    # a reused cell copies another cell's stats: count each computation once
    stats = [c.stats for c in cells if c.stats is not None and not c.reused]
    if stats:
        evaluations = sum(st.evaluations for st in stats)
        run.diagnostics["quadrature"] = {
            "reused_cells": sum(c.reused for c in cells),
            "evaluations": evaluations,
            "padded_share": sum(st.padded for st in stats) / evaluations,
            "r_max_pushes": sum(st.r_max_pushes for st in stats),
            **{f"max_{key}": max(getattr(st, key) for st in stats)
               for key in ("err_extrapolation", "err_quadrature",
                           "err_tail")},
        }
    with run.stage("write"):
        write_csv(run.path("angmom.csv"),
                  ["mu", "d", "J_z", "err", "converged"],
                  zip(*[(c.mu, c.d, c.value, c.error, c.converged)
                        for c in cells]), run.sha)
    if n_failed:
        raise ConvergenceError(f"{n_failed} sweep cell(s) failed to converge")
    return EXIT_OK


# a FringeReading's table row: its absim_fringe.csv header and its keys in
# absim_metrics.json
_FRINGE_COLS = ("flux", "shift_predicted", "shift_measured", "circular_error")


def cmd_absim(run):
    """Check, then run, then write. Every line and the fringe window are
    built, and so checked, before the first stage, which is the fringe
    experiment's. Its reading is judged by check_fringe_window, and its
    grids are released once read, before the invisibility experiment
    allocates its own. Every data file is written in the one write stage
    that follows, so a refused run writes only its manifest."""
    cfg = run.config
    if cfg["mode"] not in ("invisibility", "fringe", "both"):
        raise DomainError("mode must be invisibility, fringe, or both")
    invisibility = cfg["mode"] in ("invisibility", "both")
    fringe = cfg["mode"] in ("fringe", "both")
    if fringe and not cfg["fringe_fluxes"]:
        raise DomainError("fringe_fluxes must be nonempty")
    sim_cfg = InterferenceConfig(**{
        f.name: cfg[f.name] for f in dataclasses.fields(InterferenceConfig)})
    inv_line = sim_cfg.flux_line(cfg["flux"], cfg["q"], cfg["cut"]) \
        if invisibility else None
    payload = {}

    if fringe:
        fringe_lines = [sim_cfg.flux_line(flux, cfg["q"], cfg["cut"])
                        for flux in cfg["fringe_fluxes"]]
        sim_cfg.fringe_window()
        with run.stage("fringe"):
            free, grids, stats = run_experiment(sim_cfg, "two_slit",
                                                fringe_lines)
            run.diagnostics["fringe_propagation"] = stats._asdict()
            reading = measure_fringe(sim_cfg, fringe_lines, free, grids)
            del free, grids
        payload["fringe_table"] = [dict(zip(_FRINGE_COLS, row))
                                   for row in reading.table]
        run.diagnostics["fringe_worst_error"] = max(
            e for *_, e in reading.table)
        run.diagnostics["fringe_sensitivity"] = reading.sensitivity
        run.diagnostics["fringe_bin"] = {
            "k": reading.k, "window_points": reading.window_points,
            "window_periods": reading.window_periods}
        check_fringe_window(reading)

    if invisibility:
        with run.stage("invisibility"):
            free, (flux_grid,), stats = run_experiment(sim_cfg, "single",
                                                       [inv_line])
            run.diagnostics["invisibility_propagation"] = stats._asdict()
            metric = measure_invisibility(sim_cfg, flux_grid, free)
        payload["invisibility"] = {
            "flux": cfg["flux"],
            "q_flux_over_2pi": (cfg["q"] * cfg["flux"]) / (2.0 * math.pi),
            "metric": metric,
            "steps": stats.steps,
        }
        run.diagnostics["invisibility_metric"] = metric

    with run.stage("write"):
        if invisibility:
            y, i_free = intensity_slice(sim_cfg, free)
            _, i_flux = intensity_slice(sim_cfg, flux_grid)
            write_csv(run.path("absim_slice.csv"),
                      ["y", "intensity_free", "intensity_with_flux"],
                      [y, i_free, i_flux], run.sha)
            if cfg["snapshots"]:
                save_snapshot(free, run.path("absim_free.f64"))
                save_snapshot(flux_grid, run.path("absim_flux.f64"))
        if fringe:
            write_csv(run.path("absim_fringe.csv"), _FRINGE_COLS,
                      zip(*reading.table), run.sha)
        write_json(run.path("absim_metrics.json"), payload, run.sha)
    return EXIT_OK


def _solve_vortex_for(run):
    cfg = run.config
    model = HiggsModel(q=cfg["q"], v=cfg["v"], lam=cfg["lam"])
    with run.stage("solve"):
        try:
            profile, tension = solve_vortex(
                model, cfg["n"], **{key: cfg[key] for key in _VORTEX_KEYS})
        except ConvergenceError as exc:
            run.diagnostics["grid"] = len(exc.best.rho_grid) - 1
            run.diagnostics["relaxation"] = exc.stats._asdict()
            raise
    run.diagnostics["grid"] = len(profile.rho_grid) - 1
    run.diagnostics["residual"] = tension.residual
    run.diagnostics["relaxation"] = tension.stats._asdict()
    return model, profile, tension


def cmd_vortex(run):
    model, profile, tension = _solve_vortex_for(run)
    with run.stage("write"):
        b_z = magnetic_profile(model, profile)
        dens = energy_density_profile(model, profile)
        write_csv(run.path("vortex_profile.csv"),
                  ["rho", "f", "a", "B_z", "energy_density"],
                  [profile.rho_grid, profile.f, profile.a, b_z, dens],
                  run.sha)
        payload = tension.to_dict()
        payload["flux"] = vortex_flux(model, profile)
        payload["flux_expected"] = 2.0 * math.pi * profile.n / model.q
        payload["beta"] = model.beta
        payload["n"] = profile.n
        write_json(run.path("vortex_tension.json"), payload, run.sha)
    return EXIT_OK


def cmd_confine(run):
    cfg = run.config
    if not cfg["lengths"] or not all(0 <= length < math.inf
                                     for length in cfg["lengths"]):
        raise DomainError("lengths must be nonempty, finite and >= 0")
    model, profile, tension = _solve_vortex_for(run)
    with run.stage("write"):
        energy = [confinement_energy(tension, length)
                  for length in cfg["lengths"]]
        write_csv(run.path("confine.csv"), ["L", "energy"],
                  [cfg["lengths"], energy], run.sha)
        write_json(run.path("confine.json"), {
            "tension": tension.T,
            "bogomolny_ratio": tension.bogomolny_ratio,
            "beta": model.beta,
            "n": profile.n,
        }, run.sha)
    return EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "fields": cmd_fields,
    "holonomy": cmd_holonomy,
    "angmom": cmd_angmom,
    "absim": cmd_absim,
    "vortex": cmd_vortex,
    "confine": cmd_confine,
}


@functools.cache
def build_parser():
    """The polelab argument parser, built once per process: parse_args
    leaves it unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="polelab",
        description="Numerical checks of pole quantization with photon mass.")
    parser.add_argument("--version", action="version",
                        version=f"polelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, schema in SCHEMAS.items():
        p = sub.add_parser(cmd)
        p.add_argument("--config", default=None,
                       help="JSON file; entries override flags")
        p.add_argument("--out", default=".", help="output directory")
        # argparse hands each value over as text; _coerce types it
        for key, default in schema.items():
            shown = int(default) if isinstance(default, bool) else default
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           help=f"default {shown}")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        run = Run(args.command, resolve_config(args.command, args), args.out)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        code = COMMANDS[args.command](run)
    except tuple(EXIT_CODES) as exc:
        run.write_manifest("error", str(exc))
        sys.stderr.write(f"error: {exc}\n")
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__
                    if cls in EXIT_CODES)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        run.diagnostics["traceback"] = traceback.format_exc()
        run.write_manifest("crash", error)
        sys.stderr.write(f"error: {error}\n")
        return EXIT_CRASH
    run.write_manifest("ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
