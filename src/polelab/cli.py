"""Command-line front end.

Subcommands: check, fields, holonomy, angmom, absim, vortex, confine.
Each reads flag values, optionally overridden by a JSON --config file,
resolves them against a per-command schema of key -> default (unknown keys
are rejected), and writes results into --out. A schema is the fields of
the command's config, a frozen dataclass of the library whose construction
checks every input; each command builds it before its first stage, so a
refused run records no stage. Every data file carries the sha256 of the
resolved configuration in a provenance header, so identical configurations
produce byte-identical files, and holds only finite numbers. Wall-clock
data goes only into the run manifest, written for every run as strict
JSON, a number that is not finite written as its name.

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
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .angmom import SweepConfig, angular_momentum_sweep
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     StabilityError)
from .fields import (FieldsConfig, local_charge, monopole_field,
                     yukawa_electric_field)
from .gauge import DEFAULT_TOL, HolonomyConfig, cap_flux, check_quantization
from .interference import (FluxLine, FringeRow, InterferenceConfig,
                           check_fringe_window, intensity_slice,
                           measure_fringe, measure_invisibility,
                           run_experiment, save_snapshot)
from .vortex import (ConfineConfig, VortexConfig, confinement_energy,
                     energy_density_profile, magnetic_profile, solve_vortex,
                     vortex_flux)

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

# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _defaults(config):
    """key -> default of each field of a config class, in field order, read
    from the class: building a default config would run its checks (the
    vortex grid's doubling among them) at import."""
    return {f.name: f.default_factory() if f.default is dataclasses.MISSING
            else f.default for f in dataclasses.fields(config)}


# key -> default, the fields of each command's config. The default's type
# is the key's type: bool, int, float, str, a list of floats, or None for an
# optional float.
SCHEMAS = {
    "check": {"q": 1.0, "g": 0.5, "tol": DEFAULT_TOL},
    "fields": _defaults(FieldsConfig),
    "holonomy": _defaults(HolonomyConfig),
    "angmom": _defaults(SweepConfig),
    "absim": {
        "q": 1.0,
        "flux": 2.0 * math.pi,
        "fringe_fluxes": [0.5 * math.pi, math.pi, 1.5 * math.pi],
        "mode": "both",
        **_defaults(InterferenceConfig),
        "cut": FluxLine.cut,
        "snapshots": True,
    },
    "vortex": _defaults(VortexConfig),
    "confine": _defaults(ConfineConfig),
}


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
            if (isinstance(value, bool)
                    or isinstance(value, float) and value != out):
                raise ValueError(f"expected an integer, got {value!r}")
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
                      json.dumps(_named_non_finite(manifest), sort_keys=True,
                                 indent=1, allow_nan=False) + "\n")


def _named_non_finite(value):
    """value with each float that is not finite, in any dict, list or tuple,
    replaced by its name, "nan", "inf" or "-inf": strict JSON has no token
    for it, and a string cannot be taken for a number."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _named_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_named_non_finite(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(run):
    cfg = run.config
    report = check_quantization(cfg["q"], cfg["g"], tol=cfg["tol"])
    run.diagnostics["residual"] = report.residual
    with run.stage("write"):
        write_json(run.path("check.json"), report.to_dict(), run.sha)
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_fields(run):
    cfg = FieldsConfig(**run.config)
    with run.stage("solve"):
        r = np.geomspace(cfg.r_min, cfg.r_max, cfg.samples)
        pts = np.outer(r, (0.0, 0.0, 1.0))
        # hypot, unlike norm, does not overflow by squaring a huge field
        e_mag = np.hypot.reduce(yukawa_electric_field(cfg, pts), axis=1)
        b_mag = np.hypot.reduce(monopole_field(cfg, pts), axis=1)
        q_loc = local_charge(cfg, r)
        # per element: a vectorised r**2 can differ from ri**2 in the last bit
        ratio = [bi * ri**2 / cfg.g for ri, bi in zip(r, b_mag)]
    with run.stage("write"):
        write_csv(run.path("fields.csv"),
                  ["r", "e_screened", "q_local", "b_pole", "b_over_coulomb"],
                  [r, e_mag, q_loc, b_mag, ratio], run.sha)
    return EXIT_OK


def cmd_holonomy(run):
    cfg = HolonomyConfig(**run.config)
    with run.stage("solve"):
        flux, flux_err = cap_flux(cfg)
        # 2 pi g (1 - cos theta) cancels at small theta; this form does not
        expected = 4.0 * math.pi * cfg.g * math.sin(0.5 * cfg.theta) ** 2
        phase = cfg.q * flux
    run.diagnostics["flux_rule_error"] = flux_err
    with run.stage("write"):
        write_json(run.path("holonomy.json"), {
            "cap_flux": flux,
            "cap_flux_expected": expected,
            "cap_flux_error_estimate": flux_err,
            "holonomy_phase": phase,
            "holonomy_factor_re": math.cos(phase),
            "holonomy_factor_im": math.sin(phase),
            "quantization": cfg.report.to_dict(),
        }, run.sha)
    return EXIT_OK


def cmd_angmom(run):
    cfg = SweepConfig(**run.config)
    with run.stage("solve"):
        cells = angular_momentum_sweep(cfg)
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


def cmd_absim(run):
    """Check, then run, then write. The config, and so the lattice, every
    line and the fringe window are built, and so checked, before the first
    stage, which is the fringe experiment's. Its reading is judged by
    check_fringe_window, and its grids are released once read, before the
    invisibility experiment allocates its own. Every data file is written
    in the one write stage that follows, so a refused run writes only its
    manifest."""
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
        payload["fringe_table"] = [row._asdict() for row in reading.table]
        run.diagnostics["fringe_worst_error"] = max(
            row.circular_error for row in reading.table)
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
                save_snapshot(free, run.path("absim_free.f64"), run.sha)
                save_snapshot(flux_grid, run.path("absim_flux.f64"), run.sha)
        if fringe:
            write_csv(run.path("absim_fringe.csv"), FringeRow._fields,
                      zip(*reading.table), run.sha)
        write_json(run.path("absim_metrics.json"), payload, run.sha)
    return EXIT_OK


def _solve_vortex_for(run, config_class):
    cfg = config_class(**run.config)
    run.diagnostics["grid"] = len(cfg.x) - 1
    with run.stage("solve"):
        try:
            profile, tension = solve_vortex(cfg)
        except ConvergenceError as exc:
            run.diagnostics["relaxation"] = exc.stats._asdict()
            raise
    run.diagnostics["residual"] = tension.residual
    run.diagnostics["relaxation"] = tension.stats._asdict()
    run.diagnostics["energy_error"] = tension.energy_error
    return cfg, profile, tension


def cmd_vortex(run):
    cfg, profile, tension = _solve_vortex_for(run, VortexConfig)
    with run.stage("write"):
        b_z = magnetic_profile(cfg, profile)
        dens = energy_density_profile(cfg, profile)
        write_csv(run.path("vortex_profile.csv"),
                  ["rho", "f", "a", "B_z", "energy_density"],
                  [profile.rho_grid, profile.f, profile.a, b_z, dens],
                  run.sha)
        payload = tension.to_dict()
        payload["flux"] = vortex_flux(cfg, profile)
        payload["flux_expected"] = 2.0 * math.pi * profile.n / cfg.q
        payload["beta"] = cfg.beta
        payload["n"] = profile.n
        write_json(run.path("vortex_tension.json"), payload, run.sha)
    return EXIT_OK


def cmd_confine(run):
    cfg, profile, tension = _solve_vortex_for(run, ConfineConfig)
    with run.stage("write"):
        write_csv(run.path("confine.csv"), ["L", "energy"],
                  [cfg.lengths, confinement_energy(tension, cfg.lengths)],
                  run.sha)
        write_json(run.path("confine.json"), {
            "tension": tension.T,
            "bogomolny_ratio": tension.bogomolny_ratio,
            "beta": cfg.beta,
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
