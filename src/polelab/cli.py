"""Command-line front end.

Subcommands: check, fields, holonomy, angmom, absim, vortex, confine.
Each reads flag values, optionally overridden by a JSON --config file,
resolves them against a per-command schema (unknown keys are rejected), and
writes results into --out. Every data file carries the sha256 of the
resolved configuration in a provenance header, so identical configurations
produce byte-identical files; wall-clock information goes only into the
run manifest, which is written for every run, success or failure.

Exit codes: 0 success, 1 quantization condition not satisfied (check),
2 usage or configuration error, 3 convergence failure, 4 stability bound
violated.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     StabilityError)

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_STABILITY = 4


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}")


# schema entry: (type tag, default); type tags: f float, i int, s str,
# lf list-of-float, b bool, n nullable float
SCHEMAS = {
    "check": {
        "q": ("f", 1.0),
        "g": ("f", 0.5),
        "tol": ("f", 1e-9),
    },
    "fields": {
        "q": ("f", 1.0),
        "g": ("f", 0.5),
        "mu": ("f", 1.0),
        "r_min": ("f", 0.1),
        "r_max": ("f", 10.0),
        "samples": ("i", 64),
        "tol": ("f", 1e-9),
    },
    "holonomy": {
        "q": ("f", 1.0),
        "g": ("f", 0.5),
        "radius": ("f", 2.0),
        "theta": ("f", 2.2),
        "base_segments": ("i", 64),
        "levels": ("i", 3),
        "tol": ("f", 1e-9),
    },
    "angmom": {
        "q": ("f", 1.0),
        "g": ("f", 0.5),
        "mu_list": ("lf", [0.0, 1.0]),
        "d_list": ("lf", [0.5, 1.0, 2.0, 4.0]),
        "tol": ("f", 1e-5),
        "gl_order": ("i", 24),
        "levels": ("i", 3),
    },
    "absim": {
        "q": ("f", 1.0),
        "flux": ("f", 2.0 * math.pi),
        "fringe_fluxes": ("lf", [0.5 * math.pi, math.pi, 1.5 * math.pi]),
        "mode": ("s", "both"),
        "nx": ("i", 512),
        "ny": ("i", 512),
        "h": ("f", 1.0),
        "m": ("f", 1.0),
        "dt": ("f", 0.4),
        "k": ("f", 0.9),
        "packet_width": ("f", 10.0),
        "slit_separation": ("f", 100.0),
        "steps": ("i", 0),
        "cut": ("s", "+x"),
        "snapshots": ("b", True),
        "tol": ("f", 1e-2),
    },
    "vortex": {
        "q": ("f", 1.0),
        "v": ("f", 1.0),
        "lam": ("f", 2.0),
        "n": ("i", 1),
        "r_max": ("n", None),
        "grid": ("i", 1024),
        "tol": ("f", 1e-10),
        "max_iter": ("i", 200),
    },
    "confine": {
        "q": ("f", 1.0),
        "v": ("f", 1.0),
        "lam": ("f", 2.0),
        "n": ("i", 1),
        "lengths": ("lf", [0.0, 1.0, 2.0, 4.0, 8.0]),
        "r_max": ("n", None),
        "grid": ("i", 1024),
        "tol": ("f", 1e-10),
        "max_iter": ("i", 200),
    },
}

_ARG_TYPE = {"f": float, "i": int, "s": str, "lf": _float_list, "n": float}


def _coerce(cmd, key, value):
    tag = SCHEMAS[cmd][key][0]
    try:
        if tag == "f":
            out = float(value)
        elif tag == "n":
            out = None if value is None else float(value)
        elif tag == "i":
            out = int(value)
            if isinstance(value, float) and value != out:
                raise ValueError("not an integer")
        elif tag == "s":
            out = str(value)
        elif tag == "b":
            if not isinstance(value, (bool, int)):
                raise ValueError("expected a boolean")
            out = bool(value)
        elif tag == "lf":
            out = [float(x) for x in value]
        else:  # pragma: no cover
            raise ValueError(f"bad schema tag {tag}")
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config key {key!r}: {exc}")
    return out


def resolve_config(cmd, args):
    """defaults < command-line flags < --config file; returns a plain dict."""
    schema = SCHEMAS[cmd]
    resolved = {key: default for key, (_, default) in schema.items()}
    for key in schema:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = _coerce(cmd, key, flag_val)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise DomainError(f"config is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise DomainError("config must be a JSON object")
        unknown = sorted(set(loaded) - set(schema))
        if unknown:
            raise DomainError(f"unknown config keys for {cmd}: {unknown}")
        for key, value in loaded.items():
            resolved[key] = _coerce(cmd, key, value)
    return resolved


def config_hash(resolved):
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path, payload):
    tmp = path + ".tmp"
    mode = "wb" if isinstance(payload, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header_cols, rows, sha):
    lines = [f"# config_sha256={sha}", ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload, sha):
    body = {"config_sha256": sha}
    body.update(payload)
    _atomic_write(path, json.dumps(body, sort_keys=True, indent=1) + "\n")


class Run:
    """Collects stage timings and writes the manifest no matter what."""

    def __init__(self, cmd, resolved, out_dir):
        self.cmd = cmd
        self.config = resolved
        self.sha = config_hash(resolved)
        self.out_dir = out_dir
        self.stages = {}
        self.diagnostics = {}
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def stage(self, name):
        run = self

        class _Timer:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                run.stages[name] = run.stages.get(name, 0.0) \
                    + time.perf_counter() - self.t0
                return False

        return _Timer()

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
    from .gauge import check_quantization

    cfg = run.config
    with run.stage("solve"):
        report = check_quantization(cfg["q"], cfg["g"], tol=cfg["tol"])
    run.diagnostics["residual"] = report.residual
    with run.stage("write"):
        write_json(run.path("check.json"), report.to_dict(), run.sha)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK if report.satisfied else EXIT_UNSATISFIED


def cmd_fields(run):
    from .fields import (PhysicalConfig, local_charge, monopole_field,
                         yukawa_electric_field)

    cfg = run.config
    if cfg["r_min"] <= 0 or cfg["r_max"] <= cfg["r_min"]:
        raise DomainError("need 0 < r_min < r_max")
    if cfg["samples"] < 2:
        raise DomainError("samples must be >= 2")
    with run.stage("solve"):
        phys = PhysicalConfig(q=cfg["q"], g=cfg["g"], mu=cfg["mu"])
        r = np.geomspace(cfg["r_min"], cfg["r_max"], cfg["samples"])
        pts = np.zeros((len(r), 3))
        pts[:, 2] = r
        e_mag = np.linalg.norm(yukawa_electric_field(phys, pts), axis=1)
        b_mag = np.linalg.norm(monopole_field(phys, pts), axis=1)
        q_loc = local_charge(phys, r)
        rows = [(ri, ei, qi, bi, bi * ri**2 / cfg["g"])
                for ri, ei, qi, bi in zip(r, e_mag, q_loc, b_mag)]
    with run.stage("write"):
        write_csv(run.path("fields.csv"),
                  ["r", "e_screened", "q_local", "b_pole", "b_over_coulomb"],
                  rows, run.sha)
    return EXIT_OK


def cmd_holonomy(run):
    from .gauge import cap_flux, check_quantization

    cfg = run.config
    if not 0 < cfg["theta"] < math.pi:
        raise DomainError("theta must lie strictly between 0 and pi")
    with run.stage("solve"):
        flux, flux_err = cap_flux(cfg["g"], cfg["theta"], cfg["radius"],
                                  n0=cfg["base_segments"],
                                  levels=cfg["levels"])
        expected = 2.0 * math.pi * cfg["g"] * (1.0 - math.cos(cfg["theta"]))
        phase = cfg["q"] * flux
        report = check_quantization(cfg["q"], cfg["g"], tol=cfg["tol"])
    run.diagnostics["flux_extrapolation_error"] = flux_err
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
    from .angmom import QuadratureSpec, angular_momentum_sweep

    cfg = run.config
    if not cfg["mu_list"] or not cfg["d_list"]:
        raise DomainError("mu_list and d_list must be nonempty")
    quad = QuadratureSpec(target_tol=cfg["tol"], levels=cfg["levels"],
                          gl_order=cfg["gl_order"])
    with run.stage("solve"):
        cells = angular_momentum_sweep(cfg["q"], cfg["g"], cfg["mu_list"],
                                       cfg["d_list"], quad)
    n_failed = sum(0 if c.converged else 1 for c in cells)
    run.diagnostics["cells"] = len(cells)
    run.diagnostics["failed_cells"] = n_failed
    with run.stage("write"):
        write_csv(run.path("angmom.csv"),
                  ["mu", "d", "J_z", "err", "converged"],
                  [(c.mu, c.d, c.value, c.error, c.converged) for c in cells],
                  run.sha)
    if n_failed:
        raise ConvergenceError(f"{n_failed} sweep cell(s) failed to converge")
    return EXIT_OK


def cmd_absim(run):
    from .interference import (InterferenceConfig, intensity_slice,
                               run_fringe, run_invisibility, save_snapshot)

    cfg = run.config
    if cfg["mode"] not in ("invisibility", "fringe", "both"):
        raise DomainError("mode must be invisibility, fringe, or both")
    sim_cfg = InterferenceConfig(
        nx=cfg["nx"], ny=cfg["ny"], h=cfg["h"], m=cfg["m"], dt=cfg["dt"],
        k=cfg["k"], packet_width=cfg["packet_width"],
        slit_separation=cfg["slit_separation"], steps=cfg["steps"])
    payload = {}

    if cfg["mode"] in ("invisibility", "both"):
        with run.stage("invisibility"):
            inv = run_invisibility(cfg["q"], cfg["flux"], sim_cfg,
                                   cut=cfg["cut"])
        payload["invisibility"] = {
            "flux": cfg["flux"],
            "q_flux_over_2pi": inv["q_flux_over_2pi"],
            "metric": inv["metric"],
            "steps": inv["steps"],
        }
        run.diagnostics["invisibility_metric"] = inv["metric"]
        with run.stage("write"):
            y, i_free = intensity_slice(inv["free"], inv["probe_x"])
            _, i_flux = intensity_slice(inv["with_flux"], inv["probe_x"])
            write_csv(run.path("absim_slice.csv"),
                      ["y", "intensity_free", "intensity_with_flux"],
                      list(zip(y, i_free, i_flux)), run.sha)
            if cfg["snapshots"]:
                save_snapshot(inv["free"], run.path("absim_free.f64"))
                save_snapshot(inv["with_flux"], run.path("absim_flux.f64"))

    if cfg["mode"] in ("fringe", "both"):
        table = []
        for flux in cfg["fringe_fluxes"]:
            with run.stage("fringe"):
                fr = run_fringe(cfg["q"], flux, sim_cfg, cut=cfg["cut"])
            table.append((flux, fr["shift_predicted"], fr["shift_measured"],
                          fr["circular_error"]))
        payload["fringe_table"] = [
            {"flux": f, "shift_predicted": p, "shift_measured": s,
             "circular_error": e} for f, p, s, e in table]
        run.diagnostics["fringe_worst_error"] = max(e for *_, e in table) \
            if table else None
        with run.stage("write"):
            write_csv(run.path("absim_fringe.csv"),
                      ["flux", "shift_predicted", "shift_measured",
                       "circular_error"], table, run.sha)

    with run.stage("write"):
        write_json(run.path("absim_metrics.json"), payload, run.sha)
    return EXIT_OK


def _solve_vortex_for(run):
    from .vortex import HiggsModel, solve_vortex

    cfg = run.config
    if cfg["n"] < 1:
        raise DomainError("winding number n must be >= 1")
    model = HiggsModel(q=cfg["q"], v=cfg["v"], lam=cfg["lam"])
    with run.stage("solve"):
        profile, tension = solve_vortex(model, cfg["n"], r_max=cfg["r_max"],
                                        grid=cfg["grid"], tol=cfg["tol"],
                                        max_iter=cfg["max_iter"])
    run.diagnostics["residual"] = tension.residual
    return model, profile, tension


def cmd_vortex(run):
    from .vortex import (energy_density_profile, magnetic_profile,
                         vortex_flux)

    model, profile, tension = _solve_vortex_for(run)
    with run.stage("write"):
        b_z = magnetic_profile(model, profile)
        dens = energy_density_profile(model, profile)
        write_csv(run.path("vortex_profile.csv"),
                  ["rho", "f", "a", "B_z", "energy_density"],
                  list(zip(profile.rho_grid, profile.f, profile.a, b_z,
                           dens)),
                  run.sha)
        payload = tension.to_dict()
        payload["flux"] = vortex_flux(model, profile)
        payload["flux_expected"] = 2.0 * math.pi * profile.n / model.q
        payload["beta"] = model.beta
        payload["n"] = profile.n
        write_json(run.path("vortex_tension.json"), payload, run.sha)
    return EXIT_OK


def cmd_confine(run):
    from .vortex import confinement_energy

    cfg = run.config
    if not cfg["lengths"]:
        raise DomainError("lengths must be nonempty")
    if any(length < 0 for length in cfg["lengths"]):
        raise DomainError("lengths must be >= 0")
    model, profile, tension = _solve_vortex_for(run)
    with run.stage("write"):
        rows = [(length, confinement_energy(tension, length))
                for length in cfg["lengths"]]
        write_csv(run.path("confine.csv"), ["L", "energy"], rows, run.sha)
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


def build_parser():
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
        for key, (tag, default) in schema.items():
            if tag == "b":
                p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                               default=None, type=int, choices=(0, 1),
                               help=f"default {int(default)}")
            else:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                               default=None, type=_ARG_TYPE[tag],
                               help=f"default {default}")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = resolve_config(args.command, args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    try:
        run = Run(args.command, resolved, args.out)
    except OSError as exc:
        sys.stderr.write(f"error: cannot use --out: {exc}\n")
        return EXIT_USAGE
    try:
        code = COMMANDS[args.command](run)
    except DomainError as exc:
        run.write_manifest("error", str(exc))
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ConvergenceError, AccuracyError) as exc:
        run.write_manifest("error", str(exc))
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONVERGENCE
    except StabilityError as exc:
        run.write_manifest("error", str(exc))
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STABILITY
    run.write_manifest("ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
