"""Command-line driver checks: exit codes, provenance headers, manifests,
config precedence, and byte-level determinism of the data files.

Everything runs in-process through main(argv) so coverage and debuggers see
it; one subprocess test confirms the module entry point is wired up.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polelab.cli import COMMANDS, EXIT_CONVERGENCE, EXIT_CRASH, EXIT_OK, \
    EXIT_STABILITY, EXIT_UNSATISFIED, EXIT_USAGE, SCHEMAS, build_parser, \
    config_hash, main, resolve_config, write_csv, write_json
from polelab.angmom import SweepConfig, angular_momentum_sweep
from polelab.errors import DomainError
from polelab.fields import MAX_SAMPLES, proca_tube_profile
from polelab.interference import FRINGE_MAX_BIN_OFFSET


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _manifest(out_dir, cmd):
    with open(out_dir / f"{cmd}_manifest.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_check_satisfied(tmp_path, capsys):
    code = main(["check", "--q", "1", "--g", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is True and report["n_real"] == 1.0

    saved = json.loads(_read(tmp_path / "check.json"))
    assert saved["satisfied"] is True
    assert len(saved["config_sha256"]) == 64
    assert _manifest(tmp_path, "check")["status"] == "ok"


def test_check_unsatisfied(tmp_path):
    code = main(["check", "--q", "1", "--g", "0.3", "--out", str(tmp_path)])
    assert code == EXIT_UNSATISFIED
    # the run itself succeeded; only the condition failed
    assert _manifest(tmp_path, "check")["status"] == "ok"


def test_usage_errors(tmp_path):
    # malformed flag value: refused by the same conversion as a config entry
    assert main(["check", "--q", "one", "--out", str(tmp_path)]) == EXIT_USAGE

    # unknown config key, rejected before any run starts
    bad = tmp_path / "bad.json"
    bad.write_text('{"qq": 1.0}')
    assert main(["check", "--config", str(bad),
                 "--out", str(tmp_path)]) == EXIT_USAGE

    # config that is not JSON at all
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check", "--config", str(broken),
                 "--out", str(tmp_path)]) == EXIT_USAGE

    # an integer key given as Infinity
    huge = tmp_path / "huge.json"
    huge.write_text('{"samples": Infinity}')
    assert main(["fields", "--config", str(huge),
                 "--out", str(tmp_path)]) == EXIT_USAGE

    # domain error inside a command still writes a failure manifest
    out = tmp_path / "fieldsrun"
    assert main(["fields", "--r-min", "5", "--r-max", "1",
                 "--out", str(out)]) == EXIT_USAGE
    man = _manifest(out, "fields")
    assert man["status"] == "error" and "r_min" in man["error"]


_ABSIM64 = ["absim", "--nx", "64", "--ny", "64", "--snapshots", "0"]


@pytest.mark.parametrize("argv, out_is_file", [
    (["check", "--q", "nan"], False),
    (["check", "--g", "inf"], False),
    (["check", "--q", "1e200", "--g", "1e200"], False),
    (["holonomy", "--g", "nan"], False),
    (["absim", "--mode", "invisibility", "--nx", "64", "--ny", "64",
      "--snapshots", "0", "--dt", "nan"], False),
    (["check"], True),
    (["absim", "--mode", "invisibility", "--nx", "64", "--ny", "64",
      "--snapshots", "0", "--k", "0"], False),
    (["absim", "--mode", "invisibility", "--nx", "64", "--ny", "64",
      "--snapshots", "0", "--k", "nan"], False),
    (["check", "--tol", "nan"], False),
    (["holonomy", "--tol", "nan"], False),
    (["vortex", "--tol", "nan"], False),
    (["fields", "--g", "0"], False),
    (["fields", "--mu", "nan"], False),
    (["absim", "--mode", "fringe", "--nx", "64", "--ny", "64", "--steps",
      "2", "--slit-separation", "1e6", "--snapshots", "0"], False),
    (["angmom", "--mu-list", "1", "--d-list", "1e-300"], False),
    (["angmom", "--mu-list", "1", "--d-list", "5e-324"], False),
    (["angmom", "--gl-order", "65"], False),
    (["angmom", "--gl-order", "100000"], False),
    (["absim", "--mode", "invisibility", "--nx", "1000000000000", "--ny",
      "1000000000000"], False),
    (["vortex", "--grid", "1000000000000000"], False),
    (["fields", "--samples", str(MAX_SAMPLES + 1)], False),
    (["check", "--g", "0.3", "--tol", "inf"], False),
    (["holonomy", "--tol", "inf"], False),
    (["vortex", "--tol", "inf"], False),
    (["angmom", "--tol", "inf"], False),
    (["holonomy", "--radius", "1e160"], False),
    (["vortex", "--r-max", "nan"], False),
    (["vortex", "--q", "1e-200"], False),
    (["vortex", "--q", "1e-160"], False),
    (["vortex", "--v", "1e200"], False),
    (["confine", "--v", "1e200"], False),
    (["vortex", "--r-max", "1e300"], False),
    (["angmom", "--mu-list", ""], False),
    (["vortex", "--n", "0"], False),
    (["vortex", "--r-max", "1e100"], False),
    (["angmom", "--levels", "1000000"], False),
    (["angmom", "--levels", "48"], False),
    (["holonomy", "--levels", "100000"], False),
    (["holonomy", "--base-segments", "100000000"], False),
    (["confine", "--lengths", "nan"], False),
    (["confine", "--lengths", "1,inf"], False),
    (["vortex", "--max-iter", "-5"], False),
    (["angmom", "--mu-list", "5e-324"], False),
    (_ABSIM64 + ["--k", "1e-10"], False),
    (_ABSIM64 + ["--k", "1e-300"], False),
    (_ABSIM64 + ["--steps", "1000000000000"], False),
    (_ABSIM64 + ["--dt", "1e-320"], False),
    (_ABSIM64 + ["--q", "1e308"], False),
    (_ABSIM64 + ["--steps", "2", "--packet-width", "1e308"], False),
    (_ABSIM64 + ["--steps", "2", "--h", "1e300"], False),
    (_ABSIM64 + ["--steps", "2", "--k", "1e308"], False),
    (_ABSIM64 + ["--mode", "fringe", "--steps", "2", "--slit-separation",
                 "1e308"], False),
    # only the two-slit packet refuses this gap, and in the default mode
    # both experiments run: nothing is written before that refusal
    (_ABSIM64 + ["--steps", "2", "--slit-separation", "1e308"], False),
])
def test_bad_inputs_are_usage_errors(tmp_path, argv, out_is_file):
    # non-finite values and an unusable --out never share the verdict code 1
    out = tmp_path / "out"
    if out_is_file:
        out.write_text("")
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    if not out_is_file:
        assert _manifest(out, argv[0])["status"] == "error"
        # a failed run leaves only its manifest: no data file, so no NaN
        assert [p.name for p in out.iterdir()] == [f"{argv[0]}_manifest.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, data, cols", [
    (["fields", "--mu", "1e308"], "fields.csv", ("e_screened", "q_local")),
    (["angmom", "--mu-list", "1e308", "--d-list", "1"], "angmom.csv",
     ("J_z", "err")),
    (["angmom", "--mu-list", "1e300", "--d-list", "1e10"], "angmom.csv",
     ("J_z", "err")),
])
def test_overflowing_screening_gives_zeros(tmp_path, argv, data, cols):
    # mu r (or mu d) overflows to inf; the screening weight is 0 there, not
    # inf * 0
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    lines = _read(tmp_path / data).decode().strip().split("\n")[1:]
    header = lines[0].split(",")
    for row in lines[1:]:
        values = dict(zip(header, row.split(",")))
        assert all(float(values[c]) == 0.0 for c in cols)


def test_unresolved_screening_is_not_converged(tmp_path):
    # at mu*d = 1000 the screening length is below the finest exclusion cut
    # 1/256, where the quadrature's own error (2.8e-7) understates its true
    # one (7.2e-7 off the closed form 1.0e-6): the cell fails, its best
    # value kept
    assert main(["angmom", "--mu-list", "1", "--d-list", "1000",
                 "--out", str(tmp_path)]) == EXIT_CONVERGENCE
    lines = _read(tmp_path / "angmom.csv").decode().strip().split("\n")[1:]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["converged"] == "0"
    assert 0.0 < float(row["J_z"]) < 1e-6 and float(row["err"]) > 0.0


@pytest.mark.parametrize("argv", [
    ["--mu-list", "1", "--d-list", "2300", "--levels", "8"],
    ["--d-list", "300", "--levels", "5", "--gl-order", "8"],
])
def test_more_levels_do_not_resolve_more_screening(tmp_path, argv):
    # more levels refine the finest cut but not the coarse ones, and past
    # mu*d = 256 the error estimate misses the true error at any level
    # count: these cells used to be reported converged and off the closed
    # form by more than their err; now they fail, and every converged row
    # holds the closed form
    assert main(["angmom", *argv, "--out", str(tmp_path)]) == EXIT_CONVERGENCE
    lines = _read(tmp_path / "angmom.csv").decode().strip().split("\n")[1:]
    rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
            for line in lines[1:]]
    assert any(row["converged"] == 0.0 for row in rows)
    for row in rows:
        if row["converged"]:
            x = row["mu"] * row["d"]
            exact = 0.5 if x == 0.0 else \
                (-np.expm1(-x) - x * np.exp(-x)) / (x * x)
            assert abs(row["J_z"] - exact) <= row["err"], row


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", ["1e-100", "1e100", "1e200"])
def test_massless_pair_at_extreme_separations(tmp_path, d):
    # J depends on d only through mu d, so the massless pair carries q g at
    # any separation, also where d^4 underflows or d^2 overflows
    assert main(["angmom", "--mu-list", "0", "--d-list", d,
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = _read(tmp_path / "angmom.csv").decode().strip().split("\n")[1:]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert abs(float(row["J_z"]) - 0.5) < 1e-12
    assert row["converged"] == "1"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fields_near_the_source(tmp_path):
    # fields of order 1e240 are finite and written, not overflowed to inf
    assert main(["fields", "--r-min", "1e-120", "--r-max", "1e-100",
                 "--out", str(tmp_path)]) == EXIT_OK


def test_crash_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    # an exception no error class maps never shares the verdict code 1
    def boom(run):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(COMMANDS, "check", boom)
    assert main(["check", "--out", str(tmp_path)]) == EXIT_CRASH
    man = _manifest(tmp_path, "check")
    assert man["status"] == "crash"
    assert man["error"] == "ZeroDivisionError: boom"
    assert capsys.readouterr().err == "error: ZeroDivisionError: boom\n"


_EXTREME = st.one_of(
    st.floats(),                      # includes nan and +-inf
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, 0.0]))
_FLAG_VALUES = {
    "check": {"q": _EXTREME, "g": _EXTREME, "tol": _EXTREME},
    "fields": {"q": _EXTREME, "g": _EXTREME, "mu": _EXTREME,
               "r_min": _EXTREME, "r_max": _EXTREME,
               "samples": st.integers(-2, 16)},
    "holonomy": {"q": _EXTREME, "g": _EXTREME, "radius": _EXTREME,
                 "theta": _EXTREME, "tol": _EXTREME,
                 "base_segments": st.integers(-1, 16),
                 "levels": st.integers(-1, 3)},
    "vortex": {"q": _EXTREME, "v": _EXTREME, "lam": _EXTREME,
               "r_max": _EXTREME, "tol": _EXTREME, "n": st.integers(-1, 3)},
    # a sweep of at most one cell and few levels: the caps on levels and
    # gl_order are rows of test_bad_inputs_are_usage_errors
    "angmom": {"q": _EXTREME, "g": _EXTREME, "tol": _EXTREME,
               "levels": st.integers(-1, 4), "gl_order": st.integers(-1, 16),
               "mu_list": st.lists(_EXTREME, max_size=1),
               "d_list": st.lists(_EXTREME, max_size=1)},
    "absim": {**{key: _EXTREME for key in (
        "q", "flux", "k", "h", "m", "dt", "packet_width", "slit_separation")},
        "fringe_fluxes": st.lists(_EXTREME, max_size=2)},
}
_FLAG_VALUES["confine"] = {**_FLAG_VALUES["vortex"],
                           "lengths": st.lists(_EXTREME, max_size=2)}
# flags every example passes: absim on the smallest grid for a few steps,
# since a derived step count may run to MAX_STEPS; that cap is a row of
# test_bad_inputs_are_usage_errors
_FIXED_FLAGS = {"absim": {"nx": st.just(64), "ny": st.just(64),
                          "steps": st.integers(1, 3), "snapshots": st.just(0)}}


def _flag(key, value):
    text = ",".join(map(repr, value)) if isinstance(value, list) \
        else repr(value)
    return f"--{key.replace('_', '-')}={text}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cmd", sorted(_FLAG_VALUES))
def test_any_flag_values_give_a_documented_exit_code(cmd):
    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries(_FIXED_FLAGS.get(cmd, {}),
                                 optional=_FLAG_VALUES[cmd]))
    def run(flags):
        argv = [cmd] + [_flag(key, value) for key, value in flags.items()]
        with tempfile.TemporaryDirectory() as out:
            code = main(argv + ["--out", out])
            # never EXIT_CRASH: no flag value may reach an unhandled error
            assert code in (EXIT_OK, EXIT_UNSATISFIED, EXIT_USAGE,
                            EXIT_CONVERGENCE, EXIT_STABILITY)
            assert os.path.exists(os.path.join(out, f"{cmd}_manifest.json"))
            # a refused run writes no data file
            if code == EXIT_USAGE:
                assert os.listdir(out) == [f"{cmd}_manifest.json"]

    if cmd == "absim":
        # slit gaps that only the fringe window (0) or the two-slit packet
        # (1e308) refuses, in the default mode, which runs both experiments
        for gap in (0.0, 1e308):
            run = example({"nx": 64, "ny": 64, "steps": 3, "snapshots": 0,
                           "slit_separation": gap})(run)
    run()


def test_convergence_exit_code(tmp_path):
    # quadrature budget far too small for the requested tolerance
    code = main(["angmom", "--mu-list", "1", "--d-list", "1",
                 "--tol", "1e-12", "--levels", "2", "--gl-order", "8",
                 "--out", str(tmp_path)])
    assert code == EXIT_CONVERGENCE
    man = _manifest(tmp_path, "angmom")
    assert man["status"] == "error"
    assert man["diagnostics"]["failed_cells"] == 1
    # the sweep table is still written, with the cell flagged
    lines = _read(tmp_path / "angmom.csv").decode().strip().split("\n")
    assert lines[1] == "mu,d,J_z,err,converged"
    assert lines[2].split(",")[4] == "0"


@pytest.mark.parametrize("n", [128, 256])
def test_blind_fringe_window_is_an_accuracy_error(tmp_path, n):
    # the default slit gap of 100 fits only the 512^2 grid: at 128^2 and
    # 256^2 every line measures a shift of about 0, so the errors read 0.25,
    # 0.5 and 0.25, and the window's flux sensitivity is 0.01-0.02
    code = main(["absim", "--mode", "fringe", "--nx", str(n), "--ny", str(n),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONVERGENCE
    man = _manifest(tmp_path, "absim")
    assert man["status"] == "error" and "sensitivity" in man["error"]
    sensitivity = man["diagnostics"]["fringe_sensitivity"]
    assert len(sensitivity) == 3 and max(sensitivity) < 0.05
    # the bin every line's phase is read at, recorded once per experiment
    fringe_bin = man["diagnostics"]["fringe_bin"]
    k, n_points = fringe_bin["k"], fringe_bin["window_points"]
    assert n_points >= 16 and 1 <= k < n_points / 2
    # with the default gap of 100 the window spans 3.60 * 512 / n periods
    assert round(fringe_bin["window_periods"] * n / 512, 2) == 3.60
    assert [p.name for p in tmp_path.iterdir()] == ["absim_manifest.json"]


@pytest.mark.parametrize("n, separation", [(256, 64.0), (128, 40.0)])
def test_envelope_fringe_bin_is_an_accuracy_error(tmp_path, n, separation):
    # the window sees the flux (sensitivity 0.28-0.54) but spans about 2.3
    # (128^2) or 2.9 (256^2) fringe periods while the free pattern's
    # strongest bin is k* = 1, its envelope: the errors read up to 0.5
    code = main(["absim", "--mode", "fringe", "--nx", str(n), "--ny", str(n),
                 "--slit-separation", repr(separation), "--out",
                 str(tmp_path)])
    assert code == EXIT_CONVERGENCE
    man = _manifest(tmp_path, "absim")
    assert man["status"] == "error" and "envelope" in man["error"]
    assert min(man["diagnostics"]["fringe_sensitivity"]) > 0.25
    fringe_bin = man["diagnostics"]["fringe_bin"]
    assert fringe_bin["k"] == 1 and fringe_bin["window_periods"] > 2.0
    assert [p.name for p in tmp_path.iterdir()] == ["absim_manifest.json"]


def test_widest_fringe_bin_offset_still_reads_the_fringe(tmp_path):
    # 256^2 with a gap of 51 is the good geometry whose k* = 1 lies
    # farthest from window_periods (1.87) of the 50 measured: it must stay
    # inside FRINGE_MAX_BIN_OFFSET and read every shift to 0.08
    code = main(["absim", "--mode", "fringe", "--nx", "256", "--ny", "256",
                 "--slit-separation", "51.0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    fringe_bin = _manifest(tmp_path, "absim")["diagnostics"]["fringe_bin"]
    assert fringe_bin["k"] == 1
    assert 0.85 < fringe_bin["window_periods"] - 1 < FRINGE_MAX_BIN_OFFSET
    rows = _read(tmp_path / "absim_fringe.csv").decode().strip().split("\n")
    assert max(float(row.split(",")[3]) for row in rows[2:]) < 0.08


def test_stability_exit_code(tmp_path):
    code = main(["absim", "--mode", "invisibility", "--nx", "128",
                 "--ny", "128", "--dt", "0.9", "--snapshots", "0",
                 "--out", str(tmp_path)])
    assert code == EXIT_STABILITY
    man = _manifest(tmp_path, "absim")
    assert man["status"] == "error" and "0.5*m*h^2" in man["error"]
    # the config refuses the lattice before the first stage
    assert man["stages_seconds"] == {}


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "polelab", "check", "--q", "1", "--g", "0.5",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["satisfied"] is True


def test_commands_never_load_scipy_special(tmp_path):
    # only the screened tube's Bessel functions need scipy.special, and no
    # command calls them, so a fresh interpreter that imports the package,
    # builds the parser and runs the light commands never loads it; only the
    # lattice's BLAS calls and the vortex's banded solve need scipy.linalg,
    # so check, fields, holonomy and angmom never load that either
    script = f"""
import sys
import numpy as np
import polelab.cli as cli
import polelab.angmom, polelab.fields, polelab.gauge, polelab.interference
import polelab.vortex
cli.build_parser()
for argv in (["check"], ["fields"], ["holonomy"],
             ["angmom", "--mu-list", "0,1", "--d-list", "1"]):
    assert cli.main(argv + ["--out", {str(tmp_path)!r}]) == 0, argv
assert "scipy.linalg" not in sys.modules
assert cli.main(["vortex", "--out", {str(tmp_path)!r}]) == 0
assert "scipy.linalg" in sys.modules
assert "scipy.special" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the function-level import still gives the same value: 2 g mu^2 K0(1)
    assert proca_tube_profile(0.5, 1.0, 1.0) == 2 * 0.5 * 0.42102443824070823


def test_one_parser_serves_every_command(tmp_path):
    # main builds the parser once; two commands run in one process write
    # the files each writes in a process of its own, and the second sees
    # its own defaults, not the first's flags
    assert build_parser() is build_parser()
    argvs = [["check", "--q", "2", "--g", "0.25"],
             ["fields", "--samples", "8"]]
    for i, argv in enumerate(argvs):
        assert main(argv + ["--out", str(tmp_path / "shared")]) == EXIT_OK
        subprocess.run([sys.executable, "-m", "polelab", *argv,
                        "--out", str(tmp_path / f"own{i}")],
                       check=True, capture_output=True)
    own = {p.name: _read(p) for i in range(2)
           for p in (tmp_path / f"own{i}").iterdir()}
    shared = {p.name: _read(p) for p in (tmp_path / "shared").iterdir()}
    assert sorted(own) == sorted(shared) == [
        "check.json", "check_manifest.json", "fields.csv",
        "fields_manifest.json"]
    for name in ("check.json", "fields.csv"):
        assert shared[name] == own[name]


# ---------------------------------------------------------------------------
# config precedence and provenance
# ---------------------------------------------------------------------------

DEFAULT_CONFIG_SHA256 = {
    "check":
        "a74e1a90411060173b7f13367801f19c7f2c4575cf70ed2c6107f5f4310b1611",
    "fields":
        "ec373ceeece604d750d1e5f6b5858d3beba747425523e49d5aca8f939192443d",
    "holonomy":
        "b84c158e091df80a6d051cfd3b877834de79fe021ecca0a858a7eaafe94ae2bf",
    "angmom":
        "f28d02d2341b354c076250638beafdc2140f71c027064db798ef1bc1f56f26ea",
    "absim":
        "2e18c94c817d774c3551a0bb7975eb5c1fe5f2d3d2a8afaca75067c0dd6ff37e",
    "vortex":
        "56b01193e78c59276f585b8002c16eb14951522768a8f5fb99f1a229a0d8920d",
    "confine":
        "f48ecc7ef27a1372b33f207cf66bb83a87e6de58e1c6e5ac1d349cc2d397c094",
}


@pytest.mark.parametrize("cmd", sorted(SCHEMAS))
def test_default_config_hash_is_stable(cmd):
    # the provenance hash of every command's default run is pinned: moving
    # a default into the library must not change it; dropping a key does,
    # and is re-pinned on purpose
    args = build_parser().parse_args([cmd])
    assert config_hash(resolve_config(cmd, args)) == DEFAULT_CONFIG_SHA256[cmd]


@pytest.mark.parametrize("cmd", ["absim", "fields"])
def test_dropped_tol_key_is_a_usage_error(tmp_path, cmd):
    # absim and fields never read a tol, so their configs no longer take one
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": 1e-12}')
    assert main([cmd, "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_writers_reject_non_finite(tmp_path, bad):
    with pytest.raises(DomainError):
        write_csv(str(tmp_path / "t.csv"), ["x"], [[1.0, bad]], "0")
    with pytest.raises(DomainError):
        write_json(str(tmp_path / "t.json"), {"x": [1.0, bad]}, "0")
    assert list(tmp_path.iterdir()) == []

def test_columns_format_like_cells(tmp_path):
    # write_csv formats each column whole; the reference formats each cell
    # on its own, 1/0 for a bool and repr(float(x)) for any other, and the
    # two files must match byte for byte
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(40) * 10.0 ** rng.integers(-320, 300, 40)
    columns = [
        floats,                                      # numpy float64
        [float(x) for x in floats[::-1]],           # Python float
        rng.standard_normal(40).astype(np.float32),
        [i % 2 == 0 for i in range(40)],             # bool
        [-0.0, 5e-324] * 20,
    ]
    write_csv(str(tmp_path / "t.csv"), list("abcde"), columns, "0")
    reference = ["# config_sha256=0", "a,b,c,d,e"]
    reference += [",".join(("1" if x else "0") if isinstance(x, bool)
                           else repr(float(x)) for x in row)
                  for row in zip(*columns)]
    assert _read(tmp_path / "t.csv").decode() == "\n".join(reference) + "\n"
    # columns of unequal length are refused, not cut to the shortest
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "u.csv"), ["a", "b"], [[1.0, 2.0], [1.0]],
                  "0")
    assert not (tmp_path / "u.csv").exists()


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"g": 0.3}')
    code = main(["check", "--q", "1", "--g", "0.5", "--config", str(cfg),
                 "--out", str(tmp_path)])
    assert code == EXIT_UNSATISFIED
    assert _manifest(tmp_path, "check")["config"]["g"] == 0.3


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["fields", "--samples", "32",
                     "--out", str(out)]) == EXIT_OK
    assert _read(a / "fields.csv") == _read(b / "fields.csv")
    # manifests carry wall-clock data and may differ; the data files not
    header = _read(a / "fields.csv").decode().split("\n")[0]
    assert header.startswith("# config_sha256=")
    assert header == _read(b / "fields.csv").decode().split("\n")[0]


def test_sha_consistent_across_outputs(tmp_path):
    code = main(["vortex", "--grid", "1024", "--out", str(tmp_path)])
    assert code == EXIT_OK
    csv_sha = _read(tmp_path / "vortex_profile.csv").decode() \
        .split("\n")[0].split("=")[1]
    tension = json.loads(_read(tmp_path / "vortex_tension.json"))
    man = _manifest(tmp_path, "vortex")
    assert csv_sha == tension["config_sha256"] == man["config_sha256"]
    assert abs(tension["bogomolny_ratio"] - 1.0) < 1e-4
    assert tension["flux"] == pytest.approx(tension["flux_expected"],
                                            rel=1e-9)


# ---------------------------------------------------------------------------
# command outputs
# ---------------------------------------------------------------------------

def test_angmom_sweep_output(tmp_path):
    code = main(["angmom", "--mu-list", "0,1", "--d-list", "1,2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = _read(tmp_path / "angmom.csv").decode().strip().split("\n")
    assert lines[1] == "mu,d,J_z,err,converged"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0.0", "0.0", "1.0", "1.0"]  # mu outer
    assert all(r[4] == "1" for r in rows)
    # massless rows sit at J = q g regardless of separation
    assert abs(float(rows[0][2]) - 0.5) < 1e-3
    assert abs(float(rows[1][2]) - 0.5) < 1e-3
    assert float(rows[3][2]) < float(rows[2][2])   # screened decline


def test_angmom_reports_quadrature_diagnostics(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["angmom", "--mu-list", "0,0.01,1", "--d-list", "1,2",
                     "--out", str(out)]) == EXIT_OK
    assert _read(a / "angmom.csv") == _read(b / "angmom.csv")
    diag = _manifest(a, "angmom")["diagnostics"]
    assert diag == _manifest(b, "angmom")["diagnostics"]
    quad = diag["quadrature"]
    assert sorted(quad) == ["evaluations", "max_err_extrapolation",
                            "max_err_quadrature", "max_err_tail",
                            "padded_share", "r_max_pushes", "reused_cells"]
    assert quad["evaluations"] > 0 and 0.0 < quad["padded_share"] < 0.5
    # mu*d = 0 at both d: the second mu = 0 cell reuses the first, and its
    # evaluations are not counted again
    assert quad["reused_cells"] == 1
    cells = angular_momentum_sweep(SweepConfig(mu_list=[0.0, 0.01, 1.0],
                                               d_list=[1.0, 2.0]))
    assert quad["evaluations"] == sum(c.stats.evaluations for c in cells
                                      if not c.reused)
    # mu*d = 0.01 and 0.02 push r_max out; the others do not
    assert quad["r_max_pushes"] > 0
    err = [float(row.split(",")[3]) for row in
           _read(a / "angmom.csv").decode().strip().split("\n")[2:]]
    terms = [quad[f"max_err_{k}"] for k in ("extrapolation", "quadrature",
                                            "tail")]
    assert max(terms) <= max(err) <= sum(terms)


def test_default_angmom_reuses_its_massless_cells(tmp_path):
    # mu = 0 against four d: one computation, three reused cells
    assert main(["angmom", "--out", str(tmp_path)]) == EXIT_OK
    diag = _manifest(tmp_path, "angmom")["diagnostics"]
    assert diag["cells"] == 8 and diag["quadrature"]["reused_cells"] == 3


def test_vortex_grid_follows_the_core(tmp_path):
    # beta = 5e-5: the default r_max puts 3 of 1024 points in the core, so
    # the grid doubles to 2048, and the ratio is within 0.03% of the
    # 65536-point 0.236151
    assert main(["vortex", "--lam", "1e-4", "--out", str(tmp_path)]) \
        == EXIT_OK
    man = _manifest(tmp_path, "vortex")
    assert man["config"]["grid"] == 1024 and man["diagnostics"]["grid"] == 2048
    tension = json.loads(_read(tmp_path / "vortex_tension.json"))
    assert tension["bogomolny_ratio"] == pytest.approx(0.236151, rel=3e-4)
    # beta = 1.5e4 doubles the grid the other way, for the Higgs core; the
    # finer grid's rounding floor lies above --tol, and the solve stops there
    # (it used to stall for all 200 sweeps and exit 3)
    type_two = tmp_path / "type_two"
    assert main(["vortex", "--lam", "3e4", "--out", str(type_two)]) == EXIT_OK
    diag = _manifest(type_two, "vortex")["diagnostics"]
    assert diag["grid"] == 2048 and 1e-10 < diag["residual"] < 1e-9


def test_holonomy_output(tmp_path):
    code = main(["holonomy", "--g", "0.5", "--theta", "2.2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = json.loads(_read(tmp_path / "holonomy.json"))
    assert out["cap_flux"] == pytest.approx(out["cap_flux_expected"],
                                            rel=1e-14)
    assert out["holonomy_factor_re"] == pytest.approx(
        1.0, abs=1e-6) or out["quantization"]["satisfied"]

    assert main(["holonomy", "--theta", "3.5",
                 "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("theta", ["3.1415925", "1e-06"])
def test_holonomy_near_a_pole_holds_to_its_estimate(tmp_path, theta):
    # next to the -z axis the cap flux used to be 2.3e-3 off (6.2974
    # against 6.2832) with an estimate of 0 and exit 0; at a small theta
    # the expected value 2 pi g (1 - cos theta) was 8.9e-5 off instead
    assert main(["holonomy", "--theta", theta, "--out", str(tmp_path)]) \
        == EXIT_OK
    out = json.loads(_read(tmp_path / "holonomy.json"))
    assert abs(out["cap_flux"] - out["cap_flux_expected"]) \
        <= out["cap_flux_error_estimate"]
    assert out["cap_flux"] == pytest.approx(out["cap_flux_expected"],
                                            rel=1e-14, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_holonomy_of_a_huge_pole(tmp_path):
    # 4 pi g = 1.26e308 is finite, and so is every sum on the way to the
    # cap flux; it used to overflow to a NaN refused at the JSON writer
    assert main(["holonomy", "--g", "1e307", "--out", str(tmp_path)]) \
        == EXIT_OK
    out = json.loads(_read(tmp_path / "holonomy.json"))
    assert out["cap_flux"] == pytest.approx(out["cap_flux_expected"],
                                            rel=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_holonomy_of_a_tiny_cap(tmp_path):
    # on the rim at r = 1.5e-151 the amplitude g/(r*(r + z)) is 1.79e308,
    # finite; the chords of an inscribed polygon dipped inside the rim,
    # where it is not, and this cap was refused
    assert main(["holonomy", "--g", "1645261.0", "--radius",
                 "1.4933513064141861e-151", "--out", str(tmp_path)]) == EXIT_OK
    out = json.loads(_read(tmp_path / "holonomy.json"))
    assert out["cap_flux"] == pytest.approx(out["cap_flux_expected"],
                                            rel=1e-14)


def test_absim_invisibility_output(tmp_path):
    code = main(["absim", "--mode", "invisibility", "--nx", "128",
                 "--ny", "128", "--snapshots", "0", "--out", str(tmp_path)])
    assert code == EXIT_OK
    metrics = json.loads(_read(tmp_path / "absim_metrics.json"))
    assert metrics["invisibility"]["metric"] < 1e-8
    assert metrics["invisibility"]["q_flux_over_2pi"] == 1.0
    assert "fringe_table" not in metrics
    assert (tmp_path / "absim_slice.csv").exists()
    assert not (tmp_path / "absim_free.f64").exists()
    man = _manifest(tmp_path, "absim")
    assert "invisibility" in man["stages_seconds"]
    assert "write" in man["stages_seconds"]
    # the sponge absorbs a small, positive part of each unit-norm run: the
    # free run's, then the line run's
    absorbed = man["diagnostics"]["invisibility_propagation"]["absorbed"]
    assert len(absorbed) == 2
    assert all(0.0 < a < 0.1 for a in absorbed)
    # the free run and one line run, each 2N + 1 solves for N fused steps,
    # on one worker per run up to the CPUs this process may use
    prop = man["diagnostics"]["invisibility_propagation"]
    steps = metrics["invisibility"]["steps"]
    assert prop["propagations"] == 2 and prop["steps"] == steps > 0
    assert prop["solves"] == 2 * (2 * steps + 1)
    assert prop["workers"] == min(2, len(os.sched_getaffinity(0))) >= 1
    assert prop["ms_per_step"] > 0.0


def test_absim_both_modes_write_what_each_mode_writes(tmp_path):
    # the default mode runs the fringe experiment, then the invisibility
    # one, and writes every file in one stage: its data rows are those of
    # the two modes run apart; only the provenance (the config's sha) differs
    argv = ["absim", "--nx", "128", "--ny", "128", "--slit-separation", "24",
            "--snapshots", "0"]
    outs = {mode: tmp_path / mode for mode in ("both", "fringe",
                                               "invisibility")}
    for mode, out in outs.items():
        assert main(argv + ["--mode", mode, "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in outs["both"].iterdir()) == [
        "absim_fringe.csv", "absim_manifest.json", "absim_metrics.json",
        "absim_slice.csv"]
    for name, mode in (("absim_fringe.csv", "fringe"),
                       ("absim_slice.csv", "invisibility")):
        both, alone = (_read(outs[m] / name).split(b"\n", 1)
                       for m in ("both", mode))
        assert both[0] != alone[0] and both[1] == alone[1]
    metrics = {mode: json.loads(_read(out / "absim_metrics.json"))
               for mode, out in outs.items()}
    for payload in metrics.values():
        del payload["config_sha256"]
    assert metrics["both"] == {**metrics["fringe"], **metrics["invisibility"]}
    stages = _manifest(outs["both"], "absim")["stages_seconds"]
    assert set(stages) == {"fringe", "invisibility", "write"}


def test_absim_snapshots_written(tmp_path):
    code = main(["absim", "--mode", "invisibility", "--nx", "128",
                 "--ny", "128", "--flux", "3.14159", "--steps", "40",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "absim_free.f64").exists()
    assert (tmp_path / "absim_free.f64.json").exists()
    assert (tmp_path / "absim_flux.f64").exists()


@pytest.mark.parametrize("cmd", ["vortex", "confine"])
def test_vortex_reports_relaxation_diagnostics(tmp_path, cmd, replayed_dtau):
    assert main([cmd, "--out", str(tmp_path)]) == EXIT_OK
    diag = _manifest(tmp_path, cmd)["diagnostics"]
    relax = diag["relaxation"]
    assert len(relax["residual_history"]) == relax["iterations"] + 1
    assert relax["residual_history"][-1] == diag["residual"]
    assert relax["final_dtau"] == replayed_dtau(relax["residual_history"],
                                                relax["iterations"])
    # the trapezoid rule's change on every other point: a bound on the
    # tension's error, 3.2e-5 for the default critical tube
    assert 0.0 < diag["energy_error"] < 1e-4


def test_stalled_vortex_records_its_relaxation(tmp_path, replayed_dtau):
    code = main(["vortex", "--max-iter", "3", "--out", str(tmp_path)])
    assert code == EXIT_CONVERGENCE
    man = _manifest(tmp_path, "vortex")
    assert man["status"] == "error"
    relax = man["diagnostics"]["relaxation"]
    assert relax["iterations"] == len(relax["residual_history"]) == 3
    assert relax["final_dtau"] == replayed_dtau(relax["residual_history"], 3)
    assert "energy_error" not in man["diagnostics"]
    assert man["diagnostics"]["grid"] == 1024
    # the grid the failed solve doubled to is recorded too
    doubled = tmp_path / "doubled"
    assert main(["vortex", "--lam", "1.6e4", "--max-iter", "3",
                 "--out", str(doubled)]) == EXIT_CONVERGENCE
    assert _manifest(doubled, "vortex")["diagnostics"]["grid"] == 2048


def test_confine_output(tmp_path):
    code = main(["confine", "--lengths", "0,2,4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = _read(tmp_path / "confine.csv").decode().strip().split("\n")
    assert lines[1] == "L,energy"
    rows = [[float(tok) for tok in line.split(",")] for line in lines[2:]]
    assert rows[0] == [0.0, 0.0]
    assert rows[2][1] == pytest.approx(2.0 * rows[1][1], rel=1e-12)
    summary = json.loads(_read(tmp_path / "confine.json"))
    assert summary["tension"] == pytest.approx(rows[1][1] / 2.0, rel=1e-12)
    assert summary["beta"] == 1.0

    assert main(["confine", "--lengths=-1,2",
                 "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["confine", "--lengths", "nan"],
    ["confine", "--lengths", "0,inf"],
    ["angmom", "--levels", "1000000"],
    ["angmom", "--gl-order", "65"],
    _ABSIM64 + ["--k", "1e-10"],
    _ABSIM64 + ["--q", "1e308"],
    _ABSIM64 + ["--slit-separation", "0"],
    _ABSIM64 + ["--steps", "2", "--h", "0"],
    # the quantization report refuses 2*q*g = inf before the cap is solved
    ["holonomy", "--q", "1e200", "--g", "1e200"],
    ["holonomy", "--g", "1e308"],
    # 2*q*g is finite, but the string's phase q*4*pi*g is not
    ["holonomy", "--g", "8e307"],
    ["angmom", "--gl-order", "4"],
    # the lattice is refused by the config, before the fringe window
    ["absim", "--nx", "10", "--ny", "10"],
    ["absim", "--m", "0"],
    # the model is refused before the solve stage starts
    ["vortex", "--q", "0"],
    ["confine", "--q", "0"],
    # and so are its scales: beta = 1/(2 q^2) overflows, 1/m_V is 0
    ["vortex", "--q", "1e-200"],
    ["vortex", "--v", "1.7976931348623157e308"],
    # the config checks its packet, as gaussian_packet does
    _ABSIM64 + ["--steps", "2", "--packet-width", "1"],
    # fields builds its PhysicalConfig, and check its report, before any stage
    ["fields", "--mu", "-1"],
    ["fields", "--q", "nan"],
    ["check", "--tol", "0"],
])
def test_bad_inputs_are_refused_before_the_solve(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert _manifest(tmp_path, argv[0])["stages_seconds"] == {}


@pytest.mark.parametrize("argv, code, cause", [
    (["angmom", "--gl-order", "4"], EXIT_USAGE, "gl_order must lie in [8, "),
    (["absim", "--nx", "10", "--ny", "10"], EXIT_USAGE,
     "grid sides must lie in [64, 4096], not 10 x 10"),
    (["absim", "--h", "0"], EXIT_USAGE, "h, m, dt must be finite and > 0"),
    (["absim", "--h", "-1"], EXIT_USAGE, "h, m, dt must be finite and > 0"),
    (["absim", "--m", "0"], EXIT_USAGE, "h, m, dt must be finite and > 0"),
    (["absim", "--dt", "10"], EXIT_STABILITY,
     "dt = 10.0 exceeds the accuracy bound 0.5*m*h^2"),
    (["vortex", "--q", "0"], EXIT_USAGE, "charge q must be nonzero"),
    (["confine", "--q", "0"], EXIT_USAGE, "charge q must be nonzero"),
])
def test_refusals_name_their_cause(tmp_path, argv, code, cause):
    # each domain is decided by the config that owns it, which names the
    # input at fault, before any stage runs
    assert main(argv + ["--out", str(tmp_path)]) == code
    man = _manifest(tmp_path, argv[0])
    assert cause in man["error"] and man["stages_seconds"] == {}


@pytest.mark.parametrize("argv, key", [
    (["angmom", "--mu-list=-1"], "mu_list"),
    (["angmom", "--d-list", "0"], "d_list"),
    (["angmom", "--q", "1e200", "--g", "1e200"], "q"),
    (["holonomy", "--levels", "1"], "levels"),
    (["holonomy", "--radius", "0"], "radius"),
    (["holonomy", "--base-segments", "2"], "base_segments"),
    (["holonomy", "--radius", "1e160"], "radius"),
    (["vortex", "--n", "0"], "n"),
    (["vortex", "--grid", "100"], "grid"),
    (["vortex", "--r-max", "1"], "r_max"),
    (["vortex", "--max-iter", "0"], "max_iter"),
    (["vortex", "--tol", "0"], "tol"),
    (["confine", "--tol", "0"], "tol"),
    (["holonomy", "--g", "1645261.0", "--radius", "1e-151"], "radius"),
    (["holonomy", "--g", "1e-308", "--radius", "1e-150", "--theta",
      "3.1415925"], "radius"),
    (["fields", "--q", "1e308", "--mu", "0"], "q"),
    (["fields", "--q", "1e308", "--r-min", "1e-10"], "q"),
    (["fields", "--r-min", "1e-170", "--r-max", "1"], "r_min"),
    (["fields", "--q", "1e-300", "--g", "1e-300", "--r-min", "1e-160",
      "--r-max", "1e-150", "--samples", "4"], "r_min"),
])
def test_solver_inputs_are_refused_before_the_first_stage(tmp_path, argv,
                                                          key):
    # each of these used to be refused by the solver inside the solve
    # stage, or, for the last, written with a wrong b_over_coulomb; the
    # command's config now refuses it, by its schema key
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    man = _manifest(tmp_path, argv[0])
    assert man["stages_seconds"] == {}
    assert key in re.findall(r"\w+", man["error"]), man["error"]


_HELP = ("help", "show this help message and exit")
_IO = [("config", "JSON file; entries override flags"),
       ("out", "output directory")]
_QG = [("q", "default 1.0"), ("g", "default 0.5")]
_VORTEX = [("q", "default 1.0"), ("v", "default 1.0"), ("lam", "default 2.0"),
           ("n", "default 1"), ("r_max", "default None"),
           ("grid", "default 1024"), ("tol", "default 1e-10"),
           ("max_iter", "default 200")]
CLI_SURFACE = {
    "check": [*_QG, ("tol", "default 1e-09")],
    "fields": [*_QG, ("mu", "default 1.0"), ("r_min", "default 0.1"),
               ("r_max", "default 10.0"), ("samples", "default 64")],
    "holonomy": [*_QG, ("radius", "default 2.0"), ("theta", "default 2.2"),
                 ("base_segments", "default 64"), ("levels", "default 3"),
                 ("tol", "default 1e-09")],
    "angmom": [*_QG, ("mu_list", "default [0.0, 1.0]"),
               ("d_list", "default [0.5, 1.0, 2.0, 4.0]"),
               ("tol", "default 1e-05"), ("gl_order", "default 24"),
               ("levels", "default 3")],
    "absim": [("q", "default 1.0"), ("flux", "default 6.283185307179586"),
              ("fringe_fluxes", "default [1.5707963267948966, "
               "3.141592653589793, 4.71238898038469]"),
              ("mode", "default both"), ("nx", "default 512"),
              ("ny", "default 512"), ("h", "default 1.0"),
              ("m", "default 1.0"), ("dt", "default 0.4"),
              ("k", "default 0.9"), ("packet_width", "default 10.0"),
              ("slit_separation", "default 100.0"), ("steps", "default 0"),
              ("cut", "default +x"), ("snapshots", "default 1")],
    "vortex": _VORTEX,
    "confine": [*_VORTEX, ("lengths", "default [0.0, 1.0, 2.0, 4.0, 8.0]")],
}


def test_cli_surface_is_pinned():
    # every command's flags, in order, with the default each shows: the
    # schemas derive from the library's configs, and moving a default there
    # must leave this table as it is
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    table = {cmd: [(a.dest, a.help) for a in parser._actions]
             for cmd, parser in sub.choices.items()}
    assert table == {cmd: [_HELP, *_IO, *rows]
                     for cmd, rows in CLI_SURFACE.items()}
    assert list(table) == list(SCHEMAS)
    assert sum(map(len, CLI_SURFACE.values())) == 55


@pytest.mark.parametrize("argv", [
    ["check", "--q", "one"],
    ["vortex", "--n", "2.5"],
    ["absim", "--snapshots", "2"],
    ["absim", "--snapshots", "1.0"],
    ["angmom", "--mu-list", "0,x"],
], ids=["check-q-one", "vortex-n-2.5", "absim-snapshots-2",
        "absim-snapshots-1.0", "angmom-mu-list-x"])
def test_malformed_flags_return_a_usage_error(tmp_path, argv, capsys):
    # a flag's text is typed by the same conversion as a config entry: a
    # malformed one returns 2 from main, with one error line naming the key,
    # before a run starts, so nothing is written
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    key = argv[1].lstrip("-").replace("-", "_")
    assert capsys.readouterr().err.startswith(f"error: config key {key!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("value, code", [
    ("2", EXIT_USAGE), ("1.0", EXIT_USAGE), ('"yes"', EXIT_USAGE),
    ("true", EXIT_STABILITY), ("1", EXIT_STABILITY), ('"1"', EXIT_STABILITY),
])
def test_config_booleans_take_true_false_or_0_1(tmp_path, value, code):
    # {"snapshots": 2} used to be read as true; an accepted value reaches the
    # run, which this dt then refuses with its own code
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"snapshots": {value}}}')
    out = tmp_path / "out"
    assert main(["absim", "--mode", "invisibility", "--nx", "64", "--ny", "64",
                 "--dt", "0.9", "--config", str(cfg), "--out", str(out)]) \
        == code
    assert out.exists() == (code != EXIT_USAGE)


@pytest.mark.parametrize("cmd, key", [("vortex", "n"), ("vortex", "grid"),
                                      ("absim", "steps"), ("angmom", "levels")])
def test_config_counts_refuse_booleans(tmp_path, cmd, key, capsys):
    # JSON true used to be read as the count 1 (a winding-1 tube for n)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": true}}')
    out = tmp_path / "out"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: config key {key!r}: ")
    assert not out.exists()


def test_list_flags_drop_empty_tokens(tmp_path):
    args = build_parser().parse_args(["angmom", "--mu-list", "0,,1",
                                      "--d-list", "2,"])
    cfg = resolve_config("angmom", args)
    assert cfg["mu_list"] == [0.0, 1.0] and cfg["d_list"] == [2.0]
    # and a config file may give a list as the same text
    path = tmp_path / "cfg.json"
    path.write_text('{"mu_list": "0, ,1"}')
    args = build_parser().parse_args(["angmom", "--config", str(path)])
    assert resolve_config("angmom", args)["mu_list"] == [0.0, 1.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, cause", [
    (["angmom", "--q", "1e200", "--g", "1e200"], "2*q*g = inf"),
    # q*g = 1e308 is finite, but twice it is not
    (["angmom", "--q", "1e154", "--g", "1e154"], "2*q*g = inf"),
    (["confine", "--lengths", "1,1e308"], "T*L overflows"),
    # the phase q*4*pi*g = 1.0e9 is finite, the string flux 4*pi*g is not
    (["holonomy", "--q", "1e-300", "--g", "8e307"], "4*pi*g = inf"),
    # the flux is finite, q times it is not: it used to crash with exit 5
    (["holonomy", "--q", "1e10", "--g", "8e297"], "q*4*pi*g"),
    # the Coulomb field q/r^2 at r = 0.1 is 1e310
    (["fields", "--q", "1e308", "--mu", "0"], "exp(-mu*r)/r^2 overflows"),
    # the charge 1e308 * 1.0 * e^-1e-10 is finite, its field at 1e-10 not
    (["fields", "--q", "1e308", "--r-min", "1e-10"],
     "exp(-mu*r)/r^2 overflows"),
    # the grid m_V*r_max*sinh(4t)/sinh(4) would overflow before the divide
    (["vortex", "--r-max", "1e308"], "m_V*r_max*sinh(4) must be"),
    (["confine", "--r-max", "1e308"], "m_V*r_max*sinh(4) must be"),
    # m_V = inf, and the default r_max = 20/m_V = 0
    (["vortex", "--v", "1.7976931348623157e308"], "1/m_V"),
    (["confine", "--v", "1.7976931348623157e308"], "1/m_V"),
    # np.geomspace overflowed on its way to this r_max
    (["fields", "--r-max", "1.7976931348623157e308"], "r_max^2 overflows"),
    # the potential's amplitude g/(r*(r + z)) on the rim at r = 1e-151 is
    # 4.0e308
    (["holonomy", "--g", "1645261.0", "--radius", "1e-151"],
     "g/(r*(r +- z)) is not finite"),
], ids=["angmom-qg-1e400", "angmom-qg-1e308", "confine-length-1e308",
        "holonomy-g-8e307", "holonomy-phase-8e307", "fields-coulomb-1e310",
        "fields-r-min-1e-10", "vortex-r-max-1e308", "confine-r-max-1e308",
        "vortex-v-max", "confine-v-max", "fields-r-max-max",
        "holonomy-radius-1e-151"])
def test_overflowing_products_are_refused_with_their_cause(tmp_path, argv,
                                                           cause):
    # each used to warn, and to end in "result ... is not finite" at the
    # writer or in a later refusal. Each is refused by its config, before
    # any stage, but for T*L: the tension T is known only after the solve
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert [p.name for p in tmp_path.iterdir()] == [f"{argv[0]}_manifest.json"]
    man = _manifest(tmp_path, argv[0])
    assert cause in man["error"]
    if cause != "T*L overflows":
        assert man["stages_seconds"] == {}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["check"], ["holonomy"], ["angmom", "--mu-list", "0", "--d-list", "1"],
], ids=["check", "holonomy", "angmom"])
def test_a_huge_charge_on_a_tiny_pole_is_judged(tmp_path, argv):
    # 2*q overflows, but 2*(q*g) = 1.9999999999999998: each command used to
    # refuse the pair with "2*q*g = inf is not finite"
    assert main(argv + ["--q", "1e308", "--g", "1e-308",
                        "--out", str(tmp_path)]) == EXIT_OK
    if argv[0] == "check":
        report = json.loads(_read(tmp_path / "check.json"))
        assert report["n_nearest"] == 2 and report["satisfied"] is True
