"""Command-line driver checks: exit codes, provenance headers, manifests,
config precedence, and byte-level determinism of the data files.

Everything runs in-process through main(argv) so coverage and debuggers see
it; one subprocess test confirms the module entry point is wired up.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polelab.cli import COMMANDS, EXIT_CONVERGENCE, EXIT_CRASH, EXIT_OK, \
    EXIT_STABILITY, EXIT_UNSATISFIED, EXIT_USAGE, SCHEMAS, build_parser, \
    config_hash, main, resolve_config, write_csv, write_json
from polelab.errors import DomainError


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
    # malformed flag value: argparse exits 2 on its own
    with pytest.raises(SystemExit) as exc:
        main(["check", "--q", "one"])
    assert exc.value.code == EXIT_USAGE

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
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cmd", sorted(_FLAG_VALUES))
def test_any_flag_values_give_a_documented_exit_code(cmd):
    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_FLAG_VALUES[cmd]))
    def run(flags):
        argv = [cmd] + [f"--{key.replace('_', '-')}={value!r}"
                        for key, value in flags.items()]
        with tempfile.TemporaryDirectory() as out:
            code = main(argv + ["--out", out])
            # never EXIT_CRASH: no flag value may reach an unhandled error
            assert code in (EXIT_OK, EXIT_UNSATISFIED, EXIT_USAGE,
                            EXIT_CONVERGENCE, EXIT_STABILITY)
            assert os.path.exists(os.path.join(out, f"{cmd}_manifest.json"))

    run()


def test_convergence_exit_code(tmp_path):
    # quadrature budget far too small for the requested tolerance
    code = main(["angmom", "--mu-list", "1", "--d-list", "1",
                 "--tol", "1e-12", "--levels", "2", "--gl-order", "4",
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
    assert [p.name for p in tmp_path.iterdir()] == ["absim_manifest.json"]


def test_stability_exit_code(tmp_path):
    code = main(["absim", "--mode", "invisibility", "--nx", "128",
                 "--ny", "128", "--dt", "0.9", "--snapshots", "0",
                 "--out", str(tmp_path)])
    assert code == EXIT_STABILITY
    man = _manifest(tmp_path, "absim")
    assert man["status"] == "error" and "0.5*m*h^2" in man["error"]


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
        write_csv(str(tmp_path / "t.csv"), ["x"], [(1.0,), (bad,)], "0")
    with pytest.raises(DomainError):
        write_json(str(tmp_path / "t.json"), {"x": [1.0, bad]}, "0")
    assert list(tmp_path.iterdir()) == []

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
                            "padded_share", "r_max_pushes"]
    assert quad["evaluations"] > 0 and 0.0 < quad["padded_share"] < 0.5
    # mu*d = 0.01 and 0.02 push r_max out; the others do not
    assert quad["r_max_pushes"] > 0
    err = [float(row.split(",")[3]) for row in
           _read(a / "angmom.csv").decode().strip().split("\n")[2:]]
    terms = [quad[f"max_err_{k}"] for k in ("extrapolation", "quadrature",
                                            "tail")]
    assert max(terms) <= max(err) <= sum(terms)


def test_holonomy_output(tmp_path):
    code = main(["holonomy", "--g", "0.5", "--theta", "2.2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = json.loads(_read(tmp_path / "holonomy.json"))
    assert out["cap_flux"] == pytest.approx(out["cap_flux_expected"],
                                            rel=1e-8)
    assert out["holonomy_factor_re"] == pytest.approx(
        1.0, abs=1e-6) or out["quantization"]["satisfied"]

    assert main(["holonomy", "--theta", "3.5",
                 "--out", str(tmp_path)]) == EXIT_USAGE


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
    # the sponge absorbs a small, positive part of each unit-norm run
    absorbed = man["diagnostics"]["invisibility_absorbed"]
    assert len(absorbed["lines"]) == 1
    assert all(0.0 < a < 0.1 for a in [absorbed["free"], *absorbed["lines"]])
    # the free run and one line run, each 2N + 1 solves for N fused steps
    prop = man["diagnostics"]["invisibility_propagation"]
    steps = metrics["invisibility"]["steps"]
    assert prop["propagations"] == 2 and prop["steps"] == steps > 0
    assert prop["solves"] == 2 * (2 * steps + 1)
    assert prop["ms_per_step"] > 0.0


def test_absim_snapshots_written(tmp_path):
    code = main(["absim", "--mode", "invisibility", "--nx", "128",
                 "--ny", "128", "--flux", "3.14159", "--steps", "40",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "absim_free.f64").exists()
    assert (tmp_path / "absim_free.f64.json").exists()
    assert (tmp_path / "absim_flux.f64").exists()


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
