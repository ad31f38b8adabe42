"""Command-line driver checks: exit codes, provenance headers, manifests,
config precedence, and byte-level determinism of the data files.

Everything runs in-process through main(argv) so coverage and debuggers see
it; one subprocess test confirms the module entry point is wired up.
"""

import json
import subprocess
import sys

import pytest

from polelab.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_STABILITY, \
    EXIT_UNSATISFIED, EXIT_USAGE, main


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
])
def test_bad_inputs_are_usage_errors(tmp_path, argv, out_is_file):
    # non-finite values and an unusable --out never share the verdict code 1
    out = tmp_path / "out"
    if out_is_file:
        out.write_text("")
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    if not out_is_file:
        assert _manifest(out, argv[0])["status"] == "error"


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
    # massless rows sit at J = q g / 2 regardless of separation
    assert abs(float(rows[0][2]) - 0.5) < 1e-3
    assert abs(float(rows[1][2]) - 0.5) < 1e-3
    assert float(rows[3][2]) < float(rows[2][2])   # screened decline


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
    stages = _manifest(tmp_path, "absim")["stages_seconds"]
    assert "invisibility" in stages and "write" in stages


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
