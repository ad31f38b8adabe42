"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import sys
from functools import partial

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pace import REF_SECONDS, Pace  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import CheckFailed, Op, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# small versions of each workload: the same commands, code paths and checks.
# At 128^2 the fringe errors (0.069, 0.022, 0.048) miss criterion 7's 0.05,
# so that check must fail there.
TINY = {
    "lattice_fringe": partial(workloads.fringe_ops, n=128,
                              slit_separation=24.0),
    "lattice_invisibility_512": partial(workloads.invisibility_ops, n=64,
                                        steps=6),
    "quadrature_sweep": partial(workloads.quadrature_ops, n_d=2, n_mu=1,
                                n_theta=1),
}


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))

    def use(name, ops, min_passes=None):
        base = run.WORKLOADS.get(name, Workload("check", 1, None))
        monkeypatch.setitem(run.WORKLOADS, name, Workload(
            base.lead, min_passes or base.min_passes, ops, base.paced))
    return use


def _values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_pass_through_each_workload(bench, name):
    bench(name, TINY[name])
    result = run.run_workload(name, seed=3, seconds=0.0, trace=1, spec=SPEC)
    m = _values(result)
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    if name == "lattice_fringe":
        assert result["failed"] == result["attempted"] == 2
        assert m["error_rate"] == 1.0
    else:
        assert result["correct"] and result["failed"] == 0
        assert m["error_rate"] == 0.0
    assert m["cli.commands"] == len(TINY[name](3))
    if name == "quadrature_sweep":
        assert m["angmom.cells"] == 4 and m["interference.propagations"] == 0
        assert m["vortex.solves"] == 7 and m["gauge.line_integral_calls"] > 0
        assert m["angmom.self_s"] > 0.5 * m["trace.run_s"]
    else:
        lines = 6 if name == "lattice_fringe" else 2
        assert m["interference.propagations"] == lines
        assert m["angmom.cells"] == 0
        assert m["interference.propagate_s"] <= m["absim_s"]
    if name == "lattice_invisibility_512":
        assert m["interference.steps"] == 12
        assert m["interference.snapshot_bytes"] > 2 * 64 * 64 * 8
        assert m["interference.array_mib"] == 64 * 64 * 16 / 2**20
    # the wrappers are gone once the traced pass ends
    from polelab import interference
    assert not hasattr(interference.propagate_free, "__wrapped__")


def test_untraced_run_reports_end_to_end_metrics(bench):
    bench("quadrature_sweep", partial(workloads.quadrature_ops, n_d=2,
                                      n_mu=1, n_theta=1))
    result = run.run_workload("quadrature_sweep", seed=0, seconds=0.0,
                              trace=0, spec=SPEC)
    m = _values(result)
    assert result["correct"]
    assert list(m) == [x["name"] for x in SPEC["end_to_end"]]
    assert all(v > 0 for v in m.values())
    assert m["lead_s"] < m["run_s"]


def _failing_check(out_dir):
    raise CheckFailed("forced")


def test_failed_check_raises_error_rate(bench):
    ops = [Op(("check",), workloads.check_quantization),
           Op(("check", "--g", "0.3")),                 # exit code 1
           Op(("fields",), _failing_check)]
    bench("failing", lambda seed: ops, min_passes=2)
    result = run.run_workload("failing", seed=0, seconds=0.0, trace=1,
                              spec=SPEC)
    assert not result["correct"]
    assert result["attempted"] == 6 and result["failed"] == 4
    assert _values(result)["error_rate"] == pytest.approx(4 / 6)


def test_pace_rate_uses_samples_near_the_interval():
    # kernel times sampled at 0.0, 0.5 and 1.0 s
    pace = Pace([(1.0, 2 * REF_SECONDS), (0.0, REF_SECONDS),
                 (0.5, 4 * REF_SECONDS)])
    assert pace.rate(0.45, 0.55) == 0.25          # only the 0.5 s sample
    assert pace.rate(-0.05, 0.05) == 1.0
    assert pace.rate(0.0, 1.0) == 0.5              # median of all three
    with pytest.raises(RuntimeError):
        pace.rate(2.0, 3.0)


def test_self_time_of_nested_synthetic_spans():
    #  cli.main [0, 10]
    #    gauge.cap_flux [1, 4]
    #      gauge.line_integral [2, 3]
    #    interference.fringe_shift [5, 8]
    #      interference.intensity_slice [6, 7]
    spans = [Span("cli.main", 0.0, -1, 0, 10.0),
             Span("gauge.cap_flux", 1.0, 0, 0, 4.0),
             Span("gauge.line_integral", 2.0, 1, 0, 3.0),
             Span("interference.fringe_shift", 5.0, 0, 0, 8.0),
             Span("interference.intensity_slice", 6.0, 3, 0, 7.0)]
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 2.0, 1.0]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == 4.0
    assert m["gauge.self_s"] == 3.0
    assert m["interference.self_s"] == 3.0
    assert m["gauge.cap_flux_s"] == 3.0
    assert m["gauge.line_integral_s"] == 1.0
    assert m["interference.measure_s"] == 3.0     # nested call counted once
    assert m["trace.spans"] == 5


def test_instrument_wraps_every_binding_and_restores():
    from polelab import angmom, fields, interference

    original = fields.yukawa_electric_field
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert angmom.yukawa_electric_field is fields.yukawa_electric_field
        assert angmom.yukawa_electric_field.__wrapped__ is original
        assert interference.propagate_free.__wrapped__ is not None
    assert fields.yukawa_electric_field is original
    assert angmom.yukawa_electric_field is original


def test_seed_fixes_inputs_and_counts():
    a = workloads.quadrature_ops(7)
    assert [op.argv for op in a] == [op.argv for op in
                                     workloads.quadrature_ops(7)]
    b = workloads.quadrature_ops(8)
    assert len(a) == len(b) and a[0].argv != b[0].argv
    d = [float(x) for x in a[0].argv[a[0].argv.index("--d-list") + 1]
         .split(",")]
    assert len(d) == 8 and d == sorted(d) and 0.5 <= d[0] and d[-1] <= 8.0
    # criterion 7's fluxes are not seeded
    assert workloads.fringe_ops(1) == workloads.fringe_ops(2)


def test_benchmark_spec_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
