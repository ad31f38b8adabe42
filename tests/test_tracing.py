"""The hooks the benchmark's tracer (perfbench/tracing.py) sets on polelab:
every probed name must still name a polelab function, and each probe must
read what it counts from a traced run. perfbench/ is only read here."""

import importlib
import importlib.util
import os

import pytest

from polelab.cli import EXIT_OK, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_names_a_polelab_function(tracing):
    for name in tracing.PROBES:
        short, attr = name.split(".")
        assert short in tracing.MODULES, name
        fn = getattr(importlib.import_module(f"polelab.{short}"), attr, None)
        assert callable(fn) and fn.__module__ == f"polelab.{short}", name


def test_a_traced_pass_runs_every_probe_it_reaches(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.start_pass(0)
    runs = [["fields"], ["holonomy"], ["check"],
            ["absim", "--mode", "invisibility", "--nx", "64", "--ny", "64",
             "--steps", "2", "--snapshots", "1"]]
    with tracing.instrument(tracer):
        tracer.recording = True
        codes = [main(argv + ["--out", str(tmp_path / argv[0])])
                 for argv in runs]
        tracer.recording = False
    assert codes == [EXIT_OK] * len(runs)
    spans = tracer.passes[0]
    assert not any(span.error for span in spans)
    counted = {}
    for span in spans:
        if span.name in tracing.PROBES:
            key, = span.info
            assert span.info[key] > 0, span
            counted.setdefault(span.name, set()).add(key)
    assert counted == {
        "cli.write_csv": {"bytes"}, "cli.write_json": {"bytes"},
        "interference.save_snapshot": {"bytes"},
        "fields.yukawa_electric_field": {"points"},
        "fields.monopole_field": {"points"},
        "fields.local_charge": {"points"}}
