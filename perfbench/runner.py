"""Closed-loop runner: one client calls `polelab.cli.main` in this process,
each command starting when the previous one has returned.

An op fails on a nonzero exit code, a raised exception, a manifest status
other than "ok", a failed output check, or data files that differ from what
the same command wrote in the first pass (the CLI promises byte-identical
files for identical configurations). Failures are counted and reported on
stderr; their time still counts toward the pass, and the result is marked
incorrect.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

from polelab import cli


@dataclass
class PassResult:
    op_times: list = field(default_factory=list)     # (start, end) per op
    failures: list = field(default_factory=list)     # (argv, reason)
    values: dict = field(default_factory=dict)       # accuracy values

    def seconds_in(self, ops, commands=None, rate=None):
        """Summed time of the ops running one of `commands` (all ops when
        None). `rate(start, end)`, when given, scales each op's time."""
        return sum((t1 - t0) * (rate(t0, t1) if rate else 1.0)
                   for op, (t0, t1) in zip(ops, self.op_times)
                   if commands is None or op.command in commands)


def _digest(out_dir, skip):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name != skip:
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@contextlib.contextmanager
def _recording(tracer):
    if tracer is not None:
        tracer.recording = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.recording = False


class Runner:
    def __init__(self, ops, work_dir):
        self.ops = ops
        self.dirs = [os.path.join(work_dir, f"op{i:02d}")
                     for i in range(len(ops))]
        self.first_digests = [None] * len(ops)

    def run_pass(self, tracer=None):
        result = PassResult()
        for i, op in enumerate(self.ops):
            times, error, values = self._run_op(i, op, tracer)
            result.op_times.append(times)
            if error is None:
                for key, value in values.items():
                    result.values[key] = max(value,
                                             result.values.get(key, value))
            else:
                result.failures.append((op.argv, error))
                sys.stderr.write(f"FAILED {' '.join(op.argv)}: {error}\n")
        return result

    def _run_op(self, i, op, tracer):
        out_dir = self.dirs[i]
        manifest = f"{op.command}_manifest.json"
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, manifest))
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink), _recording(tracer):
                code = cli.main([*op.argv, "--out", out_dir])
        except (Exception, SystemExit) as exc:
            return (t0, time.perf_counter()), f"raised {exc!r}", {}
        times = (t0, time.perf_counter())

        if code != 0:
            return times, f"exit code {code}: {sink.getvalue()[-300:]}", {}
        try:
            with open(os.path.join(out_dir, manifest)) as fh:
                status = json.load(fh)["status"]
            if status != "ok":
                return times, f"manifest status {status!r}", {}
            values = op.check(out_dir) if op.check else {}
            digest = _digest(out_dir, manifest)
        except Exception as exc:   # any malformed output fails this op only
            return times, f"check failed: {exc!r}", {}
        if self.first_digests[i] is None:
            self.first_digests[i] = digest
        elif digest != self.first_digests[i]:
            return times, "data files differ from the first pass", {}
        return times, None, values
