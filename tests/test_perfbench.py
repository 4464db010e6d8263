"""The benchmark binds rotobh by name and calls its APIs; both must hold."""

import importlib
import importlib.util
import sys
from pathlib import Path

from rotobh import cli
from rotobh.errors import TruncationWarning

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    """perfbench/<name>.py as a module, loaded by file path.

    It is registered in sys.modules for the test's duration only, as its
    dataclasses need.
    """
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    missing = [
        "%s.%s" % (module, name) for module, name, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module("rotobh." + module),
                                name, None))]
    assert tracer.TRACED and not missing, missing


def test_one_traced_pass_of_every_workload(monkeypatch):
    # one seed-0 pass per workload, traced, checked against the reference
    # tables and reduced to per-layer metrics, as the benchmark does it
    run, tracing, workloads = (_load(monkeypatch, name)
                               for name in ("run", "tracer", "workloads"))
    for workload in run.WORKLOAD_NAMES:
        jobs = workloads.make_jobs(workload, run.DEFAULT_SEED)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_pass()
            _, outcomes = run.run_pass(cli, jobs, TruncationWarning)
            spans, counts, notes = tracer.end_pass()
        finally:
            tracer.uninstall()
        verdict, _ = run.check_first_pass(workloads, workload, jobs, outcomes,
                                          True)
        assert not any(verdict.values()), (workload, verdict)
        layer = tracing.layer_metrics(
            spans, counts, notes, sum(o.truncation_warnings for o in outcomes))
        if workload != "figure-tables":  # the two oracle workloads
            assert layer["oracle.converged_frac"][0] == 1.0, workload
