#!/usr/bin/env python3
"""rotobh benchmark: seed-generated CLI jobs, timed and checked in one process.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-validate --seed 0 --seconds 30 --trace 0

--trace 0 times the workload untraced and reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics plus the tracing overhead.  --workload all runs every workload in
its own process and prints all of their metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
DEFAULT_SEED = 0
SETUP_RUNS = 11
# Times are scaled to the machine speed at which one speed probe takes
# this long (see SpeedProbe).
PROBE_REF_S = 0.005
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import rotobh.cli; rotobh.cli.build_parser()"
WORKLOAD_NAMES = ("oracle-validate", "variational-sweep", "figure-tables")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite the reference tables of every workload at "
                        "the default seed (only when the job lists change)")
    return p.parse_args(argv)


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# -- machine speed --------------------------------------------------------

class SpeedProbe:
    """A fixed slice of interpreter and LAPACK work, timed between passes.

    On a shared virtual machine the CPU runs up to twice as slow for
    minutes at a time, and the program and this probe slow down together.
    Each measured interval is scaled by PROBE_REF_S over the mean of the
    probes just before and just after it, so a time reads as it would at
    one fixed machine speed.  The probe calls no rotobh code, so a change
    to rotobh cannot move it.
    """

    def __init__(self):
        import numpy
        from scipy.linalg import eigh_tridiagonal
        self._eig = eigh_tridiagonal
        self._diag = numpy.arange(13.0)
        self._off = numpy.ones(12)
        self.factors = []
        self._last = self._probe()

    def _probe(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += math.sqrt(i + 0.5)
        for _ in range(100):
            self._eig(self._diag, self._off, select="i", select_range=(0, 0))
        return time.perf_counter() - t0

    def factor(self):
        """Scale for the interval since the previous probe."""
        now = self._probe()
        f = PROBE_REF_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(f)
        return f


def measure_setup(src, probe):
    """Median time for a fresh interpreter to import rotobh and build the
    CLI parser, after one untimed run warms the file cache.

    Returns (scaled, unscaled).
    """
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", SETUP_CODE]
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        t = time.perf_counter() - t0
        f = probe.factor()
        if i:
            scaled.append(t * f)
            raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


# -- running and checking jobs -------------------------------------------

class Outcome:
    __slots__ = ("text", "seconds", "error", "truncation_warnings")


def run_job(cli, job, truncation_cls):
    out, err = io.StringIO(), io.StringIO()
    o = Outcome()
    o.error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            status = cli.main(list(job.argv))
        except Exception as exc:  # a job that raises counts as failed
            status = "%s: %s" % (type(exc).__name__, exc)
        o.seconds = time.perf_counter() - t0
    if status != 0:
        o.error = "exit %s %s" % (status, err.getvalue().strip())
    o.text = out.getvalue()
    o.truncation_warnings = sum(1 for w in caught
                                if issubclass(w.category, truncation_cls))
    return o


def run_pass(cli, jobs, truncation_cls):
    t0 = time.perf_counter()
    outcomes = [run_job(cli, job, truncation_cls) for job in jobs]
    return time.perf_counter() - t0, outcomes


def load_reference(workload, job):
    from rotobh import io as rio
    base = os.path.join(HERE, "reference", workload, job.ref)
    with open(base + ".csv", encoding="utf-8") as fp:
        _, columns, rows = rio.parse_csv(fp.read())
    ref = {"columns": columns, "rows": rows, "meta": {}}
    if os.path.exists(base + ".meta.json"):
        with open(base + ".meta.json", encoding="utf-8") as fp:
            ref["meta"] = json.load(fp)
    return ref


def check_first_pass(workloads, workload, jobs, outcomes, with_reference):
    """Full check of each job's first output.

    Returns ({job name: failure or None}, {job name: table rows}).
    """
    texts = {job.name: o.text for job, o in zip(jobs, outcomes)}
    verdict, rows = {}, {}
    for job, o in zip(jobs, outcomes):
        if o.error:
            verdict[job.name] = o.error
            continue
        try:
            cols, table, meta = workloads.parse_output(job, o.text)
            problem = workloads.check_invariants(job, cols, table)
            if problem is None and job.twin and texts[job.twin] != o.text:
                problem = "output differs from %s" % job.twin
            if problem is None and with_reference:
                problem = workloads.compare_reference(
                    job, cols, table, meta, load_reference(workload, job))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        verdict[job.name] = problem
        rows[job.name] = 0 if problem else len(table)
    return verdict, rows


def count_failures(jobs, outcomes, first_texts, verdict):
    """A later pass's job fails unless it reproduces a checked output."""
    return sum(1 for job, o in zip(jobs, outcomes)
               if o.error or verdict[job.name]
               or o.text != first_texts[job.name])


def provenance(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# -- the run --------------------------------------------------------------

def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "rotobh", "cli.py")):
        print("perfbench: no rotobh sources in %s; run from the repository "
              "root" % src, file=sys.stderr)
        return 2
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    # One process generates the load: BLAS stays single-threaded so the
    # only extra threads are the two of a --workers 2 job, on 2 cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    probe = SpeedProbe()
    if not (args.trace or args.write_reference):
        setup = measure_setup(src, probe)

    sys.path.insert(0, src)
    import rotobh
    import rotobh.cli as cli
    from rotobh.errors import TruncationWarning
    if not os.path.abspath(rotobh.__file__).startswith(src + os.sep):
        print("perfbench: imported rotobh from %s, not from %s"
              % (rotobh.__file__, src), file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.write_reference:
        return write_reference(cli, workloads, TruncationWarning)

    jobs = workloads.make_jobs(args.workload, args.seed)
    report = {"provenance": provenance(args)}

    # warm-up pass: untimed, and the one whose outputs are fully checked
    _, first = run_pass(cli, jobs, TruncationWarning)
    first_texts = {job.name: o.text for job, o in zip(jobs, first)}
    verdict, rows = check_first_pass(workloads, args.workload, jobs, first,
                                     args.seed == DEFAULT_SEED)
    attempted, failed = len(jobs), sum(1 for v in verdict.values() if v)

    untraced, raw_walls, latencies = [], [], []
    traced, layer_passes, span_log = [], [], []
    tracer = tracing.Tracer()
    probe.factor()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not untraced:
        wall, outcomes = run_pass(cli, jobs, TruncationWarning)
        f = probe.factor()
        raw_walls.append(wall)
        untraced.append(wall * f)
        latencies.extend(o.seconds * f for o in outcomes)
        attempted += len(jobs)
        failed += count_failures(jobs, outcomes, first_texts, verdict)
        if not args.trace:
            continue
        tracer.install()
        try:
            tracer.begin_pass()
            wall, outcomes = run_pass(cli, jobs, TruncationWarning)
            spans, counts, notes = tracer.end_pass()
        finally:
            tracer.uninstall()
        f = probe.factor()
        traced.append(wall * f)
        attempted += len(jobs)
        failed += count_failures(jobs, outcomes, first_texts, verdict)
        layer = tracing.layer_metrics(
            spans, counts, notes, sum(o.truncation_warnings for o in outcomes))
        layer_passes.append({
            k: (v * f if unit in ("ms", "us") else v, unit, base)
            for k, (v, unit, base) in layer.items()})
        span_log.append(array("q", (x for span in spans for x in span)))

    report.update(
        passes=len(untraced), rows_per_pass=sum(rows.values()),
        failures={k: v for k, v in verdict.items() if v},
        failed_frac=failed / attempted,
        speed_factor_median=statistics.median(probe.factors),
        raw_wall_s=statistics.median(raw_walls),
        jobs=job_table(jobs, latencies))
    if args.trace:
        metrics = per_layer(layer_passes, traced, untraced, report)
        write_spans(args, span_log)
    else:
        report["raw_setup_s"] = setup[1]
        metrics = end_to_end(setup[0], untraced, latencies, report)
    print_report(report, metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fp:
        json.dump(dict(report, metrics=metrics, attempted=attempted,
                       failed=failed), fp, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(setup_s, walls, latencies, report):
    ms = sorted(1e3 * s for s in latencies)
    wall = statistics.median(walls)
    # the highest percentile with at least ten samples beyond it
    top = next((q for q in (99.9, 99.0, 90.0, 50.0)
                if len(ms) * (100.0 - q) / 100.0 >= 10.0), None)
    report.update(
        wall_s_quartiles=statistics.quantiles(walls, n=4, method="inclusive")
        if len(walls) > 1 else [wall] * 3,
        job_samples=len(ms),
        job_ms_top_percentile=top and [top, percentile(ms, top)])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "rows_per_s": {"value": report["rows_per_pass"] / wall, "unit": "1/s"},
        "job_ms_p50": {"value": percentile(ms, 50.0), "unit": "ms"},
        "job_ms_p90": {"value": percentile(ms, 90.0), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(layer_passes, traced, untraced, report):
    """Counts from the first traced pass (they must repeat exactly in every
    traced pass); times are medians over the traced passes."""
    first = layer_passes[0]
    exact = all(p[k][0] == first[k][0] for p in layer_passes
                for k, (_, unit, _) in first.items()
                if unit not in ("ms", "us"))
    metrics, bases = {}, {}
    for name, (value, unit, base) in first.items():
        if unit in ("ms", "us"):
            value = statistics.median(p[name][0] for p in layer_passes)
        metrics[name] = {"value": value, "unit": unit}
        if base is not None:
            bases[name] = {"base": base[0], "n": base[1]}
    untraced_wall = statistics.median(untraced)
    metrics["trace.overhead"] = {
        "value": statistics.median(traced) / untraced_wall, "unit": "ratio"}
    bases["trace.overhead"] = {"base": "untraced wall_s", "n": untraced_wall}
    report.update(traced_passes=len(traced), counts_exact=exact,
                  ratio_bases=bases)
    return metrics


def job_table(jobs, latencies):
    """Median latency per job over the timed untraced passes, in ms."""
    per_job = {job.name: [] for job in jobs}
    for i, s in enumerate(latencies):
        per_job[jobs[i % len(jobs)].name].append(1e3 * s)
    return {name: statistics.median(v) for name, v in per_job.items()}


def write_spans(args, span_log):
    from tracer import NAMES
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.csv"
                        % (args.workload, args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("pass,span,parent,name,start_us,duration_us\n")
        for i, flat in enumerate(span_log):
            spans = [flat[j:j + 5] for j in range(0, len(flat), 5)]
            origin = min((s[3] for s in spans), default=0)
            for sid, parent, name, t0, t1 in spans:
                fp.write("%d,%d,%d,%s,%.3f,%.3f\n" % (
                    i, sid, parent, NAMES[name], (t0 - origin) / 1e3,
                    (t1 - t0) / 1e3))


def print_report(report, metrics):
    prov = report["provenance"]
    print("rotobh benchmark: workload %s, seed %d, %s" % (
        prov["workload"], prov["seed"],
        "traced" if prov["trace"] else "untraced"))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("passes: %d, output rows per pass: %d"
          % (report["passes"], report["rows_per_pass"]))
    for name, ms in sorted(report["jobs"].items(), key=lambda kv: kv[1]):
        print("  job %-32s %10.3f ms (median)" % (name, ms))
    for name, why in report["failures"].items():
        print("  FAILED %s: %s" % (name, why))
    bases = report.get("ratio_bases", {})
    for name, m in metrics.items():
        base = bases.get(name)
        extra = "" if base is None else "  (base: %s = %s)" % (
            base["base"], base["n"])
        print("%-44s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    if "wall_s_quartiles" in report:
        print("%-44s %s s" % ("wall_s quartiles (q1, median, q3)", ", ".join(
            "%.6g" % q for q in report["wall_s_quartiles"])))
        print("%-44s %14d count" % ("job samples", report["job_samples"]))
        top = report["job_ms_top_percentile"]
        if top:
            print("%-44s %14.6g ms" % ("job_ms_p%g" % top[0], top[1]))
    if "counts_exact" in report:
        print("%-44s %14s" % ("counts repeat in every traced pass",
                              report["counts_exact"]))
    print("%-44s %14.6g ratio" % ("failed_frac", report["failed_frac"]))
    print("%-44s %14.6g ratio" % ("speed factor (median over probes)",
                                  report["speed_factor_median"]))
    print("%-44s %14.6g s" % ("wall_s unscaled", report["raw_wall_s"]))
    if "raw_setup_s" in report:
        print("%-44s %14.6g s" % ("setup_s unscaled", report["raw_setup_s"]))


def write_reference(cli, workloads, truncation_cls):
    """Write each job's default-seed output as its reference table."""
    for workload in WORKLOAD_NAMES:
        jobs = workloads.make_jobs(workload, DEFAULT_SEED)
        _, outcomes = run_pass(cli, jobs, truncation_cls)
        verdict, _ = check_first_pass(workloads, workload, jobs, outcomes,
                                      False)
        bad = {k: v for k, v in verdict.items() if v}
        if bad:
            print("perfbench: not writing references for %s: %s"
                  % (workload, bad), file=sys.stderr)
            return 1
        folder = os.path.join(HERE, "reference", workload)
        os.makedirs(folder, exist_ok=True)
        for job, o in zip(jobs, outcomes):
            if job.twin:
                continue
            if job.flag("--format", "csv") == "json":
                with open(os.path.join(folder, job.ref + ".meta.json"), "w",
                          encoding="utf-8") as fp:
                    json.dump(json.loads(o.text)["meta"], fp, indent=1,
                              sort_keys=True)
                    fp.write("\n")
            else:
                with open(os.path.join(folder, job.ref + ".csv"), "w",
                          encoding="utf-8", newline="") as fp:
                    fp.write(o.text)
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics["%s.%s" % (workload, name)] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
