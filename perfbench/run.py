"""proxint benchmark: one workload, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/``; nothing is built or installed.  The run

1. generates the seeded inputs (``inputs.py``) and builds the job list
   and its references (``refs.py``, cached under ``.perfbench/``);
2. times SETUP_REPEATS cold set-ups, each in a fresh interpreter that
   imports ``proxint.cli``, generates the inputs into a new directory and
   runs one warm-up job;
3. runs the job list in passes until ``--seconds`` have passed (at least
   one whole pass, two with ``--trace 1``).  Each pass runs in a child
   forked from this process as it stands after import, so nothing a job
   leaves behind in the program reaches a later pass: the CLI starts a
   fresh process per command.  One caller runs one job at a time; a job's
   output files are removed before it runs, and its output is checked
   against the references after it, outside the timed region;
4. prints a summary of every metric with its unit, then one JSON line:
   the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
   ``per_layer`` ones with ``--trace 1``.

Job times are scaled to a reference host speed (``hostspeed.py``): a
fixed calibration mix is timed before a pass's first job and after each
job, and a job's time is multiplied by ``REFERENCE_S`` over the mean of
the calibrations on either side of it and within two of its durations.
On a shared host this removes most of the drift that other tenants'
load causes; the summary lines also give the raw times.  Set-up times
are not scaled: calibrations taken between cold set-ups tracked them
worse than none (interquartile range over median of ten runs' setup_s
0.13-0.24 scaled, 0.09-0.20 raw, on a shared 2-vCPU VM).

End-to-end metrics, from untraced passes:

* ``setup_s``: median over the cold set-ups of the time from starting
  the interpreter to the end of the warm-up job, less the time the
  benchmark spends building its job list there, in raw seconds;
* ``wall_s``: the sum over the job list of each job's median time over
  the run's passes;
* ``job_p50_ms``: median over the job list of those median job times;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of this process and of the
  children that ran the set-ups and the passes;
* summary lines only: ``job_p90_ms`` (all job times, only where a run
  holds at least P90_MIN_SAMPLES), ``max_rel_err`` (worst output error
  against the references), ``fail_frac`` (failed over attempted jobs,
  the known defect below included), and each whole pass's total time.

A job fails when it raises, exits non-zero or gives output that disagrees
with the reference.  A failed job's time counts in no figure, and any
failure makes ``correct`` false and counts in the result line's
``failed``.  The one exception is the known defect of the program that
``jobs.py`` names and matches by its exact signature: the program does
what it is known to do there, so the job is timed like a passing one and
counts in ``fail_frac``, ``check.fail_frac`` and the summary, but not in
``failed`` or ``correct``.  Any other outcome of those jobs, a different
failure or a wrong output, is an ordinary failure; a correct output (the
defect fixed) passes.

With ``--trace 1`` passes alternate traced and untraced.  In a traced
pass ``spans.py`` wraps every public function of the five layer modules.
``<module>.<function>.calls`` and the counters come from the first traced
pass (they repeat exactly), ``<module>.<function>.self_s`` is the median
over whole traced passes, in raw seconds, and ``tracing_overhead_s`` is
the median traced pass total less the median untraced one.  The spans of
the first traced pass are written to ``.perfbench/traces/``.

Exit status: 0 with a result line; 1 on an internal error; 2 when the
checkout holds no ``src/proxint`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100


def _load_program():
    """Import proxint from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "proxint", "cli.py")):
        print(f"perfbench: no proxint sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import proxint
    import proxint.cli  # noqa: F401  (loads every layer module)

    if not os.path.abspath(proxint.__file__).startswith(SRC + os.sep):
        print(f"perfbench: proxint imported from {proxint.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return proxint


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def _build(workload: str, spec: dict, directory: str):
    """The workload's (job list, warm-up job), inputs in and outputs under ``directory``."""
    import jobs as joblib
    import refs

    def cache(key, compute):
        return refs.cached(os.path.join(STATE, "cache"), {"workload": workload, **key}, compute)

    outdir = os.path.join(directory, "out")
    os.makedirs(outdir, exist_ok=True)
    return joblib.BUILDERS[workload](spec, os.path.join(directory, "in"), outdir, cache)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, directory: str) -> int:
    """One cold set-up, in the fresh interpreter that ``cold_setups`` starts.

    Prints, when the warm-up job has ended, the seconds spent building
    the job list, which are the benchmark's and not the program's."""
    _load_program()
    import inputs

    spec = inputs.generate(workload, seed, os.path.join(directory, "in"))
    t0 = time.perf_counter()
    warmup = _build(workload, spec, directory)[1]
    own = time.perf_counter() - t0
    code = warmup.run()[0]
    print(json.dumps({"benchmark_s": own}), flush=True)
    if code != 0:  # the timed passes count and report the failure
        print(f"perfbench: warm-up job {warmup.name!r} exited {code}", file=sys.stderr)
    return 0


def cold_setups(workload: str, seed: int, work: str) -> list[float]:
    """Seconds of each cold set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup-{k}")
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--setup-probe", directory]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"cold set-up {k} exited {child.returncode}")
        times.append(ready - t0 - json.loads(line)["benchmark_s"])
        shutil.rmtree(directory, ignore_errors=True)
    return times


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """What one pass observed; built in the pass's child and sent back."""

    traced: bool
    complete: bool = False
    attempted: int = 0
    samples: list = field(default_factory=list)    # (job, raw s, scaled s) of jobs that passed
                                                   # or showed the known defect
    failures: list = field(default_factory=list)   # (job name, why, known defect)
    errors: list = field(default_factory=list)     # relative errors against the references
    verified: dict = field(default_factory=dict)   # job name -> Job.verified
    layer: dict | None = None                      # traced pass: see _layer_tables

    @property
    def unexpected(self) -> int:
        """Failures other than the known defect."""
        return sum(not known for _, _, known in self.failures)

    @property
    def total(self) -> float:
        """Scaled seconds of the jobs that passed."""
        return sum(dt for _, _, dt in self.samples)


def _verdict(job, code: int, payload) -> tuple[str | None, bool, float | None]:
    """(why the job failed or None, whether that is the known defect, its
    relative error against the references)."""
    import jobs as joblib

    if code != 0:
        try:
            known = job.known_failure is not None and job.known_failure(code)
        except Exception:
            known = False
        return f"exit {code}: {' | '.join(str(payload).splitlines()[-4:])}", known, None
    try:
        return None, False, job.check(payload)
    except joblib.Mismatch as exc:
        return f"output disagrees with the reference: {exc}", False, None
    except Exception:
        return "output unreadable\n" + traceback.format_exc(limit=4), False, None


def _run_job(job, result: Pass, tracer, clock, before: int) -> int:
    """Run, time and check one job; return the calibration mark taken just after it.

    ``result.samples`` gets (job, start, raw s, marks before and after),
    which ``run_pass`` scales once the pass is over."""
    for path in job.outputs:
        if os.path.exists(path):
            os.remove(path)
    result.attempted += 1
    t0 = time.perf_counter()
    try:
        code, payload = job.run()
    except Exception:  # a raw traceback breaks the CLI contract; record and go on
        code, payload = None, "raised\n" + traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    after = clock.mark()
    if tracer is not None and job.cli:
        tracer.count("cli.bytes_out", sum(os.path.getsize(o) for o in job.outputs
                                          if os.path.exists(o)))
    why, known, err = (payload, False, None) if code is None else _verdict(job, code, payload)
    if why is None or known:
        result.samples.append((job.name, t0, seconds, before, after))
        if err is not None:
            result.errors.append(err)
    if why is not None:
        result.failures.append((job.name, why, known))
    return after


def _layer_tables(tracer, job_list) -> dict:
    """Per-pass sums of self time, calls and counters, and the per-job table."""
    self_s, counts, per_job = defaultdict(float), defaultdict(int), defaultdict(dict)
    for j, table in tracer.by_job().items():
        name = job_list[j].name
        for fn, (calls, own) in table.items():
            key = "cli.command" if fn.startswith("cli.cmd_") else fn
            self_s[f"{key}.self_s"] += own
            counts[f"{fn}.calls"] += calls
            per_job[name][fn] = {"calls": calls, "self_s": own}
    for j, table in tracer.counters.items():
        for key, n in table.items():
            counts[key] += n
            per_job[job_list[j].name][key] = n
    return {"self_s": dict(self_s), "counts": dict(counts), "jobs": dict(per_job),
            "spans": tracer.spans}


def run_pass(job_list, deadline, traced: bool, package) -> Pass:
    import hostspeed
    import spans

    result = Pass(traced)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install(package)
    clock = hostspeed.Clock()
    mark = clock.mark()
    for j, job in enumerate(job_list):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.job = j
        mark = _run_job(job, result, tracer, clock, mark)
    else:
        result.complete = True
    result.samples = [(name, seconds, clock.scaled(t0, seconds, before, after))
                      for name, t0, seconds, before, after in result.samples]
    if tracer is not None:
        tracer.uninstall()
        if result.complete:
            result.layer = _layer_tables(tracer, job_list)
    result.verified = {job.name: job.verified for job in job_list if job.verified}
    return result


def _in_child(task, path: str):
    """Run ``task()`` in a forked child and return its result.

    Fork, not spawn, so that the child starts from the imported program
    without paying for the import again.  The only other threads are the
    idle OpenBLAS pools of numpy and scipy, which OpenBLAS stops around a
    fork through ``pthread_atfork``."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            result = task()
            with open(path, "wb") as fh:
                pickle.dump(result, fh)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass child ended with wait status {status}")
    with open(path, "rb") as fh:
        result = pickle.load(fh)
    os.remove(path)
    return result


def measure(job_list, seconds: float, trace: bool, package, work: str) -> list[Pass]:
    passes: list[Pass] = []
    min_passes = 2 if trace else 1
    deadline = time.perf_counter() + seconds
    while not passes or passes[-1].complete:
        p = len(passes)
        if p >= min_passes and time.perf_counter() >= deadline:
            break
        traced = trace and p % 2 == 0
        result = _in_child(
            lambda: run_pass(job_list, deadline if p >= min_passes else None, traced, package),
            os.path.join(work, f"pass-{p}.pickle"))
        for job in job_list:
            job.verified.update(result.verified.get(job.name, {}))
        passes.append(result)
    return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _job_times(passes: list[Pass], raw: bool = False) -> dict[str, list[float]]:
    """Untraced seconds of each job that passed, scaled unless ``raw``."""
    per_job = defaultdict(list)
    for result in passes:
        if not result.traced:
            for name, seconds, scaled in result.samples:
                per_job[name].append(seconds if raw else scaled)
    return per_job


def _totals(passes: list[Pass], traced: bool) -> list[float]:
    return [r.total for r in passes if r.complete and r.traced == traced]


def end_to_end(passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    per_job = _job_times(passes)
    typical = [statistics.median(times) for times in per_job.values()]
    latencies = [dt for times in per_job.values() for dt in times]
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "job_p50_ms": 1e3 * statistics.median(typical) if typical else 0.0,  # none passed
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "job_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[-1]
                       if len(latencies) >= P90_MIN_SAMPLES else None),
        "max_rel_err": max((e for r in passes for e in r.errors), default=0.0),
        "fail_frac": failed / attempted,
        "samples": len(latencies),
        "jobs": len(typical),
        "raw_wall_s": sum(statistics.median(t) for t in _job_times(passes, raw=True).values()),
    }
    return values, extra


def per_layer(passes: list[Pass], extra: dict) -> dict:
    traced = [r for r in passes if r.traced and r.complete]
    first = traced[0].layer["counts"]
    for k, r in enumerate(traced[1:], start=1):
        if r.layer["counts"] != first:
            print(f"perfbench: traced pass {k} counted differently from the first",
                  file=sys.stderr)
    values = defaultdict(int)
    values.update(first)
    for key in set().union(*(r.layer["self_s"] for r in traced)):
        values[key] = statistics.median(r.layer["self_s"].get(key, 0.0) for r in traced)
    values["tracing_overhead_s"] = (statistics.median(_totals(passes, True))
                                    - statistics.median(_totals(passes, False)))
    values["check.max_rel_err"] = extra["max_rel_err"]
    values["check.fail_frac"] = extra["fail_frac"]
    return values


def _write_trace(path: str, passes: list[Pass], values: dict) -> None:
    layer = next(r for r in passes if r.traced and r.complete).layer
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "metrics": values,
            "first_traced_pass_by_job": layer["jobs"],
            "span_fields": ["name", "start", "end", "parent", "job index in the job list"],
            "spans": layer["spans"],
        }, fh)


def _summary(workload, seed, passes, setups, e2e, extra, correct) -> None:
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)
    unexpected = sum(r.unexpected for r in passes)
    print(f"perfbench {workload} seed {seed}: {attempted} jobs attempted in {len(passes)} "
          f"passes, {unexpected} failed, {failed - unexpected} showed the known defect, "
          f"correct={correct}")
    reported = set()
    for r in passes:
        for name, why, known in r.failures:
            if name not in reported:
                reported.add(name)
                tag = "known defect" if known else "FAILED"
                print(f"perfbench: job {name!r} {tag}: {why}", file=sys.stderr)
    untraced = _totals(passes, False)
    rows = [
        ("setup_s", e2e["setup_s"], "s",
         "median of cold set-ups " + ", ".join(f"{t:.3f}" for t in setups)),
        ("wall_s", e2e["wall_s"], "s",
         f"sum of {extra['jobs']} median job times; raw {extra['raw_wall_s']:.4g} s"),
        ("job_p50_ms", e2e["job_p50_ms"], "ms", f"median of the {extra['jobs']} job times"),
        ("job_p90_ms", extra["job_p90_ms"], "ms", f"all job times, n={extra['samples']}"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "largest ru_maxrss of the run's processes"),
        ("max_rel_err", extra["max_rel_err"], "1", "worst output error vs the references"),
        ("fail_frac", extra["fail_frac"], "1", f"{failed}/{attempted} jobs"),
    ]
    for name, value, unit, note in rows:
        shown = f"absent (fewer than {P90_MIN_SAMPLES} samples)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {name:<12} {shown:<24} {note}")
    print("  untraced whole passes (s): " + ", ".join(f"{t:.3f}" for t in untraced))
    for name, times in _job_times(passes).items():
        print(f"  job {name:<28} median {statistics.median(times) * 1e3:9.1f} ms  "
              f"min {min(times) * 1e3:9.1f}  max {max(times) * 1e3:9.1f}  n={len(times)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.setup_probe)

    package = _load_program()
    import inputs
    import selfcheck

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {', '.join(inputs.WORKLOADS)})")
    e2e_specs, layer_specs = _metric_specs()
    selfcheck.quick()

    work = os.path.join(STATE, f"work-{os.getpid()}")
    try:
        spec = inputs.generate(args.workload, args.seed, os.path.join(work, "in"))
        job_list = _build(args.workload, spec, work)[0]
        setups = cold_setups(args.workload, args.seed, work)
        passes = measure(job_list, args.seconds, bool(args.trace), package, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not any(r.unexpected for r in passes)
    e2e, extra = end_to_end(passes, setups)
    _summary(args.workload, args.seed, passes, setups, e2e, extra, correct)
    if args.trace:
        values = per_layer(passes, extra)
        if values["tracing_overhead_s"] < 0:
            print(f"  tracing_overhead_s {values['tracing_overhead_s']:.4g} s is below zero: "
                  "unresolved, host noise is larger than the overhead")
        _write_trace(os.path.join(STATE, "traces", f"{args.workload}-seed{args.seed}.json"),
                     passes, values)
        specs = layer_specs
    else:
        values, specs = e2e, e2e_specs
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.unexpected for r in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
