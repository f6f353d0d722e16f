"""rayld benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 12 --trace 0

Run from the repository root. A run starts its own local Ray session, builds
the workload's inputs from ``--seed``, builds a reference answer, warms up
with one job of the timed size, then runs jobs (closed loop, one at a time)
until ``--seconds`` have passed. Every job's output is checked against the
reference; a job that raises, overruns JOB_DEADLINE_S or returns wrong
output counts as failed and the remaining jobs still run.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics for ``--trace 0`` and the
per-layer metrics for ``--trace 1``. The line before it is ``{"info": ...}``:
the seed, the input content hash, set-up phases and every job time. The
warm-up job counts as an attempted job, so a wrong output that repeats on
every job still ends in a result line with ``"correct": false``. The
traced run also writes its spans to ``.perfbench-work/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench-work"

# The Ray session gets the CPUs this process may run on but one, which the
# driver keeps: it plans and schedules every Dataset. On a 4-vCPU VM a
# session that also took the fourth CPU made ops_mix ~20% slower and twice
# as noisy. At most MAX_CPUS, so that a large host does not start dozens
# of workers. (`nproc` can under-report: it honours OMP_NUM_THREADS.)
MAX_CPUS = 4
OBJECT_STORE_BYTES = 768 * 1024 ** 2
JOB_DEADLINE_S = 60.0
# stop starting jobs this long after start, so a run exits within 180 s
RUN_BUDGET_S = 140.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def bring_up(cpus: int) -> str:
    """A fresh local Ray session whose workers import ``rayld`` from this
    checkout through PYTHONPATH (a driver-only sys.path entry does not reach
    them). Returns the session's directory."""
    paths = [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "")
                           .split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(ROOT))
    import ray
    from ray.data import DataContext

    ctx = ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                   log_to_driver=False, logging_level="ERROR",
                   object_store_memory=OBJECT_STORE_BYTES)
    DataContext.get_current().enable_progress_bars = False
    return ctx.address_info["session_dir"]


def stop_ray(session_dir: str) -> None:
    """Shut the session down, wait until every process it started has
    exited (workers outlive the raylet briefly, re-parented away from us),
    and delete the session's directory: its logs, a few MB a run, would
    otherwise pile up in Ray's temp directory."""
    import ray
    from probes import tree_pids, wait_gone

    started = set(tree_pids(os.getpid())) - {os.getpid()}
    ray.shutdown()
    wait_gone(started, timeout_s=20.0)
    shutil.rmtree(session_dir, ignore_errors=True)


def run_with_deadline(fn, deadline_s: float):
    """``fn()`` in a daemon thread; ("ok", value), ("error", traceback) or
    ("timeout", None)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except Exception:  # counted as a failed job, reported on stderr
            box["error"] = traceback.format_exc()

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(deadline_s)
    if t.is_alive():
        return "timeout", None
    if "error" in box:
        return "error", box["error"]
    return "ok", box["value"]


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(wl, warm_up: tuple, seconds: float, t_start: float, tracer,
            trace: bool) -> dict:
    """Closed loop of jobs for ``seconds``, after the warm-up job whose
    ``(status, value)`` is ``warm_up``. A job that raises, overruns or fails
    its check is counted and the loop goes on. In the traced run every other
    job runs with the tracer off, which measures the tracing overhead.

    ``times`` and ``rows`` hold the jobs that passed; ``walls`` holds every
    timed job's wall time, so a run in which no job passed still reports."""
    m = {"times": [], "traced": [], "rows": [], "walls": [],
         "attempted": 1, "failed": 0}

    def failed(i, status, value) -> None:
        m["failed"] += 1
        print(f"job {i} failed ({status}):\n{value or ''}", file=sys.stderr)

    if warm_up[0] != "ok":
        failed("warm-up", *warm_up)
        if warm_up[0] == "timeout":
            return m    # the hung job still holds the session
    t_end = time.perf_counter() + seconds
    i = 0
    while i == 0 or (time.perf_counter() < t_end
                     and time.perf_counter() - t_start < RUN_BUDGET_S):
        tracer.enabled = trace and i % 2 == 0

        def one(i=i):
            elapsed, out = wl.job(i)
            return elapsed, wl.check(out)

        gc.collect()    # the last job's output, not this job, pays for it
        m["attempted"] += 1
        t0 = time.perf_counter()
        status, value = run_with_deadline(one, JOB_DEADLINE_S)
        m["walls"].append(time.perf_counter() - t0)
        if status == "ok":
            m["times"].append(value[0])
            m["rows"].append(value[1])
            m["traced"].append(tracer.enabled)
        else:
            failed(i, status, value)
            if status == "timeout":
                break
        i += 1
    tracer.enabled = trace
    return m


def end_to_end(setup_s: float, m: dict, peak_rss: int) -> dict:
    job_s = _median(m["times"] or m["walls"])
    return {"setup_s": setup_s, "job_s": job_s,
            "rows_per_s": _median(m["rows"]) / job_s if job_s else 0.0,
            "peak_rss_mb": peak_rss / 2 ** 20}


def per_layer(out: dict, wl, name: str, cpus: int, m: dict,
              tracer) -> None:
    """Fill ``out`` (every per-layer metric, preset to 0) with what the
    workload runs; a layer it does not run keeps 0."""
    from layers import exchange_stats, kg_layer_pass
    from workloads import OPS_QUERIES

    times = m["times"]
    on = [t for t, tr in zip(times, m["traced"]) if tr]
    off = [t for t, tr in zip(times, m["traced"]) if not tr]
    out["job.samples"] = float(len(times))
    out["job.max_s"] = max(times or m["walls"] or [0.0])
    out["trace.overhead_s"] = (statistics.median(on) - statistics.median(off)
                               if on and off else 0.0)
    if name in ("kg_build", "kg_sink_resume"):
        from rayld.sources.transcripts import read_transcripts

        reads = []
        for _ in range(3):
            with tracer.span("sources.read"):
                t0 = time.perf_counter()
                n = sum(b.num_rows for b in read_transcripts(
                    wl.corpus.path).iter_batches(batch_format="pyarrow",
                                                 batch_size=None))
                reads.append(time.perf_counter() - t0)
        if n != wl.corpus.n_turns:
            raise RuntimeError(f"read {n} turns, wrote {wl.corpus.n_turns}")
        out["sources.read_s"] = statistics.median(reads)
        out.update(kg_layer_pass(tracer, wl.corpus.table))
        per_turn_us = sum(out[k] for k in (
            "linker.us_per_turn", "expand.us_per_turn",
            "kernel.json_loads_us_per_turn", "kernel.to_rdf_us_per_turn",
            "kernel.c14n_us_per_turn"))
        out["kg.layer_cpu_s"] = per_turn_us * wl.turns_per_job() / 1e6
        out["kg.gap"] = _median(times) * cpus / out["kg.layer_cpu_s"]
    if name == "kg_build" and wl.last_ds is not None:
        out.update(exchange_stats(wl.last_ds))
    if name == "kg_sink_resume" and wl.sink:
        out.update(wl.sink)
        out["resume.skipped_ratio"] = _median(wl.skipped) / wl.NUM_BUCKETS
        out["resume.redo_ratio"] = (_median(times)
                                    / wl.sink["sink.full_write_s"])
    if name == "ops_mix":
        for q in OPS_QUERIES:
            out[f"ops.{q}_s"] = _median(wl.query_s[q])
            out[f"ops.{q}_rows"] = float(wl.rows_per_query.get(q, 0))


def load_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "rayld" / "__init__.py").is_file() \
            or not (ROOT / "__ray_entry__.py").is_file():
        print("perfbench: no rayld sources next to perfbench/; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    from probes import RssSampler, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_names()
    cpus = max(1, min(MAX_CPUS, len(os.sched_getaffinity(0)) - 1))
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(enabled=bool(args.trace))
    session_dir = None
    try:
        with RssSampler() as rss:
            phases: dict = {}
            t0 = time.perf_counter()
            session_dir = bring_up(cpus)
            phases["bring_up_s"] = time.perf_counter() - t0
            wl = WORKLOADS[args.workload](args.seed, work, tracer, phases)
            t0 = time.perf_counter()
            with tracer.span("warm_up"):
                warm_up = run_with_deadline(wl.warm_up, JOB_DEADLINE_S)
            phases["warm_up_s"] = time.perf_counter() - t0
            setup_s = sum(phases.values())
            m = measure(wl, warm_up, args.seconds, t_start, tracer,
                        bool(args.trace))
            if args.trace:
                metrics = dict.fromkeys(layer_units, 0.0)
                try:
                    per_layer(metrics, wl, args.workload, cpus, m, tracer)
                except Exception:   # counted like a failed job
                    m["attempted"] += 1
                    m["failed"] += 1
                    print(f"per-layer pass failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
                metrics["failed_ratio"] = m["failed"] / m["attempted"]
                units = layer_units
            else:
                metrics = end_to_end(setup_s, m, rss.peak)
                units = e2e_units
    finally:
        if session_dir is not None:
            stop_ray(session_dir)
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        tracer.write(str(WORK_ROOT / "traces"
                         / f"{args.workload}-s{args.seed}-{os.getpid()}.json"))
    info = {"workload": args.workload, "seed": args.seed, "cpus": cpus,
            **wl.info,
            "setup_phases_s": phases, "job_times_s": m["times"],
            "job_rows": m["rows"]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
