#!/usr/bin/env python3
"""dscoh benchmark of record.

    python3 perfbench/run.py --workload sweep_small|contended_big|svc_scaleout|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the repository (and perfbench_probe) under .bench_build/, then runs
one workload through the commands users type and measures it from outside:
the child's wall time, rusage and /proc/<pid>/io, the public library calls
perfbench_probe times, and the stat counters every job publishes. Prints a
readable table, then as the last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1
(whose Chrome trace lands in .bench_build/traces/). Exits 1 when an output
check fails and 2 on bad usage or a missing source tree, printing no
result in that case. See README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layers  # noqa: E402
import measure  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")

# The batch workloads: dscoh_sweep exactly as a user runs it.
BATCH = {
    "sweep_small": {"size": "small", "codes": "all", "workers": 1,
                    "persist": True},
    "contended_big": {"size": "big", "codes": "NN,GC", "workers": 2,
                      "persist": False},
}

# svc_scaleout: a 2-worker daemon on the 4-GPU ring with timestamp leases,
# fed by three tenants whose code sets overlap (so the produce cache dedups
# across tenants) at a fixed request rate for 3/4 of the run.
SVC_CONFIG = ("num-gpus = 4\ncpu-cores = 2\nshard-policy = page\n"
              "ds-topology = ring\nts-lease-ticks = 20000\n")
SVC_TENANTS = {"alpha": ["BP", "HT", "LV", "NW"],
               "beta": ["NW", "BL", "CH", "MT"],
               "gamma": ["MT", "MM", "BP", "LV"]}
SVC_WORKERS = 2
SVC_RATE = 4.0          # requests per second, about a third of capacity
SVC_SPAN_SHARE = 0.75   # share of --seconds the schedule spans
SVC_SETUP_CYCLES = 50   # daemon start/ping/stop cycles for setup_s, run
                        # both before and after the window

LOST = 1e9              # latency reported for a request that never finished

E2E = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
       ("setup_s", "s"), ("latency_p50_s", "s"), ("latency_tail_s", "s")]

# Timings are reported as median, tail and sample count.
TIMINGS = ["exp.setup_s", "exp.simulate_s", "exp.teardown_s", "svc.ready_s",
           "svc.submit_s", "svc.queue_wait_s", "svc.run_s",
           "bench.generator_lag_s"]
PER_LAYER = (
    [("sim.events", "count"), ("sim.schedule_calls", "count"),
     ("sim.heap_spilled_callbacks", "count"), ("sim.events_per_s", "1/s"),
     ("coherence.replay_retries", "count"),
     ("coherence.retries_per_access", "ratio"),
     ("coherence.home_transactions", "count"),
     ("coherence.home_queued", "count"), ("coherence.lease_hits", "count"),
     ("gpu.lane_ops", "count"), ("gpu.coalesced_txns", "count"),
     ("gpu.lanes_per_txn", "ratio"), ("gpu.blocks", "count"),
     ("gpu.l2_miss_ratio", "ratio"),
     ("cpu.stores", "count"), ("cpu.remote_stores", "count"),
     ("cpu.tlb_misses", "count"),
     ("net.messages", "count"), ("net.bytes", "B"),
     ("net.ds_messages", "count"),
     ("mem.dram_accesses", "count"), ("mem.row_hit_ratio", "ratio"),
     ("core.sim_ticks", "ticks"), ("core.produce_ticks", "ticks"),
     ("core.kernel_ticks", "ticks"),
     ("exp.overhead_s", "s"), ("exp.makespan_ratio", "ratio"),
     ("snap.bytes_written", "B"), ("snap.write_calls", "count"),
     ("snap.blocks_written", "count"), ("snap.voluntary_waits", "count"),
     ("snap.crc_mb_per_s", "MB/s"), ("snap.save_mb_per_s", "MB/s"),
     ("svc.cache_hit_ratio", "ratio"), ("svc.bytes_written", "B"),
     ("svc.write_calls", "count"), ("bench.trace_overhead_s", "s")]
    + [(n + sfx, unit) for n in TIMINGS
       for sfx, unit in (("", "s"), (".tail", "s"), (".n", "count"))])

PROGRESS = re.compile(r"\[(\d+)/(\d+)\] (\S+) (\S+) (\S+) (FAILED )?"
                      r"\(([\d.]+)s\)")


class Failures:
    """Output checks: every failed check is remembered with its reason."""

    def __init__(self):
        self.reasons = []

    def check(self, ok, reason):
        if not ok:
            self.reasons.append(reason)
        return ok


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- build ---

def find_binary(tree, name):
    for dirpath, dirnames, filenames in os.walk(tree):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        if name in filenames:
            path = os.path.join(dirpath, name)
            if os.access(path, os.X_OK):
                return path
    raise SystemExit(f"perfbench: {name} not built under {tree}")


def build():
    """Configures (once) and builds the tools the workloads run, then the
    probe against the same libraries. An up-to-date tree is a no-op."""
    os.makedirs(WORK, exist_ok=True)
    repo = os.path.join(WORK, "dscoh")
    probe_dir = os.path.join(WORK, "probe")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(repo, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", repo,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", repo, "-j", jobs, "--target",
                  "dscoh_sweep", "dscoh_svc_tool", "dscoh_trace_stats"])
    if not os.path.exists(os.path.join(probe_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", probe_dir,
                      "-DDSCOH_SOURCE_DIR=" + ROOT,
                      "-DDSCOH_BUILD_DIR=" + repo])
    steps.append(["cmake", "--build", probe_dir, "-j", jobs])
    with open(os.path.join(WORK, "build.log"), "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise SystemExit("perfbench: build failed: " + " ".join(step)
                                 + f" (log: {out.name})")
    return {"sweep": find_binary(os.path.join(repo, "src"), "dscoh_sweep"),
            "svc": find_binary(os.path.join(repo, "src"), "dscoh_svc"),
            "trace_stats": find_binary(os.path.join(repo, "src"),
                                       "trace_stats"),
            "probe": os.path.join(probe_dir, "perfbench_probe")}


# --------------------------------------------------------------- probe ---

def probe(tools, *args):
    """Runs perfbench_probe; raises with its stderr when it fails."""
    res = subprocess.run([tools["probe"], *args], stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         timeout=170)
    if res.returncode != 0:
        raise RuntimeError("perfbench_probe " + args[0] + " failed: "
                           + res.stderr.decode(errors="replace").strip())


def setup_samples(tools, tmp, size, codes):
    """Per-pass sums of the WorkloadRun constructor over a job list."""
    out = os.path.join(tmp, "setup.json")
    probe(tools, "setup", "--size", size, "--codes", codes, "--out", out)
    with open(out) as f:
        return [sum(p) for p in json.load(f)["passes"]]


def probe_jobs(tools, tmp, size, codes, workers, config=None):
    """Runs every job in-process with each library call timed. Returns
    (per-job timings, results.json job objects with queue.* counters)."""
    snaps = os.path.join(tmp, "probe-snaps")
    os.makedirs(snaps, exist_ok=True)
    out = os.path.join(tmp, "probe.json")
    results = os.path.join(tmp, "probe-results.json")
    extra = ["--config", config] if config else []
    probe(tools, "jobs", "--size", size, "--codes", codes, "--workers",
          str(workers), "--snap-dir", snaps, "--out", out, "--results",
          results, *extra)
    with open(out) as f, open(results) as g:
        return json.load(f)["jobs"], json.load(g)["results"]


def without_queue_stats(job):
    job = dict(job)
    job["stats"] = {k: v for k, v in job["stats"].items()
                    if not k.startswith("queue.")}
    return job


def job_key(job):
    return job["code"], job["mode"]


# --------------------------------------------------------------- spans ---

def probe_spans(spans, timings, label):
    """The probe's in-process pass: workload > job > setup, simulate,
    publish (snapshotSave + crc32 of the end state), teardown."""
    root = len(spans)
    spans.append(measure.Span(
        "workload", min(t["setup"][0] for t in timings),
        max(t["teardown"][1] for t in timings), ident=label,
        track="probe", cat="exp"))
    for t in timings:
        ident = f"{t['code']}/{t['mode']}"
        track = f"probe worker {t['worker']}"
        job = len(spans)
        spans.append(measure.Span("job", t["setup"][0], t["teardown"][1],
                                  ident=ident, parent=root, track=track,
                                  cat="exp"))
        for name, key, cat in (("setup", "setup", "core"),
                               ("simulate", "simulate", "sim"),
                               ("teardown", "teardown", "core")):
            spans.append(measure.Span(name, *t[key], ident=ident, parent=job,
                                      track=track, cat=cat))
        spans.append(measure.Span(
            "publish", t["save"][0], t["crc"][1], ident=ident, parent=job,
            track=track, cat="snap",
            args={"snapshot_bytes": t["snapBytes"]}))


def lanes(intervals):
    """Greedy track assignment so overlapping spans get separate tracks."""
    ends, out = [], []
    for start, end in intervals:
        for i, e in enumerate(ends):
            if e <= start:
                ends[i] = end
                out.append(i)
                break
        else:
            ends.append(end)
            out.append(len(ends) - 1)
    return out


def job_work(t):
    """A probe job's constructor + run() + destructor seconds."""
    return sum(t[k][1] - t[k][0] for k in ("setup", "simulate", "teardown"))


def timing_metrics(metrics, name, samples):
    if samples:
        value, _, _, n = measure.tail(samples)
        metrics[name] = statistics.median(samples)
        metrics[name + ".tail"] = value
        metrics[name + ".n"] = n
    else:
        metrics[name] = metrics[name + ".tail"] = metrics[name + ".n"] = 0


def probe_metrics(metrics, timings, results):
    """Layer metrics from the probe pass: event rate, call spans, snapshot
    throughput."""
    simulate = sum(t["simulate"][1] - t["simulate"][0] for t in timings)
    metrics["sim.events_per_s"] = layers.ratio(
        sum(j["stats"]["queue.executed_events"] for j in results), simulate)
    for key in ("setup", "simulate", "teardown"):
        timing_metrics(metrics, f"exp.{key}_s",
                       [t[key][1] - t[key][0] for t in timings])
    snap_bytes = sum(t["snapBytes"] for t in timings)
    metrics["snap.crc_mb_per_s"] = layers.ratio(
        snap_bytes / 1e6, sum(t["crc"][1] - t["crc"][0] for t in timings))
    metrics["snap.save_mb_per_s"] = layers.ratio(
        snap_bytes / 1e6, sum(t["save"][1] - t["save"][0] for t in timings))


def child_io_metrics(metrics, ex):
    metrics["snap.bytes_written"] = ex.io["wchar"]
    metrics["snap.write_calls"] = ex.io["syscw"]
    metrics["snap.blocks_written"] = ex.blocks_written
    metrics["snap.voluntary_waits"] = ex.voluntary_waits


def write_trace(tools, spans, workload, fails):
    """Writes the spans as a Chrome trace, then has trace_stats --strict
    check it. Returns the time the file was complete."""
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", workload + ".json")
    with open(path, "w") as f:
        json.dump(measure.chrome_trace(spans), f)
    written = time.monotonic()
    res = subprocess.run([tools["trace_stats"], "--strict", path],
                         stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE)
    fails.check(res.returncode == 0, "trace_stats --strict rejected "
                + path + ": " + res.stderr.decode(errors="replace"))
    log(f"perfbench: trace written to {path}")
    return written


# --------------------------------------------------------------- batch ---

def batch_argv(tools, spec, json_path):
    argv = [tools["sweep"], spec["size"], "--jobs", str(spec["workers"])]
    if spec["codes"] != "all":
        argv += ["--only", spec["codes"]]
    return argv + ["--json", json_path if spec["persist"] else ""]


def parse_table(text):
    """dscoh_sweep's stdout table -> {(code, mode): ticks}, failed codes."""
    ticks, failed = {}, []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) >= 2 and parts[1] == "FAILED:":
            failed.append(parts[0])
        elif len(parts) == 6:
            ticks[(parts[0], "CCSM")] = int(parts[1])
            ticks[(parts[0], "DirectStore")] = int(parts[2])
    return ticks, failed


@dataclass
class Rep:
    """One run of a batch command and what its output checks found."""
    exit: measure.Exit
    child: measure.Child
    latencies: list      # per job: spawn -> its progress line, seconds
                         # (None when the progress stream was not read)
    digest: str          # of results.json, or of the table without one
    results: list        # results.json job objects (None without one)
    ticks: dict          # (code, mode) -> ticks, from the printed table
    failed: int          # jobs that did not finish ok


def batch_rep(tools, spec, tmp, expected, fails, watch=True):
    """Runs the batch command once and checks its outputs. With `watch`
    its progress stream is read and timestamped; otherwise it is
    discarded, as an untraced run leaves it."""
    rep_dir = os.path.join(tmp, f"rep{time.monotonic_ns()}")
    os.makedirs(rep_dir)
    json_path = os.path.join(rep_dir, "results.json")
    stdout_path = os.path.join(rep_dir, "stdout.txt")
    with open(stdout_path, "wb") as out:
        child = measure.Child(batch_argv(tools, spec, json_path), stdout=out,
                              watch=watch)
        ex = child.wait()
    with open(stdout_path) as f:
        table = f.read()
    fails.check(ex.code == 0, f"dscoh_sweep exited {ex.code}")
    latencies, failed = None, 0
    if watch:
        done = [(t, m) for t, m in ((t, PROGRESS.search(line))
                                    for t, line in child.lines) if m]
        latencies = [t - child.start for t, m in done if not m.group(6)]
        failed = expected - len(latencies)
        latencies += [LOST] * failed
    ticks, table_failed = parse_table(table)
    fails.check(not table_failed, f"failed codes: {table_failed}")
    results = None
    if not spec["persist"]:
        digest = hashlib.sha256(table.encode()).hexdigest()
        fails.check(len(ticks) == expected,
                    f"table has {len(ticks)} jobs, expected {expected}")
        failed = max(failed, expected - len(ticks))
    elif fails.check(os.path.exists(json_path), "no results.json"):
        try:
            probe(tools, "parse", "--file", json_path)
        except RuntimeError as e:
            fails.check(False, str(e))
        with open(json_path, "rb") as f:
            raw = f.read()
        digest = hashlib.sha256(raw).hexdigest()
        results = json.loads(raw)["results"]
        bad = [job_key(j) for j in results if not j.get("ok")]
        fails.check(len(results) == expected and not bad,
                    f"results.json: {len(results)} jobs, expected "
                    f"{expected}; not ok: {bad}")
        failed = max(failed, len(bad) + expected - len(results))
    else:
        digest, failed = None, expected
    shutil.rmtree(rep_dir, ignore_errors=True)
    return Rep(ex, child, latencies, digest, results, ticks,
               min(failed, expected))


def run_batch(tools, name, seconds, trace, tmp):
    spec = BATCH[name]
    fails = Failures()
    n_codes = 22 if spec["codes"] == "all" else len(spec["codes"].split(","))
    expected = 2 * n_codes
    reps, digests, setup = [], set(), []
    begin = time.monotonic()
    spent = 0.0  # seconds of the window used by runs of the command
    # Another run starts only if it should end inside the window; at least
    # two, so the digest check compares something. After each run the
    # constructor passes of setup_s sample the host as that run found it;
    # they take no share of the window. --trace 1: one untraced run, then
    # one traced (its progress stream recorded as spans).
    while len(reps) < 2 or (not trace
                            and spent + reps[-1].exit.wall_s <= seconds):
        started = time.monotonic()
        rep = batch_rep(tools, spec, tmp, expected, fails,
                        watch=not trace or bool(reps))
        spent += time.monotonic() - started
        reps.append(rep)
        digests.add(rep.digest)
        if not trace:
            setup += setup_samples(tools, tmp, spec["size"], spec["codes"])
    fails.check(len(digests) == 1, "results differ between runs")
    attempted = expected * len(reps)
    failed = sum(r.failed for r in reps)
    exits = [r.exit for r in reps]

    if not trace:
        # Each run of the command is one batch the user waits for: its
        # jobs' latencies are summarized per run, then the median is taken
        # over runs like every other metric.
        tails = [measure.tail(r.latencies) for r in reps]
        _, pct, beyond, n = tails[0]
        metrics = {
            "wall_s": statistics.median([e.wall_s for e in exits]),
            "cpu_s": statistics.median([e.cpu_s for e in exits]),
            "peak_rss_mb": statistics.median([e.peak_rss_mb for e in exits]),
            "setup_s": statistics.median(setup),
            "latency_p50_s": statistics.median(
                [statistics.median(r.latencies) for r in reps]),
            "latency_tail_s": statistics.median([t[0] for t in tails]),
        }
        notes = {"latency_tail_s": f"p{pct:.1f} of each run's {n} jobs, "
                                   f"{beyond} beyond; median of {len(reps)}",
                 "wall_s": f"median of {len(reps)} runs",
                 "setup_s": f"median of {len(setup)} passes over "
                            f"{expected} constructors"}
        return fails, attempted, failed, metrics, notes

    # Traced run: the probe pass runs the same jobs on the same number of
    # workers, each public call timed; the second child run is traced.
    timings, probe_results = probe_jobs(tools, tmp, spec["size"],
                                        spec["codes"], spec["workers"])
    untraced, traced = reps
    child_results, table_ticks, child = traced.results, traced.ticks, \
        traced.child
    if child_results is not None:
        fails.check([without_queue_stats(j) for j in probe_results]
                    == child_results,
                    "in-process results differ from dscoh_sweep's")
        table_ticks = {job_key(j): j["metrics"]["ticks"]
                       for j in child_results}
    fails.check({job_key(j): j["metrics"]["ticks"] for j in probe_results}
                == table_ticks, "in-process ticks differ from dscoh_sweep's")
    jobs = [dict(j, produceTicks=t["produceTicks"])
            for j, t in zip(probe_results, timings)]

    tracing = time.monotonic()
    spans = []
    ex = traced.exit
    spans.append(measure.Span("workload", child.start, ex.end, ident=name,
                              track="dscoh_sweep", cat="exp"))
    done = [(t, PROGRESS.search(line)) for t, line in child.lines]
    done = [(t, m) for t, m in done if m is not None]
    intervals = [(max(child.start, t - float(m.group(7))), t)
                 for t, m in done]
    for (t, m), (s, e), lane in zip(done, intervals, lanes(intervals)):
        spans.append(measure.Span(
            "job", s, e, ident=f"{m.group(3)}/{m.group(5)}", parent=0,
            track=f"dscoh_sweep worker {lane}", cat="exp"))
    if done:
        spans.append(measure.Span("publish", done[-1][0], ex.end, ident=name,
                                  parent=0, track="dscoh_sweep", cat="exp"))
    probe_spans(spans, timings, name + "/probe")
    written = write_trace(tools, spans, name, fails)

    metrics = layers.layer_counts(jobs)
    probe_metrics(metrics, timings, probe_results)
    work = [job_work(t) for t in timings]
    workers = spec["workers"]
    metrics["exp.overhead_s"] = ex.wall_s - sum(work) / workers
    metrics["exp.makespan_ratio"] = layers.ratio(ex.wall_s * workers,
                                                 sum(work))
    child_io_metrics(metrics, ex)
    for key in ("svc.cache_hit_ratio", "svc.bytes_written",
                "svc.write_calls"):
        metrics[key] = 0
    for key in ("svc.ready_s", "svc.submit_s", "svc.queue_wait_s",
                "svc.run_s"):
        timing_metrics(metrics, key, [])
    # The batch "sender" is the loop of repetitions: each is due when the
    # previous one exited, so its lateness is the harness's own checking.
    timing_metrics(metrics, "bench.generator_lag_s",
                   [r.child.start - due for r, due in
                    zip(reps, [begin] + [r.exit.end for r in reps[:-1]])])
    # What tracing adds: recording the progress stream (traced run minus
    # untraced run) and writing the trace.
    metrics["bench.trace_overhead_s"] = (ex.wall_s - untraced.exit.wall_s
                                         + written - tracing)
    return fails, attempted, failed, metrics, {}


# ------------------------------------------------------------- service ---

def daemon_cycle(tools, tmp, schedule=None):
    """Starts a fresh dscoh_svc and drives it with perfbench_probe client.

    Without a schedule the client only waits for the first answered ping
    and shuts the daemon down. Both processes run in the state directory
    and name the socket relatively, so a deep checkout path cannot exceed
    the socket path limit. Returns (client report, daemon Exit, state dir).
    """
    state = os.path.join(tmp, f"svc{time.monotonic_ns()}")
    os.makedirs(state)
    report = os.path.join(tmp, "client.json")
    argv = [tools["probe"], "client", "--socket", "svc.sock", "--out",
            report]
    if schedule is not None:
        argv += ["--schedule", schedule]
    client = subprocess.Popen(argv, cwd=state, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE)
    daemon = None
    try:
        if client.stdout.readline() != b"waiting\n":
            raise RuntimeError("perfbench_probe client did not start")
        with open(os.path.join(state, "daemon.log"), "wb") as err:
            daemon = measure.Child(
                [tools["svc"], "--state", state, "--socket", "svc.sock",
                 "--jobs", str(SVC_WORKERS)], stderr=err, cwd=state)
        rc = client.wait(timeout=170)
        if rc != 0:
            daemon.kill()
        ex = daemon.wait()
    finally:
        for p in (client, daemon.proc if daemon else None):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
        client.stdout.close()
    if rc != 0:
        raise RuntimeError(f"perfbench_probe client exited {rc}")
    with open(report) as f:
        rep = json.load(f)
    rep["spawn"] = daemon.start
    return rep, ex, state


def ready_samples(tools, tmp):
    """Spawn -> first answered ping of SVC_SETUP_CYCLES fresh daemons."""
    ready = []
    for _ in range(SVC_SETUP_CYCLES):
        rep, _, state = daemon_cycle(tools, tmp)
        ready.append(rep["ready"] - rep["spawn"])
        shutil.rmtree(state, ignore_errors=True)
    return ready


def write_schedule(tmp, seed, seconds):
    count = max(1, round(SVC_RATE * SVC_SPAN_SHARE * seconds))
    sched = measure.make_schedule(seed, count, SVC_SPAN_SHARE * seconds,
                                  SVC_TENANTS)
    path = os.path.join(tmp, "schedule.tsv")
    with open(path, "w") as f:
        for due, tenant, codes in sched:
            req = {"tenant": tenant, "size": "small", "codes": codes,
                   "modes": ["CCSM", "DirectStore"], "config": SVC_CONFIG}
            f.write(f"{due:.6f}\t{json.dumps(req)}\n")
    return path, sched


def check_requests(rep, sched, reference, fails):
    """Every request done, with per-job results equal to the in-process
    reference. Returns the failed count and the daemon's job objects."""
    failed, jobs = 0, []
    for req, (_, tenant, codes) in zip(rep["requests"], sched):
        ok = req["state"] == "done"
        if ok:
            with open(os.path.join(req["dir"], "results.json")) as f:
                got = json.load(f)["results"]
            want = [reference[(c, m)] for c in codes
                    for m in ("CCSM", "DirectStore")]
            ok = got == want
            jobs += got
        fails.check(ok, f"request {req['id']} ({tenant} {codes}) "
                        f"{req['state']}, results "
                        f"{'match' if ok else 'differ or are missing'}")
        failed += 0 if ok else 1
    return failed, jobs


def du(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files
               if not os.path.islink(os.path.join(d, f)))


def run_service(tools, seed, seconds, trace, tmp):
    fails = Failures()
    config = os.path.join(tmp, "ring4.cfg")
    with open(config, "w") as f:
        f.write(SVC_CONFIG)
    pool = ",".join(sorted({c for cs in SVC_TENANTS.values() for c in cs}))
    # Reference: one in-process run of the code pool, outside the window.
    timings, ref_results = probe_jobs(tools, tmp, "small", pool, SVC_WORKERS,
                                      config)
    reference = {job_key(j): without_queue_stats(j) for j in ref_results}
    ref_full = {job_key(j): (j, t) for j, t in zip(ref_results, timings)}

    # Daemon starts on both sides of the window, so setup_s samples the
    # host at more than one moment of the run.
    ready = ready_samples(tools, tmp)
    path, sched = write_schedule(tmp, seed, seconds)
    rep, ex, state = daemon_cycle(tools, tmp, path)
    failed, jobs = check_requests(rep, sched, reference, fails)
    fails.check(ex.code == 0, f"dscoh_svc exited {ex.code}")
    ready.append(rep["ready"] - rep["spawn"])
    ready += ready_samples(tools, tmp)
    wall = max([r["fetched"] for r in rep["requests"]]
               + [rep["ready"]]) - rep["spawn"]
    attempted = len(sched)
    times = [measure.request_times(r) for r in rep["requests"]]

    if not trace:
        lat = [min(t[0], LOST) for t in times]
        value, pct, beyond, n = measure.tail(lat)
        metrics = {"wall_s": wall, "cpu_s": ex.cpu_s,
                   "peak_rss_mb": ex.peak_rss_mb,
                   "setup_s": statistics.median(ready),
                   "latency_p50_s": statistics.median(lat),
                   "latency_tail_s": value}
        notes = {"latency_tail_s": f"p{pct:.1f}, {n} samples, {beyond} beyond",
                 "setup_s": f"median of {len(ready)} daemon starts",
                 "wall_s": f"{attempted} requests, seed {seed}"}
        shutil.rmtree(state, ignore_errors=True)
        return fails, attempted, failed, metrics, notes

    # Layer counts: every requested job's published counters, plus the
    # queue.* counters and produce ticks of the same job in the reference.
    counted = []
    for j in jobs:
        full, t = ref_full[job_key(j)]
        stats = dict(j["stats"])
        stats.update({k: v for k, v in full["stats"].items()
                      if k.startswith("queue.")})
        counted.append(dict(j, stats=stats, produceTicks=t["produceTicks"]))
    metrics = layers.layer_counts(counted)
    probe_metrics(metrics, timings, ref_results)
    work = sum(job_work(ref_full[job_key(j)][1]) for j in jobs)
    metrics["exp.overhead_s"] = wall - work / SVC_WORKERS
    metrics["exp.makespan_ratio"] = layers.ratio(wall * SVC_WORKERS, work)
    child_io_metrics(metrics, ex)
    cache = (rep.get("stats") or {}).get("stats", {}).get("produceCache", {})
    metrics["svc.cache_hit_ratio"] = layers.ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))
    metrics["svc.bytes_written"] = du(state)
    metrics["svc.write_calls"] = ex.io["syscw"]
    reqs = rep["requests"]
    timing_metrics(metrics, "svc.ready_s", ready)
    timing_metrics(metrics, "svc.submit_s",
                   [r["acked"] - r["sent"] for r in reqs])
    timing_metrics(metrics, "svc.queue_wait_s",
                   [r["running"] - r["acked"] for r in reqs if r["running"]])
    timing_metrics(metrics, "svc.run_s",
                   [r["done"] - r["running"] for r in reqs if r["done"]])
    timing_metrics(metrics, "bench.generator_lag_s", [t[1] for t in times])

    tracing = time.monotonic()
    spans = [measure.Span("workload", rep["spawn"], rep["spawn"] + wall,
                          ident="svc_scaleout", track="dscoh_svc", cat="svc"),
             measure.Span("setup", rep["spawn"], rep["ready"],
                          ident="svc_scaleout", parent=0, track="dscoh_svc",
                          cat="svc")]
    intervals = [(r["due"], r["fetched"] or r["due"]) for r in reqs]
    for r, (_, tenant, _), lane in zip(reqs, sched, lanes(intervals)):
        track = f"request lane {lane}"
        job = len(spans)
        spans.append(measure.Span("job", r["due"], r["fetched"] or r["due"],
                                  ident=r["id"], parent=0, track=track,
                                  cat="svc", args={"tenant": tenant}))
        for name, s, e in (("submit", r["sent"], r["acked"]),
                           ("queued", r["acked"], r["running"]),
                           ("running", r["running"], r["done"]),
                           ("fetch", r["done"], r["fetched"])):
            if s and e:
                spans.append(measure.Span(name, s, e, ident=r["id"],
                                          parent=job, track=track, cat="svc"))
    probe_spans(spans, timings, "svc_scaleout/reference")
    # What tracing adds is writing the trace only: the client records the
    # same timestamps in every run, since latency is computed from them.
    metrics["bench.trace_overhead_s"] = (
        write_trace(tools, spans, "svc_scaleout", fails) - tracing)
    shutil.rmtree(state, ignore_errors=True)
    return fails, attempted, failed, metrics, {}


# ---------------------------------------------------------------- main ---

def run_workload(tools, name, seed, seconds, trace):
    tmp = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        if name in BATCH:
            return run_batch(tools, name, seconds, trace, tmp)
        return run_service(tools, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def report(name, trace, result):
    fails, attempted, failed, metrics, notes = result
    units = dict(PER_LAYER if trace else E2E)
    print(f"== {name} ({'per-layer, traced run' if trace else 'end to end'})")
    for key, unit in units.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:30s} {metrics[key]:>18.6g} {unit}{note}")
    print(f"  operations: {failed} failed of {attempted} attempted")
    for reason in fails.reasons:
        print(f"  CHECK FAILED: {reason}")
    return {"correct": not fails.reasons, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*BATCH, "svc_scaleout", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"perfbench: no dscoh source tree at {ROOT}")
        return 2
    if args.seconds < 1:
        log("perfbench: --seconds must be at least 1")
        return 2
    tools = build()
    names = [*BATCH, "svc_scaleout"] if args.workload == "all" \
        else [args.workload]
    out = {}
    for name in names:
        result = run_workload(tools, name, args.seed, args.seconds,
                              bool(args.trace))
        out[name] = report(name, bool(args.trace), result)
    if len(out) == 1:
        final = out[names[0]]
    else:
        final = {"correct": all(o["correct"] for o in out.values()),
                 "attempted": sum(o["attempted"] for o in out.values()),
                 "failed": sum(o["failed"] for o in out.values()),
                 "metrics": {f"{n}.{k}": v for n, o in out.items()
                             for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
