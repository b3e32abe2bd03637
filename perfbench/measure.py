"""Measurement primitives of the benchmark, kept free of dscoh specifics so
the unit tests in test_measure.py can pin them down.

- Child: a command measured from outside (wall time, rusage, /proc/<pid>/io).
- tail: the tail percentile every timing reports beside its median.
- Span, self_time, chrome_trace: the traced run's span tree.
- make_schedule, request_times: the seeded open-loop request schedule.
"""

import os
import random
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
# A child still running after this long is killed (its run then fails).
CHILD_TIMEOUT_S = 170.0


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, samples beyond, sample count). The sample
    at 0-based index n - beyond - 1 of the sorted values has exactly
    `beyond` samples above it, so it sits at percentile 100 * (n - beyond)
    / n. With fewer than 2 * beyond samples that percentile would fall
    below the median, so the maximum is reported instead, with 0 beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 2 * beyond:
        return xs[-1], 100.0, 0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond, n


@dataclass
class Span:
    """One traced interval on the host's monotonic clock (seconds)."""
    name: str
    start: float
    end: float
    ident: str = ""      # job or request id the span belongs to
    parent: int = -1     # index of the parent span in the trace, -1 = root
    track: str = "main"  # Chrome trace thread the span is drawn on
    cat: str = "bench"   # layer the span's time is charged to
    args: dict = field(default_factory=dict)


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(spans, index):
    """Span `index` minus the union of its children's intervals.

    Children that overlap each other (jobs on two workers) are counted
    once, so a parent's self time is the time none of them was running.
    """
    span = spans[index]
    children = [(c.start, c.end) for c in spans if c.parent == index]
    return (span.end - span.start) - covered(span.start, span.end, children)


def chrome_trace(spans):
    """The spans as a Chrome trace-event document (the form dscoh_run
    --trace-out writes and trace_stats --strict reads): complete ("X")
    events in integer microseconds from the earliest span, one thread per
    track, with the span's own index, its parent's index, its job or
    request id and its self time in args."""
    t0 = min(s.start for s in spans)
    tracks = {}
    for s in spans:
        tracks.setdefault(s.track, len(tracks))
    events = [{"name": "process_name", "ph": "M", "pid": 0,
               "args": {"name": "perfbench"}}]
    for name, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": tid, "args": {"name": name}})
    for i, s in enumerate(spans):
        args = {"span": i, "parent": s.parent, "id": s.ident,
                "self_us": round(self_time(spans, i) * 1e6)}
        args.update(s.args)
        events.append({"name": s.name, "cat": s.cat, "ph": "X", "pid": 0,
                       "tid": tracks[s.track],
                       "ts": round((s.start - t0) * 1e6),
                       "dur": max(0, round((s.end - s.start) * 1e6)),
                       "args": args})
    return {"traceEvents": events}


def make_schedule(seed, count, span_s, tenants):
    """A seeded open-loop schedule: `count` requests over `span_s` seconds.

    `tenants` maps each tenant to its list of codes. The multiset of
    requests is fixed by `count` alone (tenants in turn, each cycling
    through the pairs of its codes), so every seed asks for the same work;
    the seed shuffles their order and jitters each send time inside its
    own slot of span_s / count seconds. Returns [(due offset s, tenant,
    [code, code])] in due order.
    """
    names = sorted(tenants)
    pairs = {t: [(a, b) for i, a in enumerate(tenants[t])
                 for b in tenants[t][i + 1:]] for t in names}
    reqs = []
    for i in range(count):
        t = names[i % len(names)]
        reqs.append((t, list(pairs[t][(i // len(names)) % len(pairs[t])])))
    rng = random.Random(seed)
    rng.shuffle(reqs)
    slot = span_s / count
    return [((i + 0.5 + rng.uniform(-0.45, 0.45)) * slot, t, codes)
            for i, (t, codes) in enumerate(reqs)]


def request_times(req):
    """Latency and sender lateness of one open-loop request.

    Latency runs from the time the request was due, not from when it was
    sent: a sender that stalls delays the send, and that delay is part of
    what the request waits. The lateness itself is reported separately
    (bench.generator_lag_s). A request that never got its results has no
    finite latency and counts beyond any limit.
    """
    lag = req["sent"] - req["due"]
    if req["state"] != "done" or req["fetched"] <= 0:
        return float("inf"), lag
    return req["fetched"] - req["due"], lag


def proc_io(pid):
    """The /proc/<pid>/io counters of a live or not yet reaped process."""
    with open(f"/proc/{pid}/io") as f:
        return {k: int(v) for k, v in
                (line.split(":") for line in f if ":" in line)}


@dataclass
class Exit:
    """What the OS accounted to one finished child."""
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    voluntary_waits: int  # ru_nvcsw
    blocks_written: int   # ru_oublock, 512-byte units
    io: dict              # /proc/<pid>/io at exit
    end: float            # monotonic time the exit was observed


class Child:
    """A spawned command, measured from outside.

    The exit is awaited without reaping (waitid WNOWAIT) so the child's
    /proc/<pid>/io is still there to read; wait4 then reaps it and returns
    its rusage. With `watch`, stderr lines are timestamped as they arrive;
    otherwise stderr goes to `stderr` (default: discarded).
    """

    def __init__(self, argv, stdout=subprocess.DEVNULL, stderr=None,
                 watch=False, cwd=None):
        self.lines = []  # (monotonic time, line)
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            argv, stdout=stdout, stdin=subprocess.DEVNULL, cwd=cwd,
            stderr=subprocess.PIPE if watch else
            (stderr if stderr is not None else subprocess.DEVNULL))
        self._reader = None
        if watch:
            self._reader = threading.Thread(target=self._read, daemon=True)
            self._reader.start()
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self._timer.daemon = True
        self._timer.start()

    def _read(self):
        for raw in self.proc.stderr:
            self.lines.append((time.monotonic(),
                               raw.decode(errors="replace").rstrip("\n")))

    def kill(self):
        # os.kill, not Popen.kill: Popen would reap the child (and lose its
        # accounting) through its own poll().
        if self.proc.returncode is None:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def wait(self):
        pid = self.proc.pid
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic()
        self._timer.cancel()
        io = proc_io(pid)
        _, status, ru = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        if self._reader is not None:
            self._reader.join()
            self.proc.stderr.close()
        return Exit(code=code, wall_s=end - self.start,
                    cpu_s=ru.ru_utime + ru.ru_stime,
                    peak_rss_mb=ru.ru_maxrss / 1024.0,
                    voluntary_waits=ru.ru_nvcsw,
                    blocks_written=ru.ru_oublock, io=io, end=end)
