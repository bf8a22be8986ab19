#!/usr/bin/env python3
"""End-to-end benchmark of robodet_serve.

Builds the daemon and the load generator from source, starts the daemon as a
child process on a kernel-chosen port, drives it over loopback with seeded
visitors, checks every response and the daemon's own counters, and prints
one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steadiness --runs 5 [--workloads browse,...]

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a traced in-process replay plus the daemon's scrape. Run it
from the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DAEMON_FLAGS = ["--port=0", "--workers=2", "--trust-xff", "--site-pages=200"]

# Fixed work per phase, the same on every commit. Closed loop: `closed`
# visitors over 4 connections. Open loop: `open` visitors arriving at
# `rate` per second (browse visitors average ~23 requests, a flood visitor
# is 16 requests). That is about a quarter of the seed's closed-loop
# capacity for the browse mixes and a seventh for probe_flood. Nearer
# capacity, views queue behind other visitors' work, and a host a few
# percent slower raises the latencies by far more than a few percent,
# which scaling by the host's speed cannot undo: probe_flood at 3000
# connections/s (half its capacity) spread 0.35-0.42 in p90_ms over ten
# seeds on a busy host. Browse counts are whole rotations of the mix (200
# visitors).
ORIGIN_RTT_US = 300  # durable_io's origin wait, a sleep in the daemon.
WORKLOADS = {
    "browse": {
        "mix": "browse", "closed": 400, "rate": 150.0, "open": 600,
        "flags": [],
    },
    "probe_flood": {
        "mix": "flood", "closed": 4000, "rate": 1000.0, "open": 1000,
        "flags": [],
    },
    "durable_io": {
        "mix": "browse", "closed": 400, "rate": 75.0, "open": 300,
        "flags": ["--origin-rtt-us=%d" % ORIGIN_RTT_US], "prime": 1200,
        "origin_wait_ms": ORIGIN_RTT_US / 1000.0,
    },
}

# The host-speed yardstick: CPU per reference unit (perfbench_drive's
# RunReferenceUnit, a scan of a fixed page) on the reference host. `rps`,
# `cpu_us_per_req`, the latencies and `setup_s` are scaled to it.
REF_UNIT_US = 5.8

# A round is flagged, and left out of the run's medians, when its generator
# ran this late at the 90th percentile (open loop; the highest quantile
# gated) or its two closed-loop client threads were this busy. A run whose
# every round is flagged has correct = false.
LATE_LIMIT_MS = 1.0
BUSY_LIMIT = 0.9
CLIENT_THREADS = 2

MEASURED_SPACE = 10  # Visitor addresses 10.x.y.z.
PRIME_SPACE = 172    # The priming population, disjoint from the measured.
FLOOD_SPACE = 100
MIN_SETUP_SAMPLES = 9
REPLAY_VISITORS = {"browse": 300, "flood": 600}

# Daemon counters the gate checks against what the client sent.
SIGNAL_COUNTERS = {
    "page": ("robodet_pages_instrumented_total", ()),
    "css": ("robodet_probe_hits_total", (("kind", "css"),)),
    "js_file": ("robodet_probe_hits_total", (("kind", "js_file"),)),
    "ua_echo": ("robodet_probe_hits_total", (("kind", "ua_echo"),)),
    "hidden_link": ("robodet_probe_hits_total", (("kind", "hidden_link"),)),
    "beacon_ok": ("robodet_beacon_hits_total", (("result", "ok"),)),
    "beacon_wrong_key": ("robodet_beacon_hits_total", (("result", "wrong_key"),)),
}
# Counters that must not move at all.
ZERO_COUNTERS = [
    ("robodet_probe_hits_total", (("kind", "audio"),)),
    ("robodet_net_parse_errors_total", ()),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds robodet_serve and perfbench_drive (Release)."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/robodet_serve.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("no robodet source tree around perfbench/ (missing %s)" % needed)
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(bdir)  # Configured for another checkout.
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target", "robodet_serve",
                    "perfbench_drive"], stdout=sys.stderr, stderr=sys.stderr, check=True)
    return (os.path.join(bdir, "tools", "robodet_serve"), os.path.join(bdir, "perfbench_drive"))


def wait_child(pid, timeout):
    """Reaps `pid`, killing it after `timeout` seconds; returns (exit code, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return os.waitstatus_to_exitcode(status), usage
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return None, usage
        time.sleep(0.005)


class Daemon:
    """robodet_serve as a child: port and readiness come from its
    'listening on' line, CPU from its reaped rusage."""

    def __init__(self, binary, flags):
        self.lines = []
        self.port = None
        self.ready_at = None
        self._ready = threading.Event()
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen([binary] + flags, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                     cwd=ROOT)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(30.0) or self.port is None:
            self.proc.kill()
            wait_child(self.proc.pid, 5.0)
            self.proc.returncode = -1
            raise BenchError("daemon never listened: %s" % self.lines[-3:])

    def _read(self):
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace").rstrip("\n")
            if self.ready_at is None and "listening on" in line:
                self.ready_at = time.perf_counter()
                self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
                self._ready.set()
            self.lines.append(line)
        self._ready.set()

    @property
    def setup_s(self):
        return self.ready_at - self.started_at

    def scrape(self):
        url = "http://127.0.0.1:%d/__admin/metrics.json" % self.port
        with urllib.request.urlopen(url, timeout=30) as resp:
            doc = json.load(resp)
        out = {}
        for m in doc["metrics"]:
            key = (m["name"], tuple(sorted(m["labels"].items())))
            out[key] = (m["count"], m["sum"]) if m["kind"] == "histogram" else m["value"]
        return out

    def peak_rss_kb(self):
        # The exec'd image's own high-water mark. The reaped rusage's
        # ru_maxrss is no use here: Linux carries the forking parent's
        # peak across exec, so it never reads below this script's RSS.
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        """SIGTERM by PID, reap, and check the drain line. Returns rusage;
        self.hwm_kb holds the peak RSS taken just before the signal."""
        if self.proc.returncode is None:
            self.hwm_kb = self.peak_rss_kb()
            self.proc.send_signal(signal.SIGTERM)
            code, usage = wait_child(self.proc.pid, 20.0)
            self.proc.returncode = -1 if code is None else code
            self._reader.join(5.0)
            self.usage = usage
        if self.proc.returncode != 0:
            raise BenchError("daemon exited with %s" % self.proc.returncode)
        if not self.lines or not self.lines[-1].startswith("robodet_serve: done."):
            raise BenchError("daemon log does not end with its drain line: %s" % self.lines[-2:])
        return self.usage


def run_drive(drive, args):
    """Runs perfbench_drive; returns (report, client CPU seconds)."""
    proc = subprocess.Popen([drive] + args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            cwd=ROOT)
    out = proc.stdout.read()
    code, usage = wait_child(proc.pid, 170.0)
    proc.returncode = -1 if code is None else code
    proc.stdout.close()
    if code != 0:
        raise BenchError("perfbench_drive %s exited with %s" % (args[0], code))
    return json.loads(out), cpu_s(usage)


def cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def delta(before, after, key):
    b = before.get(key, 0)
    a = after.get(key, 0)
    if isinstance(a, tuple):
        return (a[0] - (b[0] if b else 0), a[1] - (b[1] if b else 0))
    return a - b


class Gate:
    """The correctness gate: statuses, counter deltas, drain lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.signals_sent = 0
        self.signals_counted = 0
        self.problems = []

    def check(self, label, report, before, after):
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        if report["completed"] != report["attempted"] or report["errors"]:
            self.problems.append("%s: %s" % (label, report["errors"][:3]))
        for name, key in SIGNAL_COUNTERS.items():
            sent = report["sent"][name]
            got = delta(before, after, key)
            if name != "page":
                self.signals_sent += sent
                self.signals_counted += min(sent, got)
            if got != sent:
                self.problems.append("%s: %s sent %d, daemon counted %d" % (label, name, sent, got))
        for key in ZERO_COUNTERS:
            if delta(before, after, key) != 0:
                self.problems.append("%s: %s moved" % (label, key[0]))

    @property
    def correct(self):
        return not self.problems and self.failed == 0

    @property
    def recall(self):
        return self.signals_counted / self.signals_sent if self.signals_sent else 1.0


class Bench:
    def __init__(self, workload, seed, seconds, serve, drive):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.serve = serve
        self.drive = drive
        self.work = os.path.join(build_dir(), "work", "%s-%d-%d" % (workload, seed, os.getpid()))
        self.template = None
        self.setup = []
        self.idle = []  # rusage of daemons started and stopped without load.
        self.gate = Gate()
        self.space = FLOOD_SPACE if self.w["mix"] == "flood" else MEASURED_SPACE
        self.starts = 0

    # ---- daemons ----

    def start(self):
        flags = DAEMON_FLAGS + self.w["flags"]
        if "prime" in self.w:
            self.starts += 1
            state = os.path.join(self.work, "state-%d" % self.starts)
            shutil.copytree(self.template, state)
            flags = flags + ["--state-dir=" + state]
        daemon = Daemon(self.serve, flags)
        self.setup.append(daemon.setup_s)
        return daemon

    def prime(self):
        """Untimed: fills a state directory with a disjoint population."""
        if "prime" not in self.w:
            return
        self.template = os.path.join(self.work, "template")
        os.makedirs(self.template)
        flags = DAEMON_FLAGS + self.w["flags"] + ["--state-dir=" + self.template]
        daemon = Daemon(self.serve, flags)
        try:
            before = daemon.scrape()
            report, _ = self.load(daemon, self.w["prime"], space=PRIME_SPACE)
            self.gate.check("prime", report, before, daemon.scrape())
        finally:
            daemon.stop()

    def idle_starts(self, count):
        for _ in range(count):
            daemon = self.start()
            self.idle.append((daemon.stop(), daemon.hwm_kb))

    def load(self, daemon, count, space=None, open_loop=False):
        args = ["load", "--port=%d" % daemon.port, "--mix=" + self.w["mix"],
                "--seed=%d" % self.seed, "--count=%d" % count,
                "--space=%d" % (self.space if space is None else space)]
        if open_loop:
            args += ["--open", "--rate=%g" % self.w["rate"]]
        return run_drive(self.drive, args)

    # ---- one round: a closed-loop daemon, then an open-loop daemon ----

    def round(self):
        r = {}
        daemon = self.start()
        try:
            before = daemon.scrape()
            report, client_cpu = self.load(daemon, self.w["closed"])
            after = daemon.scrape()
        finally:
            usage = daemon.stop()
        self.gate.check("closed", report, before, after)
        idle_cpu = statistics.median(cpu_s(u) for u, _ in self.idle)
        idle_kb = statistics.median(kb for _, kb in self.idle)
        done = report["completed"]
        # The host's speed drifts by tens of percent for minutes at a time
        # with its other tenants. The client threads run a fixed unit of
        # work after every response, on a fixed page of their own, in the
        # same seconds as the daemon: scaling by its CPU cancels most of
        # that drift, and nothing the daemon does changes the unit's work.
        ref_us = report["ref_cpu_s"] / report["ref_units"] * 1e6
        slowdown = ref_us / REF_UNIT_US
        r["rps.raw"] = done / report["elapsed_s"]
        r["cpu_us_per_req.raw"] = (cpu_s(usage) - idle_cpu) / done * 1e6
        r["rps"] = r["rps.raw"] * slowdown
        r["cpu_us_per_req"] = r["cpu_us_per_req.raw"] / slowdown
        r["client.ref_unit_us"] = ref_us
        r["host.slowdown"] = slowdown
        busy = client_cpu / report["elapsed_s"] / CLIENT_THREADS
        r["rss_mb"] = daemon.hwm_kb / 1024.0
        origin = delta(before, after, ("robodet_origin_bytes_total", ()))
        instr = delta(before, after, ("robodet_instrumentation_bytes_total", ()))
        r["instr_overhead_frac"] = instr / (origin + instr) if origin + instr else 0.0
        r["client.cpu_us_per_req"] = client_cpu / done * 1e6
        # Layer figures from the daemon's own registry over the fixed work.
        hist = lambda name: delta(before, after, (name, ()))
        handle = hist("robodet_handle_duration_us")
        rewrite = hist("robodet_rewrite_duration_us")
        r["proxy.handle_us"] = handle[1] / handle[0] if handle[0] else 0.0
        r["daemon.rewrite_us"] = rewrite[1] / rewrite[0] if rewrite[0] else 0.0
        r["keys.entries"] = after.get(("robodet_key_table_entries", ()), 0)
        r["sessions.active"] = after.get(("robodet_sessions_active", ()), 0)
        # Over the sessions this phase opened: a durable daemon's idle peak
        # already holds the recovered ones.
        opened = r["sessions.active"] - before.get(("robodet_sessions_active", ()), 0)
        r["sessions.kb_each"] = (daemon.hwm_kb - idle_kb) / opened if opened else 0.0
        r["net.accepts_per_kreq"] = (
            delta(before, after, ("robodet_net_accepted_total", ())) / done * 1000.0)
        r["net.bytes_out_per_req"] = (
            delta(before, after, ("robodet_net_bytes_total", (("dir", "out"),))) / done)
        r["persistence.records_per_req"] = (
            delta(before, after, ("robodet_persistence_journal_records_total", ())) / done)
        r["persistence.checkpoints"] = delta(
            before, after, ("robodet_persistence_checkpoints_total", ()))

        daemon = self.start()
        try:
            before = daemon.scrape()
            report, _ = self.load(daemon, self.w["open"], open_loop=True)
            after = daemon.scrape()
        finally:
            daemon.stop()
        self.gate.check("open", report, before, after)
        lat = report["view_ms"]
        # Every browse view holds exactly one page, so one origin wait: a
        # sleep, which the host's speed does not change. Only the rest of
        # a view's latency is scaled.
        wait = self.w.get("origin_wait_ms", 0.0)
        r["p50_ms"] = (lat["p50"] - wait) / slowdown + wait
        r["p90_ms"] = (lat["p90"] - wait) / slowdown + wait
        r["p50_ms.raw"] = lat["p50"]
        r["p90_ms.raw"] = lat["p90"]
        r["client.p99_ms"] = lat["p99"]
        r["client.p999_ms"] = lat["p999"]
        r["client.latency_n"] = lat["n"]
        r["request.p50_ms"] = report["latency_ms"]["p50"]
        r["client.late_p99_ms"] = report["late_ms"]["p99"]
        late = report["late_ms"]["p90"]
        r["flagged"] = late > LATE_LIMIT_MS or busy > BUSY_LIMIT
        if r["flagged"]:
            log("round flagged: generator late p90 %.3f ms, client threads %.0f%% busy" % (
                late, busy * 100))
        return r

    def replay(self, budget):
        """The traced in-process replay; returns its per-layer values."""
        mix = self.w["mix"]
        scratch = os.path.join(self.work, "replay")
        os.makedirs(scratch, exist_ok=True)
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(traces, "%s-seed%d.jsonl" % (self.name, self.seed))
        args = ["replay", "--mix=" + mix, "--seed=%d" % self.seed,
                "--visitors=%d" % REPLAY_VISITORS[mix], "--space=%d" % self.space,
                "--scratch=" + scratch, "--spans=" + spans,
                "--seconds=%g" % budget]
        for flag in self.w["flags"]:
            args.append(flag)
        if self.template:
            args.append("--state-dir=" + self.template)
        report, _ = run_drive(self.drive, args)
        if report["errors"]:
            self.gate.problems.append("replay: %s" % report["errors"][:3])
        log("spans written to %s" % os.path.relpath(spans, ROOT))
        return report["values"]

    def run(self, trace):
        os.makedirs(self.work, exist_ok=True)
        try:
            return self._run(trace)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self, trace):
        self.prime()
        self.idle_starts(3)
        t0 = time.monotonic()
        rounds = [self.round()]
        while not trace and time.monotonic() - t0 < self.seconds:
            rounds.append(self.round())
        # Flagged rounds measured the generator, not the daemon. Replace
        # them while the extra time lasts; a run left with none is not
        # correct.
        while (not any(not r["flagged"] for r in rounds)
               and time.monotonic() - t0 < self.seconds * 1.5 + 10):
            rounds.append(self.round())
        self.flagged = sum(r["flagged"] for r in rounds)
        kept = [r for r in rounds if not r["flagged"]]
        if not kept:
            self.gate.problems.append("every round flagged: the generator was late or busy")
            kept = rounds
        rounds = kept
        if trace:
            layers = self.replay(max(1.0, self.seconds - (time.monotonic() - t0)))
        while len(self.setup) < MIN_SETUP_SAMPLES:
            self.idle_starts(1)
        med = {k: statistics.median(r[k] for r in rounds) for k in rounds[0] if k != "flagged"}
        # Start-up is CPU work too, and tracks the same drift.
        med["setup_s.raw"] = statistics.median(self.setup)
        med["setup_s"] = med["setup_s.raw"] / med["host.slowdown"]
        med["signal_recall"] = self.gate.recall
        med["fail_frac"] = self.gate.failed / max(1, self.gate.attempted)
        med["rounds"] = len(rounds)
        med["flagged"] = self.flagged
        if trace:
            med.update(layers)
            med["net.self_us"] = med["request.p50_ms"] * 1000.0 - layers["replay.chain_p50_us"]
        return med


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# Printed by every run but not gated: 0 on every correct run, and a bound
# relative to a zero median means nothing.
UNGATED = [{"name": "fail_frac", "unit": "frac"}]


def result_line(values, gate, spec, trace):
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": metrics}


def print_report(name, values, spec, trace, gate):
    print("workload %s: %d round(s) kept, %d flagged; %d requests attempted, %d failed" % (
        name, values["rounds"], values["flagged"], gate.attempted, gate.failed))
    listed = spec["per_layer"] if trace else spec["end_to_end"] + UNGATED
    for m in listed:
        print("  %-28s %14.6f %s" % (m["name"], values[m["name"]], m["unit"]))
    if not trace:
        print("  (unscaled: rps %.1f, cpu_us_per_req %.2f, p50_ms %.4f, p90_ms %.4f, setup_s "
              "%.5f; reference unit %.2f us; client %.1f us CPU/req)" % (
                  values["rps.raw"], values["cpu_us_per_req.raw"], values["p50_ms.raw"],
                  values["p90_ms.raw"], values["setup_s.raw"], values["client.ref_unit_us"],
                  values["client.cpu_us_per_req"]))
        print("  (p99 %.3f ms and p99.9 %.3f ms over %d samples; generator late p99 %.3f ms; "
              "not gated)" % (values["client.p99_ms"], values["client.p999_ms"],
                              values["client.latency_n"], values["client.late_p99_ms"]))
    else:
        print("  (daemon's robodet_rewrite_duration_us mean %.2f us; replayed %d requests, "
              "%d pages)" % (values["daemon.rewrite_us"], values["replay.requests"],
                             values["replay.pages"]))
    for p in gate.problems[:10]:
        print("  GATE: " + p)


def run_once(workload, seed, seconds, trace, serve, drive):
    bench = Bench(workload, seed, seconds, serve, drive)
    values = bench.run(trace)
    return values, bench.gate


def steadiness(args, serve, drive):
    """Repeats each workload over seeds 1..N and reports each end-to-end
    metric's median, quartiles and spread against its bound."""
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            values, gate = run_once(name, seed, args.seconds, False, serve, drive)
            if not gate.correct:
                print("%s seed %d: gate failed: %s" % (name, seed, gate.problems[:3]))
            runs.append(values)
            log("%s seed %d done" % (name, seed))
        print("%s over %d seeds:" % (name, len(runs)))
        for seed, r in enumerate(runs, 1):
            print("  seed %d: %s" % (seed, " ".join(
                "%s=%.5g" % (m["name"], r[m["name"]]) for m in spec["end_to_end"])))
        rows = spec["end_to_end"] + UNGATED + [
            {"name": k} for k in ("rps.raw", "cpu_us_per_req.raw", "p50_ms.raw", "p90_ms.raw",
                                  "setup_s.raw", "client.ref_unit_us", "client.late_p99_ms",
                                  "client.cpu_us_per_req", "client.p99_ms", "flagged")]
        for m in rows:
            vals = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            verdict = "" if bound is None else ("ok" if spread <= bound / 3 else
                                                "within bound" if spread <= bound else "TOO WIDE")
            print("  %-24s median %12.5f  q1 %12.5f  q3 %12.5f  spread %6.3f  bound %s %s" % (
                m["name"], med, q1, q3, spread, "-" if bound is None else bound, verdict))
        sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    if not args.steadiness and not args.workload:
        parser.error("--workload is required")
    # A SIGTERM unwinds like an error, so every daemon started gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        serve, drive = build()
        if args.steadiness:
            steadiness(args, serve, drive)
            return 0
        spec = load_spec()
        values, gate = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                                serve, drive)
        print_report(args.workload, values, spec, bool(args.trace), gate)
        print(json.dumps(result_line(values, gate, spec, bool(args.trace))))
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
