#!/usr/bin/env python3
"""Cold-analysis benchmark of the Achilles pipeline.

    python3 perfbench/run.py --workload fsp|deep|corpus --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the Achilles library
plus the C++ program perfbench.cc) in an optimized build under
$CARGO_TARGET_DIR (default .bench_build), runs the workload as a closed
loop of cold analyses for S seconds, checks every witness against a
reference that does not come from Achilles, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics; the traced passes' Chrome trace is kept under
<build dir>/artifacts/.

Other modes:
    --selftest        the benchmark's own checks (damaged witnesses must
                      fail, the timing decorator must not change the
                      witness digest, names must be well formed,
                      BENCHMARK.json must match the metric table)
    --write-manifest  regenerate BENCHMARK.json from perfbench/metrics.py
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout's sources untouched

import metrics  # noqa: E402

# Layer of each span name in the program's trace; spans not listed here
# are attributed to "other".
SPAN_LAYER = {
    "phase.client_extraction": "core",
    "phase.preprocessing": "core",
    "phase.server_analysis": "core",
    "explorer.batch_sweep": "core",
    "engine.step": "symexec",
    "solver.query": "smt",
    "solver.batch": "smt",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_program(binary, args, seconds):
    """Run the C++ program; returns its JSON records. A run longer than
    twice its measuring time plus 90 s is stopped and fails."""
    timeout = 2 * seconds + 90
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: stopped the C++ program after %g s"
                         % timeout)
    if proc.returncode != 0:
        raise SystemExit("perfbench: the C++ program exited with %d"
                         % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def percentile(values, q):
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def trace_summary(chrome, wall_s):
    """Layer self times, solver.query latencies, time to first witness
    and the unattributed rest of one traced analysis.

    Track 0 is the thread that calls RunAchilles; its top-level spans
    are the pipeline phases, so the analysis wall time they do not cover
    is unattributed. With more than one worker, the workers' spans are on
    tracks 1..N. A span's self time is its duration minus the part its
    child spans cover; on one track, spans nest by interval containment.
    A phase's children are also the top-level spans of the worker tracks
    inside it, so its self time is the wall time in which neither its
    own thread nor any worker is inside a span. The symexec and smt self
    times are summed over tracks: thread time, which exceeds wall time
    when workers run in parallel.
    """
    tracks = {}
    witness_ts = []
    for e in chrome["traceEvents"]:
        if e.get("ph") == "X":
            tracks.setdefault(e["tid"], []).append(
                (e["ts"], -e["dur"], e["name"]))
        elif e.get("ph") == "i" and e["name"] == "explorer.trojan_witness":
            witness_ts.append(e["ts"])
    for spans in tracks.values():
        spans.sort()
    # Top-level spans of the worker tracks.
    worker_spans = []
    for tid, spans in tracks.items():
        if tid == 0:
            continue
        reach = None
        for ts, neg_dur, _ in spans:
            if reach is None or ts >= reach:
                worker_spans.append((ts, ts - neg_dur))
                reach = ts - neg_dur
    self_us = {}
    query_us = []
    top_main_us = 0
    start_us = None
    for tid, spans in tracks.items():
        stack = []  # [start, end, layer, child intervals]

        def close(entry, top):
            start, end, layer, children = entry
            if top:
                children += [(max(s, start), min(e, end))
                             for s, e in worker_spans if s < end and e > start]
            busy = covered(children)
            self_us[layer] = self_us.get(layer, 0) + max(end - start - busy, 0)

        for ts, neg_dur, name in spans:
            dur = -neg_dur
            while stack and ts >= stack[-1][1]:
                close(stack.pop(), tid == 0 and not stack)
            if stack:
                stack[-1][3].append((ts, ts + dur))
            elif tid == 0:
                top_main_us += dur
            if name == "solver.query":
                query_us.append(dur)
            if tid == 0 and (start_us is None or ts < start_us):
                start_us = ts
            stack.append([ts, ts + dur, SPAN_LAYER.get(name, "other"), []])
        while stack:
            close(stack.pop(), tid == 0 and not stack)
    out = {"self." + layer: us * 1e-6 for layer, us in self_us.items()}
    out["unattributed_s"] = max(wall_s - top_main_us * 1e-6, 0.0)
    out["query_us"] = query_us
    out["first_witness_s"] = (
        (min(witness_ts) - start_us) * 1e-6
        if witness_ts and start_us is not None else 0.0)
    return out


class Run:
    """The C++ program's records for one run, and the statistics the metric
    table reads from them."""

    def __init__(self, records, traces):
        self.passes = [r for r in records if r["record"] == "pass"]
        self.untraced = [p for p in self.passes if not p["traced"]]
        self.traced_passes = [p for p in self.passes if p["traced"]]
        self.peak_rss_mb = next(
            r for r in records if r["record"] == "end")["peak_rss_mb"]
        self.trace_by_pass = {}
        for t in traces:
            agg = self.trace_by_pass.setdefault(t["pass"], {"query_us": []})
            for key, value in t["summary"].items():
                if key == "query_us":
                    agg["query_us"].extend(value)
                else:
                    agg[key] = agg.get(key, 0.0) + value

    # -- statistics read by metrics.py
    def time(self, *path):
        """Median over the untraced passes of one pass field."""
        return statistics.median(_get(p, path) for p in self.untraced)

    def first(self, *path):
        """A count from the first untraced pass (counts repeat)."""
        return _get(self.untraced[0], path)

    def count(self, *keys):
        """Summed program counters of the first traced pass (the
        registry is on there), else of the first pass."""
        source = (self.traced_passes or self.passes)[0]["counts"]
        return sum(source.get(k, 0) for k in keys)

    def setup(self, key):
        """Median over the set-up repetitions of the untraced passes."""
        return statistics.median(t for p in self.untraced for t in p[key])

    def home_call_us(self, q):
        """Median over the untraced passes of a percentile of the home
        solver's call latencies."""
        return statistics.median(percentile(p["home"]["call_us"], q)
                                 for p in self.untraced)

    def traced(self, key):
        """Median over traced passes of a trace-derived value."""
        values = []
        for agg in self.trace_by_pass.values():
            if key == "query_us_p50":
                values.append(percentile(agg["query_us"], 0.50))
            elif key == "query_us_p99":
                values.append(percentile(agg["query_us"], 0.99))
            else:
                values.append(agg.get(key, 0.0))
        return statistics.median(values) if values else 0.0

    def trace_overhead(self):
        traced = [p["analysis_s"] for p in self.traced_passes]
        if not traced:
            return 0.0
        return statistics.median(traced) / self.time("analysis_s") - 1.0

    def protocol_times(self):
        return [t for p in self.untraced for t in p["protocol_s"]]

    def protocol_pct(self, q):
        return percentile(self.protocol_times(), q)

    def protocol_samples(self):
        return len(self.protocol_times())

    # -- correctness
    def attempted(self):
        return sum(p["attempted"] for p in self.passes)

    def failed(self):
        return sum(p["failed"] for p in self.passes)

    def failed_frac(self):
        return self.failed() / self.attempted()

    def problems(self):
        """Every reason this run's outputs are not correct."""
        out = [f for p in self.passes for f in p["failures"]]
        digests = {p["digest"] for p in self.passes}
        if len(digests) > 1:
            out.append("witness digest differs between passes: %s"
                       % sorted(digests))
        dropped = sum(p["counts"].get("obs.trace_dropped", 0)
                      for p in self.traced_passes)
        if dropped:
            out.append("%d trace events dropped" % dropped)
        return out


def _get(record, path):
    for key in path:
        record = record[key]
    return record


def measure(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (Run, path of the kept trace or None)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)] + list(extra)
    trace_lines = None
    if trace:
        art = os.path.join(build_dir(), "artifacts")
        os.makedirs(art, exist_ok=True)
        trace_lines = os.path.join(art, "trace-%s-s%d.jsonl" % (workload, seed))
        args += ["--trace-out", trace_lines]
    records = run_program(binary, args, seconds)
    if not trace:
        return Run(records, []), None

    traces, merged = [], []
    first_pass = min(p["index"] for p in records
                     if p["record"] == "pass" and p["traced"])
    with open(trace_lines) as f:
        for line in f:
            item = json.loads(line)
            traces.append({"pass": item["pass"], "summary": trace_summary(
                item["trace"], item["analysis_s"])})
            if item["pass"] == first_pass:
                # One process id per analysis in the kept artifact.
                for e in item["trace"]["traceEvents"]:
                    e["pid"] = item["protocol"] + 1
                    merged.append(e)
    os.remove(trace_lines)
    kept = trace_lines[:-len(".jsonl")] + ".json"
    with open(kept, "w") as f:
        json.dump({"traceEvents": merged}, f)
    return Run(records, traces), kept


def result(run, trace):
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {
        "correct": not run.problems(),
        "attempted": run.attempted(),
        "failed": run.failed(),
        "metrics": {m.name: {"value": m.value(run), "unit": m.unit}
                    for m in table},
    }


def selftest(binary):
    """The benchmark's checks of itself. Returns the failures."""
    failures = []

    def expect(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for m in metrics.TABLE:
        expect(metrics.NAME_RE.match(m.name) is not None
               and metrics.UNIT_RE.match(m.unit) is not None,
               "well-formed name and unit: %s [%s]" % (m.name, m.unit))
    names = [m.name for m in metrics.TABLE]
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(all(metrics.NAME_RE.match(n) and len(w) <= 200 and "\n" not in w
               for n, w in metrics.WORKLOADS),
           "workload names and one-line reasons")
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    expect(all(0 < b <= 0.25 for b in bounds.values())
           and bounds.get("setup_s") == max(bounds.values()),
           "end-to-end bounds within 0.25, setup_s has the largest")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        expect(json.load(f) == metrics.manifest(),
               "BENCHMARK.json matches perfbench/metrics.py")

    # Damaged witnesses must fail the independent check.
    for workload in ("fsp", "corpus"):
        for how in ("flip", "drop", "relabel"):
            run, _ = measure(binary, workload, 0, 0, False,
                             ["--mutate", how])
            expect(run.failed_frac() > 0,
                   "%s witness on %s raises failed_frac (%.4f)"
                   % (how, workload, run.failed_frac()))

    # The decorator forwards every call unchanged.
    for workload in ("fsp", "corpus"):
        plain, _ = measure(binary, workload, 0, 0, False, ["--plain-solver"])
        timed, _ = measure(binary, workload, 0, 0, False)
        expect(plain.failed() == 0 and timed.failed() == 0
               and plain.passes[0]["digest"] == timed.passes[0]["digest"],
               "%s witness digest %s with the decorator, %s without"
               % (workload, timed.passes[0]["digest"],
                  plain.passes[0]["digest"]))

    # Every emitted name, in both modes, is declared and well formed.
    for trace in (0, 1):
        run, _ = measure(binary, "fsp", 0, 0, trace)
        emitted = result(run, trace)["metrics"]
        table = metrics.PER_LAYER if trace else metrics.END_TO_END
        expect(sorted(emitted) == sorted(m.name for m in table)
               and all(metrics.NAME_RE.match(n) for n in emitted),
               "--trace %d emits exactly the declared names" % trace)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[n for n, _ in metrics.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        with open(os.path.join(HERE, "..", "BENCHMARK.json"), "w") as f:
            json.dump(metrics.manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    if args.selftest:
        failures = selftest(binary)
        log("selftest: %d failure(s)" % len(failures))
        return 1 if failures else 0
    if args.workload is None:
        ap.error("--workload is required")

    run, kept = measure(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    for problem in run.problems():
        log("perfbench: " + problem)
    out = result(run, args.trace)
    print("workload %s, seed %d: %d passes (%d traced), %d analyses, "
          "%d failed" % (args.workload, args.seed, len(run.passes),
                         len(run.traced_passes), out["attempted"],
                         out["failed"]))
    for m in (metrics.PER_LAYER if args.trace else metrics.END_TO_END):
        moves = " (moves %s on %s)" % (m.moves, m.where) if m.moves else ""
        print("%-36s %14.6g %-5s  %-7s %s%s" % (
            m.name, out["metrics"][m.name]["value"], m.unit, m.layer,
            m.source, moves))
    if kept:
        print("trace: " + kept)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
