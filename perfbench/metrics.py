"""The benchmark's one declared metric table.

Every metric the benchmark prints is declared here once: its name,
unit, layer, which way is better, where its value comes from (the
source key), and -- before anything is measured -- which end-to-end
metric it should move and on which workload. BENCHMARK.json is
generated from this table (run.py --write-manifest), so the two cannot
drift apart.

The program reports some quantities under several names; each family is
folded into one benchmark-side name here, without editing the program:
  * serial memo hits `solver.cache_hits` and the parallel query cache's
    `exec.queries_cached` (which `cache.hits` duplicates) -> smt.cache_hits;
  * `exec.lemmas_*`, `lemmas.*` and `solver.lemmas_*` -> exec.lemmas.*,
    taken from the shared pool's side (`exec.lemmas_*`).

A run object supplies the values; see Run in run.py.
"""

import re
from typing import Callable, NamedTuple, Optional

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Why each workload is in the benchmark (copied into BENCHMARK.json).
WORKLOADS = [
    ("fsp",
     "FSP, 8 clients, 1 worker: the SAT hot path is ~97% of the time "
     "(2.42M decisions, 89 conflicts) and the only overlay-store hits; "
     "counts repeat exactly, the seed is unused"),
    ("deep",
     "two depth-6 sampled protocols at 4 workers: the only workload "
     "that drives exec/ (stealing, shared query cache, lemma exchange); "
     "half of each analysis is serial preprocessing"),
    ("corpus",
     "120 small sampled protocols (24-cell grid x 5 seeds), 1 worker: "
     "per-analysis fixed costs weigh most and SAT calls are short (~77 "
     "decisions vs ~990 on fsp)"),
]


class Metric(NamedTuple):
    name: str
    unit: str
    layer: str
    source: str
    moves: str  # the end-to-end metric it should move ("" = it is one)
    where: str  # the workloads where it should move
    value: Callable  # run -> number
    better: str = "lower"
    bound: Optional[float] = None  # end-to-end metrics only


def _ratio(a, b):
    return a / b if b else 0.0


def _e2e(name, unit, source, bound, value, where="fsp deep corpus"):
    return Metric(name, unit, "e2e", source, "", where, value, "lower", bound)


# Bounds, from two sets of ten 30-second runs per workload (seeds
# 100-109 and 200-209) of the same code on a shared 4-core VM whose speed
# drifts by 10-20% over minutes: the IQR/median spread between runs
# reached 15.8% for analysis_s, 13.6% for cpu_s, 17.3% for setup_s and
# 4.1% for peak_rss_mb, and medians moved by up to 15.8%, 15.8%, 16.9%
# and 1.3% between the sets. The time bounds are therefore the largest
# allowed; memory moves only with thread timing on deep.
END_TO_END = [
    _e2e("analysis_s", "s",
         "median over untraced passes of the pass's summed RunAchilles "
         "wall time", 0.25, lambda r: r.time("analysis_s")),
    _e2e("cpu_s", "s",
         "median over untraced passes of the process user+sys CPU time "
         "spent inside RunAchilles", 0.25, lambda r: r.time("cpu_s")),
    _e2e("peak_rss_mb", "MB",
         "VmHWM of the perfbench process at the end of an untraced run", 0.15,
         lambda r: r.peak_rss_mb),
    _e2e("setup_s", "s",
         "median over the untraced passes' set-up repetitions of "
         "ProtocolFactory::Make, ExprContext and home solver construction, "
         "summed over the workload's protocols", 0.25,
         lambda r: r.setup("setup_s")),
]


def _layer(name, unit, layer, source, moves, where, value, better="lower"):
    return Metric(name, unit, layer, source, moves, where, value, better)


def _count(name, layer, keys, moves, where, better="lower"):
    keys = keys.split()
    return _layer(name, "count", layer, " + ".join(keys), moves, where,
                  lambda r: r.count(*keys), better)


def _store(store, probes, hits, attempts="probes"):
    base = "exec.prune." + store
    return [
        _count(base + "." + attempts, "exec", probes, "analysis_s", "fsp"),
        _count(base + ".hits", "exec", hits, "analysis_s", "fsp",
               better="higher"),
        _layer(base + ".hit_ratio", "1", "exec",
               hits + " / " + probes, "analysis_s", "fsp",
               lambda r: _ratio(r.count(hits), r.count(probes)), "higher"),
    ]


PER_LAYER = [
    # proto
    _layer("proto.make_s", "s", "proto",
           "median over the untraced passes' set-up repetitions of "
           "ProtocolFactory::Make, summed over protocols", "setup_s",
           "corpus", lambda r: r.setup("make_s")),
    # core: phase times from AchillesResult::timings, untraced passes
    _layer("core.client_extraction_s", "s", "core",
           "timings.client_extraction", "analysis_s", "corpus deep",
           lambda r: r.time("client_extraction_s")),
    _layer("core.preprocessing_s", "s", "core", "timings.preprocessing",
           "analysis_s", "deep corpus",
           lambda r: r.time("preprocessing_s")),
    _layer("core.server_analysis_s", "s", "core",
           "timings.server_analysis", "analysis_s", "fsp deep",
           lambda r: r.time("server_analysis_s")),
    _layer("core.negations", "count", "core", "AchillesResult::negations",
           "analysis_s", "deep corpus", lambda r: r.first("negations")),
    _count("core.difffrom_queries", "core", "difffrom.solver_queries",
           "analysis_s", "deep corpus"),
    _count("core.explorer.match_queries", "core", "explorer.match_queries",
           "analysis_s", "fsp"),
    _count("core.explorer.trojan_queries", "core",
           "explorer.trojan_queries", "analysis_s", "fsp"),
    _count("core.explorer.drops", "core",
           "explorer.predicate_drops explorer.difffrom_drops "
           "explorer.overlay_drops explorer.core_drops",
           "analysis_s", "fsp", better="higher"),
    _count("core.explorer.prefilter_hits", "core",
           "explorer.prefilter_hits explorer.prefilter_trojan_hits",
           "analysis_s", "fsp", better="higher"),
    _layer("core.explorer.prefilter_hit_ratio", "1", "core",
           "prefilter hits / (prefilter hits + match + trojan queries)",
           "analysis_s", "fsp",
           lambda r: _ratio(
               r.count("explorer.prefilter_hits",
                       "explorer.prefilter_trojan_hits"),
               r.count("explorer.prefilter_hits",
                       "explorer.prefilter_trojan_hits",
                       "explorer.match_queries",
                       "explorer.trojan_queries")), "higher"),
    _layer("core.explorer.first_witness_s", "s", "core",
           "traced: first explorer.trojan_witness instant after the "
           "analysis start, summed over protocols", "analysis_s", "fsp",
           lambda r: r.traced("first_witness_s")),
    _layer("core.phase_self_s", "s", "core",
           "traced: phase.* span wall time outside child spans on its "
           "own track and outside worker-track spans", "analysis_s",
           "corpus",
           lambda r: r.traced("self.core")),
    # symexec
    _count("symexec.steps", "symexec", "engine.steps", "analysis_s",
           "corpus"),
    _count("symexec.forks", "symexec", "engine.forks", "analysis_s",
           "corpus"),
    _count("symexec.states", "symexec", "engine.states", "analysis_s",
           "corpus"),
    _layer("symexec.step_self_s", "s", "symexec",
           "traced: engine.step spans minus their solver.query "
           "children, summed over tracks (thread time on deep)",
           "analysis_s", "corpus", lambda r: r.traced("self.symexec")),
    # smt facade, seen by the timing decorator on the home solver
    _layer("smt.home.calls", "count", "smt", "decorator: outermost Check*",
           "analysis_s", "fsp deep", lambda r: r.first("home", "calls")),
    _layer("smt.home.busy_s", "s", "smt", "decorator: summed call time",
           "analysis_s", "fsp deep", lambda r: r.time("home", "busy_s")),
    _layer("smt.home.call_us.p50", "us", "smt",
           "decorator: median call latency", "analysis_s", "fsp deep",
           lambda r: r.home_call_us(0.50)),
    _layer("smt.home.call_us.p99", "us", "smt",
           "decorator: 99th-percentile call latency", "analysis_s",
           "fsp deep", lambda r: r.home_call_us(0.99)),
    _layer("smt.home.sat", "count", "smt", "decorator: kSat verdicts",
           "analysis_s", "fsp deep", lambda r: r.first("home", "sat")),
    _layer("smt.home.unsat", "count", "smt", "decorator: kUnsat verdicts",
           "analysis_s", "fsp deep", lambda r: r.first("home", "unsat")),
    _layer("smt.home.unknown", "count", "smt",
           "decorator: kUnknown verdicts", "analysis_s", "fsp deep",
           lambda r: r.first("home", "unknown")),
    # smt internals: solver.stats() plus server.stats
    _count("smt.queries", "smt", "solver.queries", "analysis_s",
           "fsp deep corpus"),
    _count("smt.cache_hits", "smt", "solver.cache_hits exec.queries_cached",
           "analysis_s", "fsp deep", better="higher"),
    _layer("smt.cache_hit_ratio", "1", "smt",
           "(solver.cache_hits + exec.queries_cached) / solver.queries",
           "analysis_s", "fsp deep",
           lambda r: _ratio(r.count("solver.cache_hits",
                                    "exec.queries_cached"),
                            r.count("solver.queries")), "higher"),
    _count("smt.interval_unsat", "smt", "solver.interval_unsat",
           "analysis_s", "fsp", better="higher"),
    _count("smt.trail_reuses", "smt", "solver.trail_reuses", "analysis_s",
           "fsp", better="higher"),
    _count("smt.unknowns", "smt", "solver.unknowns", "analysis_s", "fsp"),
    _layer("smt.query_s", "s", "smt",
           "traced: solver.query span self time, summed over tracks "
           "(thread time on deep)", "analysis_s",
           "fsp deep", lambda r: r.traced("self.smt")),
    _layer("smt.query_us.p50", "us", "smt",
           "traced: median solver.query span", "analysis_s", "fsp",
           lambda r: r.traced("query_us_p50")),
    _layer("smt.query_us.p99", "us", "smt",
           "traced: 99th-percentile solver.query span", "analysis_s",
           "fsp", lambda r: r.traced("query_us_p99")),
    _count("smt.sat.calls", "smt",
           "solver.sat_calls solver.incremental_sat_calls", "analysis_s",
           "fsp"),
    _count("smt.sat.decisions", "smt", "solver.sat_decisions",
           "analysis_s", "fsp"),
    _layer("smt.sat.decisions_per_call", "count", "smt",
           "solver.sat_decisions / smt.sat.calls", "analysis_s", "fsp",
           lambda r: _ratio(r.count("solver.sat_decisions"),
                            r.count("solver.sat_calls",
                                    "solver.incremental_sat_calls"))),
    _count("smt.sat.conflicts", "smt", "solver.sat_conflicts",
           "analysis_s", "deep"),
    # exec: non-zero on deep only
    _count("exec.states_stolen", "exec", "exec.states_stolen",
           "analysis_s", "deep"),
    _count("exec.steal_batches", "exec", "exec.steal_batches",
           "analysis_s", "deep"),
    _count("exec.query_cache.hits", "exec", "exec.queries_cached",
           "analysis_s", "deep", better="higher"),
    _count("exec.query_cache.misses", "exec", "exec.query_cache_misses",
           "analysis_s", "deep"),
    _layer("exec.query_cache.hit_ratio", "1", "exec",
           "exec.queries_cached / (exec.queries_cached + "
           "exec.query_cache_misses)", "analysis_s", "deep",
           lambda r: _ratio(r.count("exec.queries_cached"),
                            r.count("exec.queries_cached",
                                    "exec.query_cache_misses")), "higher"),
    _count("exec.lemmas.published", "exec", "exec.lemmas_published",
           "cpu_s", "deep"),
    _count("exec.lemmas.fetched", "exec", "exec.lemmas_fetched", "cpu_s",
           "deep"),
    *_store("core", "prune.core_probes", "prune.core_hits"),
    *_store("overlay", "prune.overlay_probes", "prune.overlay_hits"),
    # The query-core store has no probe counter (it is probed only on
    # unsat query-cache hits), so its ratio is over the cores recorded.
    *_store("query_core", "prune.query_cores_recorded",
            "prune.query_core_hits", attempts="recorded"),
    # obs: the traced pass itself
    _layer("trace.overhead_frac", "1", "obs",
           "median traced / median untraced analysis_s - 1", "analysis_s",
           "fsp deep corpus", lambda r: r.trace_overhead()),
    _layer("trace.unattributed_s", "s", "obs",
           "traced: RunAchilles wall time outside the main track's "
           "top-level spans", "analysis_s", "fsp deep corpus",
           lambda r: r.traced("unattributed_s")),
    _count("trace.dropped", "obs", "obs.trace_dropped", "analysis_s",
           "fsp deep corpus"),
    # Per-protocol analysis times over the untraced passes. These are
    # not end-to-end gates: on corpus the median falls between the
    # depth-1 and depth-3 modes and moves 40% between seeds.
    _layer("protocol_s.p50", "s", "e2e",
           "median per-protocol RunAchilles time, untraced passes",
           "analysis_s", "corpus", lambda r: r.protocol_pct(0.50)),
    _layer("protocol_s.p90", "s", "e2e",
           "90th-percentile per-protocol RunAchilles time, untraced passes",
           "analysis_s", "corpus", lambda r: r.protocol_pct(0.90)),
    _layer("protocol_s.samples", "count", "e2e",
           "per-protocol times behind protocol_s.p50/.p90", "", "",
           lambda r: r.protocol_samples(), "higher"),
    _layer("failed_frac", "1", "e2e",
           "analyses whose witness set fails the independent check / "
           "analyses attempted", "", "", lambda r: r.failed_frac()),
]

TABLE = END_TO_END + PER_LAYER

# Seconds one run measures; passes are 2-6 s, so a run holds 5-15.
RUN_SECONDS = 30


def manifest():
    """BENCHMARK.json's content, generated from the table."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
