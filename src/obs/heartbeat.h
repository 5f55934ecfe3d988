// Achilles reproduction -- observability layer.
//
// Periodic progress heartbeat: a sampler thread that wakes every
// `interval_seconds`, folds the MetricsRegistry's shard snapshots
// (relaxed loads plus registered gauges -- it never touches worker
// structures), and reports one line of live run state:
//
//   states explored, frontier depth, queries + queries/sec, query-cache
//   and differentFrom-overlay hit rates, lemma traffic, kUnknown rate
//
// Rates are deltas between consecutive samples. The line goes through
// the leveled logger by default (whole-line writes, run-id prefix); a
// test sink can capture it instead.

#ifndef ACHILLES_OBS_HEARTBEAT_H_
#define ACHILLES_OBS_HEARTBEAT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace achilles {
namespace obs {

/** One formatted sample (also handed to a custom sink for tests). */
struct HeartbeatSample
{
    double elapsed_seconds = 0.0;
    int64_t states_explored = 0;
    int64_t frontier = 0;
    int64_t queries = 0;
    double queries_per_sec = 0.0;
    double cache_hit_rate = 0.0;    ///< query-cache probes, percent
    double overlay_hit_rate = 0.0;  ///< differentFrom overlay, percent
    int64_t lemmas_published = 0;
    int64_t lemmas_fetched = 0;
    double unknown_rate = 0.0;      ///< kUnknown verdicts, percent

    std::string Format() const;
};

/** The sampler. Start() spawns the thread; Stop() joins it (and emits
 *  one final sample so short runs still report). */
class Heartbeat
{
  public:
    using Sink = std::function<void(const HeartbeatSample &)>;

    /** `sink` defaults to logging the formatted line at info level. */
    Heartbeat(const MetricsRegistry *registry, double interval_seconds,
              Sink sink = nullptr);
    ~Heartbeat();

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    void Start();
    void Stop();

    /** Compute one sample from the registry's current aggregate
     *  (exposed for tests; Start/Stop drive it periodically). */
    HeartbeatSample Sample();

  private:
    void Loop();

    const MetricsRegistry *registry_;
    double interval_seconds_;
    Sink sink_;

    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    bool running_ = false;
    std::thread thread_;

    /** Previous sample state for rate deltas. */
    std::chrono::steady_clock::time_point start_time_;
    std::chrono::steady_clock::time_point last_time_;
    int64_t last_queries_ = 0;
};

}  // namespace obs
}  // namespace achilles

#endif  // ACHILLES_OBS_HEARTBEAT_H_
