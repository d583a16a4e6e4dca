#ifndef CQA_SERVE_STATS_H_
#define CQA_SERVE_STATS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cqa {

/// A point-in-time snapshot of `SolveService` accounting. Counter identity:
///   submitted == accepted + shed
///   accepted  == completed + failed + cancelled + (still queued/running)
/// `retries` counts extra attempts, not requests; `degraded` counts
/// completions whose verdict was qualified (probably-certain / exhausted)
/// rather than exact.
///
/// To add a counter, add the member here and one row to
/// `kServiceStatsFields` below: that row is the counter's wire key, its
/// text-summary name and its cross-shard merge rule.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;  // terminal, with a solve report (ok result)
  uint64_t failed = 0;     // terminal, with a typed error result
  uint64_t cancelled = 0;  // terminal via cancellation or shutdown
  uint64_t retries = 0;
  uint64_t degraded = 0;
  uint64_t inflight = 0;  // popped by a worker, not yet terminal

  /// Result-cache counters, folded in by `SolveService::Stats` (all zero
  /// when the service runs without a cache). Hits complete before
  /// admission; `cache_misses` counts lookups that did not hit, of which
  /// `cache_coalesced` piggybacked on an in-flight identical solve instead
  /// of scheduling work (so solves actually executed = misses − coalesced);
  /// `cache_bypass` counts jobs that opted out via `CachePolicy::kBypass`.
  /// Identity: hits + misses + bypass == cache-eligible submissions.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_coalesced = 0;
  uint64_t cache_bypass = 0;
  uint64_t cache_entries = 0;    // current size (gauge)
  uint64_t cache_evictions = 0;
  /// Delta-invalidation counters: entries dropped because a delta touched
  /// a relation their query mentions, vs. entries carried (rekeyed) to the
  /// new epoch because it did not. Their ratio is the cache's invalidation
  /// precision under live updates.
  uint64_t cache_invalidated = 0;
  uint64_t cache_rekeyed = 0;

  /// Live-update counters, overlaid per database by the sharded registry
  /// layer (zero for a standalone `SolveService`, which never sees
  /// deltas). `epoch` is a gauge: the number of deltas ever applied to the
  /// database, including those replayed from the journal at attach;
  /// `journal_bytes` is the journal's on-disk size (gauge), the other two
  /// are monotone counters for this process's lifetime.
  uint64_t epoch = 0;
  uint64_t deltas_applied = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_fsyncs = 0;
  /// Snapshot/compaction counters, overlaid like the journal counters.
  /// `snapshots_taken`/`snapshots_failed` count this process's attempts;
  /// `snapshot_bytes` is the last committed snapshot's file size (gauge,
  /// 0 before the first) and `snapshot_epoch` the epoch it captured.
  uint64_t snapshots_taken = 0;
  uint64_t snapshots_failed = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t snapshot_epoch = 0;

  /// Sandbox counters (all zero when no solve ever ran under fork
  /// isolation). `sandbox_forks` counts supervised children spawned;
  /// `sandbox_kills` children the supervisor SIGKILLed (grace breach or
  /// cancellation); `sandbox_crashes` children that died without a verdict
  /// (mapped to `kWorkerCrashed`); `sandbox_rss_breaches` children that hit
  /// the RSS cap (mapped to `kResourceExhausted`). `sandbox_peak_rss_kb` is
  /// a high-water gauge of child peak RSS across all forks.
  uint64_t sandbox_forks = 0;
  uint64_t sandbox_kills = 0;
  uint64_t sandbox_crashes = 0;
  uint64_t sandbox_rss_breaches = 0;
  uint64_t sandbox_peak_rss_kb = 0;

  /// Component-parallel counters (all zero when every solve ran the
  /// sequential path). `parallel_solves` counts in-process solves that went
  /// through the component decomposer (parallelism > 1, exponential
  /// engine); `components_found` sums the component tasks they produced;
  /// `parallel_steals` sums work-stealing pool steals. Sandboxed solves
  /// contribute too — their reports carry the counts back over the result
  /// pipe.
  uint64_t parallel_solves = 0;
  uint64_t components_found = 0;
  uint64_t parallel_steals = 0;

  /// Answer-stream counters. `answer_chunks` counts chunks produced by
  /// workers (cache hits excluded — those show up as `cache_hits`),
  /// `answer_tuples` sums the certain answers those chunks carried, and
  /// `answers_stale_cursors` counts resume attempts refused at admission
  /// because their cursor named a fingerprint from a flipped epoch.
  uint64_t answer_chunks = 0;
  uint64_t answer_tuples = 0;
  uint64_t answers_stale_cursors = 0;

  /// Submit-to-terminal latency percentiles over every terminal request.
  uint64_t latency_count = 0;
  uint64_t latency_p50_us = 0;
  uint64_t latency_p90_us = 0;
  uint64_t latency_p99_us = 0;
  uint64_t latency_max_us = 0;

  /// Every field as "name value", in `kServiceStatsFields` order.
  std::string ToString() const;
};

/// How one counter combines across shards. `kSum` for counts and for
/// gauges whose fleet value is a total; `kMax` for high-water marks and
/// latency percentiles. Percentiles of a union of samples cannot be
/// rebuilt from the shards' percentiles, so the aggregate reports the
/// worst shard's: exact with one shard, an upper bound otherwise.
enum class StatsMerge { kSum, kMax };

/// One row of a stats struct's field table: wire key, member, merge rule.
template <typename Stats>
struct StatsField {
  const char* name;
  uint64_t Stats::*member;
  StatsMerge merge = StatsMerge::kSum;
};

/// The one list of `ServiceStats` counters. Stats frames, `ToString` and
/// `MergeStats` all walk it, so a counter added here shows up everywhere.
inline constexpr StatsField<ServiceStats> kServiceStatsFields[] = {
    {"submitted", &ServiceStats::submitted},
    {"accepted", &ServiceStats::accepted},
    {"shed", &ServiceStats::shed},
    {"completed", &ServiceStats::completed},
    {"failed", &ServiceStats::failed},
    {"cancelled", &ServiceStats::cancelled},
    {"retries", &ServiceStats::retries},
    {"degraded", &ServiceStats::degraded},
    {"inflight", &ServiceStats::inflight},
    {"cache_hits", &ServiceStats::cache_hits},
    {"cache_misses", &ServiceStats::cache_misses},
    {"cache_coalesced", &ServiceStats::cache_coalesced},
    {"cache_bypass", &ServiceStats::cache_bypass},
    {"cache_entries", &ServiceStats::cache_entries},
    {"cache_evictions", &ServiceStats::cache_evictions},
    {"cache_invalidated", &ServiceStats::cache_invalidated},
    {"cache_rekeyed", &ServiceStats::cache_rekeyed},
    {"epoch", &ServiceStats::epoch},
    {"deltas_applied", &ServiceStats::deltas_applied},
    {"journal_bytes", &ServiceStats::journal_bytes},
    {"journal_fsyncs", &ServiceStats::journal_fsyncs},
    {"snapshots_taken", &ServiceStats::snapshots_taken},
    {"snapshots_failed", &ServiceStats::snapshots_failed},
    {"snapshot_bytes", &ServiceStats::snapshot_bytes},
    {"snapshot_epoch", &ServiceStats::snapshot_epoch, StatsMerge::kMax},
    {"sandbox_forks", &ServiceStats::sandbox_forks},
    {"sandbox_kills", &ServiceStats::sandbox_kills},
    {"sandbox_crashes", &ServiceStats::sandbox_crashes},
    {"sandbox_rss_breaches", &ServiceStats::sandbox_rss_breaches},
    {"sandbox_peak_rss_kb", &ServiceStats::sandbox_peak_rss_kb,
     StatsMerge::kMax},
    {"parallel_solves", &ServiceStats::parallel_solves},
    {"components_found", &ServiceStats::components_found},
    {"parallel_steals", &ServiceStats::parallel_steals},
    {"answer_chunks", &ServiceStats::answer_chunks},
    {"answer_tuples", &ServiceStats::answer_tuples},
    {"answers_stale_cursors", &ServiceStats::answers_stale_cursors},
    {"latency_count", &ServiceStats::latency_count},
    {"latency_p50_us", &ServiceStats::latency_p50_us, StatsMerge::kMax},
    {"latency_p90_us", &ServiceStats::latency_p90_us, StatsMerge::kMax},
    {"latency_p99_us", &ServiceStats::latency_p99_us, StatsMerge::kMax},
    {"latency_max_us", &ServiceStats::latency_max_us, StatsMerge::kMax},
};

/// The cross-database aggregate of per-database snapshots (as
/// `ShardedSolveService::StatsPerDb` returns them): every field merged by
/// its `kServiceStatsFields` rule.
ServiceStats MergeStats(
    const std::vector<std::pair<std::string, ServiceStats>>& per_db);

/// Thread-safe collector behind `ServiceStats`. Counters are plain
/// increments under a mutex (contention is dwarfed by the solves
/// themselves); latencies are kept exactly up to a cap, after which new
/// samples overwrite a deterministic rotating slot so the distribution
/// stays bounded in memory.
class StatsCollector {
 public:
  void RecordSubmitted();
  void RecordAccepted();
  void RecordShed();
  void RecordRetry();
  void RecordStarted();
  /// Terminal accounting for one request. `cancelled` wins over the other
  /// two; otherwise `ok` picks completed vs failed. `started` says whether
  /// the request was ever popped by a worker (balances the inflight gauge).
  void RecordTerminal(bool started, bool cancelled, bool ok, bool degraded,
                      std::chrono::microseconds latency);
  /// Sandbox accounting for one forked solve (see the ServiceStats fields).
  void RecordSandbox(bool killed, bool crashed, bool rss_breach,
                     uint64_t peak_rss_kb);
  /// Accounting for one solve that went through the component decomposer.
  void RecordParallel(uint64_t components, uint64_t steals);
  /// Accounting for one answer chunk a worker produced.
  void RecordAnswerChunk(uint64_t tuples);
  /// A resume cursor refused at admission for naming a flipped epoch.
  void RecordStaleCursor();

  ServiceStats Snapshot() const;

 private:
  static constexpr size_t kMaxLatencySamples = 1 << 16;

  mutable std::mutex mu_;
  ServiceStats counters_;
  std::vector<uint64_t> latencies_us_;
  size_t next_overwrite_ = 0;
};

}  // namespace cqa

#endif  // CQA_SERVE_STATS_H_
