#include "cqa/serve/stats.h"

#include <algorithm>
#include <string_view>

namespace cqa {

namespace {

// p in [0,1]; nearest-rank percentile of a sorted, non-empty window. The
// rank is clamped so no rounding of `p * (n-1)` can ever index out of
// bounds (the empty window is handled by the caller, which reports zeros).
uint64_t PercentileSorted(const std::vector<uint64_t>& sorted, double p) {
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  rank = std::min(rank, sorted.size() - 1);
  return sorted[rank];
}

}  // namespace

void StatsCollector::RecordSubmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.submitted;
}

void StatsCollector::RecordAccepted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.accepted;
}

void StatsCollector::RecordShed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.shed;
}

void StatsCollector::RecordRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.retries;
}

void StatsCollector::RecordStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.inflight;
}

void StatsCollector::RecordTerminal(bool started, bool cancelled, bool ok,
                                    bool degraded,
                                    std::chrono::microseconds latency) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started) --counters_.inflight;
  if (cancelled) {
    ++counters_.cancelled;
  } else if (ok) {
    ++counters_.completed;
    if (degraded) ++counters_.degraded;
  } else {
    ++counters_.failed;
  }
  uint64_t us = static_cast<uint64_t>(std::max<int64_t>(latency.count(), 0));
  if (latencies_us_.size() < kMaxLatencySamples) {
    latencies_us_.push_back(us);
  } else {
    latencies_us_[next_overwrite_] = us;
    next_overwrite_ = (next_overwrite_ + 1) % kMaxLatencySamples;
  }
  ++counters_.latency_count;
  counters_.latency_max_us = std::max(counters_.latency_max_us, us);
}

void StatsCollector::RecordSandbox(bool killed, bool crashed, bool rss_breach,
                                   uint64_t peak_rss_kb) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.sandbox_forks;
  if (killed) ++counters_.sandbox_kills;
  if (crashed) ++counters_.sandbox_crashes;
  if (rss_breach) ++counters_.sandbox_rss_breaches;
  counters_.sandbox_peak_rss_kb =
      std::max(counters_.sandbox_peak_rss_kb, peak_rss_kb);
}

void StatsCollector::RecordParallel(uint64_t components, uint64_t steals) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.parallel_solves;
  counters_.components_found += components;
  counters_.parallel_steals += steals;
}

void StatsCollector::RecordAnswerChunk(uint64_t tuples) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.answer_chunks;
  counters_.answer_tuples += tuples;
}

void StatsCollector::RecordStaleCursor() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.answers_stale_cursors;
}

ServiceStats StatsCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = counters_;
  if (latencies_us_.empty()) {
    // An empty window reports all-zero percentiles (and latency_count is
    // zero by construction): never touch the sample buffer.
    return out;
  }
  std::vector<uint64_t> sorted = latencies_us_;
  std::sort(sorted.begin(), sorted.end());
  out.latency_p50_us = PercentileSorted(sorted, 0.50);
  out.latency_p90_us = PercentileSorted(sorted, 0.90);
  out.latency_p99_us = PercentileSorted(sorted, 0.99);
  return out;
}

std::string ServiceStats::ToString() const {
  std::string s;
  for (const StatsField<ServiceStats>& field : kServiceStatsFields) {
    // A unit suffix moves onto the value: latency_p50_us prints as
    // "latency_p50 12us".
    std::string_view name = field.name;
    std::string_view unit;
    for (std::string_view suffix : {"_us", "_kb"}) {
      if (name.ends_with(suffix)) {
        name.remove_suffix(suffix.size());
        unit = suffix.substr(1);
      }
    }
    if (!s.empty()) s += ", ";
    s += name;
    s += ' ';
    s += std::to_string(this->*field.member);
    s += unit;
  }
  return s;
}

ServiceStats MergeStats(
    const std::vector<std::pair<std::string, ServiceStats>>& per_db) {
  ServiceStats total;
  for (const auto& [name, stats] : per_db) {
    for (const StatsField<ServiceStats>& field : kServiceStatsFields) {
      uint64_t& into = total.*field.member;
      uint64_t from = stats.*field.member;
      into = field.merge == StatsMerge::kMax ? std::max(into, from)
                                             : into + from;
    }
  }
  return total;
}

}  // namespace cqa
