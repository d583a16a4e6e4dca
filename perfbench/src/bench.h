// Shared types of the serving benchmark: generated tenants, request pools
// with their independently computed reference answers, the workload
// definitions, and small measurement helpers (percentiles, Zipf draws,
// in-memory spans).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cqa/base/rng.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/query/query.h"
#include "cqa/serve/net/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

// Daemon configuration shared by every workload: `cqa_cli serve` defaults
// except for two workers per shard.
inline constexpr int kShardWorkers = 2;
inline constexpr size_t kCacheEntries = 4096;

struct WorkloadDef {
  const char* name;
  const char* why;  // one line, mirrored in BENCHMARK.json
  int readers;      // closed-loop request connections
  int writers;      // apply_delta connections (0 or 1)
};

// Every workload, each with the one-line reason it exists.
inline const WorkloadDef kWorkloads[] = {
    {"fo_hot",
     "cached FO solves: framing, admission, cache lookup and stats are the "
     "whole cost",
     2, 0},
    {"fo_write",
     "paced toggling deltas on the large poll tenant under concurrent FO "
     "solves: epoch clone, journal fsync and cache invalidation are the op",
     2, 1},
    {"conp_hard",
     "cyclic-attack-graph solves with the cache bypassed: backtracking and "
     "component parallelism are nearly all the work",
     2, 0},
    {"answers_stream",
     "certain-answer streams over a pool wider than the cache: candidate "
     "generation, per-candidate solves and per-chunk admission dominate",
     2, 0},
};

const WorkloadDef* FindWorkload(const std::string& name);

// One attached database.
struct Tenant {
  std::string name;
  std::string facts_text;  // the attach payload (ParseFacts grammar)
  std::shared_ptr<const cqa::Database> db;  // reference-side copy
  size_t facts = 0;
  size_t blocks = 0;
  std::string fingerprint;  // 32 hex chars
  int persons = 0;          // > 0 for poll databases
  std::string schema_query;  // random tenants: the query the schema came from
};

// A fact toggle for fo_write: delta 2i+1 inserts `facts`, delta 2i+2
// deletes them again, so every second delta restores the base state.
struct Toggle {
  size_t tenant = 0;
  std::string relation;
  std::vector<cqa::DeltaOp> inserts;
  std::vector<cqa::DeltaOp> deletes;
  std::string toggled_fingerprint;  // from-scratch digest of the toggled db
  // The toggled db itself, kept only while references are computed.
  std::shared_ptr<const cqa::Database> toggled_db;
};

enum class OpKind { kSolve, kAnswers };

// The op a workload's gated figures describe: a solve on fo_hot and
// conp_hard, an apply_delta (from when it was due to its delta_ack) on
// fo_write, a whole stream on answers_stream.
enum class PrimaryOp { kSolve, kDelta, kStream };

// One distinct request of a workload's pool.
struct PoolEntry {
  OpKind kind = OpKind::kSolve;
  size_t tenant = 0;
  std::string label;  // short human name, e.g. "poll2000/qa"
  std::string query;  // wire spelling
  std::string method = "auto";
  int parallelism = 0;  // 0: field absent (daemon default)
  bool bypass = false;  // "cache":"bypass"
  // answers
  std::vector<std::string> free;
  uint64_t max_chunk = 0;
  // References. Solves: expected verdict per fo_write state (index 0 is the
  // base state; only fo_write has more than one). Answers: the base
  // stream's rows, each tuple's values joined by '\x1f', minus those whose
  // first value is `excluded` (variants exclude one answer value).
  std::vector<std::string> verdicts;
  std::shared_ptr<const std::vector<std::string>> rows;
  std::string excluded;
  std::string ref_source;  // which independent path produced the reference
};

struct Inputs {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 0;
  std::vector<Tenant> tenants;
  std::vector<PoolEntry> pool;
  // Draw groups: a request picks a group by smooth weighted round-robin,
  // then an entry of the group uniformly at random.
  struct Group {
    double weight = 1;
    std::vector<size_t> entries;
  };
  std::vector<Group> groups;
  std::vector<Toggle> toggles;  // fo_write only
  double delta_period_ms = 0;   // fo_write only
  size_t distinct_chunks = 0;   // answers_stream: summed over the pool
  size_t max_chunks_per_shard = 0;
  double reference_s = 0;  // time spent computing references (untimed)
  std::vector<std::string> notes;  // extra input-record lines
  double inputs_rss_mb = 0;  // peak RSS once inputs and references are built

  PrimaryOp primary() const {
    if (def->writers > 0) return PrimaryOp::kDelta;
    return pool[0].kind == OpKind::kAnswers ? PrimaryOp::kStream : PrimaryOp::kSolve;
  }
};

// Builds the workload's tenants, pool and references from the seed. Returns
// false (with a message on stderr) if an input cannot be built.
bool BuildInputs(const WorkloadDef& def, uint64_t seed, Inputs* out);

// The index of the poll tenant with the most persons (tenants.size() when
// there is none).
size_t LargestPollTenant(const std::vector<Tenant>& tenants);

// Toggles on the largest poll tenant: for each of its four relations, a
// fixed set of 4 absent facts (two on new keys, two conflicting with
// existing keys), with the toggled state digested from scratch. One tenant,
// so that every delta clones a database of one size.
std::vector<Toggle> PollToggles(const std::vector<Tenant>& tenants,
                                uint64_t seed);

// The fo_write state after `applied` deltas: 0 is the base state, 1 + t
// means toggle t is inserted.
inline size_t StateAfter(uint64_t applied, size_t num_toggles) {
  if (applied % 2 == 0 || num_toggles == 0) return 0;
  return 1 + ((applied - 1) / 2) % num_toggles;
}

// The toggle delta number `d` (1-based) applies.
inline const Toggle& ToggleOf(const Inputs& in, uint64_t d) {
  return in.toggles[((d - 1) / 2) % in.toggles.size()];
}

std::string RowKey(const std::vector<std::string>& values);

// Whether `got` is exactly the entry's expected answer rows, in order.
bool RowsMatch(const PoolEntry& e, const std::vector<std::string>& got);

// Prints the input record: everything a reader needs to confirm what the
// run measured.
void PrintInputRecord(const Inputs& in);

// Request schedule: smooth weighted round-robin over the groups, so every
// run draws the groups in exactly their weight proportions (no binomial
// noise in the mix), then a uniformly random entry within the group.
// `phase` staggers the connections' sequences.
class Schedule {
 public:
  Schedule(const std::vector<Inputs::Group>& groups, size_t phase)
      : groups_(groups), current_(groups.size(), 0) {
    for (const Inputs::Group& g : groups) total_ += g.weight;
    for (size_t i = 0; i < phase; ++i) NextGroup();
  }
  size_t Next(cqa::Rng* rng) {
    const std::vector<size_t>& entries = groups_[NextGroup()].entries;
    return entries[rng->Below(entries.size())];
  }

 private:
  size_t NextGroup() {
    size_t best = 0;
    for (size_t i = 0; i < groups_.size(); ++i) {
      current_[i] += groups_[i].weight;
      if (current_[i] > current_[best]) best = i;
    }
    current_[best] -= total_;
    return best;
  }

  const std::vector<Inputs::Group>& groups_;
  std::vector<double> current_;
  double total_ = 0;
};

// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

inline double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

// A uniform sample of at most kCapacity values from a stream (reservoir
// sampling). The whole buffer is allocated and written on the first Add,
// so the harness's memory does not grow with throughput and peak RSS
// tracks the program under test.
template <typename T, size_t kCapacity = 1 << 14>
class Reservoir {
 public:
  void Add(const T& v) {
    if (buf_.empty()) buf_.assign(kCapacity, T{});
    ++seen_;
    if (size_ < kCapacity) {
      buf_[size_++] = v;
    } else if (uint64_t j = rng_.Below(seen_); j < kCapacity) {
      buf_[j] = v;
    }
  }
  uint64_t seen() const { return seen_; }
  // Appends the sample to `out`. Connections are symmetric, so samples of
  // different connections are pooled as they are.
  void AppendTo(std::vector<T>* out) const {
    out->insert(out->end(), buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(size_));
  }

 private:
  std::vector<T> buf_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  cqa::Rng rng_{0x5a3d1e};
};

// A reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

// Outcome of one run, printed as the final JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> mismatches;  // first few, for the report

  void Mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

struct RunOptions {
  double seconds = 10;
  std::string workdir;  // scratch space inside the checkout
};

// The untraced run: an in-process daemon on loopback driven over the wire.
RunResult RunEndToEnd(const Inputs& in, const RunOptions& opts);

// The traced run: the same inputs through each layer's public functions,
// timed with spans.
RunResult RunTraced(const Inputs& in, const RunOptions& opts);

double PeakRssMb();

// The wire frame of a pool entry's request.
std::string RequestFrame(const PoolEntry& e, const Tenant& t, uint64_t id);

// A counter of the "service" object of a stats frame (0 when absent).
inline uint64_t ServiceStat(const cqa::Json& stats, const char* key) {
  const cqa::Json* s = stats.Find("service");
  const cqa::Json* v = s ? s->Find(key) : nullptr;
  return v ? static_cast<uint64_t>(v->AsDouble()) : 0;
}

// --- the wire client shared by the untraced and the traced run ---

// One recorded span. Spans of one request share `request`; `parent` is the
// index of the enclosing span in the same recorder, or -1 for a root.
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent;
  uint64_t request;
};

// How many of a run's set-ups come before its measured window; the rest
// follow it, so that their median spans the whole run rather than one
// second of the host's state.
inline size_t SetupsBefore(size_t setups) { return setups / 2 + 1; }

struct DriveConfig {
  double seconds = 10;
  int setups = 31;  // daemon set-ups; the last before the window serves it
  std::string journal_dir;  // fo_write: holds a fresh journal directory per set-up
  bool record_spans = false;
};

// The measured window is split into this many equal sub-windows; the gated
// percentiles are medians over them, so that a few seconds of interference
// from outside the process do not move a run's figures.
inline constexpr size_t kSubWindows = 9;

struct DriveResult {
  std::vector<double> setup_s;
  double window_s = 0;
  // The primary op (see PrimaryOp): sampled (sub-window, us) pairs and
  // exact completions per sub-window.
  std::vector<std::pair<size_t, double>> primary_us;
  std::vector<uint64_t> primary_done = std::vector<uint64_t>(kSubWindows, 0);
  std::vector<double> solve_us;         // solve -> result
  std::vector<double> solve_server_us;  // the result frame's latency_us
  std::vector<double> wire_us;          // round trip minus latency_us
  std::vector<double> delta_us;         // due time -> delta_ack
  std::vector<double> delta_late_us;    // due time -> frame sent
  std::vector<double> stream_us;        // answers -> answer_done
  std::vector<double> stream_server_us;  // the answer_done frame's latency_us
  std::vector<double> stream_wire_us;    // round trip minus latency_us
  std::vector<double> first_chunk_us;   // answers -> first answer_chunk
  std::vector<std::pair<size_t, double>> per_entry_us;  // (pool entry, us)
  uint64_t tuples = 0;
  uint64_t solves = 0, streams = 0, deltas = 0;
  uint64_t attempted = 0, failed = 0;
  cqa::Json stats;  // the final stats frame ("service" and "daemon")
  std::vector<Span> spans;
};

// Sets the daemon up `setups` times (start, tenants attached over the
// wire), about half before the window and the rest after it; runs an
// untimed warm-up pass and then the measured closed-loop window.
// Every reply is checked against the references; mismatches go to `run`.
DriveResult DriveDaemon(const Inputs& in, const DriveConfig& cfg,
                        RunResult* run);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
