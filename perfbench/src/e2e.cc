// The wire client: an in-process SolveDaemon on loopback, tenants attached
// with attach frames, closed-loop request connections (one thread each)
// and, for fo_write, one apply_delta writer paced at a fixed rate. Timings
// are client-observed: from just before a frame is written to the moment
// its terminal frame has been read.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bench.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/protocol.h"

namespace perfbench {

namespace {

using std::chrono::milliseconds;

constexpr milliseconds kIo{60'000};
constexpr int kWarmupMs = 2'000;

std::string AttachFrame(const Tenant& t, uint64_t id) {
  cqa::JsonObjectBuilder b;
  b.Set("type", "attach").Set("id", id).Set("name", t.name)
      .Set("facts", t.facts_text);
  return b.Build().Serialize();
}

std::string DeltaFrame(const Inputs& in, uint64_t d, uint64_t id) {
  const Toggle& tg = ToggleOf(in, d);
  cqa::JsonObjectBuilder b;
  b.Set("type", "apply_delta").Set("id", id)
      .Set("db", in.tenants[tg.tenant].name)
      .Set("delta_id", "toggle-" + std::to_string(d))
      .Set("ops", cqa::EncodeDeltaOps(d % 2 == 1 ? tg.inserts : tg.deletes));
  return b.Build().Serialize();
}

// Reads frames until one for `id` of a type in `terminal` (or an error /
// cancelled frame for it) arrives.
cqa::Result<cqa::WireResponse> ReadUntil(cqa::NetClient* c, uint64_t id,
                                         const char* terminal) {
  while (true) {
    cqa::Result<cqa::WireResponse> r = c->ReadResponse(kIo);
    if (!r.ok()) return r;
    if (r->id != id) continue;
    if (r->type == terminal || r->type == "error" || r->type == "cancelled") {
      return r;
    }
  }
}

cqa::DaemonOptions MakeDaemonOptions(const std::string& journal_dir) {
  cqa::DaemonOptions o;
  o.service.workers = kShardWorkers;
  o.service.queue_capacity = 64;
  o.service.cache_entries = kCacheEntries;
  o.service.warm_state = true;
  o.service.isolation = cqa::IsolationMode::kInproc;
  o.service.parallelism = 1;
  o.journal_dir = journal_dir;
  o.journal.fsync = cqa::FsyncPolicy::kAlways;
  return o;
}

// Shared state of one measured window.
struct Window {
  const Inputs* in = nullptr;
  RunResult* run = nullptr;
  bool record_spans = false;
  Clock::time_point start, end;
  std::atomic<uint64_t> deltas_sent{0};
  std::atomic<uint64_t> deltas_acked{0};
  std::mutex mu;  // guards `out` and `run`
  DriveResult* out = nullptr;
};

// Per-connection tallies, merged into the result under the mutex.
struct Tally {
  Reservoir<double> solve_us, server_us, wire_us, stream_us, first_us,
      delta_us, delta_late_us, stream_server_us, stream_wire_us;
  Reservoir<std::pair<size_t, double>> per_entry;
  // (sub-window, us): a larger sample, as each sub-window takes a ninth.
  Reservoir<std::pair<size_t, double>, 1 << 16> primary;
  std::vector<uint64_t> primary_done = std::vector<uint64_t>(kSubWindows, 0);
  std::vector<Span> spans;
  uint64_t tuples = 0, solves = 0, streams = 0, deltas = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> mismatches;
};

void Merge(Window* w, Tally* t) {
  std::lock_guard<std::mutex> lock(w->mu);
  DriveResult& o = *w->out;
  t->solve_us.AppendTo(&o.solve_us);
  t->server_us.AppendTo(&o.solve_server_us);
  t->wire_us.AppendTo(&o.wire_us);
  t->stream_us.AppendTo(&o.stream_us);
  t->first_us.AppendTo(&o.first_chunk_us);
  t->delta_us.AppendTo(&o.delta_us);
  t->delta_late_us.AppendTo(&o.delta_late_us);
  t->stream_server_us.AppendTo(&o.stream_server_us);
  t->stream_wire_us.AppendTo(&o.stream_wire_us);
  t->per_entry.AppendTo(&o.per_entry_us);
  t->primary.AppendTo(&o.primary_us);
  for (size_t i = 0; i < kSubWindows; ++i) o.primary_done[i] += t->primary_done[i];
  o.spans.insert(o.spans.end(), t->spans.begin(), t->spans.end());
  o.tuples += t->tuples;
  o.solves += t->solves;
  o.streams += t->streams;
  o.deltas += t->deltas;
  o.attempted += t->attempted;
  o.failed += t->failed;
  for (const std::string& m : t->mismatches) w->run->Mismatch(m);
}

// Records one completed primary op in its sub-window (an op finishing
// after the window closes counts in the last one).
void AddPrimary(const Window& w, Clock::time_point done, double us, Tally* t) {
  const double share = std::chrono::duration<double>(done - w.start).count() /
                       std::chrono::duration<double>(w.end - w.start).count();
  const size_t sub = std::min(kSubWindows - 1,
                              static_cast<size_t>(std::max(0.0, share) * kSubWindows));
  ++t->primary_done[sub];
  t->primary.Add({sub, us});
}

// One solve or stream on `c`; returns false when the connection is lost.
bool DoOp(Window* w, cqa::NetClient* c, size_t entry, uint64_t id,
          bool measured, Tally* t) {
  const Inputs& in = *w->in;
  const PoolEntry& e = in.pool[entry];
  const Tenant& tenant = in.tenants[e.tenant];
  const std::string frame = RequestFrame(e, tenant, id);
  const uint64_t lo = w->deltas_acked.load();
  if (measured) ++t->attempted;
  Clock::time_point t0 = Clock::now();
  if (!c->SendFrame(frame, kIo).ok()) {
    if (measured) ++t->failed;
    return false;
  }
  if (e.kind == OpKind::kSolve) {
    cqa::Result<cqa::WireResponse> r = ReadUntil(c, id, "result");
    Clock::time_point t1 = Clock::now();
    if (!r.ok()) {
      if (measured) ++t->failed;
      return false;
    }
    if (r->type != "result") {
      if (measured) ++t->failed;
      return true;
    }
    // fo_write: any state live between the send and the receipt is valid.
    const uint64_t hi = w->deltas_sent.load();
    bool match = false;
    for (uint64_t k = lo; k <= hi && !match; ++k) {
      match = r->verdict == e.verdicts[StateAfter(k, in.toggles.size())];
      if (k - lo > 2 * in.toggles.size() + 2) break;
    }
    if (!match) {
      t->mismatches.push_back(e.label + ": verdict " + r->verdict +
                              ", expected " + e.verdicts[0] + " (" +
                              e.ref_source + ")");
    }
    if (!measured) return true;
    const double us = UsSince(t0, t1);
    ++t->solves;
    t->solve_us.Add(us);
    t->per_entry.Add({entry, us});
    if (in.primary() == PrimaryOp::kSolve) AddPrimary(*w, t1, us, t);
    t->server_us.Add(static_cast<double>(r->latency_us));
    t->wire_us.Add(us - static_cast<double>(r->latency_us));
    if (w->record_spans) t->spans.push_back({"client.solve", t0, t1, -1, id});
    return true;
  }
  // Answer stream: chunks until answer_done.
  std::vector<std::string> rows;
  Clock::time_point first{};
  while (true) {
    cqa::Result<cqa::WireResponse> r = c->ReadResponse(kIo);
    if (!r.ok()) {
      if (measured) ++t->failed;
      return false;
    }
    if (r->id != id) continue;
    if (r->type == "answer_chunk") {
      if (first == Clock::time_point{}) first = Clock::now();
      for (const auto& tuple : r->tuples) rows.push_back(RowKey(tuple));
      continue;
    }
    Clock::time_point t1 = Clock::now();
    if (r->type != "answer_done") {
      if (measured) ++t->failed;
      return true;
    }
    if (!RowsMatch(e, rows)) {
      t->mismatches.push_back(e.label + ": " + std::to_string(rows.size()) +
                              " answers differ from the reference (" +
                              e.ref_source + ")");
    }
    if (!measured) return true;
    ++t->streams;
    t->tuples += rows.size();
    const double us = UsSince(t0, t1);
    t->stream_us.Add(us);
    t->stream_server_us.Add(static_cast<double>(r->latency_us));
    t->stream_wire_us.Add(us - static_cast<double>(r->latency_us));
    t->per_entry.Add({entry, us});
    AddPrimary(*w, t1, us, t);  // streams are only ever primary
    if (first != Clock::time_point{}) t->first_us.Add(UsSince(t0, first));
    if (w->record_spans) t->spans.push_back({"client.stream", t0, t1, -1, id});
    return true;
  }
}

void ReaderLoop(Window* w, uint16_t port, int index) {
  const Inputs& in = *w->in;
  Tally t;
  cqa::NetClient c;
  if (!c.Connect("127.0.0.1", port, kIo).ok()) {
    t.mismatches.push_back("reader could not connect");
    Merge(w, &t);
    return;
  }
  // Request ids are unique across connections, so spans keep them apart.
  uint64_t id = static_cast<uint64_t>(index) * 1'000'000'000ull;
  cqa::Rng rng(in.seed * 1000 + static_cast<uint64_t>(index) + 1);
  Schedule schedule(in.groups, static_cast<size_t>(index) * 7);
  // Timed warm-up (untimed ops) until the window opens: the first seconds
  // of a fresh daemon run measurably slower, and the stream pool is larger
  // than the cache, so it cannot be warmed by visiting it once.
  while (Clock::now() < w->start) {
    if (!DoOp(w, &c, schedule.Next(&rng), ++id, false, &t)) break;
  }
  while (Clock::now() < w->end) {
    if (!DoOp(w, &c, schedule.Next(&rng), ++id, true, &t)) {
      t.mismatches.push_back("reader lost its connection");
      break;
    }
  }
  Merge(w, &t);
}

void WriterLoop(Window* w, uint16_t port) {
  const Inputs& in = *w->in;
  Tally t;
  cqa::NetClient c;
  if (!c.Connect("127.0.0.1", port, kIo).ok()) {
    t.mismatches.push_back("writer could not connect");
    Merge(w, &t);
    return;
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(in.delta_period_ms));
  std::this_thread::sleep_until(w->start);
  for (uint64_t d = 1;; ++d) {
    const Clock::time_point due = w->start + period * static_cast<int64_t>(d);
    if (due >= w->end) break;
    std::this_thread::sleep_until(due);
    ++t.attempted;
    // How late the paced writer sends (it falls behind when an ack takes
    // longer than the period).
    t.delta_late_us.Add(UsSince(due, Clock::now()));
    w->deltas_sent.store(d);
    cqa::Result<cqa::WireResponse> r =
        c.SendFrame(DeltaFrame(in, d, d), kIo).ok()
            ? ReadUntil(&c, d, "delta_ack")
            : cqa::Result<cqa::WireResponse>::Error(cqa::ErrorCode::kInternal,
                                                    "send failed");
    const Clock::time_point t1 = Clock::now();
    if (!r.ok() || r->type != "delta_ack") {
      ++t.failed;
      t.mismatches.push_back("delta " + std::to_string(d) + " not acked");
      break;
    }
    w->deltas_acked.store(d);
    // Every ack carries the post-delta fingerprint: the toggled digest
    // after an insert, the untouched base digest after the delete.
    const Toggle& tg = ToggleOf(in, d);
    const std::string want = d % 2 == 1 ? tg.toggled_fingerprint
                                        : in.tenants[tg.tenant].fingerprint;
    const cqa::Json* fp = r->raw.Find("fingerprint");
    if (fp == nullptr || fp->AsString() != want) {
      t.mismatches.push_back("delta " + std::to_string(d) +
                             ": ack fingerprint differs from the replay");
    }
    ++t.deltas;
    t.delta_us.Add(UsSince(due, t1));
    // Timed from when the delta was due, so a writer that falls behind
    // reads as slower deltas and fewer of them, never as faster solves.
    AddPrimary(*w, t1, UsSince(due, t1), &t);
    if (w->record_spans) {
      t.spans.push_back({"client.delta", due, t1, -1, (1ull << 39) + d});
    }
  }
  Merge(w, &t);
}

// After the window: the daemon's fingerprints (db_list) must equal an
// in-process replay of the acked deltas, re-digested from scratch.
void CheckFinalFingerprints(const Inputs& in, uint64_t acked,
                            cqa::NetClient* admin, RunResult* run) {
  std::vector<std::shared_ptr<cqa::Database>> replay;
  for (const Tenant& t : in.tenants) replay.push_back(t.db->CloneWithIndexes());
  for (uint64_t d = 1; d <= acked; ++d) {
    const Toggle& tg = ToggleOf(in, d);
    cqa::Database& db = *replay[tg.tenant];
    for (const cqa::DeltaOp& op : d % 2 == 1 ? tg.inserts : tg.deletes) {
      cqa::Tuple vals;
      for (const std::string& v : op.values) vals.push_back(cqa::Value::Of(v));
      const cqa::Symbol rel = cqa::InternSymbol(op.relation);
      if (op.insert) {
        (void)db.AddFactIncremental(rel, vals);
      } else {
        db.RemoveFactIncremental(rel, vals);
      }
    }
  }
  if (!admin->SendFrame(R"({"type":"list","id":7})", kIo).ok()) {
    run->Mismatch("list frame not sent");
    return;
  }
  cqa::Result<cqa::WireResponse> r = ReadUntil(admin, 7, "db_list");
  const cqa::Json* dbs = r.ok() ? r->raw.Find("databases") : nullptr;
  if (dbs == nullptr) {
    run->Mismatch("no db_list after the run");
    return;
  }
  for (const cqa::Json& entry : dbs->AsArray()) {
    const std::string name = entry.Find("name")->AsString();
    for (size_t i = 0; i < in.tenants.size(); ++i) {
      if (in.tenants[i].name != name) continue;
      cqa::Result<cqa::Database> fresh =
          cqa::Database::FromText(replay[i]->ToText());
      const std::string want =
          fresh.ok() ? cqa::FingerprintDatabase(*fresh).ToHex() : "";
      if (entry.Find("fingerprint")->AsString() != want) {
        run->Mismatch(name + ": daemon fingerprint differs from the replay of " +
                      std::to_string(acked) + " acked deltas");
      }
    }
  }
}

// Primary-op latency grouped by pool entry family (variants of one base
// stream and its chunk sizes fold together), so a reader can see which
// inputs a percentile comes from.
void PrintPerEntry(const Inputs& in, DriveResult* d) {
  std::map<std::string, std::vector<double>> groups;
  for (const auto& [e, us] : d->per_entry_us) {
    std::string label = in.pool[e].label;
    if (in.pool[e].kind == OpKind::kAnswers) {
      const size_t hash = label.find('#');
      const size_t dash = label.find('-');
      label = label.substr(0, std::min(dash, hash)) + label.substr(hash);
    }
    groups[label].push_back(us);
  }
  std::printf("   by input (p50 us, p90 us, sampled n):");
  int col = 0;
  for (auto& [label, v] : groups) {
    if (col++ % 3 == 0) std::printf("\n     ");
    const double p50 = Percentile(&v, 0.5);
    std::printf(" %-24s %8.0f %8.0f %6zu", label.c_str(), p50, Percentile(&v, 0.9),
                v.size());
  }
  std::printf("\n");
}

}  // namespace

std::string RequestFrame(const PoolEntry& e, const Tenant& t, uint64_t id) {
  cqa::JsonObjectBuilder b;
  b.Set("type", e.kind == OpKind::kSolve ? "solve" : "answers")
      .Set("id", id).Set("query", e.query).Set("db", t.name);
  if (e.method != "auto") b.Set("method", e.method);
  if (e.parallelism > 0) b.Set("parallelism", static_cast<int64_t>(e.parallelism));
  if (e.bypass) b.Set("cache", "bypass");
  if (e.kind == OpKind::kAnswers) {
    cqa::Json::Array free;
    for (const std::string& v : e.free) free.push_back(cqa::Json::MakeString(v));
    b.Set("free", cqa::Json::MakeArray(std::move(free))).Set("max_chunk", e.max_chunk);
  }
  return b.Build().Serialize();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

DriveResult DriveDaemon(const Inputs& in, const DriveConfig& cfg,
                        RunResult* run) {
  DriveResult out;
  std::unique_ptr<cqa::SolveDaemon> daemon;
  std::unique_ptr<cqa::NetClient> admin;
  // A fresh journal directory per set-up, all made before the first one
  // is timed: no file-system work between set-ups.
  const size_t setups = static_cast<size_t>(cfg.setups);
  std::vector<std::string> journal_dirs(setups);
  if (!cfg.journal_dir.empty()) {
    std::filesystem::remove_all(cfg.journal_dir);
    for (size_t s = 0; s < setups; ++s) {
      journal_dirs[s] = cfg.journal_dir + "/" + std::to_string(s);
      std::filesystem::create_directories(journal_dirs[s]);
    }
  }
  auto shut_down = [&] {
    admin.reset();
    if (daemon) daemon->Shutdown(milliseconds(5'000));
    daemon.reset();
  };
  // One timed set-up: daemon construction and Start through the last
  // attach_ack. Returns false (with a mismatch) if the daemon cannot serve.
  auto set_up = [&](size_t s) {
    shut_down();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<cqa::SolveDaemon>(MakeDaemonOptions(journal_dirs[s]));
    if (!daemon->Start().ok()) {
      run->Mismatch("daemon did not start");
      return false;
    }
    admin = std::make_unique<cqa::NetClient>();
    if (!admin->Connect("127.0.0.1", daemon->port(), kIo).ok()) {
      run->Mismatch("admin client could not connect");
      return false;
    }
    // One attach at a time: pipelined, the attaches run concurrently on
    // the daemon's admin threads, and set-up times spread twice as wide.
    for (size_t i = 0; i < in.tenants.size(); ++i) {
      if (!admin->SendFrame(AttachFrame(in.tenants[i], i + 1), kIo).ok()) {
        run->Mismatch("attach frame not sent");
        return false;
      }
      cqa::Result<cqa::WireResponse> r = ReadUntil(admin.get(), i + 1, "attach_ack");
      const cqa::Json* fp = r.ok() ? r->raw.Find("fingerprint") : nullptr;
      if (fp == nullptr || fp->AsString() != in.tenants[i].fingerprint) {
        run->Mismatch(in.tenants[i].name + ": attach_ack fingerprint differs");
        return false;
      }
    }
    out.setup_s.push_back(UsSince(t0, Clock::now()) / 1e6);
    return true;
  };
  // The last set-up before the window serves it.
  const size_t before = SetupsBefore(setups);
  for (size_t s = 0; s < before; ++s) {
    if (!set_up(s)) {
      shut_down();
      return out;
    }
  }

  Window w;
  w.in = &in;
  w.run = run;
  w.out = &out;
  w.record_spans = cfg.record_spans;
  const bool streams = in.pool[0].kind == OpKind::kAnswers;
  std::vector<std::thread> threads;
  // Solve warm-up (untimed) visits every pool entry once, split across
  // the readers, before the window is placed.
  if (!streams) {
    Window pre;
    pre.in = &in;
    pre.run = run;
    DriveResult scratch;
    pre.out = &scratch;
    pre.start = pre.end = Clock::now();
    for (int i = 0; i < in.def->readers; ++i) {
      threads.emplace_back([&, i] {
        Tally t;
        cqa::NetClient c;
        if (c.Connect("127.0.0.1", daemon->port(), kIo).ok()) {
          uint64_t id = 1'000'000;
          for (size_t e = static_cast<size_t>(i); e < in.pool.size();
               e += static_cast<size_t>(in.def->readers)) {
            if (!DoOp(&pre, &c, e, ++id, false, &t)) break;
          }
        }
        Merge(&pre, &t);
      });
    }
    for (std::thread& th : threads) th.join();
    threads.clear();
  }
  w.start = Clock::now() + std::chrono::milliseconds(kWarmupMs);
  w.end = w.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(cfg.seconds));
  for (int i = 0; i < in.def->readers; ++i) {
    threads.emplace_back(ReaderLoop, &w, daemon->port(), i);
  }
  if (in.def->writers > 0) threads.emplace_back(WriterLoop, &w, daemon->port());
  for (std::thread& th : threads) th.join();
  out.window_s = UsSince(w.start, Clock::now()) / 1e6;

  if (in.def->writers > 0) {
    CheckFinalFingerprints(in, w.deltas_acked.load(), admin.get(), run);
  }
  if (admin->SendFrame(R"({"type":"stats","id":8})", kIo).ok()) {
    cqa::Result<cqa::WireResponse> r = ReadUntil(admin.get(), 8, "stats");
    if (r.ok()) out.stats = r->raw;
  }
  for (size_t s = before; s < setups; ++s) {
    if (!set_up(s)) break;
  }
  shut_down();
  if (!cfg.journal_dir.empty()) std::filesystem::remove_all(cfg.journal_dir);
  return out;
}

RunResult RunEndToEnd(const Inputs& in, const RunOptions& opts) {
  RunResult run;
  DriveConfig cfg;
  cfg.seconds = opts.seconds;
  if (in.def->writers > 0) cfg.journal_dir = opts.workdir + "/journal";
  DriveResult d = DriveDaemon(in, cfg, &run);
  run.attempted = d.attempted;
  run.failed = d.failed;
  const PrimaryOp primary = in.primary();
  const uint64_t n = primary == PrimaryOp::kStream  ? d.streams
                     : primary == PrimaryOp::kDelta ? d.deltas
                                                    : d.solves;

  // The gated metrics (BENCHMARK.json) are figures of the primary op: a
  // solve, a paced delta on fo_write, or a whole stream on answers_stream.
  // Its percentiles are medians over the sub-windows, taken from a uniform
  // sample of at most 65536 ops per connection; its rate counts every op of
  // the whole window (a sub-window holds too few of the slow solves and
  // streams for a steady rate).
  std::vector<std::vector<double>> sub_us(kSubWindows);
  for (const auto& [sub, us] : d.primary_us) sub_us[sub].push_back(us);
  std::vector<double> p50s, p90s, rates;
  const double sub_s = opts.seconds / kSubWindows;
  for (size_t i = 0; i < kSubWindows; ++i) {
    p50s.push_back(Percentile(&sub_us[i], 0.50));
    p90s.push_back(Percentile(&sub_us[i], 0.90));
    rates.push_back(static_cast<double>(d.primary_done[i]) / sub_s);
  }
  run.metrics["setup_s"] = {Median(d.setup_s), "s", d.setup_s.size()};
  run.metrics["op_p50_us"] = {Median(p50s), "us", n};
  run.metrics["op_p90_us"] = {Median(p90s), "us", n};
  run.metrics["ops_per_s"] = {static_cast<double>(n) / d.window_s, "1/s", n};
  run.metrics["ok_frac"] = {
      d.attempted ? 1.0 - static_cast<double>(d.failed) /
                              static_cast<double>(d.attempted)
                  : 0.0,
      "ratio", d.attempted};
  run.metrics["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
  std::printf("== gated (%s): medians over %zu sub-windows of %.1f s\n",
              in.def->name, kSubWindows, sub_s);
  for (size_t i = 0; i < kSubWindows; ++i) {
    std::printf("   sub-window %zu: op p50 %.1f us, p90 %.1f us, %.1f ops/s\n",
                i, p50s[i], p90s[i], rates[i]);
  }

  // Every end-to-end metric the workload's ops produce, by name.
  std::printf("== end-to-end (%s, %.2f s window)\n", in.def->name, d.window_s);
  auto row = [](const char* name, double v, const char* unit, uint64_t n) {
    std::printf("   %-20s %14.3f %-6s n=%llu\n", name, v, unit,
                static_cast<unsigned long long>(n));
  };
  auto pct = [&](const char* name, std::vector<double>* v, uint64_t count,
                 double p, double scale, const char* unit) {
    // A tail percentile needs at least 10 samples beyond it.
    const double need = p > 0.5 ? 10.0 / (1.0 - p) : 1;
    if (static_cast<double>(count) < need) {
      std::printf("   %-20s %14s %-6s n=%llu (< %.0f samples)\n", name, "-",
                  unit, static_cast<unsigned long long>(count), need);
    } else {
      row(name, Percentile(v, p) / scale, unit, count);
    }
  };
  row("setup_s", Median(d.setup_s), "s", d.setup_s.size());
  const auto half =
      d.setup_s.begin() + static_cast<ptrdiff_t>(SetupsBefore(d.setup_s.size()));
  std::vector<double> setups = d.setup_s;
  std::printf("   set-ups (s): median %.4f before the window, %.4f after; "
              "min %.4f, max %.4f\n",
              Median({d.setup_s.begin(), half}), Median({half, d.setup_s.end()}),
              Percentile(&setups, 0), Percentile(&setups, 1));
  if (d.solves > 0) {
    pct("solve_p50_us", &d.solve_us, d.solves, 0.5, 1, "us");
    pct("solve_p99_us", &d.solve_us, d.solves, 0.99, 1, "us");
    row("solve_per_s", static_cast<double>(d.solves) / d.window_s, "1/s",
        d.solves);
  }
  if (d.deltas > 0) {
    pct("delta_p50_us", &d.delta_us, d.deltas, 0.5, 1, "us");
    pct("delta_p99_us", &d.delta_us, d.deltas, 0.99, 1, "us");
    pct("delta_late_p50_us", &d.delta_late_us, d.deltas, 0.5, 1, "us");
    row("delta_late_max_us", Percentile(&d.delta_late_us, 1.0), "us", d.deltas);
  }
  if (d.streams > 0) {
    pct("stream_p50_ms", &d.stream_us, d.streams, 0.5, 1e3, "ms");
    pct("stream_p90_ms", &d.stream_us, d.streams, 0.9, 1e3, "ms");
    pct("first_chunk_p50_us", &d.first_chunk_us, d.streams, 0.5, 1, "us");
    row("tuples_per_s", static_cast<double>(d.tuples) / d.window_s, "1/s",
        d.tuples);
  }
  row("error_frac", 1.0 - run.metrics["ok_frac"].value, "ratio", d.attempted);
  auto stat = [&](const char* key) {
    return static_cast<unsigned long long>(ServiceStat(d.stats, key));
  };
  std::printf("   cache (all shards): hits %llu, misses %llu, bypass %llu, "
              "evictions %llu, invalidated %llu, rekeyed %llu\n",
              stat("cache_hits"), stat("cache_misses"), stat("cache_bypass"),
              stat("cache_evictions"), stat("cache_invalidated"),
              stat("cache_rekeyed"));
  row("peak_rss_mb", PeakRssMb(), "MB", 1);
  PrintPerEntry(in, &d);
  return run;
}

}  // namespace perfbench
