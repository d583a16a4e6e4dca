// The traced run: the workload's own inputs sent through each layer's
// public functions, one span per call, reported as per-layer self time
// (a span's duration minus the time its child spans cover). Its
// end-to-end numbers are never reported.
//
// Phases, sharing the --seconds budget:
//  1. attach in process: parse + build + block index, then fingerprint;
//  2. the wire: a daemon window (a quarter) with client-side spans, for the
//     frame-side split (service time, wire time) and the cache and shed
//     counters from the stats frame;
//  3. an in-process SolveService replay for queue wait;
//  4. the layer loop: requests drawn like the workload's, each through
//     decode, parse, cache key, classification, the solve and the engines
//     it dispatches to, answer enumeration, delta apply + journal append
//     and encode, every engine's verdict checked against the reference;
//  5. the tracing overhead: the layer loop's requests again (a quarter),
//     each run once with spans recorded and once with a no-op recorder;
//  6. fixed probes on the largest poll tenant for any layer the workload
//     does not reach, which also answer two standing questions: FO
//     evaluation vs Algorithm 1 vs backtracking on poll qa, and chunk time
//     against max_chunk.
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench.h"
#include "cqa/answers/enumerator.h"
#include "cqa/attack/classification.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/cache/query_key.h"
#include "cqa/cache/result_cache.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/matching_q1.h"
#include "cqa/delta/journal.h"
#include "cqa/fo/eval.h"
#include "cqa/parallel/parallel_solver.h"
#include "cqa/query/parser.h"
#include "cqa/rewriting/algorithm1.h"
#include "cqa/rewriting/rewriter.h"
#include "cqa/serve/net/protocol.h"
#include "cqa/serve/service.h"

namespace perfbench {

namespace {

using cqa::Database;
using cqa::Query;

// In-memory spans of one thread. `Scope` opens a span as a child of the
// innermost open one and closes it on destruction. A disabled recorder
// records nothing; it is the baseline of the tracing overhead.
class Recorder {
 public:
  class Scope {
   public:
    Scope(Recorder* r, const char* name)
        : r_(r->enabled_ ? r : nullptr), idx_(r->spans.size()) {
      if (r_ == nullptr) return;
      const int64_t parent = r->open_.empty() ? -1 : r->open_.back();
      r->spans.push_back({name, Clock::now(), {}, parent, r->request_});
      r->open_.push_back(static_cast<int64_t>(idx_));
    }
    ~Scope() {
      if (r_ == nullptr) return;
      r_->spans[idx_].end = Clock::now();
      r_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* r_;
    size_t idx_;
  };

  explicit Recorder(bool enabled = true) : enabled_(enabled) {}

  void BeginRequest(uint64_t id) { request_ = id; }

  std::vector<Span> spans;

 private:
  bool enabled_;
  std::vector<int64_t> open_;
  uint64_t request_ = 0;
};

// Requests at or above this id are probes, not the workload's own inputs.
constexpr uint64_t kProbeBase = 1ull << 40;

// Per-call counters and stream totals, kept apart for the workload's own
// requests and for the probes.
struct LayerTotals {
  struct Side {
    std::map<std::string, std::vector<double>> counts;
    uint64_t answers = 0, scanned = 0, tuple_bytes = 0, tuples = 0;
  };
  Side own, probe;
  bool probing = false;
  Side& side() { return probing ? probe : own; }
  uint64_t attempted = 0;
};

std::string Verdict(bool certain) { return certain ? "certain" : "not-certain"; }

void Check(RunResult* run, const std::string& label, const char* engine,
           const std::string& got, const std::string& want) {
  if (got != want) {
    run->Mismatch(label + ": " + engine + " says " + got + ", expected " + want);
  }
}

// Current epoch per tenant: deltas in the layer loop replace it.
struct Epochs {
  std::vector<std::shared_ptr<const Database>> db;
  std::vector<cqa::DbFingerprint> fp;
  uint64_t applied = 0;  // toggle deltas applied so far
};

// The engines a solve dispatches to, each in its own span, each checked.
void TraceEngines(Recorder* rec, const PoolEntry& e, const Query& q,
                  const Database& db, const std::string& want, bool cyclic,
                  LayerTotals* lt, RunResult* run) {
  cqa::Budget budget;
  if (!cyclic) {
    cqa::Result<cqa::Rewriting> rw = [&] {
      Recorder::Scope s(rec, "rewriting.build");
      return cqa::RewriteCertain(q);
    }();
    if (rw.ok()) {
      cqa::Result<bool> v = [&] {
        Recorder::Scope s(rec, "fo.eval");
        return cqa::EvalFoGoverned(rw->formula, db, &budget);
      }();
      Check(run, e.label, "fo-rewriting", v.ok() ? Verdict(*v) : v.error(), want);
    }
    cqa::Algorithm1 alg(db);
    cqa::Result<bool> a = [&] {
      Recorder::Scope s(rec, "rewriting.algorithm1");
      return alg.IsCertain(q);
    }();
    lt->side().counts["rewriting.algorithm1_calls"].push_back(
        static_cast<double>(alg.calls()));
    Check(run, e.label, "algorithm1", a.ok() ? Verdict(*a) : a.error(), want);
    return;
  }
  if (cqa::DetectQ1Shape(q)) {
    std::optional<bool> m = [&] {
      Recorder::Scope s(rec, "certainty.matching");
      return cqa::IsCertainQ1ByMatching(q, db);
    }();
    Check(run, e.label, "matching", m ? Verdict(*m) : "unsupported", want);
    return;
  }
  cqa::Result<cqa::BacktrackingReport> b = [&] {
    Recorder::Scope s(rec, "certainty.backtracking");
    return cqa::SolveCertainBacktracking(q, db);
  }();
  if (b.ok()) {
    lt->side().counts["certainty.backtracking_nodes"].push_back(
        static_cast<double>(b->nodes));
  }
  Check(run, e.label, "backtracking", b.ok() ? Verdict(b->certain) : b.error(),
        want);
  if (e.parallelism >= 2) {
    cqa::ParallelOptions popts;
    popts.parallelism = e.parallelism;
    cqa::Result<cqa::ParallelReport> p = [&] {
      Recorder::Scope s(rec, "parallel.solve");
      return cqa::SolveCertainParallel(q, db, popts);
    }();
    if (p.ok()) {
      lt->side().counts["parallel.components"].push_back(p->components);
      lt->side().counts["parallel.steals"].push_back(static_cast<double>(p->steals));
      lt->side().counts["parallel.steps"].push_back(static_cast<double>(p->steps));
    }
    Check(run, e.label, "parallel", p.ok() ? Verdict(p->certain) : p.error(),
          want);
  }
}

const char* ChunkSpanName(uint64_t max_chunk) {
  switch (max_chunk) {
    case 16: return "answers.chunk.16";
    case 64: return "answers.chunk.64";
    case 256: return "answers.chunk.256";
    default: return "answers.chunk.other";
  }
}

// One request of the workload through every layer it touches.
void TraceRequest(Recorder* rec, const Inputs& in, const PoolEntry& e,
                  const Database& db, const cqa::DbFingerprint& fp,
                  const std::string& want_verdict, uint64_t id,
                  LayerTotals* lt, RunResult* run) {
  const Tenant& tenant = in.tenants[e.tenant];
  const std::string frame = RequestFrame(e, tenant, id);
  rec->BeginRequest(id);
  Recorder::Scope request(rec, "request");
  {
    Recorder::Scope s(rec, "net.codec");
    (void)cqa::DecodeRequest(frame);
  }
  cqa::Result<Query> parsed = [&] {
    Recorder::Scope s(rec, "query.parse");
    return cqa::ParseQuery(e.query);
  }();
  if (!parsed.ok()) {
    run->Mismatch(e.label + ": does not parse");
    return;
  }
  const Query& q = *parsed;
  cqa::Result<cqa::SolverMethod> method = cqa::ParseSolverMethod(e.method);
  {
    Recorder::Scope s(rec, "cache.key");
    (void)cqa::CanonicalQueryKey(q);
    if (e.kind == OpKind::kSolve) {
      (void)cqa::MakeCacheKey(fp, *method, q);
    } else {
      (void)cqa::MakeAnswersCacheKey(fp, *method, q, e.free, 0, e.max_chunk);
    }
  }
  const cqa::Classification cls = [&] {
    Recorder::Scope s(rec, "attack.classify");
    return cqa::Classify(q);
  }();
  const bool cyclic = cls.cls != cqa::CertaintyClass::kFO;

  if (e.kind == OpKind::kSolve) {
    cqa::SolveOptions sopts;
    sopts.method = *method;
    sopts.parallelism = std::max(1, e.parallelism);
    cqa::Result<cqa::SolveReport> report = [&] {
      Recorder::Scope s(rec, "certainty.solve");
      return cqa::SolveCertainty(q, db, sopts);
    }();
    Check(run, e.label, "SolveCertainty",
          report.ok() ? cqa::ToString(report->verdict) : report.error(),
          want_verdict);
    TraceEngines(rec, e, q, db, want_verdict, cyclic, lt, run);
    if (report.ok()) {
      Recorder::Scope s(rec, "net.codec");
      const std::string out = cqa::EncodeResultFrame(
          id, *report, 1, std::chrono::microseconds(0));
      (void)cqa::DecodeResponse(out);
    }
    return;
  }

  std::vector<cqa::Symbol> free;
  for (const std::string& v : e.free) free.push_back(cqa::InternSymbol(v));
  {
    Recorder::Scope s(rec, "certainty.candidates");
    (void)cqa::CertainAnswerCandidates(q, free, db);
  }
  std::vector<std::string> rows;
  cqa::EnumerateOptions eopts;
  eopts.max_chunk = e.max_chunk;
  const char* chunk_span = ChunkSpanName(e.max_chunk);
  while (true) {
    cqa::Result<cqa::AnswerChunk> chunk = [&] {
      Recorder::Scope s(rec, chunk_span);
      return cqa::EnumerateAnswerChunk(q, free, db, eopts);
    }();
    if (!chunk.ok()) {
      run->Mismatch(e.label + ": chunk failed: " + chunk.error());
      return;
    }
    LayerTotals::Side& side = lt->side();
    side.answers += chunk->answers.size();
    side.scanned += chunk->next - chunk->start;
    {
      Recorder::Scope s(rec, "net.codec");
      const std::string out = cqa::EncodeAnswerChunkFrame(id, *chunk, "");
      side.tuple_bytes += out.size() + 1;  // the frame and its newline
      side.tuples += chunk->answers.size();
      (void)cqa::DecodeResponse(out);
    }
    for (const cqa::Tuple& t : chunk->answers) {
      std::vector<std::string> vals;
      for (const cqa::Value& v : t) vals.push_back(v.name());
      rows.push_back(RowKey(vals));
    }
    if (chunk->done) break;
    eopts.start = chunk->next;
  }
  if (e.rows && !RowsMatch(e, rows)) {
    run->Mismatch(e.label + ": " + std::to_string(rows.size()) +
                  " traced answers differ from the reference");
  }
}

// One toggle delta (the workload's batch) applied to the current epoch and
// journaled with the daemon's fsync policy.
void TraceDelta(Recorder* rec, const Inputs& in, Epochs* ep,
                cqa::DeltaJournal* journal, uint64_t id, RunResult* run) {
  const uint64_t d = ++ep->applied;
  const Toggle& tg = ToggleOf(in, d);
  cqa::FactDelta delta{"toggle-" + std::to_string(d),
                       d % 2 == 1 ? tg.inserts : tg.deletes};
  rec->BeginRequest(id);
  Recorder::Scope request(rec, "request");
  cqa::Result<cqa::DeltaApplyOutcome> out = [&] {
    Recorder::Scope s(rec, "delta.apply");
    return cqa::ApplyDeltaToDatabase(*ep->db[tg.tenant], delta);
  }();
  if (!out.ok()) {
    run->Mismatch("delta " + std::to_string(d) + ": " + out.error());
    return;
  }
  {
    Recorder::Scope s(rec, "delta.journal_append");
    if (!journal->Append(delta, out->fingerprint, d).ok()) {
      run->Mismatch("journal append failed");
    }
  }
  const std::string want = d % 2 == 1 ? tg.toggled_fingerprint
                                      : in.tenants[tg.tenant].fingerprint;
  if (out->fingerprint.ToHex() != want) {
    run->Mismatch("delta " + std::to_string(d) + ": fingerprint differs");
  }
  ep->db[tg.tenant] = out->db;
  ep->fp[tg.tenant] = out->fingerprint;
}

// serve.queue_us: the workload's requests (streams as Boolean solves of
// the same query) through an in-process SolveService configured like a
// daemon shard but without the result cache — a cached report carries the
// stage timings of the solve that filled it — with two closed-loop
// submitters; queue wait is the response latency minus the summed stage
// time.
std::vector<double> ReplayQueue(const Inputs& in, double seconds,
                                uint64_t* shed) {
  cqa::ServiceOptions o;
  o.workers = kShardWorkers;
  o.queue_capacity = 64;
  o.cache_entries = 0;
  o.warm_state = true;
  o.isolation = cqa::IsolationMode::kInproc;
  cqa::SolveService service(o);
  std::vector<Query> queries;
  for (const PoolEntry& e : in.pool) queries.push_back(*cqa::ParseQuery(e.query));
  std::mutex mu;
  std::vector<double> queue_us;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  auto submitter = [&](uint64_t seed) {
    cqa::Rng rng(seed);
    Schedule schedule(in.groups, static_cast<size_t>(seed % 7));
    std::vector<double> local;
    while (Clock::now() < end) {
      const size_t i = schedule.Next(&rng);
      const PoolEntry& e = in.pool[i];
      cqa::ServeJob job(queries[i], in.tenants[e.tenant].db);
      job.method = *cqa::ParseSolverMethod(e.method);
      job.parallelism = e.parallelism;
      std::mutex done_mu;
      std::condition_variable cv;
      bool done = false;
      double q_us = 0;
      cqa::Result<uint64_t> id =
          service.Submit(std::move(job), [&](const cqa::ServeResponse& r) {
            double stages = 0;
            if (r.result.ok()) {
              for (const cqa::SolveStage& s : r.result->stages) {
                stages += static_cast<double>(s.elapsed.count());
              }
            }
            std::lock_guard<std::mutex> lock(done_mu);
            q_us = static_cast<double>(r.latency.count()) - stages;
            done = true;
            cv.notify_one();
          });
      if (!id.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++*shed;
        continue;
      }
      std::unique_lock<std::mutex> lock(done_mu);
      cv.wait(lock, [&] { return done; });
      local.push_back(q_us);
    }
    std::lock_guard<std::mutex> lock(mu);
    queue_us.insert(queue_us.end(), local.begin(), local.end());
  };
  std::thread a(submitter, in.seed * 31 + 1), b(submitter, in.seed * 31 + 2);
  a.join();
  b.join();
  service.Shutdown(std::chrono::milliseconds(5'000));
  return queue_us;
}

}  // namespace

RunResult RunTraced(const Inputs& in, const RunOptions& opts) {
  RunResult run;
  Recorder rec;
  LayerTotals lt;
  const Clock::time_point run_start = Clock::now();

  // 1. attach, in process.
  uint64_t facts = 0, blocks = 0;
  for (size_t t = 0; t < in.tenants.size(); ++t) {
    rec.BeginRequest(t + 1);
    Recorder::Scope request(&rec, "request");
    std::shared_ptr<Database> db;
    {
      Recorder::Scope s(&rec, "db.attach");
      cqa::Result<Database> parsed = Database::FromText(in.tenants[t].facts_text);
      if (!parsed.ok()) {
        run.Mismatch(in.tenants[t].name + ": does not parse");
        continue;
      }
      db = std::make_shared<Database>(std::move(*parsed));
      (void)db->blocks();
    }
    cqa::DbFingerprint fp = [&] {
      Recorder::Scope s(&rec, "cache.fingerprint");
      return cqa::FingerprintDatabase(*db);
    }();
    if (fp.ToHex() != in.tenants[t].fingerprint) {
      run.Mismatch(in.tenants[t].name + ": fingerprint differs");
    }
    facts += db->NumFacts();
    blocks += db->NumBlocks();
  }

  // 2. the wire, with client-side spans.
  DriveConfig cfg;
  cfg.seconds = opts.seconds / 4;
  cfg.setups = 1;
  cfg.record_spans = true;
  if (in.def->writers > 0) cfg.journal_dir = opts.workdir + "/journal";
  const bool streams = in.pool[0].kind == OpKind::kAnswers;
  DriveResult traced = DriveDaemon(in, cfg, &run);

  // 3. queue replay.
  uint64_t shed = 0;
  std::vector<double> queue_us = ReplayQueue(in, opts.seconds / 8, &shed);

  // 4. the layer loop.
  Epochs ep;
  for (const Tenant& t : in.tenants) {
    ep.db.push_back(t.db);
    ep.fp.push_back(cqa::FingerprintDatabase(*t.db));
  }
  const Epochs base = ep;
  std::filesystem::create_directories(opts.workdir);
  const std::string journal_path = opts.workdir + "/traced.journal";
  std::filesystem::remove(journal_path);
  cqa::JournalOptions jopts;
  jopts.fsync = cqa::FsyncPolicy::kAlways;
  cqa::Result<std::unique_ptr<cqa::DeltaJournal>> opened =
      cqa::DeltaJournal::Open(journal_path, jopts);
  if (!opened.ok()) {
    run.Mismatch("journal: " + opened.error());
    return run;
  }
  std::unique_ptr<cqa::DeltaJournal> journal = std::move(opened.value());
  const uint64_t draw_seed = in.seed * 1000 + 77;
  cqa::Rng rng(draw_seed);
  Schedule schedule(in.groups, 0);
  const Clock::time_point loop_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds * 3 / 8));
  uint64_t id = 1000;
  const size_t kMaxRequests = 20'000;  // bounds the span dump
  Clock::time_point next_delta = Clock::now();
  const auto delta_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(in.delta_period_ms));
  while (Clock::now() < loop_end && id < 1000 + kMaxRequests) {
    if (!in.toggles.empty() && Clock::now() >= next_delta) {
      TraceDelta(&rec, in, &ep, journal.get(), ++id, &run);
      next_delta += delta_period;
      ++lt.attempted;
      continue;
    }
    const PoolEntry& e = in.pool[schedule.Next(&rng)];
    const std::string want =
        e.kind == OpKind::kSolve
            ? e.verdicts[StateAfter(ep.applied, in.toggles.size())]
            : "";
    TraceRequest(&rec, in, e, *ep.db[e.tenant], ep.fp[e.tenant], want, ++id,
                 &lt, &run);
    ++lt.attempted;
  }

  // 5. tracing overhead: the layer loop's draws again, on the base state,
  // each timed whole once with spans recorded and once with a disabled
  // recorder, alternating which goes first. The overhead is the median of
  // the per-request ratios: requests differ in cost by orders of magnitude,
  // and pairing takes that out.
  std::vector<double> with_spans_us, no_op_us, overhead;
  {
    Recorder on, off(false);
    LayerTotals scratch;
    cqa::Rng replay_rng(draw_seed);
    Schedule replay(in.groups, 0);
    const Clock::time_point replay_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts.seconds / 4));
    for (uint64_t i = 0; Clock::now() < replay_end && i < kMaxRequests; ++i) {
      const PoolEntry& e = in.pool[replay.Next(&replay_rng)];
      const std::string want = e.kind == OpKind::kSolve ? e.verdicts[0] : "";
      for (int pass = 0; pass < 2; ++pass) {
        const bool spans = (pass + i) % 2 == 0;
        Recorder* r = spans ? &on : &off;
        const Clock::time_point t0 = Clock::now();
        TraceRequest(r, in, e, *base.db[e.tenant], base.fp[e.tenant], want, ++id,
                     &scratch, &run);
        (spans ? with_spans_us : no_op_us).push_back(UsSince(t0, Clock::now()));
        on.spans.clear();
      }
      overhead.push_back(with_spans_us.back() / no_op_us.back());
      lt.attempted += 2;
    }
  }

  // 6. probes on the largest poll tenant.
  const size_t poll_index = LargestPollTenant(in.tenants);
  const Tenant& poll = in.tenants[poll_index];
  uint64_t probe_id = kProbeBase;
  lt.probing = true;
  {
    // FO: the rewriting vs Algorithm 1 vs backtracking, on poll qa.
    PoolEntry qa;
    qa.tenant = poll_index;
    qa.label = poll.name + "/qa(probe)";
    qa.query = "Lives(p | t), not Born(p | t), not Likes(p, t)";
    const Query q = *cqa::ParseQuery(qa.query);
    cqa::Result<cqa::BacktrackingReport> ref = cqa::SolveCertainBacktracking(q, *poll.db);
    const std::string want = ref.ok() ? Verdict(ref->certain) : "";
    for (int i = 0; i < 20; ++i) {
      rec.BeginRequest(++probe_id);
      Recorder::Scope request(&rec, "probe");
      {
        Recorder::Scope s(&rec, "certainty.solve");
        (void)cqa::SolveCertainty(q, *poll.db);
      }
      TraceEngines(&rec, qa, q, *poll.db, want, false, &lt, &run);
      Recorder::Scope s(&rec, "certainty.backtracking");
      (void)cqa::SolveCertainBacktracking(q, *poll.db);
    }
    // Cyclic: matching on q1, backtracking + component parallelism on q2.
    PoolEntry q1 = qa, q2 = qa;
    q1.label = poll.name + "/q1(probe)";
    q1.query = "Mayor(t | p), not Lives(p | t)";
    q2.label = poll.name + "/q2(probe)";
    q2.query = "Likes(p, t), not Lives(p | t), not Mayor(t | p)";
    q2.parallelism = 2;
    for (const PoolEntry* e : {&q1, &q2}) {
      const Query pq = *cqa::ParseQuery(e->query);
      cqa::ParallelOptions popts;
      cqa::Result<cqa::ParallelReport> pref = cqa::SolveCertainParallel(pq, *poll.db, popts);
      const std::string pwant = pref.ok() ? Verdict(pref->certain) : "";
      for (int i = 0; i < 10; ++i) {
        rec.BeginRequest(++probe_id);
        Recorder::Scope request(&rec, "probe");
        TraceEngines(&rec, *e, pq, *poll.db, pwant, true, &lt, &run);
      }
    }
    // Streams: poll qa with free p at every chunk size.
    cqa::Result<cqa::CertainAnswers> all =
        cqa::ComputeCertainAnswers(q, {cqa::InternSymbol("p")}, *poll.db);
    auto rows = std::make_shared<std::vector<std::string>>();
    if (all.ok()) {
      for (const cqa::Tuple& t : all->answers) rows->push_back(t[0].name());
    }
    for (uint64_t mc : {16, 64, 256}) {
      PoolEntry s = qa;
      s.kind = OpKind::kAnswers;
      s.free = {"p"};
      s.max_chunk = mc;
      s.rows = rows;
      for (int i = 0; i < 2; ++i) {
        TraceRequest(&rec, in, s, *poll.db, cqa::FingerprintDatabase(*poll.db),
                     "", ++probe_id, &lt, &run);
      }
    }
    // Deltas: the fo_write toggles on this workload's poll tenants.
    if (in.toggles.empty()) {
      Inputs probe_in;
      probe_in.tenants = in.tenants;
      probe_in.toggles = PollToggles(in.tenants, in.seed);
      Epochs pep;
      for (const Tenant& t : in.tenants) {
        pep.db.push_back(t.db);
        pep.fp.push_back(cqa::FingerprintDatabase(*t.db));
      }
      for (int i = 0; i < 20; ++i) {
        TraceDelta(&rec, probe_in, &pep, journal.get(), ++probe_id, &run);
      }
    }
  }
  const uint64_t fsyncs = journal->fsyncs();
  const uint64_t appends = journal->appends();
  journal.reset();
  std::filesystem::remove(journal_path);

  // Self time per span, and the nesting check: every span lies inside its
  // parent and shares its request id.
  std::vector<double> child_us(rec.spans.size(), 0);
  for (size_t i = 0; i < rec.spans.size(); ++i) {
    const Span& s = rec.spans[i];
    if (s.parent < 0) continue;
    const Span& p = rec.spans[static_cast<size_t>(s.parent)];
    if (s.start < p.start || s.end > p.end || s.request != p.request) {
      run.Mismatch(std::string("span ") + s.name + " escapes its parent " + p.name);
    }
    child_us[static_cast<size_t>(s.parent)] += UsSince(s.start, s.end);
  }
  std::map<std::string, std::vector<double>> own, probe;
  for (size_t i = 0; i < rec.spans.size(); ++i) {
    const Span& s = rec.spans[i];
    const double self = UsSince(s.start, s.end) - child_us[i];
    (s.request >= kProbeBase ? probe : own)[s.name].push_back(self);
  }

  // Per-layer metrics: the workload's own spans where it reaches the
  // layer, the probes otherwise.
  std::map<std::string, std::string> source;
  auto layer = [&](const std::string& metric, const std::vector<std::string>& spans,
                   double scale, const char* unit) {
    std::vector<double> v;
    std::string from = "own";
    for (const std::string& n : spans) {
      if (own.count(n)) v.insert(v.end(), own[n].begin(), own[n].end());
    }
    if (v.empty()) {
      from = "probe";
      for (const std::string& n : spans) {
        if (probe.count(n)) v.insert(v.end(), probe[n].begin(), probe[n].end());
      }
    }
    source[metric] = from;
    run.metrics[metric] = {Median(v) / scale, unit, v.size()};
  };
  auto count = [&](const std::string& metric, const char* unit) {
    const bool own_count = !lt.own.counts[metric].empty();
    std::vector<double>& v = (own_count ? lt.own : lt.probe).counts[metric];
    source[metric] = own_count ? "own" : "probe";
    run.metrics[metric] = {Median(v), unit, v.size()};
  };
  auto value = [&](const std::string& metric, double v, const char* unit,
                   uint64_t n, const char* from) {
    source[metric] = from;
    run.metrics[metric] = {v, unit, n};
  };
  layer("query.parse_us", {"query.parse"}, 1, "us");
  layer("db.attach_ms", {"db.attach"}, 1e3, "ms");
  value("db.facts", static_cast<double>(facts), "count", in.tenants.size(), "own");
  value("db.blocks", static_cast<double>(blocks), "count", in.tenants.size(), "own");
  layer("cache.key_us", {"cache.key"}, 1, "us");
  layer("cache.fingerprint_ms", {"cache.fingerprint"}, 1e3, "ms");
  const uint64_t hits = ServiceStat(traced.stats, "cache_hits");
  const uint64_t misses = ServiceStat(traced.stats, "cache_misses");
  const double deltas = static_cast<double>(std::max<uint64_t>(1, traced.deltas));
  value("cache.hit_ratio",
        hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
        "ratio", hits + misses, "stats frame");
  value("cache.invalidated",
        static_cast<double>(ServiceStat(traced.stats, "cache_invalidated")) / deltas,
        "count", traced.deltas, "stats frame, per delta");
  value("cache.rekeyed",
        static_cast<double>(ServiceStat(traced.stats, "cache_rekeyed")) / deltas,
        "count", traced.deltas, "stats frame, per delta");
  value("cache.evictions",
        static_cast<double>(ServiceStat(traced.stats, "cache_evictions")), "count",
        1, "stats frame");
  layer("attack.classify_us", {"attack.classify"}, 1, "us");
  layer("rewriting.build_us", {"rewriting.build"}, 1, "us");
  layer("rewriting.algorithm1_us", {"rewriting.algorithm1"}, 1, "us");
  count("rewriting.algorithm1_calls", "count");
  layer("fo.eval_us", {"fo.eval"}, 1, "us");
  layer("certainty.solve_us", {"certainty.solve"}, 1, "us");
  layer("certainty.matching_us", {"certainty.matching"}, 1, "us");
  layer("certainty.backtracking_us", {"certainty.backtracking"}, 1, "us");
  count("certainty.backtracking_nodes", "count");
  layer("certainty.candidates_us", {"certainty.candidates"}, 1, "us");
  layer("parallel.solve_us", {"parallel.solve"}, 1, "us");
  count("parallel.components", "count");
  count("parallel.steals", "count");
  count("parallel.steps", "count");
  layer("answers.chunk_us", {"answers.chunk.16", "answers.chunk.64",
                             "answers.chunk.256"}, 1, "us");
  layer("answers.chunk_us_16", {"answers.chunk.16"}, 1, "us");
  layer("answers.chunk_us_64", {"answers.chunk.64"}, 1, "us");
  layer("answers.chunk_us_256", {"answers.chunk.256"}, 1, "us");
  const bool own_answers = lt.own.scanned > 0;
  const LayerTotals::Side& ans = own_answers ? lt.own : lt.probe;
  const char* ans_from = own_answers ? "own" : "probe";
  value("answers.yield",
        ans.scanned ? static_cast<double>(ans.answers) / static_cast<double>(ans.scanned)
                    : 0,
        "ratio", ans.scanned, ans_from);
  layer("delta.apply_us", {"delta.apply"}, 1, "us");
  layer("delta.journal_append_us", {"delta.journal_append"}, 1, "us");
  value("delta.fsyncs",
        appends ? static_cast<double>(fsyncs) / static_cast<double>(appends) : 0,
        "count", appends, "journal, per append");
  std::vector<double> server_us = streams ? traced.stream_server_us
                                          : traced.solve_server_us;
  value("serve.service_us", Median(server_us), "us", server_us.size(),
        "frame latency_us");
  value("serve.queue_us", Median(queue_us), "us", queue_us.size(),
        "SolveService replay");
  value("serve.shed",
        static_cast<double>(ServiceStat(traced.stats, "shed") + shed), "count",
        1, "stats frame + replay");
  std::vector<double> wire = streams ? traced.stream_wire_us : traced.wire_us;
  value("net.wire_us", Median(wire), "us", wire.size(), "round trip - latency_us");
  layer("net.codec_us", {"net.codec"}, 1, "us");
  value("net.bytes_per_tuple",
        ans.tuples ? static_cast<double>(ans.tuple_bytes) / static_cast<double>(ans.tuples)
                   : 0,
        "B", ans.tuples, ans_from);
  value("trace.overhead_ratio", Median(overhead), "ratio", overhead.size(),
        "layer loop, spans / no-op recorder");

  std::printf("== per-layer (traced, %s): median self time per call\n", in.def->name);
  for (const auto& [name, m] : run.metrics) {
    std::printf("   %-30s %14.3f %-6s n=%-8llu %s\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                source[name].c_str());
  }
  std::printf("   tracing overhead: request median %.1f us with spans vs %.1f us "
              "with a no-op recorder (%zu requests, each run both ways)\n",
              Median(with_spans_us), Median(no_op_us), with_spans_us.size());
  auto med = [&](const char* n) {
    auto& v = probe[n];
    return Median(v);
  };
  std::printf("== open questions (probes on %s, %zu facts)\n", poll.name.c_str(),
              poll.facts);
  std::printf("   poll qa: fo.eval %.1f us | rewriting.algorithm1 %.1f us | "
              "certainty.backtracking %.1f us\n",
              med("fo.eval"), med("rewriting.algorithm1"),
              med("certainty.backtracking"));
  std::printf("   poll qa stream, answers.chunk_us by max_chunk: 16 -> %.1f | "
              "64 -> %.1f | 256 -> %.1f\n",
              med("answers.chunk.16"), med("answers.chunk.64"),
              med("answers.chunk.256"));

  // Spans are written out when the run ends (one JSON object per line).
  std::vector<Span> all = rec.spans;
  all.insert(all.end(), traced.spans.begin(), traced.spans.end());
  const std::string path = opts.workdir + "/spans-" + in.def->name + "-" +
                           std::to_string(in.seed) + ".jsonl";
  std::ofstream f(path, std::ios::trunc);
  for (const Span& s : all) {
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":"
      << std::chrono::duration_cast<std::chrono::nanoseconds>(s.start - run_start).count()
      << ",\"end_ns\":"
      << std::chrono::duration_cast<std::chrono::nanoseconds>(s.end - run_start).count()
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  std::printf("   %zu spans written to %s\n", all.size(), path.c_str());

  run.attempted = lt.attempted + traced.attempted;
  run.failed = traced.failed;
  return run;
}

}  // namespace perfbench
