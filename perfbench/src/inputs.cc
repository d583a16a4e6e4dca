// Input generation and the correctness references. Everything here is a
// pure function of (workload, seed) and runs before any timing starts.
//
// References come from a path independent of the one the daemon takes:
//  * the naive repair oracle where the repair count is small (pigeonhole
//    and chaff instances, whose verdicts are also known by construction);
//  * exact backtracking for FO and q1-shaped queries (the daemon answers
//    those with Algorithm 1, the FO rewriting or the matching engine);
//  * the component-parallel solver for cyclic poll queries (the daemon
//    runs plain sequential backtracking);
//  * ComputeCertainAnswers, one shot, for answer streams (the daemon
//    enumerates chunk by chunk through its cache).
#include <cstdio>
#include <set>

#include "bench.h"
#include "cqa/attack/classification.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/naive.h"
#include "cqa/gen/families.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/parallel/parallel_solver.h"
#include "cqa/query/parser.h"
#include "cqa/fo/eval.h"
#include "cqa/rewriting/algorithm1.h"
#include "cqa/rewriting/rewriter.h"

namespace perfbench {

using cqa::Database;
using cqa::Query;

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string RowKey(const std::vector<std::string>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += '\x1f';
    out += values[i];
  }
  return out;
}

bool RowsMatch(const PoolEntry& e, const std::vector<std::string>& got) {
  size_t i = 0;
  for (const std::string& row : *e.rows) {
    if (!e.excluded.empty() && row.compare(0, row.find('\x1f'), e.excluded) == 0) {
      continue;
    }
    if (i == got.size() || got[i] != row) return false;
    ++i;
  }
  return i == got.size();
}

namespace {

// Wire spellings of Example 4.6's queries (see gen/poll.h).
constexpr const char* kPollQa = "Lives(p | t), not Born(p | t), not Likes(p, t)";
constexpr const char* kPollQb = "Likes(p, t), not Born(p | t), not Lives(p | t)";
constexpr const char* kPollQ1 = "Mayor(t | p), not Lives(p | t)";
constexpr const char* kPollQ2 = "Likes(p, t), not Lives(p | t), not Mayor(t | p)";
constexpr const char* kCyclicQ = "R(x | y), not S(y | x), not T(x | y)";

// Search-node cap for references and candidate filters: keeps set-up time
// bounded and, being a step count rather than a clock, deterministic.
constexpr uint64_t kRefNodeCap = 20'000;

std::string Spell(const Query& q) {
  std::string out;
  for (const cqa::Literal& l : q.literals()) {
    if (!out.empty()) out += ", ";
    out += l.ToString();
  }
  for (const cqa::Diseq& d : q.diseqs()) out += ", " + d.ToString();
  return out;
}

Query MustParse(const std::string& text) {
  cqa::Result<Query> q = cqa::ParseQuery(text);
  if (!q.ok()) {
    std::fprintf(stderr, "perfbench: bad query '%s': %s\n", text.c_str(),
                 q.error().c_str());
    std::abort();
  }
  return *q;
}

Tenant MakeTenant(const std::string& name, const std::string& text) {
  Tenant t;
  t.name = name;
  t.facts_text = text;
  cqa::Result<Database> db = Database::FromText(text);
  if (!db.ok()) {
    std::fprintf(stderr, "perfbench: tenant %s does not parse: %s\n",
                 name.c_str(), db.error().c_str());
    std::abort();
  }
  auto shared = std::make_shared<Database>(std::move(*db));
  t.facts = shared->NumFacts();
  t.blocks = shared->NumBlocks();
  t.fingerprint = cqa::FingerprintDatabase(*shared).ToHex();
  t.db = std::move(shared);
  return t;
}

Tenant PollTenant(int persons, uint64_t seed) {
  cqa::Rng rng(seed);
  cqa::PollDbOptions opts;
  opts.num_persons = persons;
  opts.num_towns = std::max(2, persons / 5);
  Tenant t = MakeTenant("poll" + std::to_string(persons),
                        cqa::GeneratePollDatabase(opts, &rng).ToText());
  t.persons = persons;
  return t;
}

// A random-schema tenant: the schema comes from one random query with 3-4
// positive and up to 2 negated atoms; the pool draws FO sub-queries of it.
struct RandomTenant {
  Tenant tenant;
  Query schema_query;
};

// One random-schema tenant drawn from `rng`.
RandomTenant DrawRandomTenant(const std::string& name, cqa::Rng* rng) {
  cqa::RandomQueryOptions qopts;
  qopts.min_positive = 3;
  qopts.max_positive = 4;
  qopts.max_negative = 2;
  qopts.max_arity = 3;
  qopts.num_vars = 4;
  qopts.constant_prob = 0.1;
  Query q = cqa::GenerateRandomQuery(qopts, rng);
  cqa::RandomDbOptions dopts;
  dopts.blocks_per_relation = 500;
  dopts.min_block_size = 1;
  dopts.max_block_size = 3;
  dopts.domain_size = 150;
  Database db = cqa::GenerateRandomDatabaseFor(q, dopts, rng);
  Tenant t = MakeTenant(name, db.ToText());
  t.schema_query = Spell(q);
  return {std::move(t), q};
}

// How many facts 500 key draws per relation give depends on the schema
// (1.4k to 4.9k), so draws are repeated, deterministically, until the
// tenant holds 2000-3000 facts: set-up time then hardly varies with the
// seed.
RandomTenant MakeRandomTenant(const std::string& name, uint64_t seed) {
  cqa::Rng rng(seed);
  while (true) {
    RandomTenant rt = DrawRandomTenant(name, &rng);
    if (rt.tenant.facts >= 2000 && rt.tenant.facts <= 3000) return rt;
  }
}

// FO sub-queries of `q`: every subset of literals that forms a valid
// weakly-guarded query with an acyclic attack graph, in a deterministic
// order, at most `limit` of them.
std::vector<Query> FoSubqueries(const Query& q, size_t limit) {
  std::vector<Query> out;
  const auto& lits = q.literals();
  const size_t n = lits.size();
  for (uint32_t mask = (1u << n) - 1; mask >= 1 && out.size() < limit;
       --mask) {
    std::vector<cqa::Literal> pick;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) pick.push_back(lits[i]);
    }
    cqa::Result<Query> sub = Query::Make(std::move(pick));
    if (!sub.ok()) continue;
    if (cqa::Classify(*sub).cls != cqa::CertaintyClass::kFO) continue;
    out.push_back(*sub);
  }
  return out;
}

// Exact verdict from an engine other than the one the daemon dispatches
// to: naive on small repair spaces, the component-parallel solver for
// cyclic queries (the daemon runs matching or sequential backtracking),
// and for FO queries the FO engine the daemon does not use. Budgets are
// step counts, so what is kept is deterministic. Returns "" when the
// budget runs out.
std::string ReferenceVerdict(const Query& q, const Database& db,
                             const std::string& daemon_method, bool cyclic,
                             std::string* source) {
  auto verdict = [](bool certain) {
    return std::string(certain ? "certain" : "not-certain");
  };
  if (db.CountRepairs(1u << 14) < (1u << 14)) {
    cqa::Result<bool> r = cqa::IsCertainNaive(q, db);
    if (r.ok()) {
      *source = "naive";
      return verdict(*r);
    }
  }
  cqa::Budget budget;
  budget.max_steps = kRefNodeCap;
  if (cyclic) {
    cqa::ParallelOptions popts;
    popts.parallelism = 2;
    popts.budget = &budget;
    cqa::Result<cqa::ParallelReport> r = cqa::SolveCertainParallel(q, db, popts);
    if (!r.ok()) return "";
    *source = "parallel";
    return verdict(r->certain);
  }
  // FO: the FO engine the daemon does not dispatch to (auto runs
  // Algorithm 1; "rewriting" evaluates the rewriting).
  if (daemon_method == "rewriting") {
    cqa::Algorithm1Options aopts;
    aopts.budget = &budget;
    cqa::Result<bool> a = cqa::IsCertainAlgorithm1(q, db, aopts);
    if (!a.ok()) return "";
    *source = "algorithm1";
    return verdict(*a);
  }
  cqa::Result<cqa::Rewriting> rw = cqa::RewriteCertain(q);
  if (!rw.ok()) return "";
  budget.max_steps = kRefNodeCap * 100;
  cqa::Result<bool> e = cqa::EvalFoGoverned(rw->formula, db, &budget);
  if (!e.ok()) return "";
  *source = "fo-rewriting";
  return verdict(*e);
}

// Random FO queries are kept only when Algorithm 1 decides them within a
// small step budget, so that per-seed pools cost about the same.
bool CheapFo(const Query& q, const Database& db) {
  cqa::Budget budget;
  budget.max_steps = 2'000;
  cqa::Algorithm1Options aopts;
  aopts.budget = &budget;
  return cqa::IsCertainAlgorithm1(q, db, aopts).ok();
}

std::vector<cqa::Symbol> Syms(const std::vector<std::string>& names) {
  std::vector<cqa::Symbol> out;
  for (const std::string& n : names) out.push_back(cqa::InternSymbol(n));
  return out;
}

// One-shot certain answers as rows; null when they exceed the node cap.
std::shared_ptr<std::vector<std::string>> ReferenceRows(
    const Query& q, const std::vector<std::string>& free, const Database& db) {
  cqa::Budget budget;
  budget.max_steps = kRefNodeCap * 10;
  cqa::Result<cqa::CertainAnswers> r =
      cqa::ComputeCertainAnswers(q, Syms(free), db, &budget);
  if (!r.ok()) return nullptr;
  auto rows = std::make_shared<std::vector<std::string>>();
  for (const cqa::Tuple& t : r->answers) {
    std::vector<std::string> vals;
    for (const cqa::Value& v : t) vals.push_back(v.name());
    rows->push_back(RowKey(vals));
  }
  return rows;
}

// Whether the positive atoms' variables form one connected graph (two
// variables are adjacent when they share a positive atom). A disconnected
// query joins cross products per candidate: on one seed such a stream took
// 0.6 s, 40 times the median stream, and set that seed's throughput apart.
bool PositiveConnected(const Query& q) {
  const std::vector<cqa::Symbol> vars = q.PositiveVars().items();
  if (vars.empty()) return true;
  std::vector<bool> reached(vars.size(), false);
  std::vector<size_t> todo = {0};
  reached[0] = true;
  while (!todo.empty()) {
    const size_t i = todo.back();
    todo.pop_back();
    for (size_t j = 0; j < vars.size(); ++j) {
      if (!reached[j] && q.CoOccurPositively(vars[i], vars[j])) {
        reached[j] = true;
        todo.push_back(j);
      }
    }
  }
  return std::find(reached.begin(), reached.end(), false) == reached.end();
}

size_t CandidateSpace(const Query& q, const std::vector<std::string>& free,
                      const Database& db) {
  auto c = cqa::CertainAnswerCandidates(q, Syms(free), db);
  if (!c.ok()) return 0;
  size_t n = 1;
  for (const auto& list : *c) n *= list.size();
  return n;
}

// One group per entry, Zipf-weighted in a fixed rank order that takes
// tenants in turn (the first entry of every tenant, then the second, ...),
// so that which kind of request is popular does not change with the seed.
// Tenants are taken smallest first: the large poll database, whose entries
// fo_write invalidates most often and recomputes most expensively, ranks
// last in every round.
std::vector<Inputs::Group> ZipfGroups(const std::vector<Tenant>& tenants,
                                      const std::vector<PoolEntry>& pool,
                                      double s) {
  std::map<size_t, size_t> seen;  // entries per tenant so far
  std::vector<std::tuple<size_t, size_t, size_t>> order;  // (position, facts, tenant)
  for (const PoolEntry& e : pool) {
    order.emplace_back(seen[e.tenant]++, tenants[e.tenant].facts, e.tenant);
  }
  std::vector<size_t> idx(pool.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return order[a] < order[b]; });
  std::vector<Inputs::Group> groups;
  for (size_t rank = 0; rank < idx.size(); ++rank) {
    groups.push_back({1.0 / std::pow(static_cast<double>(rank + 1), s), {idx[rank]}});
  }
  return groups;
}

// --- fo_hot / fo_write -----------------------------------------------------

void AddSolve(Inputs* in, size_t tenant, const std::string& label,
              const std::string& query, const std::string& method) {
  PoolEntry e;
  e.kind = OpKind::kSolve;
  e.tenant = tenant;
  e.label = in->tenants[tenant].name + "/" + label +
            (method == "auto" ? "" : "@" + method);
  e.query = query;
  e.method = method;
  in->pool.push_back(std::move(e));
}

void BuildFoTenants(Inputs* in) {
  in->tenants.push_back(PollTenant(500, in->seed * 7 + 1));
  in->tenants.push_back(PollTenant(2000, in->seed * 7 + 2));
  for (int r = 0; r < 2; ++r) {
    RandomTenant rt =
        MakeRandomTenant("rand" + std::to_string(r), in->seed * 7 + 3 + r);
    size_t idx = in->tenants.size();
    in->tenants.push_back(std::move(rt.tenant));
    // Up to 6 FO sub-queries per random tenant; every other one also via
    // the FO rewriting.
    std::vector<Query> subs;
    for (const Query& q : FoSubqueries(rt.schema_query, 16)) {
      if (subs.size() < 6 && CheapFo(q, *in->tenants[idx].db)) subs.push_back(q);
    }
    for (size_t i = 0; i < subs.size(); ++i) {
      std::string label = "fo" + std::to_string(i);
      AddSolve(in, idx, label, Spell(subs[i]), "auto");
      if (i % 2 == 0) AddSolve(in, idx, label, Spell(subs[i]), "rewriting");
    }
  }
  for (size_t p = 0; p < 2; ++p) {
    AddSolve(in, p, "qa", kPollQa, "auto");
    AddSolve(in, p, "qa", kPollQa, "rewriting");
    AddSolve(in, p, "qb", kPollQb, "auto");
    AddSolve(in, p, "qb", kPollQb, "rewriting");
    AddSolve(in, p, "q1", kPollQ1, "auto");
    AddSolve(in, p, "q2", kPollQ2, "auto");
  }
}


bool SolveReferences(Inputs* in) {
  const size_t states = in->toggles.size() + 1;
  std::vector<PoolEntry> kept;
  for (PoolEntry& e : in->pool) {
    Query q = MustParse(e.query);
    const bool cyclic = cqa::Classify(q).cls != cqa::CertaintyClass::kFO;
    e.verdicts.assign(states, "");
    bool ok = true;
    for (size_t s = 0; s < states && ok; ++s) {
      const bool toggled =
          s > 0 && in->toggles[s - 1].tenant == e.tenant;
      if (s > 0 && !toggled) {
        e.verdicts[s] = e.verdicts[0];
        continue;
      }
      const Database& db =
          toggled ? *in->toggles[s - 1].toggled_db : *in->tenants[e.tenant].db;
      e.verdicts[s] = ReferenceVerdict(q, db, e.method, cyclic, &e.ref_source);
      ok = !e.verdicts[s].empty();
    }
    if (ok) kept.push_back(std::move(e));  // else too costly to check: dropped
  }
  in->pool = std::move(kept);
  // The toggled copies served only the references above.
  for (Toggle& tg : in->toggles) tg.toggled_db.reset();
  return !in->pool.empty();
}

// --- conp_hard --------------------------------------------------------------

// D8-style instance under kCyclicQ: `chaff` components whose every repair
// falsifies the query, then (optionally) a certain pigeonhole core with k
// R-blocks over k-1 values. Chaff is written (hence interned) first, which
// puts it ahead of the core in the sequential search order. A vacuous T
// fact registers the relation the third atom names.
std::string ChaffText(const std::string& prefix, int chaff, int core_k) {
  std::string text;
  auto fact = [&](const char* rel, const std::string& a, const std::string& b) {
    text += std::string(rel) + "('" + a + "' | '" + b + "')\n";
  };
  for (int c = 0; c < chaff; ++c) {
    std::string a = prefix + "ca" + std::to_string(c);
    for (int j = 1; j <= 2; ++j) {
      std::string b = prefix + "cb" + std::to_string(j) + "x" + std::to_string(c);
      fact("R", a, b);
      fact("S", b, a);
    }
  }
  for (int i = 1; i <= core_k; ++i) {
    for (int j = 1; j < core_k; ++j) {
      std::string a = prefix + "a" + std::to_string(i);
      std::string b = prefix + "b" + std::to_string(j);
      fact("R", a, b);
      fact("S", b, a);
    }
  }
  fact("T", prefix + "tz0", prefix + "tz1");
  return text;
}

void BuildConpHard(Inputs* in) {
  const std::string p = "s" + std::to_string(in->seed) + "_";
  struct Hard {
    const char* name;
    int chaff;
    int core_k;
    bool certain;  // by construction: a pigeonhole core is certain
    double weight[2];  // draw weight at parallelism 1 and 2
  };
  // Draw weights (percent) put the median inside ph5 (40-65%) and the p90
  // inside sequential chaff2 (65-100%): both are fixed constructions of
  // several milliseconds, and both percentiles sit away from the gaps
  // between cost strata, so they do not jump between modes.
  const Hard hard[] = {
      {"ph4", 0, 4, true, {5, 0}},
      {"ph5", 0, 5, true, {25, 0}},
      {"chaff2", 2, 5, true, {35, 5}},
      {"chaff3", 3, 4, true, {5, 5}},
      {"chaffonly", 4, 0, false, {10, 5}},
  };
  for (const Hard& h : hard) {
    in->tenants.push_back(
        MakeTenant(h.name, ChaffText(p + h.name, h.chaff, h.core_k)));
  }
  in->tenants.push_back(PollTenant(2000, in->seed * 7 + 2));
  for (size_t t = 0; t < std::size(hard); ++t) {
    for (int par : {1, 2}) {
      if (hard[t].weight[par - 1] == 0) continue;
      in->groups.push_back({hard[t].weight[par - 1], {in->pool.size()}});
      PoolEntry e;
      e.tenant = t;
      e.label = std::string(hard[t].name) + "@par" + std::to_string(par);
      e.query = kCyclicQ;
      e.parallelism = par;
      e.bypass = true;
      e.verdicts = {hard[t].certain ? "certain" : "not-certain"};
      in->pool.push_back(std::move(e));
    }
  }
  PoolEntry q2;
  q2.tenant = std::size(hard);
  q2.label = "poll2000/q2";
  q2.query = kPollQ2;
  q2.parallelism = 1;
  q2.bypass = true;
  in->groups.push_back({5, {in->pool.size()}});
  in->pool.push_back(std::move(q2));
}

// Checks construction-known verdicts against the naive oracle and fills
// the ones only an engine can give.
bool ConpReferences(Inputs* in) {
  for (PoolEntry& e : in->pool) {
    Query q = MustParse(e.query);
    std::string source;
    std::string v = ReferenceVerdict(q, *in->tenants[e.tenant].db, e.method,
                                     /*cyclic=*/true, &source);
    if (v.empty()) return false;
    if (!e.verdicts.empty() && e.verdicts[0] != v) {
      std::fprintf(stderr, "perfbench: %s: construction says %s, %s says %s\n",
                   e.label.c_str(), e.verdicts[0].c_str(), source.c_str(),
                   v.c_str());
      return false;
    }
    e.ref_source = e.verdicts.empty() ? source : "construction+" + source;
    e.verdicts = {v};
  }
  return true;
}

// --- answers_stream ---------------------------------------------------------

// Streams over poll and random tenants. Each base stream (query, free
// variables) is widened by "all but one" variants — the base query plus a
// disequality excluding one answer value — whose references follow from
// the base one: a tuple answers q ∧ x≠c iff it answers q and its x is not
// c. All poll streams share one shard, where the variants make distinct
// chunks outnumber the cache several times over: eviction runs, most
// chunks are computed, and a stream is rarely served whole from the cache.
// Draw shares put the median inside the qa/qb streams (per-chunk work)
// and the p90 inside the q2 streams (backtracking per candidate).
bool BuildStreams(Inputs* in) {
  in->tenants.push_back(PollTenant(500, in->seed * 7 + 1));
  for (int r = 0; r < 2; ++r) {
    in->tenants.push_back(
        MakeRandomTenant("rand" + std::to_string(r), in->seed * 7 + 3 + r)
            .tenant);
  }
  struct Base {
    size_t tenant;
    std::string label;
    Query q;
    std::vector<std::string> free;
    size_t variants;
    double share;  // of all stream draws; random bases split theirs
  };
  std::vector<Base> bases = {
      {0, "qa", MustParse(kPollQa), {"p"}, 300, 0.375},
      {0, "qb", MustParse(kPollQb), {"p"}, 300, 0.375},
      {0, "q2", MustParse(kPollQ2), {"p"}, 100, 0.2},
  };
  for (size_t t = 1; t < in->tenants.size(); ++t) {
    // FO sub-queries with one or two positive free variables whose
    // candidate space stays small.
    int added = 0;
    for (const Query& q :
         FoSubqueries(MustParse(in->tenants[t].schema_query), 16)) {
      if (added == 3) break;
      if (!PositiveConnected(q) || !CheapFo(q, *in->tenants[t].db)) continue;
      std::vector<std::string> pos;
      for (const cqa::Literal& l : q.literals()) {
        if (l.negated) continue;
        for (const cqa::Term& term : l.atom.terms()) {
          if (!term.is_variable()) continue;
          std::string name = term.ToString();
          if (std::find(pos.begin(), pos.end(), name) == pos.end()) {
            pos.push_back(name);
          }
        }
      }
      if (pos.empty()) continue;
      std::vector<std::string> free = {pos[0]};
      if (pos.size() > 1 && added % 2 == 1) free.push_back(pos[1]);
      const size_t space = CandidateSpace(q, free, *in->tenants[t].db);
      if (space == 0 || space > 2000) continue;
      auto rows = ReferenceRows(q, free, *in->tenants[t].db);
      if (!rows || rows->size() < 32) continue;
      bases.push_back({t, "fo" + std::to_string(added), q, free, 8, 0.05});
      ++added;
    }
  }
  const uint64_t chunks[] = {16, 64, 256};
  std::map<size_t, size_t> chunks_per_tenant;
  const size_t random_bases = bases.size() - 3;
  for (const Base& b : bases) {
    const double share =
        b.tenant >= 1 ? b.share / static_cast<double>(random_bases) : b.share;
    const Database& db = *in->tenants[b.tenant].db;
    std::shared_ptr<std::vector<std::string>> rows =
        ReferenceRows(b.q, b.free, db);
    if (!rows || rows->empty()) continue;
    const std::string base_label = in->tenants[b.tenant].name + "/" + b.label;
    char note[160];
    std::snprintf(note, sizeof(note),
                  "stream %-14s free %-6s %5zu answers x (1 + %zu variants)",
                  base_label.c_str(), RowKey(b.free).c_str(), rows->size(),
                  b.variants);
    in->notes.push_back(note);
    const size_t variants = std::min(b.variants, rows->size() - 1);
    // One draw group per chunk size; its entries are the variants.
    const size_t first_group = in->groups.size();
    for (size_t c = 0; c < std::size(chunks); ++c) {
      in->groups.push_back({share / std::size(chunks), {}});
    }
    for (size_t v = 0; v <= variants; ++v) {
      std::string query = Spell(b.q);
      std::string label = base_label;
      std::string excluded;
      if (v > 0) {
        const std::string& row = (*rows)[(v * rows->size()) / (variants + 1)];
        excluded = row.substr(0, row.find('\x1f'));
        query += ", " + b.free[0] + " != '" + excluded + "'";
        label += "-" + excluded;
      }
      const size_t expected = rows->size() - (v > 0 ? 1 : 0);
      for (size_t c = 0; c < std::size(chunks); ++c) {
        const uint64_t mc = chunks[c];
        in->groups[first_group + c].entries.push_back(in->pool.size());
        PoolEntry e;
        e.kind = OpKind::kAnswers;
        e.tenant = b.tenant;
        e.label = label + "#" + std::to_string(mc);
        e.query = query;
        e.free = b.free;
        e.max_chunk = mc;
        e.rows = rows;
        e.excluded = excluded;
        e.ref_source = v == 0 ? "ComputeCertainAnswers"
                              : "ComputeCertainAnswers minus excluded value";
        const size_t n = std::max<size_t>(1, (expected + mc - 1) / mc);
        in->distinct_chunks += n;
        chunks_per_tenant[b.tenant] += n;
        in->pool.push_back(std::move(e));
      }
    }
  }
  for (const auto& [t, n] : chunks_per_tenant) {
    in->max_chunks_per_shard = std::max(in->max_chunks_per_shard, n);
  }
  return !in->pool.empty();
}

}  // namespace

size_t LargestPollTenant(const std::vector<Tenant>& tenants) {
  size_t best = tenants.size();
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].persons > 0 &&
        (best == tenants.size() || tenants[t].persons > tenants[best].persons)) {
      best = t;
    }
  }
  return best;
}

std::vector<Toggle> PollToggles(const std::vector<Tenant>& tenants,
                                uint64_t seed) {
  std::vector<Toggle> toggles;
  const char* relations[] = {"Likes", "Born", "Lives", "Mayor"};
  cqa::Rng rng(seed * 7 + 5);
  const size_t t = LargestPollTenant(tenants);
  if (t == tenants.size()) return toggles;
  const Tenant& tenant = tenants[t];
  const int towns = std::max(2, tenant.persons / 5);
  for (const char* rel : relations) {
    std::set<std::string> existing;
    for (const cqa::Tuple& f :
         tenant.db->FactsOf(cqa::InternSymbol(rel))) {
      existing.insert(f[0].name() + "\x1f" + f[1].name());
    }
    Toggle tg;
    tg.tenant = t;
    tg.relation = rel;
    const bool town_key = std::string(rel) == "Mayor";
    while (tg.inserts.size() < 4) {
      std::string person =
          "person" + std::to_string(rng.Below(
                         static_cast<uint64_t>(tenant.persons) +
                         (tg.inserts.size() < 2 ? 4 : 0)));
      std::string town = "town" + std::to_string(rng.Below(
                                      static_cast<uint64_t>(towns)));
      std::vector<std::string> vals =
          town_key ? std::vector<std::string>{town, person}
                   : std::vector<std::string>{person, town};
      if (!existing.insert(vals[0] + "\x1f" + vals[1]).second) continue;
      tg.inserts.push_back({true, rel, vals});
      tg.deletes.push_back({false, rel, vals});
    }
    // The toggled state is parsed from scratch (base text plus the
    // inserted facts), independent of the delta path the daemon uses.
    const cqa::RelationSchema& rs =
        tenant.db->schema().Get(cqa::InternSymbol(rel));
    std::string text = tenant.facts_text;
    for (const cqa::DeltaOp& op : tg.inserts) {
      text += std::string("\n") + rel + "(";
      for (size_t i = 0; i < op.values.size(); ++i) {
        if (i > 0) text += static_cast<int>(i) == rs.key_len ? " | " : ", ";
        text += "'" + op.values[i] + "'";
      }
      text += ")";
    }
    Tenant scratch = MakeTenant("scratch", text);
    tg.toggled_fingerprint = scratch.fingerprint;
    tg.toggled_db = scratch.db;
    toggles.push_back(std::move(tg));
  }
  return toggles;
}

bool BuildInputs(const WorkloadDef& def, uint64_t seed, Inputs* out) {
  Inputs& in = *out;
  in.def = &def;
  in.seed = seed;
  const std::string name = def.name;
  Clock::time_point t0 = Clock::now();
  bool ok = true;
  if (name == "fo_hot" || name == "fo_write") {
    BuildFoTenants(&in);
    if (name == "fo_write") {
      in.toggles = PollToggles(in.tenants, seed);
      in.delta_period_ms = 16;
    }
    ok = SolveReferences(&in);
    in.groups = ZipfGroups(in.tenants, in.pool, 1.0);
  } else if (name == "conp_hard") {
    BuildConpHard(&in);
    ok = ConpReferences(&in);
  } else if (name == "answers_stream") {
    ok = BuildStreams(&in);
  } else {
    return false;
  }
  in.reference_s = UsSince(t0, Clock::now()) / 1e6;
  in.inputs_rss_mb = PeakRssMb();
  if (!ok) std::fprintf(stderr, "perfbench: could not build inputs\n");
  return ok;
}

void PrintInputRecord(const Inputs& in) {
  std::printf("== input record: workload %s, seed %llu\n", in.def->name,
              static_cast<unsigned long long>(in.seed));
  std::printf("   why: %s\n", in.def->why);
  std::printf("   daemon: %d workers/shard, result cache %zu entries/shard, "
              "warm state on, isolation inproc, parallelism 1 by default\n",
              kShardWorkers, kCacheEntries);
  std::printf("   connections: %d request%s", in.def->readers,
              in.def->writers ? " + 1 apply_delta writer" : "");
  std::printf(", closed loop, one thread each\n");
  for (const Tenant& t : in.tenants) {
    std::printf("   tenant %-10s facts %6zu  blocks %6zu  fp %s\n",
                t.name.c_str(), t.facts, t.blocks, t.fingerprint.c_str());
  }
  std::map<size_t, size_t> per_tenant;
  for (const PoolEntry& e : in.pool) ++per_tenant[e.tenant];
  std::printf("   pool: %zu distinct entries (", in.pool.size());
  bool first = true;
  for (const auto& [t, n] : per_tenant) {
    std::printf("%s%s %zu", first ? "" : ", ", in.tenants[t].name.c_str(), n);
    first = false;
  }
  std::printf(")\n");
  if (in.pool[0].kind == OpKind::kSolve) {
    std::printf("   distinct (query, db, method) pairs: %zu vs %zu cache "
                "entries per shard -> %s\n",
                in.pool.size(), kCacheEntries,
                in.pool.size() < kCacheEntries ? "fits" : "exceeds");
  } else {
    std::printf("   distinct chunks: %zu in total, %zu on the busiest shard vs "
                "%zu cache entries per shard -> %s\n",
                in.distinct_chunks, in.max_chunks_per_shard, kCacheEntries,
                in.max_chunks_per_shard > kCacheEntries ? "exceeds" : "fits");
  }
  if (!in.toggles.empty()) {
    std::printf("   deltas: %zu ops per batch, one every %.1f ms (%.0f/s), "
                "toggling round-robin over %zu relations of %s; "
                "journal on, fsync always\n",
                in.toggles[0].inserts.size(), in.delta_period_ms,
                1000.0 / in.delta_period_ms, in.toggles.size(),
                in.tenants[in.toggles[0].tenant].name.c_str());
  }
  for (const std::string& note : in.notes) std::printf("   %s\n", note.c_str());
  std::map<std::string, size_t> sources;
  for (const PoolEntry& e : in.pool) ++sources[e.ref_source];
  std::printf("   references (untimed, %.2f s):", in.reference_s);
  for (const auto& [s, n] : sources) std::printf(" %s x%zu;", s.c_str(), n);
  std::printf("\n   peak RSS with inputs and references built: %.1f MB\n",
              in.inputs_rss_mb);
}

}  // namespace perfbench
