#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cqa/answers/cursor.h"
#include "cqa/answers/enumerator.h"
#include "cqa/attack/classification.h"
#include "cqa/base/rng.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"

namespace cqa {
namespace {

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

Database Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return db.value();
}

// Drives the enumerator to completion with the given chunk size and
// returns the concatenated answers (asserting span bookkeeping on the
// way: chunks tile [0, total) with no gaps and no overlaps).
std::vector<Tuple> Drain(const Query& q, const std::vector<Symbol>& vars,
                         const Database& db, uint64_t max_chunk,
                         SolverMethod method = SolverMethod::kAuto) {
  std::vector<Tuple> out;
  EnumerateOptions opts;
  opts.max_chunk = max_chunk;
  opts.method = method;
  for (int guard = 0; guard < 100'000; ++guard) {
    Result<AnswerChunk> chunk = EnumerateAnswerChunk(q, vars, db, opts);
    EXPECT_TRUE(chunk.ok()) << chunk.error();
    if (!chunk.ok()) return out;
    EXPECT_EQ(chunk->start, opts.start);
    EXPECT_FALSE(chunk->exhausted);
    out.insert(out.end(), chunk->answers.begin(), chunk->answers.end());
    if (chunk->done) {
      EXPECT_EQ(chunk->next, chunk->total);
      return out;
    }
    EXPECT_LT(chunk->start, chunk->next);
    opts.start = chunk->next;
  }
  ADD_FAILURE() << "enumeration did not terminate";
  return out;
}

TEST(AnswerEnumeratorTest, ChunkConcatenationMatchesOneShot) {
  Query q = Q("P(x | y), not N(x | y)");
  Symbol x = InternSymbol("x");
  Rng rng(4201);
  RandomDbOptions opts;
  opts.blocks_per_relation = 5;
  opts.domain_size = 4;
  for (int trial = 0; trial < 20; ++trial) {
    Database db = GenerateRandomDatabaseFor(q, opts, &rng);
    Result<CertainAnswers> one_shot = ComputeCertainAnswers(q, {x}, db);
    ASSERT_TRUE(one_shot.ok()) << one_shot.error();
    // One-shot answers sorted canonically (the enumerator's order).
    std::vector<Tuple> expected = one_shot->answers;
    std::sort(expected.begin(), expected.end(),
              [](const Tuple& a, const Tuple& b) {
                return a[0].name() < b[0].name();
              });
    for (uint64_t chunk_size : {1u, 2u, 3u, 7u, 64u}) {
      EXPECT_EQ(Drain(q, {x}, db, chunk_size), expected)
          << "chunk size " << chunk_size << "\n" << db.ToString();
    }
  }
}

TEST(AnswerEnumeratorTest, MultiVariableCanonicalOrder) {
  // Two free variables: answers must come out lexicographically by
  // (x spelling, y spelling), the first free var most significant.
  Query q = Q("R(x | y), not S(x | y)");
  Database db = Db(R"(
    R(b | v2), R(a | v1)
    R(d | v2), R(c | v1)
    S(zz | zz)
  )");
  Symbol x = InternSymbol("x"), y = InternSymbol("y");
  std::vector<Tuple> got = Drain(q, {x, y}, db, 1);
  ASSERT_EQ(got.size(), 4u);
  std::vector<Tuple> sorted = got;
  std::sort(sorted.begin(), sorted.end(), [](const Tuple& a, const Tuple& b) {
    if (a[0].name() != b[0].name()) return a[0].name() < b[0].name();
    return a[1].name() < b[1].name();
  });
  EXPECT_EQ(got, sorted);
  // Swapping the free-variable order changes the major sort key.
  std::vector<Tuple> swapped = Drain(q, {y, x}, db, 2);
  ASSERT_EQ(swapped.size(), 4u);
  EXPECT_EQ(swapped[0][0].name(), "v1");
}

TEST(AnswerEnumeratorTest, StartBeyondSpaceIsTyped) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  EnumerateOptions opts;
  opts.start = 99;  // candidate space has exactly one position
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("x")}, db, opts);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kParse);
}

TEST(AnswerEnumeratorTest, SamplingMethodRejected) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  EnumerateOptions opts;
  opts.method = SolverMethod::kSampling;
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("x")}, db, opts);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kUnsupported);
}

TEST(AnswerEnumeratorTest, FreeVarWithoutPositiveOccurrenceRejected) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("zonk")}, db, {});
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kUnsupported);
}

TEST(AnswerEnumeratorTest, BudgetPartialChunkIsMarkedExhausted) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a), P(k2 | a), P(k3 | a), P(k4 | a)");
  // Force exhaustion at every probe site in turn. Each run must end in
  // exactly one of: a typed error with nothing decided, a
  // correct-but-partial chunk marked `exhausted`, or (once the trip
  // point lies past the workload) a complete chunk — never a silently
  // short result.
  bool saw_partial = false;
  for (uint64_t trip = 1; trip < 64; ++trip) {
    Budget budget;
    budget.fail_after_probes = trip;
    EnumerateOptions opts;
    opts.max_chunk = 64;
    Result<AnswerChunk> chunk =
        EnumerateAnswerChunk(q, {InternSymbol("x")}, db, opts, &budget);
    if (!chunk.ok()) {
      EXPECT_TRUE(IsResourceExhaustion(chunk.code())) << chunk.error();
      continue;
    }
    // The decided prefix is always the true prefix, full or partial.
    ASSERT_LE(chunk->answers.size(), 4u);
    for (size_t i = 0; i < chunk->answers.size(); ++i) {
      EXPECT_EQ(chunk->answers[i][0].name(), "k" + std::to_string(i + 1));
    }
    if (chunk->exhausted) {
      saw_partial = true;
      EXPECT_FALSE(chunk->done);
      EXPECT_GT(chunk->next, 0u);
      EXPECT_LT(chunk->next, chunk->total);
    } else {
      EXPECT_TRUE(chunk->done);
      EXPECT_EQ(chunk->answers.size(), 4u);
    }
  }
  EXPECT_TRUE(saw_partial) << "no trip point produced a partial chunk";
}

TEST(AnswerEnumeratorTest, BudgetTrippedBeforeFirstCandidateIsTyped) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  Budget budget;
  budget.fail_after_probes = 1;
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("x")}, db, {}, &budget);
  ASSERT_FALSE(chunk.ok());
  EXPECT_TRUE(IsResourceExhaustion(chunk.code()));
}

TEST(AnswerCursorTest, RoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    AnswerCursor cursor;
    cursor.position = rng.Next();
    cursor.query_hash = rng.Next();
    cursor.fingerprint.hi = rng.Next();
    cursor.fingerprint.lo = rng.Next();
    std::string text = EncodeAnswerCursor(cursor);
    EXPECT_EQ(text.size(), 76u);
    Result<AnswerCursor> back = DecodeAnswerCursor(text);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back->position, cursor.position);
    EXPECT_EQ(back->query_hash, cursor.query_hash);
    EXPECT_TRUE(back->fingerprint == cursor.fingerprint);
  }
}

TEST(AnswerCursorTest, EveryCharacterCorruptionIsCaught) {
  AnswerCursor cursor;
  cursor.position = 12'345;
  cursor.query_hash = 0xdeadbeefcafef00dull;
  cursor.fingerprint.hi = 1;
  cursor.fingerprint.lo = 2;
  std::string text = EncodeAnswerCursor(cursor);
  for (size_t i = 0; i < text.size(); ++i) {
    std::string corrupt = text;
    corrupt[i] = corrupt[i] == 'f' ? '0' : 'f';
    if (corrupt == text) continue;
    Result<AnswerCursor> back = DecodeAnswerCursor(corrupt);
    EXPECT_FALSE(back.ok()) << "flip at " << i << " went undetected";
    if (!back.ok()) {
      EXPECT_EQ(back.code(), ErrorCode::kParse);
    }
  }
}

TEST(AnswerCursorTest, MalformedSpellingsAreTypedNotFatal) {
  AnswerCursor cursor;
  std::string good = EncodeAnswerCursor(cursor);
  const std::string hostile[] = {
      "",
      "cqa1",
      good.substr(0, 75),
      good + "0",
      "XXXX" + good.substr(4),
      std::string(76, 'g'),
      std::string(76, '\0'),
      "cqa1" + std::string(72, 'z'),
  };
  for (const std::string& text : hostile) {
    Result<AnswerCursor> back = DecodeAnswerCursor(text);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.code(), ErrorCode::kParse);
  }
}

TEST(AnswerCursorTest, QueryHashSeparatesQueriesAndFreeOrders) {
  Query q1 = Q("P(x | y), not N(x | y)");
  Query q2 = Q("P(x | y), not M(x | y)");
  uint64_t h1 = AnswerQueryHash(q1, {"x"});
  EXPECT_NE(h1, AnswerQueryHash(q2, {"x"}));
  EXPECT_NE(h1, AnswerQueryHash(q1, {"y"}));
  EXPECT_NE(AnswerQueryHash(q1, {"x", "y"}), AnswerQueryHash(q1, {"y", "x"}));
  EXPECT_EQ(h1, AnswerQueryHash(Q("P(x | y), not N(x | y)"), {"x"}));
}

// Differential: the solver-backed answer set must agree with the
// first-order rewriting of Lemma 6.1 (free variables left free) on a few
// hundred random instances, and the chunked enumerator must agree with
// both under both methods.
TEST(AnswerDifferentialTest, SolverAgreesWithRewritingOnRandomInstances) {
  Rng rng(20'260'807);
  RandomQueryOptions qopts;
  qopts.max_positive = 2;
  qopts.max_negative = 2;
  qopts.max_arity = 2;
  qopts.num_vars = 3;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.domain_size = 3;
  int compared = 0;
  for (int trial = 0; trial < 600 && compared < 250; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    // Free variables: every variable of the positive part (all have a
    // positive occurrence by construction).
    const SymbolSet positive_vars = q.PositiveVars();
    std::vector<Symbol> frees = positive_vars.items();
    if (frees.empty()) continue;
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
    Result<CertainAnswers> by_rewriting =
        CertainAnswersByRewriting(q, frees, db);
    if (!by_rewriting.ok()) {
      // Outside the FO class (Theorem 4.3 with frees reified): only the
      // solver path applies; nothing to differentiate.
      ASSERT_EQ(by_rewriting.code(), ErrorCode::kUnsupported)
          << by_rewriting.error();
      continue;
    }
    Result<CertainAnswers> by_solver = ComputeCertainAnswers(q, frees, db);
    ASSERT_TRUE(by_solver.ok()) << by_solver.error();
    auto sorted = [](std::vector<Tuple> tuples) {
      std::sort(tuples.begin(), tuples.end());
      return tuples;
    };
    ASSERT_EQ(sorted(by_solver->answers), sorted(by_rewriting->answers))
        << q.ToString() << "\n" << db.ToString();
    // The streaming enumerator reproduces the same multiset in canonical
    // order under either decision engine.
    std::vector<Tuple> chunked = Drain(q, frees, db, 3);
    EXPECT_EQ(sorted(chunked), sorted(by_solver->answers))
        << q.ToString() << "\n" << db.ToString();
    EXPECT_EQ(Drain(q, frees, db, 5, SolverMethod::kRewriting), chunked)
        << q.ToString() << "\n" << db.ToString();
    ++compared;
  }
  // The generator parameters must actually exercise the rewriting class.
  EXPECT_GE(compared, 100) << "differential corpus too small";
}

// ---------------------------------------------------------------------------
// AnswerPlan: one plan per stream

// Sorts tuples into the enumerator's canonical order: lexicographic by
// value spelling, first column most significant.
std::vector<Tuple> Canonical(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return a[i].name() < b[i].name();
    }
    return false;
  });
  return tuples;
}

// A small random query with one or two free variables (drawn from its
// positive variables), FO or not.
struct RandomStream {
  Query q;
  std::vector<Symbol> frees;
};

RandomStream DrawStream(Rng* rng) {
  RandomQueryOptions qopts;
  qopts.max_positive = 2;
  qopts.max_negative = 2;
  qopts.max_arity = 2;
  qopts.num_vars = 3;
  qopts.constant_prob = 0.2;
  for (;;) {
    Query q = GenerateRandomQuery(qopts, rng);
    std::vector<Symbol> positive = q.PositiveVars().items();
    if (positive.empty()) continue;
    std::vector<Symbol> frees = {positive[rng->Below(positive.size())]};
    if (positive.size() > 1 && rng->Chance(0.5)) {
      Symbol second = positive[rng->Below(positive.size())];
      if (second != frees[0]) frees.push_back(second);
    }
    return {std::move(q), std::move(frees)};
  }
}

TEST(AnswerPlanTest, OnePlanChunksExactlyLikeAFreshPlanPerChunk) {
  Rng rng(20'261'019);
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 4;
  dopts.domain_size = 4;
  int nonempty = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomStream s = DrawStream(&rng);
    Database db = GenerateRandomDatabaseFor(s.q, dopts, &rng);
    Result<CertainAnswers> one_shot = ComputeCertainAnswers(s.q, s.frees, db);
    ASSERT_TRUE(one_shot.ok()) << one_shot.error();
    const std::vector<Tuple> expected = Canonical(one_shot->answers);
    nonempty += !expected.empty();
    Result<std::shared_ptr<const AnswerPlan>> plan =
        MakeAnswerPlan(s.q, s.frees, db, SolverMethod::kAuto);
    ASSERT_TRUE(plan.ok()) << plan.error();
    for (uint64_t chunk_size : {1u, 2u, 3u, 7u, 64u}) {
      // Chunk by chunk, the shared plan and a fresh plan per chunk agree
      // on every span and every answer.
      std::vector<Tuple> with_plan;
      uint64_t start = 0;
      for (int guard = 0; guard < 10'000; ++guard) {
        Result<AnswerChunk> a =
            EnumerateAnswerChunk(**plan, db, start, chunk_size);
        EnumerateOptions opts;
        opts.start = start;
        opts.max_chunk = chunk_size;
        Result<AnswerChunk> b = EnumerateAnswerChunk(s.q, s.frees, db, opts);
        ASSERT_TRUE(a.ok()) << a.error();
        ASSERT_TRUE(b.ok()) << b.error();
        ASSERT_EQ(a->next, b->next) << s.q.ToString();
        ASSERT_EQ(a->total, b->total);
        ASSERT_EQ(a->answers, b->answers) << s.q.ToString();
        ASSERT_EQ(a->free_vars, b->free_vars);
        with_plan.insert(with_plan.end(), a->answers.begin(),
                         a->answers.end());
        if (a->done) break;
        start = a->next;
      }
      EXPECT_EQ(with_plan, expected)
          << s.q.ToString() << " chunk " << chunk_size << "\n"
          << db.ToString();
      EXPECT_EQ(Drain(s.q, s.frees, db, chunk_size), expected);
    }
  }
  EXPECT_GE(nonempty, 30) << "too few streams with answers";
}

// The plan classifies the query with its free variables reified, once.
// Every grounded candidate must then go to exactly the engine `kAuto`
// would pick for it — classifying the plain query instead sends q2's
// candidates (plain q2 is L-hard, q2 with p fixed is FO) to backtracking.
TEST(AnswerPlanTest, PlanEngineIsWhatAutoPicksForEveryGroundedCandidate) {
  auto check = [](const Query& q, const std::vector<Symbol>& frees,
                  const Database& db) {
    Result<std::shared_ptr<const AnswerPlan>> plan =
        MakeAnswerPlan(q, frees, db, SolverMethod::kAuto);
    ASSERT_TRUE(plan.ok()) << plan.error();
    const std::vector<std::vector<Value>>& lists = (*plan)->candidates;
    for (uint64_t pos = 0; pos < (*plan)->total; ++pos) {
      Query ground = q;
      uint64_t rem = pos;
      for (size_t i = lists.size(); i-- > 0;) {
        ground = ground.Substituted(frees[i], lists[i][rem % lists[i].size()]);
        rem /= lists[i].size();
      }
      Result<SolveReport> report = SolveCertainty(ground, db);
      ASSERT_TRUE(report.ok()) << report.error();
      ASSERT_EQ((*plan)->engine, report->used)
          << "candidate " << ground.ToString() << " of " << q.ToString();
      ASSERT_EQ((*plan)->classification.cls, report->classification.cls)
          << "candidate " << ground.ToString() << " of " << q.ToString();
    }
  };

  const Symbol p = InternSymbol("p");
  Rng poll_rng(31);
  PollDbOptions popts;
  popts.num_persons = 12;
  popts.num_towns = 4;
  Database poll = GeneratePollDatabase(popts, &poll_rng);
  for (const Query& q : {PollQ1(), PollQ2(), PollQa(), PollQb()}) {
    check(q, {p}, poll);
  }
  Result<std::shared_ptr<const AnswerPlan>> q2 =
      MakeAnswerPlan(PollQ2(), {p}, poll, SolverMethod::kAuto);
  ASSERT_TRUE(q2.ok()) << q2.error();
  EXPECT_NE(Classify(PollQ2()).cls, CertaintyClass::kFO);
  EXPECT_EQ((*q2)->classification.cls, CertaintyClass::kFO);
  EXPECT_EQ((*q2)->engine, SolverMethod::kAlgorithm1);

  Rng rng(20'261'020);
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.domain_size = 3;
  for (int trial = 0; trial < 300; ++trial) {
    RandomStream s = DrawStream(&rng);
    check(s.q, s.frees, GenerateRandomDatabaseFor(s.q, dopts, &rng));
  }
}

TEST(AnswerPlanTest, PlanForAnotherEpochIsRefusedTyped) {
  Query q = Q("P(x | y), not N(x | y)");
  Database before = Db("P(k1 | a), P(k2 | a)");
  Database after = Db("P(k1 | a), P(k2 | a)\nN(k1 | a)");
  Result<std::shared_ptr<const AnswerPlan>> plan =
      MakeAnswerPlan(q, {InternSymbol("x")}, before, SolverMethod::kAuto);
  ASSERT_TRUE(plan.ok()) << plan.error();
  Result<AnswerChunk> chunk = EnumerateAnswerChunk(**plan, after, 0, 64);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kStaleCursor);
}

}  // namespace
}  // namespace cqa
