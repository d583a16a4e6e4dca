#include <gtest/gtest.h>

#include "cqa/attack/classification.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/naive.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"
#include "cqa/reductions/bpm.h"
#include "cqa/reductions/hall_covering.h"
#include "cqa/rewriting/algorithm1.h"

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

void CrossValidate(const Query& q, int trials, uint64_t seed,
                   RandomDbOptions db_opts = {}) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    Database db = GenerateRandomDatabaseFor(q, db_opts, &rng);
    Result<bool> expected = IsCertainNaive(q, db);
    ASSERT_TRUE(expected.ok());
    Result<bool> got = IsCertainAlgorithm1(q, db);
    ASSERT_TRUE(got.ok()) << got.error();
    ASSERT_EQ(got.value(), expected.value())
        << "query: " << q.ToString() << "\ndb:\n" << db.ToString();
  }
}

TEST(Algorithm1Test, RejectsOutsideFoFragment) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Database db(s);
  EXPECT_FALSE(IsCertainAlgorithm1(MakeQ1(), db).ok());
  EXPECT_FALSE(
      IsCertainAlgorithm1(Q("X(x), Y(y), not R(x | y), not S(y | x)"), db)
          .ok());
}

TEST(Algorithm1Test, Q3HandCases) {
  Query q3 = Q("P(x | y), not N('c' | y)");
  EXPECT_TRUE(IsCertainAlgorithm1(q3, Db("P(k1 | a)\nP(k2 | b)\nN(c | b)"))
                  .value());
  EXPECT_FALSE(
      IsCertainAlgorithm1(q3, Db("P(k1 | b), P(k1 | a)\nN(c | b)")).value());
  EXPECT_FALSE(IsCertainAlgorithm1(q3, Db("N(c | b)")).value());
  EXPECT_TRUE(IsCertainAlgorithm1(q3, Db("P(k1 | b)\nN(d | b)")).value());
}

TEST(Algorithm1Test, CrossValidatesOnNamedQueries) {
  CrossValidate(Q("P(x | y), not N('c' | y)"), 300, 101);
  CrossValidate(Q("R(x | y), S(y | z)"), 300, 103);
  CrossValidate(Q("P(x | y), not N(x | y)"), 300, 107);
  CrossValidate(Q("P(y), not N('c' | 'a', y, y)"), 200, 109);
  RandomDbOptions small;
  small.blocks_per_relation = 3;
  small.max_block_size = 2;
  small.domain_size = 4;
  CrossValidate(PollQa(), 200, 113, small);
  CrossValidate(PollQb(), 200, 127, small);
}

TEST(Algorithm1Test, HallQueriesAgainstCoveringSolver) {
  Query q = MakeHallQuery(3);
  Rng rng(131);
  for (int i = 0; i < 100; ++i) {
    SCoveringInstance inst;
    inst.num_elements = static_cast<int>(rng.Range(0, 4));
    for (int t = 0; t < 3; ++t) {
      std::vector<int> set;
      for (int a = 0; a < inst.num_elements; ++a) {
        if (rng.Chance(0.5)) set.push_back(a);
      }
      inst.sets.push_back(std::move(set));
    }
    Database db = CoveringToHallDatabase(inst);
    bool coverable = SolveSCovering(inst).has_value();
    Result<bool> certain = IsCertainAlgorithm1(q, db);
    ASSERT_TRUE(certain.ok());
    EXPECT_EQ(certain.value(), !coverable);
  }
}

TEST(Algorithm1Test, MemoizationReducesCalls) {
  Query q = MakeHallQuery(4);
  SCoveringInstance inst{4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}};
  Database db = CoveringToHallDatabase(inst);

  Algorithm1 memo(db, {.memoize = true});
  Result<bool> r1 = memo.IsCertain(q);
  ASSERT_TRUE(r1.ok());
  uint64_t calls_memo = memo.calls();

  Algorithm1 plain(db, {.memoize = false});
  Result<bool> r2 = plain.IsCertain(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
  EXPECT_LE(calls_memo, plain.calls());
}

TEST(Algorithm1Test, EmptyDatabaseAndEmptyishQueries) {
  Schema s;
  s.AddRelationOrDie("P", 2, 1);
  s.AddRelationOrDie("N", 2, 1);
  Database empty(s);
  EXPECT_FALSE(
      IsCertainAlgorithm1(Q("P(x | y), not N('c' | y)"), empty).value());
  // Fully ground query.
  EXPECT_FALSE(IsCertainAlgorithm1(Q("P('a' | 'b')"), empty).value());
  Database one(s);
  one.AddFactOrDie("P", {Value::Of("a"), Value::Of("b")});
  EXPECT_TRUE(IsCertainAlgorithm1(Q("P('a' | 'b')"), one).value());
  EXPECT_TRUE(
      IsCertainAlgorithm1(Q("P('a' | 'b'), not N('x' | 'y')"), one).value());
}

// Every grounding q[p→c] of the poll queries — the per-candidate work of
// an answer stream with free p — against the naive repair oracle. The
// constants come from the whole active domain, so groundings no positive
// fact matches are covered as well as the stream's own candidates.
TEST(Algorithm1Test, GroundedPollCandidatesMatchNaive) {
  const Symbol p = InternSymbol("p");
  Rng rng(151);
  PollDbOptions opts;
  opts.num_persons = 4;
  opts.num_towns = 3;
  opts.inconsistency = 0.4;
  int compared = 0;
  for (int trial = 0; trial < 25; ++trial) {
    Database db = GeneratePollDatabase(opts, &rng);
    for (const Query& q : {PollQa(), PollQb(), PollQ2()}) {
      for (Value c : db.ActiveDomain()) {
        Query ground = q.Substituted(p, c);
        Result<bool> expected = IsCertainNaive(ground, db);
        ASSERT_TRUE(expected.ok()) << expected.error();
        Result<bool> got = IsCertainAlgorithm1(ground, db);
        ASSERT_TRUE(got.ok()) << ground.ToString() << ": " << got.error();
        ASSERT_EQ(got.value(), expected.value())
            << "query: " << ground.ToString() << "\ndb:\n" << db.ToString();
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 300);
}

// Constant-heavy random FO queries: constants in positive atoms are what
// the candidate filter keys on, so they get a high rate here. Backtracking
// is the independent exact engine (the naive oracle is too slow at this
// database size).
TEST(Algorithm1Test, ConstantHeavyRandomFoQueriesMatchBacktracking) {
  Rng rng(157);
  RandomQueryOptions qopts;
  qopts.max_positive = 3;
  qopts.max_negative = 2;
  qopts.max_arity = 3;
  qopts.num_vars = 3;
  qopts.constant_prob = 0.45;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 5;
  dopts.domain_size = 3;
  int compared = 0;
  for (int trial = 0; trial < 3000 && compared < 300; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    if (Classify(q).cls != CertaintyClass::kFO) continue;
    for (int d = 0; d < 3; ++d) {
      Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
      Result<BacktrackingReport> expected = SolveCertainBacktracking(q, db);
      ASSERT_TRUE(expected.ok()) << expected.error();
      Result<bool> got = IsCertainAlgorithm1(q, db);
      ASSERT_TRUE(got.ok()) << q.ToString() << ": " << got.error();
      ASSERT_EQ(got.value(), expected->certain)
          << "query: " << q.ToString() << "\ndb:\n" << db.ToString();
    }
    ++compared;
  }
  EXPECT_GE(compared, 200) << "too few FO queries drawn";
}

// Call-count regression for the candidate filter. On q2[p→c] =
// {Likes(c, t), ¬Lives(c | t), ¬Mayor(t | c)} the key variable t of Mayor
// takes only the towns c itself likes, so the recursion is linear in c's
// Likes facts; drawing t from the whole Likes column made every grounding
// cost about 200 calls on this database.
TEST(Algorithm1Test, GroundedQ2CallsScaleWithTheCandidatesOwnLikes) {
  Rng rng(8);
  PollDbOptions opts;
  opts.num_persons = 500;
  opts.num_towns = 100;
  Database db = GeneratePollDatabase(opts, &rng);
  const Symbol p = InternSymbol("p");
  const Symbol likes = InternSymbol("Likes");
  const Query q2 = PollQ2();
  Result<std::vector<std::vector<Value>>> candidates =
      CertainAnswerCandidates(q2, {p}, db);
  ASSERT_TRUE(candidates.ok()) << candidates.error();
  ASSERT_GE(candidates->at(0).size(), 300u);
  uint64_t worst = 0;
  for (Value c : candidates->at(0)) {
    uint64_t own_likes = 0;
    for (const Tuple& fact : db.FactsOf(likes)) own_likes += fact[0] == c;
    Algorithm1 algo(db);
    Result<bool> certain = algo.IsCertain(q2.Substituted(p, c));
    ASSERT_TRUE(certain.ok()) << certain.error();
    EXPECT_LE(algo.calls(), 8 * own_likes + 4)
        << SymbolName(c.id()) << " likes " << own_likes << " towns";
    worst = std::max(worst, algo.calls());
  }
  EXPECT_LE(worst, 24u);
}

}  // namespace
}  // namespace cqa
