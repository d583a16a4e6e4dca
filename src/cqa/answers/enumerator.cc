#include "cqa/answers/enumerator.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cqa/answers/cursor.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/fo/eval.h"

namespace cqa {

namespace {

// Hard bound on the flattened candidate space. Positions are u64; keep a
// wide safety margin below overflow so `start + scanned` arithmetic can
// never wrap.
constexpr uint64_t kMaxCandidateSpace = 1ull << 62;

}  // namespace

Result<std::shared_ptr<const AnswerPlan>> MakeAnswerPlan(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    SolverMethod method) {
  using Out = Result<std::shared_ptr<const AnswerPlan>>;
  if (method == SolverMethod::kSampling) {
    return Out::Error(ErrorCode::kUnsupported,
                      "answer enumeration needs exact verdicts; sampling "
                      "cannot soundly include or exclude a candidate");
  }
  Result<std::vector<std::vector<Value>>> lists =
      CertainAnswerCandidates(q, free_vars, db);
  if (!lists.ok()) return Out::Error(lists);

  auto plan = std::make_shared<AnswerPlan>(q);
  plan->free_vars = free_vars;
  for (Symbol v : free_vars) plan->free_names.push_back(SymbolName(v));
  plan->method = method;

  // Canonical order: each list sorted by value spelling, so the flat
  // mixed-radix position (first variable most significant) enumerates
  // tuples in exactly the lexicographic order `ComputeCertainAnswers`
  // sorts into — and positions are stable across processes and restarts
  // of the same database epoch. Each spelling is looked up once (every
  // lookup takes the interner's lock), not twice per comparison.
  plan->candidates = std::move(lists.value());
  std::vector<std::pair<std::string, Value>> spelled;
  for (std::vector<Value>& list : plan->candidates) {
    spelled.clear();
    for (Value v : list) spelled.emplace_back(v.name(), v);
    std::sort(spelled.begin(), spelled.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < list.size(); ++i) list[i] = spelled[i].second;
  }
  plan->total = 1;
  for (const std::vector<Value>& list : plan->candidates) {
    if (list.empty()) {
      plan->total = 0;
      break;
    }
    if (plan->total > kMaxCandidateSpace / list.size()) {
      return Out::Error(ErrorCode::kUnsupported,
                        "candidate space exceeds 2^62 positions");
    }
    plan->total *= list.size();
  }

  // One classification for the whole stream: the free variables behave
  // as constants, exactly as in every grounded candidate (Lemma 6.10).
  const Query reified = q.WithReified(SymbolSet(free_vars));
  plan->classification = Classify(reified);
  plan->engine = method == SolverMethod::kAuto
                     ? AutoEngine(reified, plan->classification)
                     : method;
  if (method == SolverMethod::kRewriting) {
    plan->formula = RewriteCertainWithFree(q, free_vars);
  }
  plan->fingerprint = FingerprintDatabase(db);
  plan->query_hash = AnswerQueryHash(q, plan->free_names);
  return std::shared_ptr<const AnswerPlan>(std::move(plan));
}

Result<AnswerChunk> EnumerateAnswerChunk(const AnswerPlan& plan,
                                         const Database& db, uint64_t start,
                                         uint64_t max_chunk, Budget* budget) {
  using Out = Result<AnswerChunk>;
  if (FingerprintDatabase(db) != plan.fingerprint) {
    return Out::Error(ErrorCode::kStaleCursor,
                      "answer plan was built on database epoch " +
                          plan.fingerprint.ToHex() +
                          ", not on the one being enumerated");
  }
  const uint64_t total = plan.total;
  const std::vector<std::vector<Value>>& candidates = plan.candidates;
  AnswerChunk chunk;
  chunk.free_vars = plan.free_names;
  chunk.total = total;
  chunk.start = start;
  chunk.next = start;
  if (start > total) {
    return Out::Error(ErrorCode::kParse,
                      "cursor position " + std::to_string(start) +
                          " beyond the candidate space (" +
                          std::to_string(total) + ")");
  }
  if (start == total) {
    chunk.done = true;
    return chunk;
  }
  const bool by_formula = plan.method == SolverMethod::kRewriting;
  if (by_formula && !plan.formula.ok()) return Out::Error(plan.formula);

  // Odometer over the sorted lists, seeded by decoding `start` as a
  // mixed-radix numeral (first variable most significant).
  std::vector<size_t> digit(candidates.size(), 0);
  {
    uint64_t rem = start;
    for (size_t i = candidates.size(); i-- > 0;) {
      digit[i] = static_cast<size_t>(rem % candidates[i].size());
      rem /= candidates[i].size();
    }
  }

  // The rewriting path evaluates the plan's Lemma 6.1 formula per
  // candidate; every other method grounds the query and runs the plan's
  // engine on it. Both are exact.
  std::optional<FoEvaluator> eval;
  if (by_formula) eval.emplace(db);
  const std::vector<Symbol>& free_vars = plan.free_vars;
  const uint64_t max_answers = std::max<uint64_t>(1, max_chunk);
  Tuple tuple(candidates.size());
  while (chunk.next < total) {
    if (budget != nullptr) {
      if (std::optional<ErrorCode> code = budget->CheckEvery(1)) {
        if (chunk.scanned == 0) {
          return Out::Error(*code,
                            "answer chunk aborted before the first "
                            "candidate: " +
                                Budget::Describe(*code));
        }
        chunk.exhausted = true;
        break;
      }
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      tuple[i] = candidates[i][digit[i]];
    }
    Result<bool> certain = false;
    if (by_formula) {
      Valuation env;
      for (size_t i = 0; i < free_vars.size(); ++i) {
        env.emplace(free_vars[i], tuple[i]);
      }
      certain = eval->EvalGoverned(plan.formula.value(), env, budget);
    } else {
      Query ground = plan.query;
      for (size_t i = 0; i < free_vars.size(); ++i) {
        ground = ground.Substituted(free_vars[i], tuple[i]);
      }
      certain = DecideWithEngine(plan.engine, ground, db, budget);
    }
    if (!certain.ok()) {
      if (IsResourceExhaustion(certain.code()) && chunk.scanned > 0) {
        chunk.exhausted = true;
        break;
      }
      return Out::Error(certain);
    }
    ++chunk.scanned;
    ++chunk.next;
    if (certain.value()) chunk.answers.push_back(tuple);
    // Advance the odometer (least-significant digit last).
    for (size_t i = candidates.size(); i-- > 0;) {
      if (++digit[i] < candidates[i].size()) break;
      digit[i] = 0;
    }
    if (chunk.answers.size() >= max_answers) break;
  }
  chunk.done = chunk.next == total;
  return chunk;
}

Result<AnswerChunk> EnumerateAnswerChunk(const Query& q,
                                         const std::vector<Symbol>& free_vars,
                                         const Database& db,
                                         const EnumerateOptions& options,
                                         Budget* budget) {
  Result<std::shared_ptr<const AnswerPlan>> plan =
      MakeAnswerPlan(q, free_vars, db, options.method);
  if (!plan.ok()) return Result<AnswerChunk>::Error(plan);
  return EnumerateAnswerChunk(**plan, db, options.start, options.max_chunk,
                              budget);
}

}  // namespace cqa
