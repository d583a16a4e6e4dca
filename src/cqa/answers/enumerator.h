#ifndef CQA_ANSWERS_ENUMERATOR_H_
#define CQA_ANSWERS_ENUMERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cqa/answers/answer_chunk.h"
#include "cqa/attack/classification.h"
#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/fo/formula.h"
#include "cqa/query/query.h"

namespace cqa {

/// Knobs for one incremental enumeration step.
struct EnumerateOptions {
  /// First candidate position to scan (a resume point from a previous
  /// chunk's `next`, or 0 for a fresh stream).
  uint64_t start = 0;
  /// Stop after this many certain answers have been collected (the
  /// chunk may scan arbitrarily many non-answer candidates in between,
  /// bounded only by the budget). Clamped to at least 1.
  uint64_t max_chunk = 64;
  /// Per-candidate decision engine. `kAuto` dispatches the solver;
  /// `kRewriting` evaluates the consistent first-order rewriting of
  /// Lemma 6.1 with the free variables left free (requires the FO
  /// class). Sampling is rejected: an answer *set* must be exact.
  SolverMethod method = SolverMethod::kAuto;
};

/// What every chunk of one answer stream shares: built once per (query,
/// free variables, method, database epoch), immutable afterwards, so one
/// plan may serve any number of chunks, on any thread.
struct AnswerPlan {
  explicit AnswerPlan(Query q) : query(std::move(q)) {}

  Query query;
  std::vector<Symbol> free_vars;
  /// `free_vars` spelled, in answer-tuple column order.
  std::vector<std::string> free_names;
  /// The method the stream asked for.
  SolverMethod method = SolverMethod::kAuto;
  /// Classification of `query` with the free variables reified — never of
  /// the plain query: plain q2 is L-hard, but q2 with p fixed is FO. Every
  /// grounded candidate classifies the same way (Lemma 6.10), so no
  /// candidate is classified again.
  Classification classification;
  /// The engine each grounded candidate goes to: what `kAuto` dispatches
  /// the reified query to, or the explicitly requested method.
  SolverMethod engine = SolverMethod::kAuto;
  /// `kRewriting` only: the Lemma 6.1 formula with the free variables left
  /// free, or the error building it (surfaced by the first chunk with a
  /// candidate to decide, so an empty span still succeeds).
  Result<FoPtr> formula =
      Result<FoPtr>::Error(ErrorCode::kInternal, "no rewriting requested");
  /// Per-variable candidate lists, each sorted by value spelling.
  std::vector<std::vector<Value>> candidates;
  /// Size of the candidate space (product of the list sizes).
  uint64_t total = 0;
  /// The epoch the candidate lists were drawn from.
  DbFingerprint fingerprint;
  /// `AnswerQueryHash(query, free_names)`: the stream this plan serves.
  uint64_t query_hash = 0;
};

/// Builds the plan for enumerating the certain answers of `q` with
/// `free_vars` on `db`. Fails `kUnsupported` when a free variable has no
/// positive occurrence, the candidate space exceeds 2^62 positions, or
/// `method` cannot produce exact verdicts (sampling).
Result<std::shared_ptr<const AnswerPlan>> MakeAnswerPlan(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    SolverMethod method);

/// Computes one chunk of `plan`'s stream on `db`, scanning candidate
/// positions from `start` in the deterministic canonical order
/// (per-variable candidate lists sorted by value spelling; tuples
/// enumerated in lexicographic order). Each candidate goes straight to
/// `plan.engine` (or the plan's formula), so a chunk costs only its
/// scanned candidates. The chunk ends at `max_chunk` answers (clamped to
/// at least 1), at the end of the candidate space, or — partially — when
/// `budget` trips after at least one candidate was decided
/// (`AnswerChunk::exhausted`); a budget that trips before the first
/// candidate fails typed instead. Fails `kParse` when `start` lies beyond
/// the candidate space (a cursor for some other epoch or query) and
/// `kStaleCursor` when `db` is not the epoch the plan was built on.
Result<AnswerChunk> EnumerateAnswerChunk(const AnswerPlan& plan,
                                         const Database& db, uint64_t start,
                                         uint64_t max_chunk,
                                         Budget* budget = nullptr);

/// One-call form: builds the plan for (q, free_vars, options.method) on
/// `db` and enumerates one chunk of it. Fails `kUnsupported` as
/// `MakeAnswerPlan` does, otherwise as the plan overload.
///
/// Determinism contract: for fixed (q, free_vars, db), concatenating the
/// `answers` of chunks over adjacent `[start, next)` spans yields exactly
/// `ComputeCertainAnswers`'s sorted answer list, for any chunking — with
/// one plan or with a fresh plan per chunk alike.
Result<AnswerChunk> EnumerateAnswerChunk(const Query& q,
                                         const std::vector<Symbol>& free_vars,
                                         const Database& db,
                                         const EnumerateOptions& options,
                                         Budget* budget = nullptr);

}  // namespace cqa

#endif  // CQA_ANSWERS_ENUMERATOR_H_
