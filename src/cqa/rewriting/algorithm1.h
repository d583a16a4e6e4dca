#ifndef CQA_REWRITING_ALGORITHM1_H_
#define CQA_REWRITING_ALGORITHM1_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

struct Algorithm1Options {
  /// Memoise recursive calls on the canonical query string. The rewriting is
  /// exponential in |q| (Example 6.12); memoisation collapses repeated
  /// subproblems that arise from identical substituted subqueries.
  bool memoize = true;
  /// Optional execution governor, probed once per recursive call and per
  /// candidate valuation; not owned.
  Budget* budget = nullptr;
  /// Optional externally-owned memo arena, reused *across* `IsCertain`
  /// runs (the per-worker warm state of the serve layer threads one
  /// through). Entries map canonical substituted subqueries to certainty
  /// on one specific database — the caller must clear the arena whenever
  /// the database changes (see `WarmState::BindDatabase`). When null, a
  /// fresh internal memo is used per run. Entries computed while a budget
  /// trip is unwinding are never stored, so a shared arena only ever holds
  /// fully-computed values.
  std::unordered_map<std::string, bool>* memo_arena = nullptr;
};

/// Direct recursive interpreter of the paper's Algorithm 1: decides
/// CERTAINTY(q) on `db` without materialising the first-order rewriting.
/// Unlike the rewriter it substitutes real constants (taken from `db`)
/// rather than reifying symbolically, so candidate key valuations range
/// only over facts that a positive atom of the query maps onto (its
/// constants equal, its repeated variables agreeing).
///
/// Requires q weakly guarded with an acyclic attack graph.
class Algorithm1 {
 public:
  Algorithm1(const Database& db, Algorithm1Options options = {})
      : db_(db), options_(options) {}

  /// Returns whether q is true in every repair of the database, or an error
  /// if q is outside the FO fragment of Theorem 4.3.
  Result<bool> IsCertain(const Query& q);

  /// Number of recursive calls in the last `IsCertain` run.
  uint64_t calls() const { return calls_; }

 private:
  bool Rec(const Query& q);
  bool RecCached(const Query& q);
  bool Probe();  // charges the budget; sets abort_code_ and unwinds on trip

  bool CaseKeyVars(const Query& q, size_t pick);
  bool CaseGroundKeyNegative(const Query& q, size_t pick);
  bool CaseGroundKeyPositive(const Query& q, size_t pick);

  /// The memo in effect: the external arena when configured, else the
  /// internal per-run map.
  std::unordered_map<std::string, bool>* Memo() {
    return options_.memo_arena != nullptr ? options_.memo_arena : &memo_;
  }

  const Database& db_;
  Algorithm1Options options_;
  std::unordered_map<std::string, bool> memo_;
  uint64_t calls_ = 0;
  std::optional<ErrorCode> abort_code_;
};

/// One-shot convenience wrapper.
Result<bool> IsCertainAlgorithm1(const Query& q, const Database& db,
                                 Algorithm1Options options = {});

}  // namespace cqa

#endif  // CQA_REWRITING_ALGORITHM1_H_
