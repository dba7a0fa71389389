// Admission control for the query service.
//
// The server bounds the number of requests it will hold at once (queued on
// the thread pool or executing).  A request arriving past the bound is shed
// immediately with the protocol's retriable "retry" status instead of
// growing an unbounded backlog -- under overload, fast rejection preserves
// the latency of the work already admitted, and clients own the retry
// policy (tools/itdb_client.py backs off and resends).
//
// Admission also grades queries by cost.  The grade is CERTIFIED where
// possible: the abstract interpreter (analysis/absint.h) proves an upper
// bound on result cardinality and period lcm, and a query whose certified
// bounds exceed the analyzer's thresholds -- or whose certificate is
// unbounded AND the A010/A012 heuristics fire -- gets the "heavy" class.
// Certified grading beats the old heuristic-only grading in both
// directions: a certified-small query stays normal even when the
// heuristics panic, and a certified-huge query grades heavy even when the
// heuristics saw nothing.  Heavy queries occupy a separate, smaller
// admission budget (max_pending_heavy) so a burst of worst-case-exponential
// work cannot hold every worker while cheap queries shed behind it, and
// the session maps the class to divided tuple/split budgets and a shorter
// deadline.

#ifndef ITDB_SERVER_ADMISSION_H_
#define ITDB_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "analysis/analyzer.h"
#include "query/ast.h"
#include "storage/database.h"

namespace itdb {
namespace server {

using analysis::CostClass;
using analysis::CostGrade;

struct AdmissionOptions {
  /// Maximum requests admitted at once (queued + executing).  0 sheds
  /// everything -- useful for drain mode and for deterministic shedding
  /// tests.
  std::int64_t max_pending = 64;
  /// Maximum heavy-class requests admitted at once; heavy arrivals past
  /// this shed even while normal capacity remains.  Defaults to the
  /// max_pending default so an unconfigured queue behaves exactly as
  /// before the class existed.
  std::int64_t max_pending_heavy = 64;
};

/// A bounded admission gate.  Lock-free; safe from any thread.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options)
      : options_(options) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Tries to admit one request of class `cls` (heavy requests must clear
  /// both the total and the heavy bound).  On success the caller owes one
  /// Release(cls) with the SAME class when the request finishes; on failure
  /// the request was shed (the shed counter and the server.shed metric
  /// advance).
  bool TryAdmit(CostClass cls = CostClass::kNormal);

  /// Upgrades a request already admitted as kNormal to kHeavy once its
  /// grade is known -- the server classifies AFTER total admission so that
  /// shedding under overload never pays for analysis.  On success the
  /// caller now owes Release(kHeavy); on failure the request was shed as
  /// heavy and the caller still owes Release(kNormal).
  bool PromoteToHeavy();

  void Release(CostClass cls = CostClass::kNormal);

  /// Requests currently admitted (queued + executing).
  std::int64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }
  std::int64_t pending_heavy() const {
    return pending_heavy_.load(std::memory_order_relaxed);
  }
  std::int64_t shed_total() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::int64_t shed_heavy_total() const {
    return shed_heavy_.load(std::memory_order_relaxed);
  }
  std::int64_t admitted_total() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> pending_heavy_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> shed_heavy_{0};
  std::atomic<std::int64_t> admitted_{0};
};

/// Grades `q` against `db` from a query::Prepare of it (analysis::GradeCost)
/// -- without the emptiness pass, whose DBM closures are the expensive part
/// of analysis and play no part in the grade.  The server grades from the
/// statement's own PreparedQuery instead; this is the standalone form.
CostGrade GradeQueryCost(const Database& db, const query::QueryPtr& q);

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_ADMISSION_H_
