#include "server/admission.h"

#include "obs/metrics.h"
#include "query/prepare.h"

namespace itdb {
namespace server {

bool AdmissionQueue::TryAdmit(CostClass cls) {
  if (cls == CostClass::kHeavy && !PromoteToHeavy()) return false;
  std::int64_t now = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > options_.max_pending) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    if (cls == CostClass::kHeavy) {
      pending_heavy_.fetch_sub(1, std::memory_order_relaxed);
    }
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::AddGlobalCounter("server.shed", 1);
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Global()
      .GetCounter("server.queue_depth_max")
      ->RecordMax(now);
  return true;
}

bool AdmissionQueue::PromoteToHeavy() {
  std::int64_t now = pending_heavy_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (now > options_.max_pending_heavy) {
    pending_heavy_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_heavy_.fetch_add(1, std::memory_order_relaxed);
    obs::AddGlobalCounter("server.shed", 1);
    obs::AddGlobalCounter("server.shed_heavy", 1);
    return false;
  }
  return true;
}

void AdmissionQueue::Release(CostClass cls) {
  pending_.fetch_sub(1, std::memory_order_relaxed);
  if (cls == CostClass::kHeavy) {
    pending_heavy_.fetch_sub(1, std::memory_order_relaxed);
  }
}

CostGrade GradeQueryCost(const Database& db, const query::QueryPtr& q) {
  query::QueryOptions options;
  options.analysis.check_emptiness = false;
  return query::Prepare(db, q, options).grade;
}

}  // namespace server
}  // namespace itdb
