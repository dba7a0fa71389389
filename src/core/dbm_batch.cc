#include "core/dbm_batch.h"

#include <cassert>
#include <vector>

#include "obs/metrics.h"

namespace itdb {

namespace {

constexpr std::int64_t kInf = Dbm::kInf;
constexpr std::int64_t kBoundLimit = Dbm::kBoundLimit;

obs::Counter& CloseBatchCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("dbm.close_batch");
  return *counter;
}

obs::Counter& CloseBatchSystemsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("dbm.close_batch_systems");
  return *counter;
}

}  // namespace

DbmSlab::DbmSlab(Arena* arena, int num_vars, std::int64_t count)
    : num_vars_(num_vars), count_(count), arena_(arena) {
  assert(num_vars >= 0 && count >= 0);
  std::size_t n = static_cast<std::size_t>(num_vars) + 1;
  slab_ = arena->AllocateArray<std::int64_t>(
      n * n * static_cast<std::size_t>(count));
}

void DbmSlab::InitUnconstrained() {
  const int n = nodes();
  const std::size_t cnt = static_cast<std::size_t>(count_);
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      std::int64_t* row =
          slab_ + (static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(q)) *
                      cnt;
      const std::int64_t fill = p == q ? 0 : kInf;
      for (std::size_t t = 0; t < cnt; ++t) row[t] = fill;
    }
  }
}

void DbmSlab::Load(std::int64_t t, const Dbm& d) {
  assert(d.num_vars() == num_vars_);
  const int n = nodes();
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      at(p, q, t) = d.bound_node(p, q);
    }
  }
}

void DbmSlab::CloseAll(bool* feasible, bool* overflow) {
  CloseBatchCounter().Increment();
  CloseBatchSystemsCounter().Add(count_);
  const int n = nodes();
  const std::size_t cnt = static_cast<std::size_t>(count_);
  std::int64_t* pr_snap = arena_->AllocateArray<std::int64_t>(cnt);
  // Floyd-Warshall in lockstep over all systems.  Per system this performs
  // the scalar Dbm::Close() relaxations in the scalar order: the (p, r)
  // operand is snapshotted before each q sweep exactly as the scalar loop
  // hoists it, so even pathological (negative-cycle) systems produce the
  // same matrices entry for entry.
  for (int r = 0; r < n; ++r) {
    for (int p = 0; p < n; ++p) {
      const std::int64_t* pr_row =
          slab_ + (static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(r)) *
                      cnt;
      for (std::size_t t = 0; t < cnt; ++t) pr_snap[t] = pr_row[t];
      for (int q = 0; q < n; ++q) {
        const std::int64_t* rq_row =
            slab_ + (static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(q)) *
                        cnt;
        std::int64_t* pq_row =
            slab_ + (static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(q)) *
                        cnt;
        // The stride-1 min-plus update: this is the loop the vectorizer
        // turns into SIMD compares/adds/blends.
        for (std::size_t t = 0; t < cnt; ++t) {
          const std::int64_t a = pr_snap[t];
          const std::int64_t b = rq_row[t];
          const std::int64_t via = (a == kInf || b == kInf) ? kInf : a + b;
          if (via < pq_row[t]) pq_row[t] = via;
        }
      }
    }
  }
  for (std::size_t t = 0; t < cnt; ++t) {
    feasible[t] = true;
    overflow[t] = false;
  }
  for (int p = 0; p < n; ++p) {
    const std::int64_t* diag =
        slab_ + (static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(p)) *
                    cnt;
    for (std::size_t t = 0; t < cnt; ++t) {
      if (diag[t] < 0) feasible[t] = false;
    }
  }
  // The scalar kernel only polices the bound range on feasible systems.
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      const std::int64_t* row =
          slab_ + (static_cast<std::size_t>(p) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(q)) *
                      cnt;
      for (std::size_t t = 0; t < cnt; ++t) {
        if (feasible[t] && row[t] != kInf &&
            (row[t] > kBoundLimit || row[t] < -kBoundLimit)) {
          overflow[t] = true;
        }
      }
    }
  }
}

Dbm DbmSlab::Extract(std::int64_t t) const {
  const int n = nodes();
  std::int64_t local[Dbm::kMaxInlineNodes * Dbm::kMaxInlineNodes];
  std::vector<std::int64_t> heap;
  std::int64_t* entries = local;
  if (n > static_cast<int>(Dbm::kMaxInlineNodes)) {
    heap.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
    entries = heap.data();
  }
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      entries[p * n + q] = at(p, q, t);
    }
  }
  return Dbm::FromClosedEntries(num_vars_, entries);
}

}  // namespace itdb
