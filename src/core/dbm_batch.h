// Batched DBM kernels over entry-major slabs.
//
// The scalar Dbm stores one bound matrix per object and closes it with a
// Floyd-Warshall sweep whose inner loop walks a single small matrix.  The
// algebra's hot paths, however, close MANY matrices of the same shape at
// once: every tuple of a relation (hull construction), every candidate of a
// normalization cross product, every branch of a temporal selection.  This
// module stores such a batch as one contiguous slab in ENTRY-MAJOR order --
//
//     slab[(p * n + q) * count + t]  =  entry (p, q) of system t
//
// -- so the relaxation loop over systems t is a contiguous, stride-1 sweep
// the compiler auto-vectorizes (verified with -fopt-info-vec: the min-plus
// update compiles to SIMD compares/adds/blends).  The per-system results are
// BIT-IDENTICAL to running the scalar Dbm operations one system at a time:
// closure relaxations are monotone min-assigns, so the pivot-skip heuristic
// of Dbm::Close() and the lockstep sweep here reach the same fixpoint, and
// the feasibility / overflow decisions replicate the scalar checks entry
// for entry.  The fuzzer's layout axis pins this equivalence.
//
// Slabs borrow their memory from an Arena (util/arena.h); a slab is a view,
// the arena owns the bytes.

#ifndef ITDB_CORE_DBM_BATCH_H_
#define ITDB_CORE_DBM_BATCH_H_

#include <cstdint>

#include "core/dbm.h"
#include "util/arena.h"
#include "util/status.h"

namespace itdb {

/// A batch of `count` DBM bound matrices over `num_vars + 1` nodes each, in
/// entry-major layout, allocated from an arena.
class DbmSlab {
 public:
  /// An uninitialized slab; call InitUnconstrained() or Load() per system.
  DbmSlab(Arena* arena, int num_vars, std::int64_t count);

  int num_vars() const { return num_vars_; }
  int nodes() const { return num_vars_ + 1; }
  std::int64_t count() const { return count_; }

  /// Entry (p, q) of system t.
  std::int64_t& at(int p, int q, std::int64_t t) {
    return slab_[(static_cast<std::size_t>(p) * static_cast<std::size_t>(nodes()) +
                  static_cast<std::size_t>(q)) *
                     static_cast<std::size_t>(count_) +
                 static_cast<std::size_t>(t)];
  }
  std::int64_t at(int p, int q, std::int64_t t) const {
    return slab_[(static_cast<std::size_t>(p) * static_cast<std::size_t>(nodes()) +
                  static_cast<std::size_t>(q)) *
                     static_cast<std::size_t>(count_) +
                 static_cast<std::size_t>(t)];
  }

  /// Sets every system to the unconstrained matrix (diagonal 0, kInf off it).
  void InitUnconstrained();

  /// Copies the bound matrix of `d` (num_vars must match) into system t.
  void Load(std::int64_t t, const Dbm& d);

  /// min-assigns entry (p, q) of system t, exactly like Dbm::Tighten.
  void Tighten(int p, int q, std::int64_t t, std::int64_t v) {
    std::int64_t& cell = at(p, q, t);
    if (v < cell) cell = v;
  }

  /// Applies one atomic constraint to system t (Dbm::AddAtomic semantics for
  /// the non-degenerate forms; callers handle the ground 0 <= bound case).
  void AddAtomic(std::int64_t t, int lhs, int rhs, std::int64_t bound) {
    Tighten(lhs + 1, rhs + 1, t, bound);
  }

  /// Per-system outcome of CloseAll, matching Dbm::Close():
  ///   feasible[t]  -- no negative diagonal after closure;
  ///   overflow[t]  -- feasible and some finite bound left the safe range
  ///                   (the scalar kernel's Status::Overflow case).
  /// The arrays must hold count() entries.
  void CloseAll(bool* feasible, bool* overflow);

  /// Extracts system t as a closed, feasible Dbm.  Pre: CloseAll() ran and
  /// reported system t feasible without overflow.
  Dbm Extract(std::int64_t t) const;

 private:
  int num_vars_;
  std::int64_t count_;
  Arena* arena_;  // Owns slab_ and CloseAll's snapshot scratch.
  std::int64_t* slab_;
};

}  // namespace itdb

#endif  // ITDB_CORE_DBM_BATCH_H_
