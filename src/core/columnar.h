// Columnar (structure-of-arrays) views of generalized relations.
//
// GeneralizedRelation stores an array of GeneralizedTuple structs: each
// tuple owns its lrp vector, its data vector, and its DBM, scattered across
// the heap.  The binary algebra kernels, however, sweep one FIELD across
// many tuples -- every period of column 2 for the residue prefilter, every
// constraint matrix for hull construction -- so the AoS layout turns those
// sweeps into pointer chases.  ColumnarRelation regroups a chosen subset of
// rows by field into contiguous arrays borrowed from an Arena:
//
//   offsets(col)[i], periods(col)[i]   lrp components, one array per column
//   hull_lo(col)[i], hull_hi(col)[i]   per-column bounding intervals
//   (plus the closed constraint systems in one entry-major DbmSlab)
//
// Construction closes ALL selected constraint systems in one batched
// Floyd-Warshall over the slab (dbm_batch.h) instead of one scalar closure
// per tuple.  The per-row outcomes -- closed matrix, feasibility, overflow
// -- are bit-identical to the scalar TemporalHull::Of path; Hull(i)
// materializes exactly that struct.  The fuzzer's determinism matrix pins
// the equivalence: its indexed configs (which hoist through this view) must
// match the naive reference kernels.
//
// A ColumnarRelation is a VIEW: it borrows its memory from the arena and
// keeps indices into the source relation for everything not regrouped
// (data values, full tuples).  It must not outlive either.

#ifndef ITDB_CORE_COLUMNAR_H_
#define ITDB_CORE_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "core/dbm_batch.h"
#include "core/index.h"
#include "core/relation.h"
#include "util/arena.h"

namespace itdb {

/// An SoA regrouping of rows `rows` of a relation, with all constraint
/// systems closed on one slab.
class ColumnarRelation {
 public:
  /// Builds the view in `arena`.  `rows` lists source-relation indices; the
  /// view's row i corresponds to source row rows[i].
  ColumnarRelation(const GeneralizedRelation& r,
                   const std::vector<std::size_t>& rows, Arena* arena);

  std::int64_t count() const { return count_; }
  int temporal_arity() const { return arity_; }

  /// Contiguous lrp components of one temporal column, `count()` entries.
  const std::int64_t* offsets(int col) const {
    return offsets_ + static_cast<std::size_t>(col) * static_cast<std::size_t>(count_);
  }
  const std::int64_t* periods(int col) const {
    return periods_ + static_cast<std::size_t>(col) * static_cast<std::size_t>(count_);
  }
  /// The lrp of column `col` in view row `i`, reassembled by value.
  Lrp lrp(int col, std::int64_t i) const {
    return Lrp::Make(offsets(col)[i], periods(col)[i]);
  }

  /// Scalar-equivalent closure outcome of row i's constraints (the
  /// TemporalHull::Of triage): exactly one of usable / infeasible /
  /// close_failed holds.
  bool usable(std::int64_t i) const {
    return feasible_[i] && !overflow_[i];
  }
  bool infeasible(std::int64_t i) const { return !feasible_[i]; }
  bool close_failed(std::int64_t i) const {
    return feasible_[i] && overflow_[i];
  }

  /// Bounding intervals of one column across all rows (Dbm::kInf sentinels
  /// as in TemporalHull).  Entries of non-usable rows are unspecified.
  const std::int64_t* hull_lo(int col) const {
    return hull_lo_ + static_cast<std::size_t>(col) * static_cast<std::size_t>(count_);
  }
  const std::int64_t* hull_hi(int col) const {
    return hull_hi_ + static_cast<std::size_t>(col) * static_cast<std::size_t>(count_);
  }

  /// Row i's TemporalHull, bit-identical to TemporalHull::Of on the source
  /// tuple (closed matrix included, extracted from the slab).
  TemporalHull Hull(std::int64_t i) const;

  /// The source-relation index of view row i.
  std::size_t source_row(std::int64_t i) const {
    return rows_[static_cast<std::size_t>(i)];
  }

 private:
  std::int64_t count_;
  int arity_;
  std::vector<std::size_t> rows_;
  std::int64_t* offsets_;
  std::int64_t* periods_;
  std::int64_t* hull_lo_;
  std::int64_t* hull_hi_;
  bool* feasible_;
  bool* overflow_;
  DbmSlab slab_;
};

}  // namespace itdb

#endif  // ITDB_CORE_COLUMNAR_H_
