// Linear repeating points (Definition 2.1 of the paper).
//
// An lrp is the set {c + k*n | n in Z}.  For k != 0 this is an arithmetic
// progression unbounded in both directions (a residue class modulo |k|);
// for k == 0 it is the singleton {c}.  Lrps are the values of the temporal
// attributes of generalized tuples.
//
// Canonical form maintained by this class: period >= 0, and for period > 0
// the offset satisfies 0 <= offset < period.  (Replacing c by c mod k does
// not change the set since n ranges over all of Z, and neither does flipping
// the sign of k.)

#ifndef ITDB_CORE_LRP_H_
#define ITDB_CORE_LRP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace itdb {

struct LrpDifference;

/// A linear repeating point: the set {offset + period * n | n in Z}.
class Lrp {
 public:
  /// The singleton {0}.
  Lrp() = default;

  /// Builds the lrp {c + k*n}; canonicalizes sign and offset.
  static Lrp Make(std::int64_t c, std::int64_t k);

  /// The singleton {c}.
  static Lrp Singleton(std::int64_t c) { return Make(c, 0); }

  std::int64_t offset() const { return offset_; }
  std::int64_t period() const { return period_; }

  /// True when the lrp contains exactly one point (period == 0).
  bool IsSingleton() const { return period_ == 0; }

  /// Set membership: t in {offset + period * n}.
  bool Contains(std::int64_t t) const;

  /// Set inclusion: every element of `other` is an element of *this.
  bool Includes(const Lrp& other) const;

  /// Set intersection (Section 3.2.1 of the paper).  The intersection of two
  /// lrps is again an lrp or empty; computed with the extended Euclid /
  /// Chinese-remainder construction.  Returns nullopt for the empty set and
  /// a Status on (unlikely) int64 overflow of the combined period.
  static Result<std::optional<Lrp>> Intersect(const Lrp& a, const Lrp& b);

  /// Computes the set difference a - b (Section 3.3.1); see LrpDifference.
  static Result<LrpDifference> Subtract(const Lrp& a, const Lrp& b);

  /// Lemma 3.1: rewrites this lrp (period k > 0) as the equivalent set of
  /// new_period / k lrps of period `new_period`, which must be a positive
  /// multiple of k.
  Result<std::vector<Lrp>> SplitToPeriod(std::int64_t new_period) const;

  /// Smallest element >= t.  nullopt when the lrp is the singleton {c} with
  /// c < t, or when the next element exceeds the int64 range.
  std::optional<std::int64_t> FirstAtLeast(std::int64_t t) const;

  /// All elements x with lo <= x <= hi, ascending.
  std::vector<std::int64_t> ElementsInRange(std::int64_t lo,
                                            std::int64_t hi) const;

  /// "c" for singletons, "c+kn" otherwise (e.g. "3+5n", "0+2n").
  std::string ToString() const;
  /// Appends ToString()'s form to `out` without a temporary string.
  void AppendTo(std::string& out) const;

  friend bool operator==(const Lrp& a, const Lrp& b) = default;

 private:
  std::int64_t offset_ = 0;
  std::int64_t period_ = 0;
};

/// The result of an lrp set difference a - b (Section 3.3.1).  The
/// difference is a finite union of lrps, except in one degenerate case the
/// paper glosses over: removing a single point p from an infinite lrp.
/// That case is reported via `punctured`, meaning the true difference is
/// punctured->base minus the point punctured->point, which callers represent
/// with bound constraints at the tuple level (see GeneralizedTuple
/// subtraction).
struct LrpDifference {
  struct Punctured {
    Lrp base;
    std::int64_t point;
  };
  std::vector<Lrp> parts;
  std::optional<Punctured> punctured;

  bool IsEmpty() const { return parts.empty() && !punctured.has_value(); }
};

std::ostream& operator<<(std::ostream& os, const Lrp& lrp);

}  // namespace itdb

#endif  // ITDB_CORE_LRP_H_
