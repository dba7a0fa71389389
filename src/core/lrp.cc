#include "core/lrp.h"

#include <charconv>
#include <limits>
#include <ostream>
#include <string>

#include "util/numeric.h"

namespace itdb {

Lrp Lrp::Make(std::int64_t c, std::int64_t k) {
  Lrp out;
  if (k == 0) {
    out.offset_ = c;
    out.period_ = 0;
    return out;
  }
  std::int64_t period = k < 0 ? -k : k;
  out.period_ = period;
  out.offset_ = FloorMod(c, period);
  return out;
}

bool Lrp::Contains(std::int64_t t) const {
  if (period_ == 0) return t == offset_;
  return FloorMod(t - offset_, period_) == 0;
}

bool Lrp::Includes(const Lrp& other) const {
  if (other.period_ == 0) return Contains(other.offset_);
  if (period_ == 0) return false;  // A singleton cannot include an infinite set.
  // {c2 + k2 n} subset of {c1 + k1 n} iff k1 | k2 and c2 === c1 (mod k1).
  return other.period_ % period_ == 0 &&
         FloorMod(other.offset_ - offset_, period_) == 0;
}

Result<std::optional<Lrp>> Lrp::Intersect(const Lrp& a, const Lrp& b) {
  using MaybeLrp = std::optional<Lrp>;
  if (a.period_ == 0) {
    if (b.Contains(a.offset_)) return MaybeLrp(a);
    return MaybeLrp(std::nullopt);
  }
  if (b.period_ == 0) {
    if (a.Contains(b.offset_)) return MaybeLrp(b);
    return MaybeLrp(std::nullopt);
  }
  // Solve x === a.offset (mod a.period) and x === b.offset (mod b.period).
  // Solutions exist iff gcd(ka, kb) | (b.offset - a.offset); they then form
  // a single residue class modulo lcm(ka, kb) (Section 3.2.1).
  std::int64_t g = Gcd(a.period_, b.period_);
  std::int64_t diff = b.offset_ - a.offset_;  // Canonical offsets: no overflow.
  if (FloorMod(diff, g) != 0) return MaybeLrp(std::nullopt);
  ITDB_ASSIGN_OR_RETURN(std::int64_t l, Lcm(a.period_, b.period_));
  // x = a.offset + a.period * t where t === (diff / g) * inv(ka/g) (mod kb/g).
  std::int64_t ka_g = a.period_ / g;
  std::int64_t kb_g = b.period_ / g;
  ITDB_ASSIGN_OR_RETURN(std::int64_t inv, ModInverse(ka_g, kb_g));
  // All factors are reduced modulo kb_g before multiplying to stay in range;
  // the product of two values < kb_g <= 2^63 can still overflow, so use
  // checked multiplication on the reduced representatives.
  std::int64_t t0 = FloorMod(diff / g, kb_g);
  ITDB_ASSIGN_OR_RETURN(std::int64_t prod, CheckedMul(t0, inv));
  std::int64_t t = FloorMod(prod, kb_g);
  ITDB_ASSIGN_OR_RETURN(std::int64_t shift, CheckedMul(a.period_, t));
  ITDB_ASSIGN_OR_RETURN(std::int64_t x0, CheckedAdd(a.offset_, shift));
  return MaybeLrp(Lrp::Make(x0, l));
}

Result<LrpDifference> Lrp::Subtract(const Lrp& a, const Lrp& b) {
  LrpDifference out;
  ITDB_ASSIGN_OR_RETURN(std::optional<Lrp> inter, Intersect(a, b));
  if (!inter.has_value()) {
    out.parts.push_back(a);  // Disjoint: a - b == a.
    return out;
  }
  const Lrp& i = *inter;
  if (i == a) return out;  // b includes a: empty difference.
  if (a.period_ == 0) {
    // a is a singleton and the intersection is nonempty, so i == a; handled
    // above.  (Defensive: cannot reach here.)
    return out;
  }
  if (i.period_ == 0) {
    // Removing one point from an infinite lrp: not a finite union of lrps.
    out.punctured = LrpDifference::Punctured{a, i.offset_};
    return out;
  }
  // i = c2 + k2 n with a.period | k2 (strictly larger since i != a).  The
  // difference is the union of the other residue classes of period k2 inside
  // a: {c2 + j * k1 + k2 * n | j = 1 .. k2/k1 - 1}   (Section 3.3.1).
  std::int64_t k1 = a.period_;
  std::int64_t k2 = i.period_;
  // The difference has k2/k1 - 1 residue classes; refuse pathological period
  // ratios instead of materializing millions of lrps.
  constexpr std::int64_t kMaxParts = std::int64_t{1} << 20;
  if (k2 / k1 > kMaxParts) {
    return Status::ResourceExhausted(
        "lrp subtraction would produce " + std::to_string(k2 / k1 - 1) +
        " residue classes (periods " + std::to_string(k1) + " and " +
        std::to_string(k2) + ")");
  }
  for (std::int64_t j = 1; j < k2 / k1; ++j) {
    ITDB_ASSIGN_OR_RETURN(std::int64_t jk1, CheckedMul(j, k1));
    ITDB_ASSIGN_OR_RETURN(std::int64_t c, CheckedAdd(i.offset_, jk1));
    out.parts.push_back(Lrp::Make(c, k2));
  }
  return out;
}

Result<std::vector<Lrp>> Lrp::SplitToPeriod(std::int64_t new_period) const {
  if (period_ == 0) {
    return Status::InvalidArgument(
        "SplitToPeriod: cannot split the singleton " + ToString());
  }
  if (new_period <= 0 || new_period % period_ != 0) {
    return Status::InvalidArgument(
        "SplitToPeriod: " + std::to_string(new_period) +
        " is not a positive multiple of " + std::to_string(period_));
  }
  std::vector<Lrp> out;
  out.reserve(static_cast<std::size_t>(new_period / period_));
  for (std::int64_t j = 0; j < new_period / period_; ++j) {
    // offset_ + j * period_ < new_period <= INT64_MAX: no overflow.
    out.push_back(Lrp::Make(offset_ + j * period_, new_period));
  }
  return out;
}

std::optional<std::int64_t> Lrp::FirstAtLeast(std::int64_t t) const {
  if (period_ == 0) {
    if (offset_ >= t) return offset_;
    return std::nullopt;
  }
  // Smallest x === offset (mod period) with x >= t.  Guard against the
  // (mathematically existing) next element not being representable in
  // int64 when t sits within one period of the maximum.
  __int128 diff = static_cast<__int128>(t) - offset_;
  __int128 r = diff % period_;
  if (r < 0) r += period_;
  __int128 x = r == 0 ? static_cast<__int128>(t)
                      : static_cast<__int128>(t) + (period_ - r);
  if (x > std::numeric_limits<std::int64_t>::max()) return std::nullopt;
  return static_cast<std::int64_t>(x);
}

std::vector<std::int64_t> Lrp::ElementsInRange(std::int64_t lo,
                                               std::int64_t hi) const {
  std::vector<std::int64_t> out;
  if (period_ == 0) {
    if (lo <= offset_ && offset_ <= hi) out.push_back(offset_);
    return out;
  }
  std::optional<std::int64_t> first = FirstAtLeast(lo);
  if (!first.has_value()) return out;
  for (std::int64_t x = *first; x <= hi; x += period_) {
    out.push_back(x);
    if (x > hi - period_) break;  // Avoid overflow of x += period_ near max.
  }
  return out;
}

std::string Lrp::ToString() const {
  std::string out;
  AppendTo(out);
  return out;
}

void Lrp::AppendTo(std::string& out) const {
  char buf[24];  // Enough for any int64, sign included.
  out.append(buf, std::to_chars(buf, buf + sizeof buf, offset_).ptr);
  if (period_ != 0) {
    out += '+';
    out.append(buf, std::to_chars(buf, buf + sizeof buf, period_).ptr);
    out += 'n';
  }
}

std::ostream& operator<<(std::ostream& os, const Lrp& lrp) {
  return os << lrp.ToString();
}

}  // namespace itdb
