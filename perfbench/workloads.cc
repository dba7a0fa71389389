// Seeded workload generation.  Catalogs are fixed per workload (a fixed
// internal seed), so runs at different --seed values do comparable work;
// the statement streams derive from --seed.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t Rng::Uniform(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(Next() % span);
}

namespace {

constexpr std::uint64_t kCatalogSeed = 0x17db5eedULL;

// A statement's time constant is c = lcm x (base + u): `base` is drawn from
// the seed, `u` is the statement's index in the run, and lcm is the lcm of
// every period in the workload's catalog.  Distinct u make every statement
// of a run distinct, so the result cache and batcher never hit on the
// read-only workloads.  Shifting a window by a multiple of every period
// maps the catalog onto itself, so each statement does the same work at
// every seed: only the constants change.
constexpr std::int64_t kMaxBase = 1'000'000;
constexpr std::int64_t kLookupLcm = 84;     // 6, 7, 12, 14, 21, 28
constexpr std::int64_t kJoinLcm = 360360;   // 5..20 of Task/Ready/Fault/Cover

std::string I(std::int64_t v) { return std::to_string(v); }

std::string Lrp(std::int64_t offset, std::int64_t period) {
  return I(offset) + "+" + I(period) + "n";
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[static_cast<std::size_t>(
      rng.Uniform(0, static_cast<std::int64_t>(v.size()) - 1))];
}

std::string Str(const std::string& prefix, std::int64_t k) {
  return "\"" + prefix + I(k) + "\"";
}

// ------------------------------------------------------------ point_lookups

// Six relations of tens of tuples, time and data columns.
std::string LookupCatalog() {
  Rng rng(kCatalogSeed);
  std::string out;
  const std::vector<std::int64_t> periods = {6, 7, 12, 14, 21, 28};
  out += "relation Shift(T: time, Worker: int, Site: string) {\n";
  for (int i = 0; i < 40; ++i) {
    const std::int64_t p = Pick(rng, periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           I(rng.Uniform(1, 20)) + ", " + Str("s", rng.Uniform(1, 5)) +
           "] : T >= " + I(rng.Uniform(0, 999)) + ";\n";
  }
  out += "}\n";
  out += "relation Alarm(T: time, Site: string) {\n";
  for (int i = 0; i < 20; ++i) {
    const std::int64_t p = Pick(rng, periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           Str("s", rng.Uniform(1, 5)) + "];\n";
  }
  out += "}\n";
  out += "relation Maint(From: time, To: time, Machine: int) {\n";
  for (int i = 0; i < 30; ++i) {
    const std::int64_t p = Pick(rng, periods);
    const std::int64_t o = rng.Uniform(0, p - 1);
    const std::int64_t d = rng.Uniform(1, 5);
    out += "  [" + Lrp(o, p) + ", " + Lrp(o + d, p) + " | " +
           I(rng.Uniform(1, 15)) + "] : From = To - " + I(d) + ";\n";
  }
  out += "}\n";
  out += "relation Reading(T: time, Sensor: int, Level: int) {\n";
  for (int i = 0; i < 40; ++i) {
    const std::int64_t p = Pick(rng, periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           I(rng.Uniform(1, 20)) + ", " + I(rng.Uniform(0, 9)) +
           "] : T >= " + I(rng.Uniform(0, 999)) + ";\n";
  }
  out += "}\n";
  out += "relation Route(Dep: time, Arr: time, Train: string) {\n";
  for (int i = 0; i < 30; ++i) {
    const std::int64_t p = Pick(rng, periods);
    const std::int64_t o = rng.Uniform(0, p - 1);
    const std::int64_t d = rng.Uniform(1, 9);
    out += "  [" + Lrp(o, p) + ", " + Lrp(o + d, p) + " | " +
           Str("t", rng.Uniform(1, 8)) + "] : Dep = Arr - " + I(d) +
           " && Dep >= " + I(rng.Uniform(0, 999)) + ";\n";
  }
  out += "}\n";
  out += "relation Booking(T: time, Room: string, Guest: int) {\n";
  for (int i = 0; i < 30; ++i) {
    const std::int64_t p = Pick(rng, periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           Str("r", rng.Uniform(1, 6)) + ", " + I(rng.Uniform(1, 20)) +
           "];\n";
  }
  out += "}\n";
  return out;
}

// One 1-2 atom read with selections, with time constant `c`.  The template
// and its data constant cycle with `k`, so every seed sends the same shape
// mix over the same relation slices.
std::string LookupStatement(std::int64_t k, std::int64_t c) {
  const std::int64_t cycle = k / 8;
  switch (k % 8) {
    case 0:
      return "query Shift(t, " + I(1 + cycle % 20) + ", s) AND t >= " +
             I(c) + " AND t <= " + I(c + 500);
    case 1:
      return "ask EXISTS t . Alarm(t, " + Str("s", 1 + cycle % 5) +
             ") AND t >= " + I(c) + " AND t <= " + I(c + 100);
    case 2:
      return "query Maint(f, g, " + I(1 + cycle % 15) + ") AND f >= " +
             I(c) + " AND g <= " + I(c + 400);
    case 3:
      return "query Reading(t, " + I(1 + cycle % 20) + ", l) AND t >= " +
             I(c) + " AND t <= " + I(c + 300);
    case 4:
      return "query Route(d, a, " + Str("t", 1 + cycle % 8) +
             ") AND d >= " + I(c) + " AND a <= " + I(c + 800);
    case 5:
      return "ask EXISTS t . EXISTS r . Booking(t, r, " +
             I(1 + cycle % 20) + ") AND t >= " + I(c);
    case 6: {
      const std::string site = Str("s", 1 + cycle % 5);
      return "query Shift(t, w, " + site + ") AND Alarm(t, " + site +
             ") AND t >= " + I(c) + " AND t <= " + I(c + 2000);
    }
    default:
      return "query Booking(t, r, g) AND Shift(t, g, s) AND t >= " + I(c) +
             " AND t <= " + I(c + 1000);
  }
}

// ----------------------------------------------------------- temporal_joins

// A few hundred tuples; Task and Ready join on Job, Task and Fault on Robot,
// Fault and Cover share a schema (intersection) with coprime periods.
std::string JoinCatalog() {
  Rng rng(kCatalogSeed + 1);
  std::string out;
  out += "relation Task(From: time, To: time, Robot: string, Job: int) {\n";
  const std::vector<std::int64_t> task_periods = {10, 12, 15, 20};
  for (int i = 0; i < 120; ++i) {
    const std::int64_t p = Pick(rng, task_periods);
    const std::int64_t o = rng.Uniform(0, p - 1);
    const std::int64_t d = rng.Uniform(1, 6);
    out += "  [" + Lrp(o, p) + ", " + Lrp(o + d, p) + " | " +
           Str("r", rng.Uniform(1, 8)) + ", " + I(rng.Uniform(1, 30)) +
           "] : From = To - " + I(d) + ";\n";
  }
  out += "}\n";
  out += "relation Ready(T: time, Job: int) {\n";
  const std::vector<std::int64_t> ready_periods = {6, 8, 9};
  for (int i = 0; i < 80; ++i) {
    const std::int64_t p = Pick(rng, ready_periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           I(rng.Uniform(1, 30)) + "] : T >= " + I(rng.Uniform(0, 500)) +
           ";\n";
  }
  out += "}\n";
  out += "relation Fault(T: time, Robot: string) {\n";
  const std::vector<std::int64_t> fault_periods = {7, 11, 13};
  for (int i = 0; i < 60; ++i) {
    const std::int64_t p = Pick(rng, fault_periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           Str("r", rng.Uniform(1, 8)) + "];\n";
  }
  out += "}\n";
  out += "relation Cover(T: time, Robot: string) {\n";
  const std::vector<std::int64_t> cover_periods = {5, 9, 14};
  for (int i = 0; i < 60; ++i) {
    const std::int64_t p = Pick(rng, cover_periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + " | " +
           Str("r", rng.Uniform(1, 8)) + "];\n";
  }
  out += "}\n";
  return out;
}

// Kernel-bound reads with time constant `c`; template and robot cycle with
// `k` as in LookupStatement.
std::string JoinStatement(std::int64_t k, std::int64_t c) {
  const std::string robot = Str("r", 1 + (k / 6) % 8);
  switch (k % 6) {
    case 0:  // 2-atom join on Job with a difference constraint.
      return "query Task(f, g, r, j) AND Ready(t, j) AND t <= f AND f <= t + "
             "3 AND f >= " + I(c) + " AND f <= " + I(c + 200);
    case 1:  // 3-atom join on Job and Robot.
      return "query Task(f, g, " + robot +
             ", j) AND Ready(t, j) AND Fault(u, " + robot +
             ") AND t <= f AND g <= u AND u <= g + 4 AND f >= " + I(c) +
             " AND f <= " + I(c + 60);
    case 2:  // Same-schema conjunction: the Intersect kernel.
      return "query Fault(t, r) AND Cover(t, r) AND t >= " + I(c) +
             " AND t <= " + I(c + 500);
    case 3:  // Negation: complement / Subtract.
      return "query Fault(t, " + robot + ") AND NOT Cover(t, " + robot +
             ") AND t >= " + I(c) + " AND t <= " + I(c + 100);
    case 4:  // Existential projection across coprime periods.
      return "query EXISTS u . Fault(u, " + robot + ") AND Cover(t, " + robot +
             ") AND u <= t AND t <= u + 2 AND t >= " + I(c) + " AND t <= " +
             I(c + 150);
    default:
      return "ask EXISTS f . EXISTS g . EXISTS j . EXISTS t . Task(f, g, " +
             robot + ", j) AND Ready(t, j) AND t <= f AND f >= " + I(c);
  }
}

// ------------------------------------------------------------ durable_churn

constexpr int kPoolSize = 16;

std::string PoolName(std::int64_t i) {
  return std::string("W") + (i < 10 ? "0" : "") + I(i);
}

// A time-only relation block, one tuple per line (multi-line statements).
std::string PoolRelation(Rng& rng, std::int64_t i) {
  const std::vector<std::int64_t> periods = {4, 6, 8, 10};
  std::string out = "relation " + PoolName(i) + "(T: time) {\n";
  const std::int64_t tuples = rng.Uniform(2, 4);
  for (std::int64_t t = 0; t < tuples; ++t) {
    const std::int64_t p = Pick(rng, periods);
    out += "  [" + Lrp(rng.Uniform(0, p - 1), p) + "] : T >= " +
           I(rng.Uniform(0, 999)) + ";\n";
  }
  out += "}";
  return out;
}

// Drop-then-define pairs cycling over the pool, starting at pair `first`:
// the catalog size stays flat and no data value enters or leaves the
// active domain, so read answers do not depend on interleaving.
void AppendPoolWrites(Rng& rng, std::int64_t first, std::int64_t writes,
                      std::vector<Statement>* out) {
  for (std::int64_t k = 0; k < writes; ++k) {
    const std::int64_t i = (first + k / 2) % kPoolSize;
    if (k % 2 == 0) {
      out->push_back({"drop " + PoolName(i), true});
    } else {
      out->push_back({"define " + PoolRelation(rng, i), true});
    }
  }
}

// `n` rounded down to whole blocks of `block`; `n` itself when it is less
// than one block.
std::int64_t WholeBlocks(std::int64_t n, std::int64_t block) {
  return n < block ? n : n - n % block;
}

// Even, so probes and pools always end on a complete drop/define pair.
std::int64_t EvenAtLeast2(std::int64_t n) {
  return std::max<std::int64_t>(2, n - n % 2);
}

// Define/drop pairs on a scratch relation, for read-only workloads.
std::vector<Statement> WriteProbe(Rng& rng, std::int64_t writes) {
  std::vector<Statement> out;
  for (std::int64_t k = 0; k < writes; ++k) {
    if (k % 2 == 0) {
      std::string text = PoolRelation(rng, 0);
      text.replace(text.find(PoolName(0)), PoolName(0).size(), "Probe");
      out.push_back({"define " + text, true});
    } else {
      out.push_back({"drop Probe", true});
    }
  }
  return out;
}

}  // namespace

std::int64_t StatementsPerSecond(const std::string& workload) {
  if (workload == "point_lookups") return 2400;
  if (workload == "temporal_joins") return 180;
  return 3200;
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed,
                                     std::int64_t statements) {
  Workload w;
  w.name = name;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  statements = std::max<std::int64_t>(statements, 4);
  const std::int64_t base = rng.Uniform(1, kMaxBase);
  // Block sizes (statements over all streams): whole statement cycles, with
  // at least ten samples above a block's p90 (six for durable_churn's
  // reads, which have the most blocks).  point_lookups: 8 templates x 16
  // per connection; temporal_joins: 6 templates x 8 robots x 3;
  // durable_churn: one pass over the 64-query hot set plus two writes per
  // read; the write probe: 512 writes, so the few slow writes after a
  // block of reads (cold caches) stay below its p90.
  constexpr std::int64_t kLookupBlock = 2 * 128;
  constexpr std::int64_t kJoinBlock = 144;
  constexpr std::int64_t kHotSet = 64;
  constexpr std::int64_t kChurnBlock = 3 * kHotSet;
  constexpr std::int64_t kProbeBlock = 512;
  const std::int64_t probe_writes = EvenAtLeast2(
      WholeBlocks(std::min<std::int64_t>(4 * statements, 25 * kProbeBlock),
                  kProbeBlock));
  w.probe_blocks = std::max<std::int64_t>(1, probe_writes / kProbeBlock);
  if (name == "point_lookups") {
    statements = WholeBlocks(statements, kLookupBlock);
    w.catalog = LookupCatalog();
    w.streams.resize(2);
    for (std::int64_t k = 0; k < statements; ++k) {
      w.streams[static_cast<std::size_t>(k % 2)].push_back(
          {LookupStatement(k / 2, kLookupLcm * (base + k)), false});
    }
    w.write_probe = WriteProbe(rng, probe_writes);
    w.blocks = std::max<std::int64_t>(1, statements / kLookupBlock);
    return w;
  }
  if (name == "temporal_joins") {
    statements = WholeBlocks(statements, kJoinBlock);
    w.catalog = JoinCatalog();
    w.streams.resize(1);
    for (std::int64_t k = 0; k < statements; ++k) {
      w.streams[0].push_back(
          {JoinStatement(k, kJoinLcm * (base + k)), false});
    }
    w.write_probe = WriteProbe(rng, probe_writes);
    w.blocks = std::max<std::int64_t>(1, statements / kJoinBlock);
    return w;
  }
  if (name == "durable_churn") {
    statements = WholeBlocks(std::max<std::int64_t>(statements, 3), kChurnBlock);
    w.durable = true;
    w.probe_blocks = 0;
    Rng fixed(kCatalogSeed + 2);
    w.catalog = LookupCatalog();
    for (std::int64_t i = 0; i < kPoolSize; ++i) {
      w.catalog += PoolRelation(fixed, i) + "\n";
    }
    AppendPoolWrites(fixed, 0, 2400, &w.prep_writes);
    // One stream of cycles of a drop/define pair and one read of the hot
    // set, so every read follows a write that invalidated the result cache:
    // reads are misses by construction, and the run fails on any hit.  A
    // block is one pass over the hot set: 128 writes and 64 reads.  The
    // writes are the same at every seed, so every run grows the same
    // history.
    std::vector<Statement> writes;
    AppendPoolWrites(fixed, 1200, 2 * (statements / 3), &writes);
    w.streams.resize(1);
    for (std::int64_t k = 0; k < statements / 3; ++k) {
      for (std::int64_t j = 0; j < 2; ++j) {
        w.streams[0].push_back(writes[static_cast<std::size_t>(2 * k + j)]);
      }
      w.streams[0].push_back(
          {LookupStatement(k % kHotSet, kLookupLcm * (base + k % kHotSet)),
           false});
    }
    w.blocks = std::max<std::int64_t>(1, statements / kChurnBlock);
    return w;
  }
  return std::nullopt;
}

}  // namespace perfbench
