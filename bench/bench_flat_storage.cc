// Flat tuple storage: the batched-slab normalization sweep and the batched
// incremental-closure kernel against their per-tuple (legacy) counterparts,
// and the two MinimalAtomics kernels on join-shaped systems.
//
// Normalization dominates the Appendix-A workloads; its inner loop closes
// one DBM per candidate combination.  The batched sweep lays all candidate
// matrices of a chunk out in one arena slab (entry-major, so each
// Floyd-Warshall update is a stride-1 pass over every system) and closes
// them together.  The BM_Normalize_Batch_* pair measures the end-to-end
// effect (the batch also eliminates the per-candidate tuple/DBM
// construction, which is where most of the win is); BM_Conjoin_Chunked_*
// isolates the closure strategy alone on pre-built systems, where the
// per-system scatter into the slab can outweigh lane vectorization for
// tiny matrices -- the floors guard both sides of that tradeoff.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "bench_util.h"
#include "core/dbm.h"
#include "core/dbm_batch.h"
#include "core/normalize.h"
#include "util/arena.h"

namespace {

using itdb::Arena;
using itdb::ArenaScope;
using itdb::AtomicConstraint;
using itdb::Dbm;
using itdb::Status;
using itdb::DbmSlab;
using itdb::GeneralizedRelation;
using itdb::NormalizeOptions;
using itdb::bench::MakeMixedPeriodRelation;

void RunNormalize(benchmark::State& state, const GeneralizedRelation& r,
                  bool batch) {
  NormalizeOptions options;
  options.max_split_product = std::int64_t{1} << 24;
  options.batch = batch;
  std::int64_t produced = 0;
  for (auto _ : state) {
    produced = 0;
    for (const auto& t : r.tuples()) {
      auto n = itdb::NormalizeTuple(t, options);
      if (n.ok()) produced += static_cast<std::int64_t>(n.value().size());
      benchmark::DoNotOptimize(n);
    }
  }
  state.counters["normal_form_tuples"] =
      benchmark::Counter(static_cast<double>(produced));
  state.counters["batch"] = benchmark::Counter(batch ? 1.0 : 0.0);
}

void BM_Normalize_Batch_DivisorChain(benchmark::State& state) {
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {2, 4, 8}),
               /*batch=*/true);
}
BENCHMARK(BM_Normalize_Batch_DivisorChain);

void BM_Normalize_Batch_Coprime(benchmark::State& state) {
  // Periods {7, 11, 13}: lcm 1001 candidates per tuple -- the blow-up case
  // where slab batching pays the most.
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {7, 11, 13}),
               /*batch=*/true);
}
BENCHMARK(BM_Normalize_Batch_Coprime);

void BM_Normalize_Batch_Off_Coprime(benchmark::State& state) {
  // Legacy per-tuple comparator on the same workload; the ratio against
  // BM_Normalize_Batch_Coprime is the layout speedup.
  RunNormalize(state, MakeMixedPeriodRelation(3, 64, 2, {7, 11, 13}),
               /*batch=*/false);
}
BENCHMARK(BM_Normalize_Batch_Off_Coprime);

/// Deterministic closed feasible bases for the incremental-closure kernels.
std::vector<Dbm> MakeClosedBases(int num_vars, std::int64_t count) {
  std::mt19937_64 rng(20260807);
  std::uniform_int_distribution<int> var_pick(-1, num_vars - 1);
  std::uniform_int_distribution<std::int64_t> bound_pick(-40, 40);
  std::vector<Dbm> bases;
  bases.reserve(static_cast<std::size_t>(count));
  while (static_cast<std::int64_t>(bases.size()) < count) {
    Dbm d(num_vars);
    for (int c = 0; c < 2 * num_vars; ++c) {
      int lhs = var_pick(rng);
      int rhs = var_pick(rng);
      if (lhs == rhs) continue;
      d.AddAtomic({lhs, rhs, bound_pick(rng)});
    }
    if (!d.Close().ok() || !d.feasible()) continue;
    bases.push_back(std::move(d));
  }
  return bases;
}

/// A small constraint addition conjoined onto every base.
Dbm MakeAddition(int num_vars) {
  Dbm add(num_vars);
  add.AddAtomic({0, 2, 7});
  add.AddAtomic({3, -1, 25});
  return add;
}

void BM_Conjoin_Chunked_Scalar(benchmark::State& state) {
  // Per-tuple baseline: conjoin the addition onto each closed base and
  // re-close with the scalar Floyd-Warshall (what the legacy hull /
  // conjunction path pays per candidate system).
  const std::int64_t count = state.range(0);
  const int num_vars = 4;
  const std::vector<Dbm> bases = MakeClosedBases(num_vars, count);
  const Dbm addition = MakeAddition(num_vars);
  for (auto _ : state) {
    for (const Dbm& base : bases) {
      Dbm m = Dbm::Conjoin(base, addition);
      Status st = m.Close();
      benchmark::DoNotOptimize(st);
      benchmark::DoNotOptimize(m);
    }
  }
  state.counters["systems"] = benchmark::Counter(static_cast<double>(count));
}
BENCHMARK(BM_Conjoin_Chunked_Scalar)->Arg(256)->Arg(1024);

void BM_Conjoin_Chunked_Batch(benchmark::State& state) {
  // Batched closure on the same workload: the conjoined systems go into
  // one entry-major arena slab and CloseAll runs each Floyd-Warshall
  // update as a stride-1 pass across the whole chunk (the columnar hull /
  // batched-normalization strategy).  Conjoin and slab-load costs are
  // included, matching the scalar loop.  On small dense systems the
  // scattered slab load dominates, so this is expected to trail the scalar
  // loop -- the production batch paths win by also skipping per-candidate
  // construction, which BM_Normalize_Batch_* measures end to end.
  const std::int64_t count = state.range(0);
  const int num_vars = 4;
  const std::vector<Dbm> bases = MakeClosedBases(num_vars, count);
  const Dbm addition = MakeAddition(num_vars);
  Arena arena;
  for (auto _ : state) {
    ArenaScope scope(arena);
    DbmSlab slab(&arena, num_vars, count);
    for (std::int64_t t = 0; t < count; ++t) {
      slab.Load(t, Dbm::Conjoin(bases[static_cast<std::size_t>(t)], addition));
    }
    bool* feasible = arena.AllocateArray<bool>(count);
    bool* overflow = arena.AllocateArray<bool>(count);
    slab.CloseAll(feasible, overflow);
    benchmark::DoNotOptimize(feasible);
    benchmark::DoNotOptimize(overflow);
  }
  state.counters["systems"] = benchmark::Counter(static_cast<double>(count));
}
BENCHMARK(BM_Conjoin_Chunked_Batch)->Arg(256)->Arg(1024);

/// Closed 4-variable systems shaped like temporal-join output: an interval
/// column pair tied by an equality (From = To - d), a joined instant
/// bounded below and ordered against it (T >= a, T <= From), a bound on
/// From, and a fourth column offset from T.
std::vector<Dbm> MakeJoinShapedSystems(std::int64_t count) {
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<std::int64_t> small(1, 6);
  std::uniform_int_distribution<std::int64_t> large(0, 500);
  std::vector<Dbm> systems;
  systems.reserve(static_cast<std::size_t>(count));
  while (static_cast<std::int64_t>(systems.size()) < count) {
    Dbm d(4);
    d.AddDifferenceEquality(0, 1, -small(rng));  // From = To - d.
    d.AddLowerBound(2, large(rng));              // T >= a.
    d.AddDifferenceUpperBound(2, 0, 0);          // T <= From.
    d.AddLowerBound(0, large(rng));              // From >= c.
    d.AddDifferenceUpperBound(3, 2, small(rng));  // U <= T + e.
    d.AddDifferenceUpperBound(2, 3, 0);           // T <= U.
    if (!d.Close().ok() || !d.feasible()) continue;
    systems.push_back(std::move(d));
  }
  return systems;
}

void RunMinimalAtomics(benchmark::State& state, bool reference) {
  const std::vector<Dbm> systems = MakeJoinShapedSystems(256);
  std::int64_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (const Dbm& d : systems) {
      std::vector<AtomicConstraint> atoms =
          reference ? d.MinimalAtomicsReference() : d.MinimalAtomics();
      kept += static_cast<std::int64_t>(atoms.size());
      benchmark::DoNotOptimize(atoms);
    }
  }
  state.counters["systems"] =
      benchmark::Counter(static_cast<double>(systems.size()));
  state.counters["atomics_kept"] = benchmark::Counter(static_cast<double>(kept));
}

void BM_Dbm_MinimalAtomics(benchmark::State& state) {
  // The tight-path search: one reachability pass per candidate atomic.
  RunMinimalAtomics(state, /*reference=*/false);
}
BENCHMARK(BM_Dbm_MinimalAtomics);

void BM_Dbm_MinimalAtomics_Reference(benchmark::State& state) {
  // The paper's reference kernel: one trial closure per candidate atomic.
  RunMinimalAtomics(state, /*reference=*/true);
}
BENCHMARK(BM_Dbm_MinimalAtomics_Reference);

}  // namespace

ITDB_BENCHMARK_MAIN();
