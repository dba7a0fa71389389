// The in-process replay: expected frames for answer checking, and the
// traced run's per-layer timings, taken from outside each layer by calling
// its public function on every statement of the streams.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/absint.h"
#include "analysis/analyzer.h"
#include "core/normalize_cache.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "query/eval.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/sorts.h"
#include "server/admission.h"
#include "server/batcher.h"
#include "server/result_cache.h"
#include "server/session.h"
#include "server/shared_database.h"
#include "storage/database.h"
#include "storage/text_format.h"
#include "storage/wal/storage_engine.h"

namespace perfbench {

using itdb::Database;
using itdb::GeneralizedRelation;
using itdb::Result;
using itdb::Status;
using itdb::server::ResponseStatus;
using itdb::storage::StorageEngine;
using itdb::storage::StorageEngineOptions;

double LayerTimes::Mean(const std::string& name) const {
  auto s = sum.find(name);
  auto c = n.find(name);
  if (s == sum.end() || c == n.end() || c->second == 0) return 0;
  return s->second / static_cast<double>(c->second);
}

namespace {

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Splits "verb rest" the way the session does (spaces and tabs).
std::pair<std::string, std::string> SplitVerb(const std::string& statement) {
  const std::size_t start = statement.find_first_not_of(" \t");
  if (start == std::string::npos) return {"", ""};
  const std::size_t end = statement.find_first_of(" \t", start);
  if (end == std::string::npos) return {statement.substr(start), ""};
  const std::size_t rest = statement.find_first_not_of(" \t", end);
  return {statement.substr(start, end - start),
          rest == std::string::npos ? "" : statement.substr(rest)};
}

// fsync off and no auto-checkpoint, as the benchmark's server runs.
std::unique_ptr<StorageEngine> OpenEngine(const std::string& dir,
                                          Database* db) {
  StorageEngineOptions options;
  options.fsync = false;
  Result<std::unique_ptr<StorageEngine>> opened =
      StorageEngine::Open(dir, db, options);
  if (!opened.ok()) {
    std::cerr << "open " << dir << ": " << opened.status() << "\n";
    return nullptr;
  }
  return std::move(opened).value();
}

// Private caches for the layer calls, each seeing the statement stream once
// as the server's shared caches do; the session's own caches see exactly
// the server's traffic.
struct LayerCaches {
  itdb::StatsCache stats;
  itdb::NormalizeCache kernels{std::size_t{1} << 12};
  itdb::NormalizeCache full{std::size_t{1} << 12};
};

// The front end and kernels of one read, each layer timed on its own.
void TimeReadLayers(const Database& db, const std::string& verb,
                    const std::string& body, LayerCaches* caches,
                    LayerTimes* layers) {
  itdb::StatsCache* stats = &caches->stats;
  namespace query = itdb::query;
  Clock::time_point t0 = Clock::now();
  Result<query::QueryPtr> parsed = query::ParseQuery(body);
  Clock::time_point t1 = Clock::now();
  layers->Add("parser.parse_us", Us(t0, t1));
  if (!parsed.ok()) return;
  const query::QueryPtr& q = parsed.value();

  t0 = Clock::now();
  (void)itdb::server::GradeQueryCost(db, q);
  t1 = Clock::now();
  layers->Add("admission.grade_us", Us(t0, t1));

  t0 = Clock::now();
  itdb::analysis::AnalysisResult analysis = itdb::analysis::Analyze(db, q);
  t1 = Clock::now();
  layers->Add("analysis.analyze_us", Us(t0, t1));
  if (analysis.HasErrors()) return;
  const query::QueryPtr base = itdb::analysis::ApplySoundRewrites(q, analysis);

  t0 = Clock::now();
  query::QueryPtr target = query::Optimize(base);
  t1 = Clock::now();
  layers->Add("optimize.rewrite_us", Us(t0, t1));

  t0 = Clock::now();
  Result<query::SortMap> sorts = query::InferSorts(db, target);
  t1 = Clock::now();
  layers->Add("sorts.infer_us", Us(t0, t1));
  if (!sorts.ok()) return;

  t0 = Clock::now();
  itdb::analysis::AbstractInterpreter interp(db, sorts.value(), stats);
  interp.SeedActiveDomain(*q);
  interp.Interpret(target);
  t1 = Clock::now();
  layers->Add("absint.interpret_us", Us(t0, t1));

  t0 = Clock::now();
  query::PlannedQuery planned =
      query::PlanQuery(db, target, sorts.value(), stats, &interp);
  t1 = Clock::now();
  layers->Add("planner.plan_us", Us(t0, t1));

  // Kernels alone: the planned tree with the front end switched off.  An
  // `ask` also pays its emptiness test, as EvalBooleanQuery does.
  query::QueryOptions bare;
  bare.analyze = false;
  bare.optimize = false;
  bare.cost_plan = false;
  bare.algebra.normalize_cache = &caches->kernels;
  t0 = Clock::now();
  Result<GeneralizedRelation> rel = query::EvalQuery(db, planned.query, bare);
  if (rel.ok() && verb == "ask") (void)itdb::IsEmpty(rel.value(), bare.algebra);
  t1 = Clock::now();
  layers->Add("eval.kernels_us", Us(t0, t1));

  query::QueryOptions full;
  full.stats_cache = stats;
  full.algebra.normalize_cache = &caches->full;
  t0 = Clock::now();
  Result<GeneralizedRelation> full_rel = query::EvalQuery(db, q, full);
  if (full_rel.ok() && verb == "ask") {
    (void)itdb::IsEmpty(full_rel.value(), full.algebra);
  }
  t1 = Clock::now();
  layers->Add("eval.full_us", Us(t0, t1));

  if (verb == "query" && full_rel.ok()) {
    t0 = Clock::now();
    (void)itdb::PrintRelation("result", full_rel.value());
    t1 = Clock::now();
    layers->Add("render.print_us", Us(t0, t1));
  }
}

// A write's storage layers on the private `engine`: ParseRelation for a
// define, then ApplyAdd / ApplyRemove and the WAL bytes it appended, from
// the counter the server reports (a server without a data dir, as on the
// read-only workloads, appends none).
void TimeWriteLayers(const std::string& verb, const std::string& body,
                     StorageEngine* engine, Database* db,
                     LayerTimes* layers) {
  std::optional<itdb::NamedRelation> defined;
  if (verb == "define") {
    const Clock::time_point t0 = Clock::now();
    Result<itdb::NamedRelation> named = itdb::ParseRelation(body);
    const Clock::time_point t1 = Clock::now();
    layers->Add("storage.define_parse_us", Us(t0, t1));
    if (!named.ok()) return;
    defined = std::move(named).value();
  } else if (verb != "drop") {
    return;
  }
  const itdb::obs::Counter* wal_bytes =
      itdb::obs::MetricsRegistry::Global().GetCounter(
          "storage.wal_appended_bytes");
  const std::int64_t b0 = wal_bytes->value();
  const Clock::time_point t0 = Clock::now();
  const Status s = defined.has_value()
                       ? engine->ApplyAdd(*db, defined->name,
                                          std::move(defined->relation))
                       : engine->ApplyRemove(*db, body);
  const Clock::time_point t1 = Clock::now();
  if (!s.ok()) return;
  layers->Add("storage.apply_us", Us(t0, t1));
  layers->Add("storage.wal_bytes_per_write",
              static_cast<double>(wal_bytes->value() - b0));
}

// One in-process Session wired like one of the server's: shared normalize,
// stats and result caches, the batcher, and the storage engine when
// durable.  Sessions hold pointers into it, so it never moves.
class ReplaySession {
 public:
  ReplaySession() = default;
  ReplaySession(const ReplaySession&) = delete;
  ReplaySession& operator=(const ReplaySession&) = delete;

  /// Loads `w`'s catalog, or recovers a copy of `prep_dir` into `data_dir`
  /// for a durable workload.  Null, with a reason on stderr, on failure.
  static std::unique_ptr<ReplaySession> Open(const Workload& w,
                                             const std::string& prep_dir,
                                             const std::string& data_dir) {
    auto r = std::make_unique<ReplaySession>();
    if (w.durable) {
      if (!CopyDir(prep_dir, data_dir)) return nullptr;
      r->engine_ = OpenEngine(data_dir, &r->db_);
      if (r->engine_ == nullptr) return nullptr;
    } else {
      Result<Database> loaded = Database::FromText(w.catalog);
      if (!loaded.ok()) {
        std::cerr << "catalog: " << loaded.status() << "\n";
        return nullptr;
      }
      r->db_ = std::move(loaded).value();
    }
    r->shared_ = std::make_unique<itdb::server::SharedDatabase>(
        &r->db_, r->engine_ ? r->engine_->version() : 0);
    itdb::server::SessionOptions options;
    options.normalize_cache = &r->normalize_cache_;
    options.batcher = &r->batcher_;
    options.result_cache = &r->result_cache_;
    options.stats_cache = &r->stats_cache_;
    options.engine = r->engine_.get();
    r->session_ =
        std::make_unique<itdb::server::Session>(r->shared_.get(), options);
    return r;
  }

  /// The frame the server would send for `statement`.
  Expected Execute(const std::string& statement) {
    std::ostringstream out;
    const Status status = session_->Execute(statement, out);
    return {status.ok() ? ResponseStatus::kOk : ResponseStatus::kError,
            out.str()};
  }

  const Database& db() const { return db_; }

 private:
  Database db_;
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<itdb::server::SharedDatabase> shared_;
  itdb::NormalizeCache normalize_cache_{std::size_t{1} << 12};
  itdb::server::QueryBatcher batcher_;
  itdb::server::ResultCache result_cache_{std::size_t{1} << 24};
  itdb::StatsCache stats_cache_;
  std::unique_ptr<itdb::server::Session> session_;
};

}  // namespace

bool PrepareDataDir(const Workload& w, const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Result<Database> catalog = Database::FromText(w.catalog);
  if (!catalog.ok()) {
    std::cerr << "catalog: " << catalog.status() << "\n";
    return false;
  }
  Database db;
  std::unique_ptr<StorageEngine> engine = OpenEngine(dir, &db);
  if (engine == nullptr) return false;
  for (const std::string& name : catalog.value().Names()) {
    Status s = engine->ApplyAdd(db, name, catalog.value().Get(name).value());
    if (!s.ok()) {
      std::cerr << "prepare: " << s << "\n";
      return false;
    }
  }
  // Everything but the last kPrepWalTail writes goes into the snapshot.
  const std::size_t tail = std::min<std::size_t>(
      w.prep_writes.size(), static_cast<std::size_t>(kPrepWalTail));
  const std::size_t head = w.prep_writes.size() - tail;
  for (std::size_t i = 0; i < w.prep_writes.size(); ++i) {
    if (i == head) {
      Status s = engine->Checkpoint();
      if (!s.ok()) {
        std::cerr << "prepare: " << s << "\n";
        return false;
      }
    }
    const auto [verb, body] = SplitVerb(w.prep_writes[i].text);
    Status s;
    if (verb == "drop") {
      s = engine->ApplyRemove(db, body);
    } else {
      Result<itdb::NamedRelation> named = itdb::ParseRelation(body);
      s = named.ok() ? engine->ApplyAdd(db, named.value().name,
                                        std::move(named.value().relation))
                     : named.status();
    }
    if (!s.ok()) {
      std::cerr << "prepare: " << s << "\n";
      return false;
    }
  }
  if (head == w.prep_writes.size()) return engine->Checkpoint().ok();
  return true;
}

void TimeStorageSetup(const Workload& w, const std::string& prep_dir,
                      const std::string& scratch_dir, LayerTimes* layers) {
  constexpr int kReps = 5;
  std::vector<double> load_ms;
  std::vector<double> recovery_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    Result<Database> db = Database::FromText(w.catalog);
    Clock::time_point t1 = Clock::now();
    if (db.ok()) load_ms.push_back(Us(t0, t1) / 1000.0);

    const std::string dir = scratch_dir + "/recovery.data";
    if (!CopyDir(prep_dir, dir)) continue;
    Database recovered;
    t0 = Clock::now();
    std::unique_ptr<StorageEngine> engine = OpenEngine(dir, &recovered);
    t1 = Clock::now();
    if (engine != nullptr) recovery_ms.push_back(Us(t0, t1) / 1000.0);
  }
  layers->Add("catalog.load_ms", Median(load_ms));
  layers->Add("storage.recovery_ms", Median(recovery_ms));
}

std::optional<Replay> ReplayWorkload(const Workload& w, bool traced,
                                     const std::string& prep_dir,
                                     const std::string& scratch_dir) {
  // An untraced read-only replay runs in kReplayWorkers slices, each
  // through its own session on its own thread: the reads do not depend on
  // one another, and the probe's define/drop pairs all fall in the last
  // slice.  That keeps the untimed replay of a 20 s window near 7 s instead
  // of 20 s, so the runs of a regression check fit its time limit
  // (README.md, "Run time").
  // Traced replays stay serial, so that no layer timing shares the CPU, and
  // durable ones too, since each write depends on the writes before it.
  const std::size_t workers = traced || w.durable ? 1 : kReplayWorkers;
  std::vector<std::unique_ptr<ReplaySession>> sessions;
  for (std::size_t k = 0; k < workers; ++k) {
    sessions.push_back(ReplaySession::Open(
        w, prep_dir, scratch_dir + "/replay" + std::to_string(k) + ".data"));
    if (sessions.back() == nullptr) return std::nullopt;
  }
  ReplaySession* session = sessions.front().get();
  const Database& db = session->db();

  // Private state for the layer timings: caches, and a storage engine on
  // its own copy of the prepared data dir.
  LayerCaches layer_caches;
  Database apply_db;
  std::unique_ptr<StorageEngine> apply_engine;
  if (traced) {
    const std::string dir = scratch_dir + "/apply.data";
    if (!CopyDir(prep_dir, dir)) return std::nullopt;
    apply_engine = OpenEngine(dir, &apply_db);
    if (apply_engine == nullptr) return std::nullopt;
  }

  Replay replay;
  replay.expected.resize(w.streams.size());
  // Streams interleave in proportion to their position, as the server sees
  // them.
  std::vector<std::pair<double, std::pair<std::size_t, std::size_t>>> order;
  for (std::size_t c = 0; c < w.streams.size(); ++c) {
    replay.expected[c].resize(w.streams[c].size());
    const double len = static_cast<double>(w.streams[c].size());
    for (std::size_t i = 0; i < w.streams[c].size(); ++i) {
      order.push_back({(static_cast<double>(i) + 0.5) / len, {c, i}});
    }
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<const Statement*, Expected*>> all;
  for (const auto& [key, ci] : order) {
    all.push_back({&w.streams[ci.first][ci.second],
                   &replay.expected[ci.first][ci.second]});
  }
  replay.probe_expected.resize(w.write_probe.size());
  for (std::size_t i = 0; i < w.write_probe.size(); ++i) {
    all.push_back({&w.write_probe[i], &replay.probe_expected[i]});
  }

  // Slice k of `workers` covers this share of the streams' statements; the
  // last also takes the probe.
  const std::size_t reads = all.size() - w.write_probe.size();
  auto slice = [&](std::size_t k) {
    return k == workers ? all.size() : reads * k / workers;
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 1; k < workers; ++k) {
    threads.emplace_back([&, k] {
      for (std::size_t i = slice(k); i < slice(k + 1); ++i) {
        *all[i].second = sessions[k]->Execute(all[i].first->text);
      }
    });
  }
  for (std::size_t i = 0; i < slice(1); ++i) {
    const auto& [statement, expected] = all[i];
    const Clock::time_point t0 = Clock::now();
    *expected = session->Execute(statement->text);
    const Clock::time_point t1 = Clock::now();
    if (!traced) continue;
    const auto [verb, body] = SplitVerb(statement->text);
    if (statement->write) {
      TimeWriteLayers(verb, body, apply_engine.get(), &apply_db,
                      &replay.layers);
    } else {
      replay.layers.Add("session.execute_us", Us(t0, t1));
      replay.read_execute_us.push_back(Us(t0, t1));
      TimeReadLayers(db, verb, body, &layer_caches, &replay.layers);
    }
    itdb::server::ResponseDecoder decoder;
    decoder.Feed(itdb::server::EncodeResponse(expected->status,
                                              expected->payload));
    const Clock::time_point d0 = Clock::now();
    (void)decoder.Next();
    const Clock::time_point d1 = Clock::now();
    replay.layers.Add("protocol.decode_us", Us(d0, d1));
  }
  for (std::thread& t : threads) t.join();

  if (traced) {
    // The server never checkpoints in the window, so the snapshot size
    // comes from these checkpoints, through the same counter.
    itdb::obs::Counter* snapshot_bytes =
        itdb::obs::MetricsRegistry::Global().GetCounter(
            "storage.snapshot_bytes");
    std::vector<double> checkpoint_ms;
    std::vector<double> bytes;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t b0 = snapshot_bytes->value();
      const Clock::time_point t0 = Clock::now();
      const Status s = apply_engine->Checkpoint();
      const Clock::time_point t1 = Clock::now();
      if (!s.ok()) continue;
      checkpoint_ms.push_back(Us(t0, t1) / 1000.0);
      bytes.push_back(static_cast<double>(snapshot_bytes->value() - b0));
    }
    replay.layers.Add("storage.checkpoint_ms", Median(checkpoint_ms));
    replay.layers.Add("storage.snapshot_bytes_per_checkpoint", Median(bytes));
  }

  if (w.durable) {
    replay.final_list = session->Execute("list").payload;
    std::istringstream names(replay.final_list);
    std::string name;
    while (std::getline(names, name)) {
      replay.final_shows.push_back(
          {name, session->Execute("show " + name).payload});
    }
  }
  return replay;
}

}  // namespace perfbench
