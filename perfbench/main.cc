// itdb_perf: one benchmark run against itdb_serve.
//
//   itdb_perf --serve PATH --workload NAME --seed N --seconds S --trace 0|1
//             [--statements N]
//
// Runs in the current directory, which it uses for every file it writes.
// A run sends a fixed number of statements (S x the workload's calibrated
// rate, or --statements) as closed-loop streams, one connection each, to a
// freshly spawned itdb_serve with ITDB_THREADS=2, and checks every frame
// against an in-process replay.  --trace 0 prints the end-to-end
// metrics; --trace 1 the per-layer ones, from the in-process replay and
// from deltas of the server's `metrics` verb.  The last stdout line is the
// result object; the line before it carries host-noise diagnostics.
//
// The window is cut into blocks (Workload::blocks), the connections meeting
// between blocks; each latency percentile, throughput and CPU figure is
// computed per block and reported as the median over the quiet blocks
// (QuietBlocks), those the host disturbed least.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

using itdb::server::ResponseFrame;
using itdb::server::ResponseStatus;

constexpr const char* kSocket = "itdb.sock";
constexpr const char* kServerLog = "itdb_serve.log";

struct Args {
  std::string serve;
  std::string workload;
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;
  bool trace = false;
  std::int64_t statements = 0;  // 0: seconds x the calibrated rate.
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--serve") {
      args->serve = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--statements") {
      args->statements = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->serve.empty() && !args->workload.empty() &&
         args->seconds > 0;
}

// What one connection observed over some statements.
struct Tally {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t error_frames = 0;
  std::int64_t retry_frames = 0;
  std::string first_failure;

  void Merge(const Tally& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    error_frames += o.error_frames;
    retry_frames += o.retry_frames;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
};

// Sends stream[lo, hi) in order, each statement after the previous frame.
// A lost connection fails the rest of the stream.
void RunRange(Client& client, const std::vector<Statement>& stream,
              const std::vector<Expected>& expected, std::size_t lo,
              std::size_t hi, bool* lost, Tally* out) {
  ResponseFrame frame;
  for (std::size_t i = lo; i < hi; ++i) {
    ++out->attempted;
    if (*lost) {
      ++out->failed;
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const bool ok = client.Call(stream[i].text, &frame);
    const Clock::time_point t1 = Clock::now();
    if (!ok) {
      *lost = true;
      ++out->failed;
      if (out->first_failure.empty()) {
        out->first_failure = "connection lost at: " + stream[i].text;
      }
      continue;
    }
    const double ms = Seconds(t1 - t0) * 1000.0;
    (stream[i].write ? out->write_ms : out->read_ms).push_back(ms);
    if (frame.status == ResponseStatus::kError) ++out->error_frames;
    if (frame.status == ResponseStatus::kRetry) ++out->retry_frames;
    if (frame.status != expected[i].status ||
        frame.payload != expected[i].payload) {
      ++out->failed;
      if (out->first_failure.empty()) {
        out->first_failure = "statement: " + stream[i].text + "\ngot " +
                             std::string(itdb::server::ResponseStatusName(
                                 frame.status)) +
                             ":\n" + frame.payload + "\nexpected:\n" +
                             expected[i].payload;
      }
    }
  }
}

// Compares `list` and every `show` against the replay's final catalog.
bool CheckCatalog(Client& client, const Replay& replay, std::string* why) {
  ResponseFrame frame;
  if (!client.Call("list", &frame) || frame.payload != replay.final_list) {
    *why = "list differs";
    return false;
  }
  for (const auto& [name, text] : replay.final_shows) {
    if (!client.Call("show " + name, &frame) || frame.payload != text) {
      *why = "show " + name + " differs";
      return false;
    }
  }
  return true;
}

std::map<std::string, std::int64_t> FetchMetrics(Client& client) {
  ResponseFrame frame;
  if (!client.Call("metrics", &frame)) return {};
  return ParseMetrics(frame.payload);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The per-layer metrics: name, unit, and the end-to-end metric and
// workload each should move (README.md explains them).
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};
const std::vector<LayerSpec>& LayerSpecs() {
  constexpr const char* kFront = "read_p50_ms, cpu_ms_per_stmt @ point_lookups";
  constexpr const char* kSession = "read_* @ point_lookups";
  constexpr const char* kKernel =
      "read_p50_ms, throughput_sps, cpu_ms_per_stmt @ temporal_joins";
  constexpr const char* kKernelWork = "cpu_ms_per_stmt @ temporal_joins";
  constexpr const char* kWrite =
      "write_p50_ms, write_p90_ms @ point_lookups, temporal_joins (probe)";
  // durable_churn is not in BENCHMARK.json (README.md says why).
  constexpr const char* kDurableWrite =
      "write_p50_ms, write_p90_ms @ durable_churn (manual runs only)";
  constexpr const char* kDurableSetup =
      "setup_s @ durable_churn (manual runs only)";
  static const std::vector<LayerSpec> specs = {
      {"parser.parse_us", "us", kFront},
      {"admission.grade_us", "us", kFront},
      {"analysis.analyze_us", "us", kFront},
      {"optimize.rewrite_us", "us", kFront},
      {"sorts.infer_us", "us", kFront},
      {"absint.interpret_us", "us", kFront},
      {"planner.plan_us", "us", kFront},
      {"frontend_share", "fraction", kFront},
      {"session.execute_us", "us", kSession},
      {"trace.unaccounted_us", "us", kSession},
      {"wire.overhead_us", "us", kSession},
      {"protocol.decode_us", "us", kSession},
      {"eval.kernels_us", "us", kKernel},
      {"eval.full_us", "us", kKernel},
      {"render.print_us", "us", kKernel},
      {"storage.define_parse_us", "us", kWrite},
      {"storage.apply_us", "us", kDurableWrite},
      {"storage.checkpoint_ms", "ms",
       "none in the window (no auto-checkpoint); snapshot size sets "
       "storage.recovery_ms"},
      {"storage.recovery_ms", "ms", kDurableSetup},
      {"catalog.load_ms", "ms", "setup_s @ point_lookups, temporal_joins"},
      {"analysis.runs_per_read", "count", "cpu_ms_per_stmt @ point_lookups"},
      {"server.cache.hit_ratio", "fraction", "none: 0 by design"},
      {"server.cache.invalidations_per_write", "count",
       "server_rss_mb @ point_lookups, temporal_joins (probe writes empty "
       "the cache)"},
      {"server.batched_frac", "fraction", "none: 0 by design"},
      {"stats.cache.hit_ratio", "fraction", kKernelWork},
      {"normalize_cache.hit_ratio", "fraction", kKernelWork},
      {"kernel.pairs_total_per_stmt", "count", kKernelWork},
      {"kernel.pairs_candidate_ratio", "fraction", kKernelWork},
      {"normalize.split_product_per_stmt", "count", kKernelWork},
      {"dbm.close_full_per_stmt", "count", kKernelWork},
      {"dbm.tighten_and_close_per_stmt", "count", kKernelWork},
      {"storage.wal_bytes_per_write", "bytes", kDurableWrite},
      {"storage.snapshot_bytes_per_checkpoint", "bytes", kDurableSetup},
      {"server.shed", "count", "failed statements (0 expected)"},
  };
  return specs;
}

// One block of the window: the same slice of every stream.
struct Block {
  Tally tally;
  double seconds = 0;
  double cpu_s = 0;  // Server CPU time.
  std::int64_t steal_ticks = 0;  // Host CPU steal.
};

// The blocks that count: those during which the host stole no more CPU
// time than during the quietest fifth of the blocks, ties included (so in a
// run without steal every block counts).  Blocks of one kind do the same
// work, so what sets them apart is the host: a vCPU it takes away stalls
// every statement on it, and a busy host slows the rest too.
std::vector<const Block*> QuietBlocks(const std::vector<Block>& blocks) {
  std::vector<std::int64_t> steal;
  for (const Block& b : blocks) steal.push_back(b.steal_ticks);
  std::sort(steal.begin(), steal.end());
  std::vector<const Block*> quiet;
  if (steal.empty()) return quiet;
  const std::int64_t cutoff = steal[(steal.size() - 1) / 5];
  for (const Block& b : blocks) {
    if (b.steal_ticks <= cutoff) quiet.push_back(&b);
  }
  return quiet;
}

// A run's value of a per-block statistic `f`: its median over the quiet
// blocks.  Blocks where `f` is undefined (nan) are skipped.
template <typename F>
double AcrossBlocks(const std::vector<Block>& blocks, F f) {
  std::vector<double> v;
  for (const Block* b : QuietBlocks(blocks)) {
    const double x = f(*b);
    if (!std::isnan(x)) v.push_back(x);
  }
  return Median(v);
}

double PercentileOrNan(const std::vector<double>& v, double q) {
  return v.empty() ? std::numeric_limits<double>::quiet_NaN()
                   : Percentile(v, q);
}

double Statements(const Block& b) {
  return static_cast<double>(b.tally.read_ms.size() + b.tally.write_ms.size());
}

int Run(const Args& args) {
  const std::int64_t statements =
      args.statements > 0 ? args.statements
                          : args.seconds * StatementsPerSecond(args.workload);
  std::optional<Workload> made =
      MakeWorkload(args.workload, args.seed, statements);
  if (!made.has_value()) {
    std::cerr << "unknown workload \"" << args.workload << "\"\n";
    return 2;
  }
  const Workload& w = *made;
  {
    std::ofstream catalog("catalog.itdb");
    catalog << w.catalog;
    if (!catalog) return 1;
  }
  if (!PrepareDataDir(w, "prep.data")) return 1;

  // Expected frames (and, traced, the per-layer timings).
  std::optional<Replay> replay =
      ReplayWorkload(w, args.trace, "prep.data", ".");
  if (!replay.has_value()) return 1;
  LayerTimes& layers = replay->layers;
  if (args.trace) TimeStorageSetup(w, "prep.data", ".", &layers);

  // Set-up: spawn to first `status` frame, several times; the last server
  // stays up for the measured window.
  std::vector<std::string> serve_args = {"--unix", kSocket};
  if (w.durable) {
    // No auto-checkpoint: each one rewrites the whole bitemporal history,
    // which grows with every write, so blocks would cost more and more.
    serve_args.insert(serve_args.end(), {"--data-dir", "data"});
  } else {
    serve_args.push_back("catalog.itdb");
  }
  // Spawns are cheap (3-8 ms), so many of them make the median steady.
  const int setups = args.trace ? 1 : 51;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    if (w.durable && !CopyDir("prep.data", "data")) return 1;
    server = StartServer(args.serve, serve_args, kSocket, kServerLog);
    if (server == nullptr) return 1;
    setup_s.push_back(server->setup_s);
  }

  std::vector<Client> clients(w.streams.size());
  Client control;
  bool connected = control.Connect(kSocket);
  for (Client& c : clients) connected = connected && c.Connect(kSocket);
  if (!connected) {
    std::cerr << "cannot connect to itdb_serve\n";
    return 1;
  }

  std::map<std::string, std::int64_t> before = FetchMetrics(control);
  const ProcSample proc_start = SampleProcess(server->pid);
  const HostSample host_start = SampleHost();

  // The measured window: blocks of the streams, closed-loop, one thread per
  // connection; after each, its share of the write-probe blocks.
  const std::size_t nblocks = static_cast<std::size_t>(w.blocks);
  const std::size_t nprobe =
      w.write_probe.empty() ? 0 : static_cast<std::size_t>(w.probe_blocks);
  std::vector<Block> blocks(nblocks);
  std::vector<Block> probe_blocks(nprobe);
  std::vector<char> lost(w.streams.size(), 0);
  bool probe_lost = false;
  // Runs `f` as one block, sampling the server's CPU and the host's steal.
  auto timed = [&](Block* block, auto f) {
    const ProcSample p0 = SampleProcess(server->pid);
    const std::int64_t steal0 = SampleHost().steal_ticks;
    const Clock::time_point t0 = Clock::now();
    f();
    block->seconds = Seconds(Clock::now() - t0);
    block->cpu_s = SampleProcess(server->pid).cpu_s - p0.cpu_s;
    block->steal_ticks = SampleHost().steal_ticks - steal0;
  };
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::vector<Tally> tallies(w.streams.size());
    timed(&blocks[b], [&] {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < w.streams.size(); ++c) {
        threads.emplace_back([&, c] {
          const std::size_t n = w.streams[c].size();
          bool gone = lost[c] != 0;
          RunRange(clients[c], w.streams[c], replay->expected[c],
                   n * b / nblocks, n * (b + 1) / nblocks, &gone,
                   &tallies[c]);
          lost[c] = gone ? 1 : 0;
        });
      }
      for (std::thread& t : threads) t.join();
    });
    for (const Tally& t : tallies) blocks[b].tally.Merge(t);
    for (std::size_t j = nprobe * b / nblocks; j < nprobe * (b + 1) / nblocks;
         ++j) {
      const std::size_t n = w.write_probe.size();
      timed(&probe_blocks[j], [&] {
        RunRange(control, w.write_probe, replay->probe_expected,
                 n * j / nprobe, n * (j + 1) / nprobe, &probe_lost,
                 &probe_blocks[j].tally);
      });
    }
  }

  const ProcSample proc_end = SampleProcess(server->pid);
  const HostSample host_end = SampleHost();
  std::map<std::string, std::int64_t> after = FetchMetrics(control);
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after[name] - before[name]);
  };
  const double cache_hits = delta("server.cache.hits");

  // Durable: the final catalog, then again after a restart on the same
  // data dir (recovery must show exactly the acknowledged state).
  bool catalog_ok = true;
  std::string catalog_why;
  if (w.durable) {
    catalog_ok = CheckCatalog(control, *replay, &catalog_why);
    server.reset();
    server = StartServer(args.serve, serve_args, kSocket, kServerLog);
    Client after_restart;
    if (server == nullptr || !after_restart.Connect(kSocket)) {
      catalog_ok = false;
      catalog_why = "restart failed";
    } else if (catalog_ok) {
      catalog_ok = CheckCatalog(after_restart, *replay, &catalog_why);
      if (!catalog_ok) catalog_why = "after restart: " + catalog_why;
    }
  }
  server.reset();

  // Tally.
  Tally all;
  double window_s = 0;
  for (const Block& b : blocks) {
    all.Merge(b.tally);
    window_s += b.seconds;
  }
  for (const Block& b : probe_blocks) all.Merge(b.tally);
  if (!catalog_ok) {
    ++all.failed;
    if (all.first_failure.empty()) {
      all.first_failure = "final catalog: " + catalog_why;
    }
  }
  // Every durable_churn read follows a write (MakeWorkload), which empties
  // the result cache, so a hit means a stale cache.
  if (w.durable && cache_hits > 0) {
    ++all.failed;
    if (all.first_failure.empty()) {
      all.first_failure =
          "durable reads hit the result cache " + Num(cache_hits) + " times";
    }
  }
  if (!all.first_failure.empty()) {
    std::cerr << "first failure: " << all.first_failure << "\n";
  }
  const double reads = static_cast<double>(all.read_ms.size());
  const double writes = static_cast<double>(all.write_ms.size());

  // Writes come from the window (durable) or the probe (read-only).
  const std::vector<Block>& write_blocks =
      probe_blocks.empty() ? blocks : probe_blocks;
  auto thr = [](const Block& b) { return Ratio(Statements(b), b.seconds); };
  auto rp50 = [](const Block& b) {
    return PercentileOrNan(b.tally.read_ms, 0.5);
  };
  auto rp90 = [](const Block& b) {
    return PercentileOrNan(b.tally.read_ms, 0.9);
  };
  auto wp50 = [](const Block& b) {
    return PercentileOrNan(b.tally.write_ms, 0.5);
  };
  auto wp90 = [](const Block& b) {
    return PercentileOrNan(b.tally.write_ms, 0.9);
  };
  auto cpu = [](const Block& b) {
    return Ratio(b.cpu_s * 1000.0, Statements(b));
  };
  const double throughput = AcrossBlocks(blocks, thr);
  const double read_p50 = AcrossBlocks(blocks, rp50);
  const double read_p90 = AcrossBlocks(blocks, rp90);
  const double write_p50 = AcrossBlocks(write_blocks, wp50);
  const double write_p90 = AcrossBlocks(write_blocks, wp90);
  const double cpu_ms = AcrossBlocks(blocks, cpu);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_sps", throughput, "1/s"},
        {"read_p50_ms", read_p50, "ms"},
        {"read_p90_ms", read_p90, "ms"},
        {"write_p50_ms", write_p50, "ms"},
        {"write_p90_ms", write_p90, "ms"},
        {"cpu_ms_per_stmt", cpu_ms, "ms"},
        {"server_rss_mb", proc_end.hwm_mb, "MB"},
    };
  } else {
    const double execute_sum = layers.sum["session.execute_us"];
    const double frontend_sum =
        layers.sum["parser.parse_us"] + layers.sum["admission.grade_us"] +
        layers.sum["analysis.analyze_us"] + layers.sum["optimize.rewrite_us"] +
        layers.sum["sorts.infer_us"] + layers.sum["absint.interpret_us"] +
        layers.sum["planner.plan_us"];
    // Each layer Session::Execute needs once per read.
    const double once_sum =
        layers.sum["parser.parse_us"] + layers.sum["analysis.analyze_us"] +
        layers.sum["optimize.rewrite_us"] + layers.sum["sorts.infer_us"] +
        layers.sum["absint.interpret_us"] + layers.sum["planner.plan_us"] +
        layers.sum["eval.kernels_us"] + layers.sum["render.print_us"];
    const double traced_reads =
        static_cast<double>(layers.n["session.execute_us"]);
    // The streams' statements; probe writes run no kernels.
    double stmts = 0;
    for (const Block& b : blocks) stmts += Statements(b);
    std::map<std::string, double> v;
    for (const char* name :
         {"parser.parse_us", "admission.grade_us", "analysis.analyze_us",
          "optimize.rewrite_us", "sorts.infer_us", "absint.interpret_us",
          "planner.plan_us", "session.execute_us", "protocol.decode_us",
          "eval.kernels_us", "eval.full_us", "render.print_us",
          "storage.define_parse_us", "storage.apply_us",
          "storage.wal_bytes_per_write", "storage.checkpoint_ms",
          "storage.snapshot_bytes_per_checkpoint",
          "storage.recovery_ms", "catalog.load_ms"}) {
      v[name] = layers.Mean(name);
    }
    v["frontend_share"] = Ratio(frontend_sum, execute_sum);
    v["trace.unaccounted_us"] = Ratio(execute_sum - once_sum, traced_reads);
    v["wire.overhead_us"] =
        read_p50 * 1000.0 - Median(replay->read_execute_us);
    v["analysis.runs_per_read"] = Ratio(delta("analysis.runs"), reads);
    v["server.cache.hit_ratio"] =
        Ratio(cache_hits, cache_hits + delta("server.cache.misses"));
    v["server.cache.invalidations_per_write"] =
        Ratio(delta("server.cache.invalidations"), writes);
    v["server.batched_frac"] = Ratio(delta("server.batched"), reads);
    v["stats.cache.hit_ratio"] =
        Ratio(delta("stats.cache.hits"),
              delta("stats.cache.hits") + delta("stats.cache.misses"));
    v["normalize_cache.hit_ratio"] =
        Ratio(delta("normalize_cache.hits"),
              delta("normalize_cache.hits") + delta("normalize_cache.misses"));
    v["kernel.pairs_total_per_stmt"] =
        Ratio(delta("kernel.pairs_total"), stmts);
    v["kernel.pairs_candidate_ratio"] =
        Ratio(delta("kernel.pairs_candidate"), delta("kernel.pairs_total"));
    v["normalize.split_product_per_stmt"] =
        Ratio(delta("normalize.split_product.sum"), stmts);
    v["dbm.close_full_per_stmt"] = Ratio(delta("dbm.close_full"), stmts);
    v["dbm.tighten_and_close_per_stmt"] =
        Ratio(delta("dbm.tighten_and_close"), stmts);
    v["server.shed"] = delta("server.shed");

    // The layer table, with this run's end-to-end numbers beside it (the
    // window itself runs untraced: only the in-process replay is timed per
    // layer).
    std::cout << "layer table: " << w.name << " (seed " << args.seed << ", "
              << all.attempted << " statements)\n";
    for (const LayerSpec& spec : LayerSpecs()) {
      metrics.push_back({spec.name, v[spec.name], spec.unit});
      char line[256];
      std::snprintf(line, sizeof(line), "  %-38s %14.4f %-9s -> %s\n",
                    spec.name, v[spec.name], spec.unit, spec.moves);
      std::cout << line;
    }
    std::cout << "  end-to-end, same window: throughput_sps " << Num(throughput)
              << ", read_p50_ms " << Num(read_p50) << ", read_p90_ms "
              << Num(read_p90) << ", write_p50_ms " << Num(write_p50)
              << ", write_p90_ms " << Num(write_p90) << ", cpu_ms_per_stmt "
              << Num(cpu_ms) << "\n";
  }

  // Diagnostics: host noise and failure detail, not metrics.
  std::cout << "{\"diagnostics\": {\"workload\": \"" << w.name
            << "\", \"seed\": " << args.seed
            << ", \"window_s\": " << Num(window_s)
            << ", \"reads\": " << all.read_ms.size()
            << ", \"writes\": " << all.write_ms.size()
            << ", \"failed_frac\": "
            << Num(Ratio(static_cast<double>(all.failed),
                         static_cast<double>(all.attempted)))
            << ", \"error_frames\": " << all.error_frames
            << ", \"retry_frames\": " << all.retry_frames
            << ", \"server_cache_hits\": " << Num(cache_hits)
            << ", \"steal_ticks\": "
            << (host_end.steal_ticks - host_start.steal_ticks)
            << ", \"loadavg_1m\": " << Num(host_end.loadavg)
            << ", \"server_voluntary_cs\": "
            << (proc_end.voluntary_cs - proc_start.voluntary_cs)
            << ", \"server_involuntary_cs\": "
            << (proc_end.involuntary_cs - proc_start.involuntary_cs)
            << ", \"blocks\": " << blocks.size()
            << ", \"quiet_blocks\": " << QuietBlocks(blocks).size()
            << ", \"quiet_probe_blocks\": " << QuietBlocks(probe_blocks).size()
            << ", \"block_steal_ticks_median\": "
            << AcrossBlocks(blocks,
                            [](const Block& b) {
                              return static_cast<double>(b.steal_ticks);
                            })
            << ", \"setup_s_all\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::cout << (i ? ", " : "") << Num(setup_s[i]);
  }
  std::cout << "]}}\n";

  std::cout << "{\"correct\": " << (all.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << all.attempted
            << ", \"failed\": " << all.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << Num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: itdb_perf --serve PATH --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--statements N]\n";
    return 2;
  }
  // The in-process replay runs under the server's thread budget.
  setenv("ITDB_THREADS", "2", 1);
  return perfbench::Run(args);
}
