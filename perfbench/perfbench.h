// Shared declarations of the itdb_perf driver: seeded workloads, the
// socket client and server process control, and the in-process replay.

#ifndef ITDB_PERFBENCH_PERFBENCH_H_
#define ITDB_PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace perfbench {

// ---------------------------------------------------------------- workloads

/// splitmix64: a tiny, portable generator, so a seed names the same inputs
/// on every toolchain (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [lo, hi] (inclusive).
  std::int64_t Uniform(std::int64_t lo, std::int64_t hi);

 private:
  std::uint64_t state_;
};

struct Statement {
  std::string text;  // Sent verbatim plus "\n"; a define spans lines.
  bool write = false;
};

struct Workload {
  std::string name;
  /// Relation file the server preloads (durable: seeds the data dir).
  std::string catalog;
  /// One closed-loop statement stream per connection.
  std::vector<std::vector<Statement>> streams;
  /// Durable workloads run with --data-dir; the data dir holds a snapshot
  /// of `catalog` plus the WAL tail `prep_writes`, built before timing.
  bool durable = false;
  std::vector<Statement> prep_writes;
  /// Read-only workloads: define/drop pairs of a scratch relation, sent on
  /// the control connection between the window's blocks, so every workload
  /// reports write latency.
  std::vector<Statement> write_probe;
  /// The window is cut into this many blocks, each the same slice of every
  /// stream and a whole number of the streams' statement cycles, so every
  /// block sends the same mix.
  std::int64_t blocks = 1;
  /// The probe is cut into this many blocks, spread over the window.
  std::int64_t probe_blocks = 1;
};

/// Statements one run sends per second of --seconds (calibrated so a run's
/// window lasts about that long on a 4-core x86-64 host).
std::int64_t StatementsPerSecond(const std::string& workload);

/// Builds `name`'s inputs: the catalog is fixed per workload, the streams
/// derive from `seed`.  `statements` is the total across streams.  Returns
/// nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed,
                                     std::int64_t statements);

/// Prepared WAL tail: the last prep writes stay out of the snapshot, so
/// start-up replays them.
inline constexpr int kPrepWalTail = 400;

// ------------------------------------------------------- client and server

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// A blocking client on the server's Unix socket.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One attempt; false when nothing listens yet.
  bool Connect(const std::string& path);
  /// Sends one statement and blocks for its frame.  False on a transport
  /// or framing error.
  bool Call(const std::string& statement, itdb::server::ResponseFrame* frame);

 private:
  int fd_ = -1;
  itdb::server::ResponseDecoder decoder_;
};

/// A spawned itdb_serve process; destruction stops it (SIGTERM and wait).
struct ServerProcess {
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid = -1;      // -1 once stopped or reaped.
  double setup_s = 0;  // Spawn until the first `status` frame.
};

/// Spawns `serve` with `args` (ITDB_THREADS=2, output to `log_path`) and
/// waits for its first `status` frame on `socket_path`.  Null, with a
/// reason on stderr, when it does not come up.
std::unique_ptr<ServerProcess> StartServer(
    const std::string& serve, const std::vector<std::string>& args,
    const std::string& socket_path, const std::string& log_path);

/// Server process counters from /proc.
struct ProcSample {
  /// CPU time summed over the process's threads (schedstat run time: the
  /// time utime + stime count, at ns resolution, steal excluded).
  double cpu_s = 0;
  double hwm_mb = 0;          // VmHWM
  std::int64_t voluntary_cs = 0;    // summed over threads
  std::int64_t involuntary_cs = 0;
};
ProcSample SampleProcess(pid_t pid);

/// Host noise: cumulative steal ticks from /proc/stat and the 1-minute
/// load average.
struct HostSample {
  std::int64_t steal_ticks = 0;
  double loadavg = 0;
};
HostSample SampleHost();

/// Parses `metrics` verb output: counters by name; histograms as
/// "<name>.count" and "<name>.sum".
std::map<std::string, std::int64_t> ParseMetrics(const std::string& text);

// ------------------------------------------------------- in-process replay

/// A statement's expected frame.
struct Expected {
  itdb::server::ResponseStatus status = itdb::server::ResponseStatus::kOk;
  std::string payload;
};

/// Per-layer sums of an in-process traced replay (µs or ms as named).
struct LayerTimes {
  std::map<std::string, double> sum;    // by metric name
  std::map<std::string, std::int64_t> n;  // statements each sum covers
  void Add(const std::string& name, double value) {
    sum[name] += value;
    ++n[name];
  }
  double Mean(const std::string& name) const;
};

struct Replay {
  /// streams[c][i]'s expected frame.
  std::vector<std::vector<Expected>> expected;
  /// write_probe[i]'s expected frame.
  std::vector<Expected> probe_expected;
  /// Expected `list` output and `show` payloads after every stream ran
  /// (durable workloads check the server and its restart against them).
  std::string final_list;
  std::vector<std::pair<std::string, std::string>> final_shows;
  /// Filled only by a traced replay.
  LayerTimes layers;
  /// Session::Execute latency of each read (µs, traced replay only).
  std::vector<double> read_execute_us;
};

/// Replays every stream, then the write probe, through an in-process
/// Session wired like the server's (shared normalize, stats and result
/// caches, batcher; the storage engine on a copy of `prep_dir` for durable
/// workloads), the streams interleaved in proportion.  An untraced
/// read-only replay splits that order into kReplayWorkers slices, each
/// through its own Session on its own thread.  Its outputs are the expected
/// frames.
/// `traced` also times each layer's public function on every statement
/// (README.md lists them).  Scratch copies of data dirs go under
/// `scratch_dir`.  Returns nullopt, with a reason on stderr, when the
/// replay itself fails.
std::optional<Replay> ReplayWorkload(const Workload& w, bool traced,
                                     const std::string& prep_dir,
                                     const std::string& scratch_dir);

/// Threads of an untraced read-only replay (ReplayWorkload).
inline constexpr std::size_t kReplayWorkers = 3;

/// Builds a data dir for `w`: a snapshot of the catalog (and, for durable
/// workloads, of all but the last kPrepWalTail prep writes), then the rest
/// of the prep writes as the WAL tail.
bool PrepareDataDir(const Workload& w, const std::string& dir);

/// Set-up timings (ms): Database::FromText of the catalog and
/// StorageEngine::Open of a copy of `prep_dir`, five times each; their
/// medians go into `layers`.
void TimeStorageSetup(const Workload& w, const std::string& prep_dir,
                      const std::string& scratch_dir, LayerTimes* layers);

/// Replaces `to` with a copy of the directory `from`.
bool CopyDir(const std::string& from, const std::string& to);

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // ITDB_PERFBENCH_PERFBENCH_H_
