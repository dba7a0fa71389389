// One client's conversation with the engine: the parse -> analyze ->
// optimize -> evaluate pipeline behind both the interactive shell and the
// socket server.
//
// Before this layer existed the pipeline lived inline in the REPL loop
// (src/shell/shell.cc), so nothing else could drive it.  A Session owns
// everything per-client -- QueryOptions, the multi-line statement buffer, a
// result cursor, error/command counters -- while the Database is shared through
// SharedDatabase's reader-writer lock: read-only verbs (ask / query /
// explain / profile / check / ...) evaluate under the shared lock, mutating
// verbs (define / load / drop / coalesce / simplify) under the exclusive
// one.  The shell is now a thin client of Feed(); the server drives
// AppendLine() on its event loop and Prepare()/Execute() on pool workers,
// grading admission from the prepared statement it then executes.
//
// Statement grammar: exactly the shell's command set (help prints it), plus
//   fetch [n]          next n tuples of the last `query` result (cursor)
//   set [name value]   per-session options; bare `set` lists them
// `quit` / `exit` are session-terminating and surface as Disposition::kQuit
// from Feed (Execute never sees them; use IsQuitStatement for routing).
//
// Budgets: with deadline_ms set, query-evaluating verbs run under a
// CancellationToken (util/thread_pool.h) and fail with kResourceExhausted
// when the budget elapses.  With cost_aware_budgets set, queries graded
// heavy (certified bounds over the analyzer's thresholds, or the A010 /
// A012 heuristics when no bound is certified -- see admission.h) get
// tuple/split budgets and deadline divided by heavy_budget_divisor -- the
// admission layer's defense against one pathological query starving the
// fleet.  Results enter the shared result cache only when their root
// certificate is bounded (certified cacheability).

#ifndef ITDB_SERVER_SESSION_H_
#define ITDB_SERVER_SESSION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/normalize_cache.h"
#include "core/relation.h"
#include "query/eval.h"
#include "query/prepare.h"
#include "server/admission.h"
#include "server/batcher.h"
#include "server/result_cache.h"
#include "server/shared_database.h"
#include "util/status.h"

namespace itdb {

namespace storage {
class StorageEngine;
}  // namespace storage

namespace server {

struct SessionOptions {
  /// Per-session evaluation options (threads, budgets, analyze, ...).
  /// Mutable at runtime through the `set` verb.
  query::QueryOptions query;
  /// Wall-clock budget per query-evaluating command, in milliseconds.
  /// 0 = unlimited.
  std::int64_t deadline_ms = 0;
  /// Apply stricter budgets to queries the cost analysis grades heavy.
  bool cost_aware_budgets = false;
  /// Divisor for the heavy class's tuple/split budgets and deadline.
  std::int64_t heavy_budget_divisor = 8;
  /// Default row count for a bare `fetch`.
  std::int64_t fetch_batch = 16;
  /// Reject verbs that mutate the shared catalog or touch server-side
  /// files (define / load / save / drop / coalesce / simplify).
  bool read_only = false;
  /// Normalization memo-cache shared across sessions (not owned; null =
  /// one private cache per query evaluation).
  NormalizeCache* normalize_cache = nullptr;
  /// Coalesces identical concurrent plans (not owned; null = off).
  QueryBatcher* batcher = nullptr;
  /// Versioned cross-query result cache shared across sessions (not owned;
  /// null = off).  Keyed by the batcher fingerprint + database version, so
  /// hits are byte-identical and any catalog write invalidates wholesale.
  ResultCache* result_cache = nullptr;
  /// Per-relation statistics memo for the cost-based planner and the
  /// `stats` verb, shared across sessions (not owned; null recomputes).
  StatsCache* stats_cache = nullptr;
  /// Durable storage engine (not owned; null = in-memory only).  When set,
  /// every catalog mutation is WAL-logged through it -- under the same
  /// WithWrite lock as the in-memory change -- and the `checkpoint`,
  /// `as of`, and `history` verbs come alive.
  storage::StorageEngine* engine = nullptr;
};

class Session {
 public:
  explicit Session(SharedDatabase* db, SessionOptions options = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  struct FeedResult {
    enum class Disposition {
      kDone,      // A statement executed (status holds its outcome).
      kNeedMore,  // Line buffered; the statement wants more lines.
      kQuit,      // quit / exit: the caller should end the session.
    };
    Disposition disposition = Disposition::kDone;
    Status status;
  };

  /// Feeds one input line: assembles multi-line statements, executes
  /// complete ones (output to `out`), recognizes quit/exit.
  FeedResult Feed(std::string_view line, std::ostream& out);

  /// Statement assembly only: buffers `line` and returns the completed
  /// statement once braces balance (single-line statements complete
  /// immediately).  Comment stripping applies to statement-initial lines
  /// only -- continuation lines pass through to the relation parser intact.
  std::optional<std::string> AppendLine(std::string_view line);

  /// Prepares an ask / query / profile statement, analysis on, under the
  /// reader lock (query/prepare.h); nullopt for other verbs and parse
  /// errors.  The server grades admission from it and passes it to Execute.
  std::optional<query::PreparedQuery> Prepare(
      std::string_view statement) const;

  /// Executes one complete statement.  Output and error reports go to
  /// `out`; the returned Status is the command's outcome.  Never executes
  /// quit/exit (route those via Feed or IsQuitStatement).  `prepared`, from
  /// Prepare(statement), is used unless a write landed since it was made.
  Status Execute(std::string_view statement, std::ostream& out,
                 const query::PreparedQuery* prepared = nullptr);

  /// True for quit / exit statements.
  static bool IsQuitStatement(std::string_view statement);

  /// A partially assembled statement is buffered (EOF or disconnect now
  /// would abandon it).
  bool has_pending() const { return !pending_.empty(); }

  /// Discards the partial statement, if any; returns whether there was one.
  /// The shared database is untouched -- assembly never executes anything.
  bool AbortPending();

  struct Stats {
    std::int64_t commands = 0;
    std::int64_t queries = 0;  // ask / query / profile evaluations.
    std::int64_t errors = 0;
    std::int64_t batched = 0;  // Served from a concurrent leader's result.
    std::int64_t cache_hits = 0;  // Served from the versioned result cache.
  };
  const Stats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  Status Dispatch(const std::string& verb, const std::string& rest,
                  std::ostream& out, const query::PreparedQuery* prepared);
  Status CmdFetch(std::ostream& out, const std::string& args);
  Status CmdSet(std::ostream& out, const std::string& args);
  Status CmdLoad(const std::string& path);
  Status CmdDefine(const std::string& text);
  Status CmdExplain(std::ostream& out, const std::string& text) const;
  Status CmdCheck(std::ostream& out, const std::string& text) const;

  /// The session's query options with the shared caches filled in.
  query::QueryOptions BaseOptions() const;
  /// Prepares `q` with BaseOptions, analyzing iff `analyze`; the `analyze`
  /// option only decides whether evaluation acts on the findings.
  query::PreparedQuery PrepareQuery(const Database& db,
                                    const query::QueryPtr& q,
                                    bool analyze) const;
  /// BaseOptions, with budgets and `deadline_ms` divided for a heavy
  /// `grade` when cost_aware_budgets is set.
  query::QueryOptions EffectiveOptions(const CostGrade& grade,
                                       std::int64_t* deadline_ms) const;
  /// Runs ask / query (through the batcher and result cache) or profile.
  Status EvalStatement(std::string_view verb, const std::string& text,
                       std::ostream& out, const query::PreparedQuery* prepared);

  SharedDatabase* db_;
  SessionOptions options_;
  std::string pending_;  // Partial multi-line statement.
  int pending_balance_ = 0;  // Open braces in pending_.
  // The last query's result, shared with the batcher and result cache.
  std::shared_ptr<const GeneralizedRelation> cursor_;
  std::int64_t cursor_pos_ = 0;
  Stats stats_;
};

}  // namespace server
}  // namespace itdb

#endif  // ITDB_SERVER_SESSION_H_
