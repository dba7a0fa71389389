// A temporal database: a catalog of named generalized relations
// (the "collections of generalized relations" of Section 2.1), with textual
// load/save built on text_format.h, and the catalog's active domain -- the
// data values the query language's data variables range over (Section 4).

#ifndef ITDB_STORAGE_DATABASE_H_
#define ITDB_STORAGE_DATABASE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/relation.h"
#include "core/value.h"
#include "util/status.h"

namespace itdb {

/// Every data value of a catalog's tuples, split by type, each list sorted
/// and distinct.
struct DataDomain {
  std::vector<Value> strings;
  std::vector<Value> ints;
};

/// A catalog of named generalized relations.
///
/// Thread safety: const members may run concurrently with each other (the
/// active domain builds behind its own lock); a mutation needs exclusive
/// access, as server::SharedDatabase::WithWrite provides.
class Database {
 public:
  Database() = default;

  /// Adds (or fails on duplicate name).
  Status Add(const std::string& name, GeneralizedRelation relation);
  /// Replaces or adds.
  void Put(const std::string& name, GeneralizedRelation relation);
  Status Remove(const std::string& name);

  /// Catalog version: bumped by every successful Add / Put / Remove.
  /// Consumers (the per-relation statistics cache, core/stats.h) key lazily
  /// computed state on (name, version) so a mutation invalidates it without
  /// any registration machinery.  Monotone within one Database instance;
  /// copies carry the version along, so one cache must not be shared across
  /// distinct Database objects.
  std::uint64_t version() const { return version_; }

  /// The named relation, borrowed: valid until the next mutation of this
  /// Database (under SharedDatabase, until the WithRead callback returns).
  /// Fails with kNotFound for unknown names.  Declare a GeneralizedRelation
  /// to take an owned copy.
  Result<const GeneralizedRelation&> Get(const std::string& name) const;
  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;
  int size() const { return static_cast<int>(relations_.size()); }

  /// The catalog's active domain: every data value of every tuple of every
  /// relation, split by type.  Built on the first call at each version()
  /// and kept until the next mutation; a copy, move or assignment starts
  /// without one, so no other instance's domain can be served.  The
  /// reference is valid until the next mutation.
  const DataDomain& ActiveDomain() const;

  /// Parses a sequence of `relation ... { ... }` blocks.  A leading block of
  /// `#`-comment lines (before the first relation) is captured into
  /// header_comments(), so re-saving a loaded file keeps its header even
  /// after mutations; interior comments are still discarded by the lexer.
  static Result<Database> FromText(std::string_view text);
  /// Serializes header_comments() (one `# ` line each, then a blank line)
  /// followed by every relation; FromText round-trips.
  std::string ToText() const;
  /// Like ToText(), but with an explicit header overriding
  /// header_comments() (entries must be single lines) -- used by the
  /// fuzzer's repro dumps.
  std::string ToText(const std::vector<std::string>& header_comments) const;

  /// File-level comment lines (without the leading "# ").  Carried across
  /// mutations; not part of catalog equality or version().
  const std::vector<std::string>& header_comments() const {
    return header_comments_;
  }
  void set_header_comments(std::vector<std::string> comments) {
    header_comments_ = std::move(comments);
  }

 private:
  /// The lazily built domain.  Copying or moving yields an empty cache (and
  /// empties a move's source), so it never outlives the relations it was
  /// built from.
  class DomainCache {
   public:
    DomainCache() = default;
    DomainCache(const DomainCache&) {}
    DomainCache(DomainCache&& other) noexcept { other.Reset(); }
    DomainCache& operator=(const DomainCache&) {
      Reset();
      return *this;
    }
    DomainCache& operator=(DomainCache&& other) noexcept {
      Reset();
      other.Reset();
      return *this;
    }

    const DataDomain& Get(const Database& db);

   private:
    void Reset() {
      std::lock_guard<std::mutex> lock(mu_);
      built_ = false;
    }

    std::mutex mu_;
    bool built_ = false;
    std::uint64_t version_ = 0;
    DataDomain domain_;
  };

  std::map<std::string, GeneralizedRelation> relations_;
  std::vector<std::string> header_comments_;
  std::uint64_t version_ = 0;
  mutable DomainCache domain_;
};

}  // namespace itdb

#endif  // ITDB_STORAGE_DATABASE_H_
