// The server-side model registry: content-addressed, budget-evicted storage
// of parsed netlists plus their pooled analysis state.
//
// A model is identified by a fingerprint of its *canonicalized* `.lis` text
// (parse, then re-serialize), so whitespace- and comment-only edits map to
// the same fingerprint. Each resident model pools:
//
//   * the parsed Instance (no per-request parse),
//   * an engine::AnalysisCache (G and d[G] with their evidence passes, the
//     queue-sizing cycle enumeration, the Howard workspace),
//   * a payload memo: verb+args -> the exact result payload bytes, so a
//     repeated query is a lookup instead of a solve.
//
// Registered-model responses stay byte-identical to inline-netlist and
// direct-facade execution: the first computation of any payload runs through
// engine::analyze_cached / size_queues_cached (which share the facade's
// assembly code), acts on the instance parsed from the canonical text, and
// the memo replays those exact bytes. Equivalently: a registered-model
// request behaves as if the model's canonical text had been sent inline.
//
// Memory accounting (documented in docs/api-overview.md): per model,
//   bytes = canonical netlist text (exact)
//         + a fixed 256-byte handle overhead
//         + 64 bytes per core + 96 bytes per channel (Instance model)
//         + the payload memo (exact key + payload bytes, +32/entry).
// The registry evicts whenever the accounted total exceeds `max_bytes` or
// residency exceeds `max_models`, in this order: models that were only
// registered (never queried) first, first in first out (registering one
// again does not move it); then models that have served a query, least
// recently used first. A stream of fresh registrations therefore cannot
// push out the models clients actually query. Eviction is safe while a
// request is in flight on the evicted model: entries are shared_ptr-owned,
// so the in-flight worker keeps its entry alive and the registry merely
// forgets it (the same ownership idiom as the front door's per-connection
// drain).
//
// The registry is thread-safe. Per-entry analysis state is NOT (AnalysisCache
// is single-threaded by design): workers lock Entry::mutex around cached
// execution, serializing concurrent queries on the *same* model while
// different models proceed in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/analysis_cache.hpp"
#include "lid_api.hpp"

namespace lid::serve {

struct RegistryOptions {
  /// Accounted-byte budget across all resident models. A single model whose
  /// base footprint exceeds this is refused (`registry_full`).
  std::size_t max_bytes = std::size_t{64} << 20;
  /// Resident-model cap; 0 disables registration entirely.
  std::size_t max_models = 64;
};

/// What `register-model` / `list-models` report about one model. `bytes` is
/// the base footprint (netlist + Instance model) — a pure function of the
/// netlist, so the register-model payload stays deterministic; memo growth
/// shows up in list-models' `resident_bytes` and the stats totals instead.
struct ModelInfo {
  std::string fingerprint;
  std::size_t bytes = 0;
  std::size_t cores = 0;
  std::size_t channels = 0;
  int relay_stations = 0;
};

class Registry {
 public:
  explicit Registry(RegistryOptions options = {});

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// One resident model. Entries are handed out as shared_ptrs: eviction
  /// drops the registry's reference, never the borrower's.
  struct Entry {
    std::string fingerprint;
    std::string canonical_text;
    Instance instance;  ///< parsed from canonical_text
    std::size_t base_bytes = 0;

    /// Serializes cached execution and memo access on this model.
    std::mutex mutex;
    std::unique_ptr<engine::AnalysisCache> cache;  ///< over instance.graph()
    /// verb+args -> result payload bytes (only ok, non-degraded outcomes).
    std::map<std::string, std::string> memo;

    /// Accounted memo bytes (atomic so list/stats read without the entry
    /// mutex). Updated by Registry::memoize under `mutex`.
    std::atomic<std::int64_t> memo_bytes{0};
    /// Lookup traffic on this model; a model with none is evicted before
    /// every model that has served a query.
    std::atomic<std::int64_t> hits{0};
  };

  /// The content address of `canonical_text` ("lis-" + 16 hex digits,
  /// FNV-1a 64). Callers canonicalize first; register_model does both.
  static std::string fingerprint(const std::string& canonical_text);

  /// Parses and canonicalizes `text`, then registers (or re-finds) the
  /// model, evicting other models to fit (never-queried first, then LRU).
  /// Errors: kParse for a bad netlist, kInvalidArgument when the model alone
  /// exceeds the budget or the registry is disabled (callers map this to
  /// `registry_full`).
  Result<ModelInfo> register_model(const std::string& text);

  /// The entry for `fingerprint`, bumping its LRU position, or nullptr when
  /// not resident. Counted as a registry hit/miss.
  std::shared_ptr<Entry> acquire(const std::string& fingerprint);

  /// Forgets the model. In-flight borrowers keep their entry alive.
  bool evict(const std::string& fingerprint);

  /// Resident models ordered by fingerprint (deterministic output).
  [[nodiscard]] std::vector<ModelInfo> list() const;

  /// Records a computed payload in `entry`'s memo with byte accounting,
  /// evicting *other* models (in eviction order) if the total overflows.
  /// Caller holds entry->mutex. No-op when the memo entry already exists.
  void memoize(Entry& entry, const std::string& key, const std::string& payload);

  /// Notes memo traffic (`stats` reporting; loadgen derives its hit rate
  /// from these).
  void note_memo(bool hit);

  struct Stats {
    std::size_t resident = 0;
    std::size_t bytes = 0;
    std::size_t max_bytes = 0;
    std::size_t max_models = 0;
    std::int64_t registered = 0;  ///< register-model calls that parsed
    std::int64_t evictions = 0;   ///< budget + explicit evictions
    std::int64_t hits = 0;        ///< acquire() found the model
    std::int64_t misses = 0;      ///< acquire() missed (unknown_model)
    std::int64_t memo_hits = 0;   ///< payload served from the memo
    std::int64_t memo_misses = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// stats() as the compact JSON object embedded in the `stats` verb.
  [[nodiscard]] std::string stats_json() const;

 private:
  /// Drops entries in eviction order until the accounted total fits.
  /// `keep` is never evicted. Caller holds mutex_.
  void evict_to_fit_locked(const Entry* keep);

  RegistryOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> models_;
  std::unordered_map<std::string, std::uint64_t> last_used_;
  std::uint64_t tick_ = 0;
  std::size_t bytes_ = 0;
  std::int64_t registered_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::atomic<std::int64_t> memo_hits_{0};
  std::atomic<std::int64_t> memo_misses_{0};
};

}  // namespace lid::serve
