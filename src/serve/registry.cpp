#include "serve/registry.hpp"

#include <algorithm>
#include <utility>

#include "util/json.hpp"
#include "verify/certificate.hpp"

namespace lid::serve {
namespace {

/// Explicit memory model for one resident model, beyond its memo: the
/// canonical text (exact) plus a modeled Instance footprint. The constants
/// are deliberately part of the wire contract (register-model reports the
/// result), so they are documented in docs/api-overview.md.
std::size_t base_footprint(const std::string& canonical_text, const Instance& instance) {
  return canonical_text.size() + 256 + 64 * instance.num_cores() + 96 * instance.num_channels();
}

/// Accounted size of one memo entry.
std::size_t memo_footprint(const std::string& key, const std::string& payload) {
  return key.size() + payload.size() + 32;
}

}  // namespace

Registry::Registry(RegistryOptions options) : options_(options) {}

std::string Registry::fingerprint(const std::string& canonical_text) {
  return verify::canonical_fingerprint(canonical_text);
}

Result<ModelInfo> Registry::register_model(const std::string& text) {
  // Parse the submitted text, canonicalize, then re-parse the canonical form
  // so provenance (lint line numbers) corresponds to the text the
  // fingerprint addresses — this is what makes registered-model payloads
  // behave exactly as if the canonical text had been sent inline.
  const Result<Instance> submitted = parse_netlist(text);
  if (!submitted) return submitted.error();
  const Result<std::string> canonical = netlist_text(*submitted);
  if (!canonical) return canonical.error();
  Result<Instance> instance = parse_netlist(*canonical);
  if (!instance) return instance.error();

  const std::string fp = fingerprint(*canonical);
  const std::size_t base = base_footprint(*canonical, *instance);

  const std::lock_guard<std::mutex> lock(mutex_);
  registered_ += 1;
  if (const auto it = models_.find(fp); it != models_.end()) {
    // Content-addressed: same canonical text, same model. Only a queried
    // model moves up; a registered-only one keeps its first-in place.
    const Entry& entry = *it->second;
    if (entry.hits.load() > 0) last_used_[fp] = ++tick_;
    return ModelInfo{fp, entry.base_bytes, entry.instance.num_cores(),
                     entry.instance.num_channels(), entry.instance.total_relay_stations()};
  }
  if (options_.max_models == 0 || base > options_.max_bytes) {
    return Error{ErrorCode::kInvalidArgument,
                 "model of " + std::to_string(base) + " accounted bytes does not fit the registry (" +
                     std::to_string(options_.max_bytes) + " bytes, " +
                     std::to_string(options_.max_models) + " models)"};
  }

  auto entry = std::make_shared<Entry>();
  entry->fingerprint = fp;
  entry->canonical_text = *canonical;
  entry->instance = *std::move(instance);
  entry->base_bytes = base;
  entry->cache = std::make_unique<engine::AnalysisCache>(entry->instance.graph());

  models_.emplace(fp, entry);
  last_used_[fp] = ++tick_;
  bytes_ += base;
  evict_to_fit_locked(entry.get());
  return ModelInfo{fp, base, entry->instance.num_cores(), entry->instance.num_channels(),
                   entry->instance.total_relay_stations()};
}

std::shared_ptr<Registry::Entry> Registry::acquire(const std::string& fingerprint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(fingerprint);
  if (it == models_.end()) {
    misses_ += 1;
    return nullptr;
  }
  hits_ += 1;
  it->second->hits.fetch_add(1);
  last_used_[fingerprint] = ++tick_;
  return it->second;
}

bool Registry::evict(const std::string& fingerprint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(fingerprint);
  if (it == models_.end()) return false;
  bytes_ -= std::min(bytes_, it->second->base_bytes +
                                 static_cast<std::size_t>(it->second->memo_bytes.load()));
  models_.erase(it);
  last_used_.erase(fingerprint);
  evictions_ += 1;
  return true;
}

std::vector<ModelInfo> Registry::list() const {
  std::vector<ModelInfo> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(models_.size());
    for (const auto& [fp, entry] : models_) {
      out.push_back(ModelInfo{fp, entry->base_bytes, entry->instance.num_cores(),
                              entry->instance.num_channels(),
                              entry->instance.total_relay_stations()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ModelInfo& a, const ModelInfo& b) { return a.fingerprint < b.fingerprint; });
  return out;
}

void Registry::memoize(Entry& entry, const std::string& key, const std::string& payload) {
  if (!entry.memo.emplace(key, payload).second) return;
  const std::size_t added = memo_footprint(key, payload);
  entry.memo_bytes.fetch_add(static_cast<std::int64_t>(added));
  const std::lock_guard<std::mutex> lock(mutex_);
  bytes_ += added;
  // The caller holds entry.mutex, so the entry itself must survive this
  // trim; other models are fair game.
  evict_to_fit_locked(&entry);
}

void Registry::note_memo(bool hit) {
  (hit ? memo_hits_ : memo_misses_).fetch_add(1);
}

void Registry::evict_to_fit_locked(const Entry* keep) {
  while (bytes_ > options_.max_bytes || models_.size() > options_.max_models) {
    // Rank (served a query, last use): registered-only models leave first,
    // oldest first, then queried ones in LRU order. Every register and
    // acquire takes a fresh tick, so no two models tie.
    const Entry* victim = nullptr;
    std::pair<bool, std::uint64_t> victim_rank;
    for (const auto& [fp, entry] : models_) {
      if (entry.get() == keep) continue;
      const std::pair<bool, std::uint64_t> rank{entry->hits.load() > 0, last_used_[fp]};
      if (victim == nullptr || rank < victim_rank) {
        victim = entry.get();
        victim_rank = rank;
      }
    }
    if (victim == nullptr) return;  // only `keep` is left; nothing to trim
    const std::string fp = victim->fingerprint;
    bytes_ -= std::min(bytes_, victim->base_bytes +
                                   static_cast<std::size_t>(victim->memo_bytes.load()));
    models_.erase(fp);
    last_used_.erase(fp);
    evictions_ += 1;
  }
}

Registry::Stats Registry::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.resident = models_.size();
  s.bytes = bytes_;
  s.max_bytes = options_.max_bytes;
  s.max_models = options_.max_models;
  s.registered = registered_;
  s.evictions = evictions_;
  s.hits = hits_;
  s.misses = misses_;
  s.memo_hits = memo_hits_.load();
  s.memo_misses = memo_misses_.load();
  return s;
}

std::string Registry::stats_json() const {
  const Stats s = stats();
  util::JsonWriter w;
  w.begin_object();
  w.key("resident").value(s.resident);
  w.key("bytes").value(s.bytes);
  w.key("max_bytes").value(s.max_bytes);
  w.key("max_models").value(s.max_models);
  w.key("registered").value(s.registered);
  w.key("evictions").value(s.evictions);
  w.key("hits").value(s.hits);
  w.key("misses").value(s.misses);
  w.key("memo_hits").value(s.memo_hits);
  w.key("memo_misses").value(s.memo_misses);
  w.end_object();
  return w.str();
}

}  // namespace lid::serve
