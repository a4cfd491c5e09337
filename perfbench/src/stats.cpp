#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/json.hpp"

namespace perfbench {

std::optional<Percentile> percentile(std::vector<double> values, double q) {
  if (values.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const std::size_t n = values.size();
  // Nearest rank: the smallest value with at least q*n samples at or below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < kMinBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return Percentile{values[rank - 1], n, beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kWrongPayload: return "wrong_payload";
    case Verdict::kRejectedCert: return "rejected_certificate";
    case Verdict::kShed: return "shed";
    case Verdict::kDeadlineMissed: return "deadline_missed";
    case Verdict::kNoResponse: return "no_response";
    case Verdict::kError: return "error";
  }
  return "error";
}

Verdict judge_timed_step(bool succeeded, bool timed_out, double elapsed_ms, double deadline_ms) {
  if (timed_out || elapsed_ms > deadline_ms) return Verdict::kDeadlineMissed;
  return succeeded ? Verdict::kOk : Verdict::kError;
}

void Ledger::record(Verdict verdict) {
  ++attempted_;
  ++by_kind_[static_cast<int>(verdict)];
  if (verdict != Verdict::kOk) ++failed_;
}

double Ledger::success_rate() const {
  if (attempted_ == 0) return 1.0;
  return static_cast<double>(attempted_ - failed_) / static_cast<double>(attempted_);
}

std::string Ledger::failures_json() const {
  lid::util::JsonWriter w;
  w.begin_object();
  for (int k = 1; k < 7; ++k) {
    if (by_kind_[k] > 0) w.key(to_string(static_cast<Verdict>(k))).value(by_kind_[k]);
  }
  w.end_object();
  return w.str();
}

std::uint64_t fnv1a(const char* bytes, std::size_t size) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
