// Order statistics and failure accounting shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie beyond a reported tail percentile. A tail
/// percentile with fewer is decided by a handful of outliers and does not
/// repeat, so it is refused instead of reported.
inline constexpr std::size_t kMinBeyond = 10;

/// A nearest-rank percentile together with the sample counts behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< all samples
  std::size_t beyond = 0;   ///< samples strictly after the rank
};

/// The nearest-rank `q`-quantile (0 < q < 1) of `values`, or nothing when
/// fewer than kMinBeyond samples lie beyond its rank.
std::optional<Percentile> percentile(std::vector<double> values, double q);

/// The median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> values);

/// What became of one attempted operation.
enum class Verdict {
  kOk,
  kWrongPayload,      ///< answered, but not the bytes a direct execution gives
  kRejectedCert,      ///< the certificate it carries fails verify::check
  kShed,              ///< refused by admission control (`overloaded`)
  kDeadlineMissed,    ///< `deadline_exceeded`, or an in-process step past its deadline
  kNoResponse,        ///< never answered before the drain timeout
  kError,             ///< any other error response or failed call
};

const char* to_string(Verdict verdict);

/// The verdict on an in-process step bounded by a deadline: past the
/// deadline (or cut off by it) is a miss even when it produced a result.
Verdict judge_timed_step(bool succeeded, bool timed_out, double elapsed_ms, double deadline_ms);

/// Counts attempted and failed operations, with a tally per failure kind.
class Ledger {
 public:
  void record(Verdict verdict);
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  /// ok / attempted; 1 when nothing was attempted.
  [[nodiscard]] double success_rate() const;
  /// `{"wrong_payload":2,...}` over the failure kinds seen.
  [[nodiscard]] std::string failures_json() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t by_kind_[7] = {};
};

/// FNV-1a 64 over `bytes` (payload identity without keeping the payload).
std::uint64_t fnv1a(const char* bytes, std::size_t size);
inline std::uint64_t fnv1a(const std::string& bytes) { return fnv1a(bytes.data(), bytes.size()); }

}  // namespace perfbench
