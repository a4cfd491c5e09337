// Processes and their resource use, observed from outside: spawning and
// reaping the serving daemons, their CPU time and peak RSS, and this
// process's own memory high-water mark.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// A child process started by the benchmark. The destructor kills and reaps
/// it if it is still running, so no daemon outlives the benchmark.
class Child {
 public:
  /// Starts argv[0] with stdout and stderr appended to `log_path`, confined
  /// to `cpus` (all allowed CPUs when empty); its own children inherit that.
  Child(const std::vector<std::string>& argv, const std::string& log_path,
        const std::vector<int>& cpus = {});
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool running() const { return pid_ > 0 && !reaped_; }

  /// SIGTERM, then waits up to `timeout_ms` (SIGKILL after that) and reaps.
  /// Returns the wait4 rusage of the child and its reaped descendants.
  rusage stop(double timeout_ms = 10'000.0);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
};

/// The CPUs the calling thread may run on, ascending.
std::vector<int> allowed_cpus();

/// Confines the calling thread to `cpus`.
void pin_thread(const std::vector<int>& cpus);

/// Hint to the CPU that the caller is spinning (lets a sibling hardware
/// thread run, and saves power); a no-op where there is no such hint.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Keeps the given CPUs from going idle while it lives: one SCHED_IDLE
/// thread spins on each. A virtual CPU that halts when idle can take
/// milliseconds to be scheduled again by the host, and that wake-up delay
/// would swamp sub-millisecond request latencies. SCHED_IDLE threads give
/// way at once to any ordinary thread, so the daemons see the CPUs as free.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// User + system CPU of a live process (all threads), in ms; -1 if unreadable.
double process_cpu_ms(pid_t pid);

/// Peak resident set (VmHWM) of a live process, in MB; -1 if unreadable.
double process_hwm_mb(pid_t pid);

/// Peak resident set of this process so far (getrusage), in MB.
double self_peak_rss_mb();

/// User + system CPU of this process so far, all threads (getrusage), in ms.
double self_cpu_ms();

/// Time the hypervisor has taken from this machine's virtual CPUs so far
/// (steal time, summed over CPUs, from /proc/stat), in ms; 0 where not
/// reported. It shows when other tenants of the host disturbed a run.
double host_steal_ms();

/// Samples this process's resident set every millisecond while armed and
/// keeps the maximum: the memory high-water mark of one step.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Starts a new window (resets the maximum to the current RSS).
  void arm();
  /// Ends the window; returns its peak RSS in MB.
  double disarm();

 private:
  void loop();

  std::atomic<bool> stop_{false};
  std::atomic<bool> armed_{false};
  std::atomic<std::int64_t> peak_pages_{0};
  std::thread thread_;
};

/// Connects to a Unix socket, retrying until `timeout_ms` passes. Returns
/// the fd or -1.
int connect_unix(const std::string& path, double timeout_ms);

/// Writes all of `data`; false on error.
bool write_all(int fd, const char* data, std::size_t size);

/// Moves one complete NDJSON line or binary-frame payload from the front of
/// `buffer` into `message`; false while no complete message is buffered.
bool take_message(std::string& buffer, std::string& message);

/// Reads one NDJSON line or one binary frame payload from `fd` (blocking),
/// using and refilling `buffer`. Returns false on EOF or error.
bool read_message(int fd, std::string& buffer, std::string& message);

/// Sends one request (as a frame when `binary`) and waits for one message.
bool round_trip(int fd, const std::string& request, bool binary, std::string& response);

}  // namespace perfbench
