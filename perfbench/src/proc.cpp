#include "proc.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/frame.hpp"

namespace perfbench {
namespace {

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

namespace {

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return set;
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_thread(const std::vector<int>& cpus) {
  const cpu_set_t set = cpu_set_of(cpus);
  ::sched_setaffinity(0, sizeof(set), &set);
}

Child::Child(const std::vector<std::string>& argv, const std::string& log_path,
             const std::vector<int>& cpus) {
  if (argv.empty()) throw std::invalid_argument("Child: empty argv");
  // Everything the child touches is prepared before fork(): between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> args = argv;
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("Child: cannot open " + log_path);
  const cpu_set_t affinity = cpu_set_of(cpus);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    throw std::runtime_error("Child: fork failed");
  }
  if (pid == 0) {
    // A daemon must not outlive a benchmark that died without cleaning up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof(affinity), &affinity);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
}

Child::~Child() {
  if (running()) stop(2'000.0);
}

rusage Child::stop(double timeout_ms) {
  rusage usage{};
  if (!running()) return usage;
  ::kill(pid_, SIGTERM);
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  for (;;) {
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (elapsed_ms(start) > timeout_ms) {
      ::kill(pid_, SIGKILL);
      while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      break;
    }
    sleep_ms(1.0);
  }
  reaped_ = true;
  return usage;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      pin_thread({cpu});
      sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

double process_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  long long utime = -1;
  long long stime = -1;
  // Fields after "pid (comm)": state is the first; utime and stime are the
  // 12th and 13th (proc(5) fields 14 and 15).
  for (int i = 0; i < 13 && fields >> field; ++i) {
    if (i == 11) utime = std::stoll(field);
    if (i == 12) stime = std::stoll(field);
  }
  if (utime < 0 || stime < 0) return -1.0;
  return 1000.0 * static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return -1.0;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double host_steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long ticks[8] = {};
  in >> cpu;
  for (long long& t : ticks) in >> t;
  if (!in || cpu != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  return 1000.0 * static_cast<double>(ticks[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 + static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

namespace {

std::int64_t resident_pages() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident : 0;
}

}  // namespace

RssSampler::RssSampler() : thread_([this] { loop(); }) {}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

void RssSampler::arm() {
  peak_pages_.store(resident_pages());
  armed_.store(true);
}

double RssSampler::disarm() {
  armed_.store(false);
  std::int64_t pages = std::max(peak_pages_.load(), resident_pages());
  return static_cast<double>(pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void RssSampler::loop() {
  while (!stop_.load()) {
    if (armed_.load()) {
      const std::int64_t pages = resident_pages();
      std::int64_t seen = peak_pages_.load();
      while (pages > seen && !peak_pages_.compare_exchange_weak(seen, pages)) {
      }
    }
    sleep_ms(1.0);
  }
}

int connect_unix(const std::string& path, double timeout_ms) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    ::close(fd);
    if (elapsed_ms(start) > timeout_ms) return -1;
    sleep_ms(0.2);
  }
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool take_message(std::string& buffer, std::string& message) {
  if (lid::serve::starts_frame(buffer)) {
    lid::serve::FrameDecode frame = lid::serve::decode_frame(buffer, std::size_t{1} << 30);
    if (frame.status != lid::serve::FrameStatus::kFrame) return false;
    message = std::move(frame.payload);
    buffer.erase(0, frame.consumed);
    return true;
  }
  const std::size_t nl = buffer.find('\n');
  if (nl == std::string::npos) return false;
  message.assign(buffer, 0, nl);
  buffer.erase(0, nl + 1);
  return true;
}

bool read_message(int fd, std::string& buffer, std::string& message) {
  char chunk[65536];
  for (;;) {
    if (take_message(buffer, message)) return true;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

bool round_trip(int fd, const std::string& request, bool binary, std::string& response) {
  const std::string wire = binary ? lid::serve::frame_message(request) : request + "\n";
  if (!write_all(fd, wire.data(), wire.size())) return false;
  std::string buffer;
  return read_message(fd, buffer, response);
}

}  // namespace perfbench
