// Workload `serve-reload`: the sp_serve --listen process is the system
// under test, driven over loopback by the benchmark's own load generator.
//
// The server answers from the .sibdb snapshots of a 12-month × 1000-org
// campaign over the default synthetic universe (synth seed 42), the same
// for every workload seed, so its published lists have one recorded
// digest. The workload seed draws the key stream and the open loop's
// Poisson schedule.
//
// sp_serve is launched three times per run; setup_s is the median launch →
// first answer time. Launch 1 serves the open loop without reloads for a
// third of the run: the server's CPU time per QUERY frame there is the
// query path's cost (items_per_s). Launch 2 serves the same open loop for
// the rest of the run while a 4th connection sends a RELOAD every 250 ms,
// alternating delta-m.spdl with month m-1's full .sibdb (op_p50_ms is the
// RELOAD round trip).
//
// Every QUERY answer is compared byte for byte with an in-process
// LookupEngine over the same snapshot (chosen by the answer's generation),
// every RELOAD must bump the generation by one, and a QUERY sent right
// after it must answer from the new snapshot.
//
// The open-loop generator sends each connection's frames on a seeded
// Poisson schedule that does not slow when the server does, and times
// each frame from when it was due. A generator that itself fell behind
// — half of its frames sent more than the 1 ms SLO late — invalidates
// the run. Short host stalls (a descheduled vCPU) still show in
// loadgen.late_p99_us without invalidating it.
#include "serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <thread>

#include "net/protocol.h"
#include "pipeline/campaign.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kUniverseSeed = 42;
constexpr int kCampaignMonths = 12;
constexpr int kCampaignOrgs = 1000;
constexpr unsigned kServerWorkers = 2;
constexpr int kLaunches = 3;
constexpr std::size_t kConnections = 3;
// The offered QUERY load, the same for every run: a light load at which
// each frame is served as it arrives. The quiet launch measures the
// server's CPU time per frame at this rate: about 25 us (37k-43k frames
// per CPU second over 20 runs, 4-vCPU host), so 3000 frames/s keep its two
// workers about 4% busy. Per-frame wake-ups and the reload stalls, not
// queueing, set the latencies. See README.md.
constexpr double kOpenLoopFps = 3000.0;
constexpr auto kReloadPeriod = std::chrono::milliseconds(250);
constexpr double kSloUs = 1000.0;
constexpr auto kDrainTimeout = std::chrono::seconds(5);
constexpr auto kSpin = std::chrono::microseconds(250);

// ---------------------------------------------------------------------------
// Served data: the campaign whose snapshots the server answers from.

struct ServedData {
  std::string prev_db;  // month m-1 snapshot
  std::string last_db;  // month m snapshot
  std::string delta;    // delta-m.spdl (m-1 → m)
};

std::optional<ServedData> prepare_served_data(const Options& options, Result& result) {
  const std::string dir = std::filesystem::absolute(options.work_dir + "/campaign").string();
  sp::pipeline::CampaignConfig config;
  config.synth.seed = kUniverseSeed;
  config.synth.months = kCampaignMonths;
  config.synth.organization_count = kCampaignOrgs;
  config.threads = kThreads;
  config.out_dir = dir;
  const auto report = sp::pipeline::Campaign(config).run(false);
  if (!result.check(report.ok, "serve data campaign failed: " + report.error)) return std::nullopt;
  const auto digest = digest_files(dir, "siblings-", {".csv", ".sibdb"});
  if (!result.check(digest.has_value(), "serve data campaign published no lists")) {
    return std::nullopt;
  }
  check_digest(result, options, *digest);

  std::vector<std::string> snapshots;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("siblings-", 0) == 0 && entry.path().extension() == ".sibdb") {
      snapshots.push_back(name);
    }
  }
  std::sort(snapshots.begin(), snapshots.end());
  if (!result.check(snapshots.size() >= 2, "campaign produced fewer than two snapshots")) {
    return std::nullopt;
  }
  const std::string& last = snapshots.back();
  const std::string date = last.substr(9, last.size() - 9 - 6);  // siblings-<date>.sibdb
  ServedData data{dir + "/" + snapshots[snapshots.size() - 2], dir + "/" + last,
                  dir + "/delta-" + date + ".spdl"};
  if (!result.check(std::filesystem::exists(data.delta), "missing " + data.delta)) {
    return std::nullopt;
  }
  return data;
}

// ---------------------------------------------------------------------------
// A loopback connection speaking the binary protocol.

class Socket {
 public:
  Socket() = default;
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&&) = delete;
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] static std::optional<Socket> connect(std::uint16_t port) {
    Socket socket;
    socket.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (socket.fd_ < 0) return std::nullopt;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(socket.fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
      return std::nullopt;
    }
    const int one = 1;
    ::setsockopt(socket.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return socket;
  }

  [[nodiscard]] bool send_all(std::span<const std::uint8_t> bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes = bytes.subspan(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Waits up to `timeout` for readable bytes and feeds them to the
  /// decoder. False on EOF or error.
  [[nodiscard]] bool pump(std::chrono::nanoseconds timeout) {
    pollfd entry{fd_, POLLIN, 0};
    const auto ns = std::max<std::int64_t>(0, timeout.count());
    const timespec wait{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
    const int ready = ::ppoll(&entry, 1, &wait, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    std::uint8_t buffer[65536];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EINTR;
    decoder_.feed({buffer, static_cast<std::size_t>(n)});
    return !decoder_.error();
  }

  [[nodiscard]] std::optional<sp::net::Frame> next() { return decoder_.next(); }

  /// Blocks until one frame arrives or `deadline` passes.
  [[nodiscard]] std::optional<sp::net::Frame> read_frame(Clock::time_point deadline) {
    while (true) {
      if (auto frame = decoder_.next()) return frame;
      const auto left = deadline - Clock::now();
      if (left <= Clock::duration::zero()) return std::nullopt;
      if (!pump(std::min<Clock::duration>(left, std::chrono::milliseconds(100)))) {
        return std::nullopt;
      }
    }
  }

 private:
  int fd_ = -1;
  sp::net::FrameDecoder decoder_;
};

// ---------------------------------------------------------------------------
// CPU placement: the server under test and the load generator each get
// their own CPUs, so neither steals the other's and the guest scheduler
// cannot shuffle them between runs.

constexpr std::array<int, 2> kServerCpus = {0, 1};
constexpr std::array<int, 2> kLoadCpus = {2, 3};

void pin_to(std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    if (cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  // Best effort: with fewer CPUs than named the call fails and the thread
  // keeps its inherited mask.
  (void)::sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// The server process under test.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { stop(); }

  /// Launches `bin --listen 127.0.0.1:0 db --workers N` and waits for its
  /// first QUERY answer; setup_ms() is launch → first answer.
  bool start(const Options& options, const std::string& db, const std::string& log,
             std::string* error) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
      *error = "pipe failed";
      return false;
    }
    const std::string workers = std::to_string(kServerWorkers);
    const Clock::time_point launch = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      pin_to(kServerCpus);
      ::dup2(out[1], STDOUT_FILENO);
      const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      const char* argv[] = {options.serve_bin.c_str(), "--listen", "127.0.0.1:0", db.c_str(),
                            "--workers", workers.c_str(), nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    std::string line;
    const Clock::time_point deadline = launch + std::chrono::seconds(60);
    while (line.find('\n') == std::string::npos && Clock::now() < deadline) {
      pollfd entry{stdout_fd_, POLLIN, 0};
      if (::poll(&entry, 1, 100) <= 0) continue;
      char buffer[256];
      const ssize_t n = ::read(stdout_fd_, buffer, sizeof buffer);
      if (n <= 0) break;
      line.append(buffer, static_cast<std::size_t>(n));
    }
    const auto colon = line.rfind(':', line.find('\n'));
    if (line.rfind("LISTENING ", 0) != 0 || colon == std::string::npos) {
      *error = "sp_serve did not report LISTENING (see " + log + ")";
      return false;
    }
    port_ = static_cast<std::uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr, 10));

    auto socket = Socket::connect(port_);
    std::vector<std::uint8_t> request;
    sp::net::encode_query_request(request, {1, {sp::Prefix()}});
    if (!socket || !socket->send_all(request)) {
      *error = "cannot connect to sp_serve";
      return false;
    }
    const auto answer = socket->read_frame(deadline);
    if (!answer || answer->type != static_cast<std::uint8_t>(sp::net::FrameType::kQueryResponse)) {
      *error = "sp_serve sent no first answer";
      return false;
    }
    setup_ms_ = ms_since(launch);
    return true;
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] double setup_ms() const noexcept { return setup_ms_; }
  [[nodiscard]] long peak_rss_kb() const { return perfbench::peak_rss_kb(pid_); }

  /// CPU time the server process has used so far (all its threads), in
  /// seconds; -1 when the kernel does not expose it.
  [[nodiscard]] double cpu_seconds() const {
    clockid_t clock;
    timespec now{};
    if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &now) != 0) return -1.0;
    return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
  }

  [[nodiscard]] std::optional<sp::net::StatsPayload> stats() const {
    auto socket = Socket::connect(port_);
    std::vector<std::uint8_t> request;
    sp::net::encode_stats_request(request);
    if (!socket || !socket->send_all(request)) return std::nullopt;
    const auto frame = socket->read_frame(Clock::now() + std::chrono::seconds(10));
    if (!frame) return std::nullopt;
    std::string error;
    return sp::net::parse_stats_response(frame->body, &error);
  }

  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGINT);
      int status = 0;
      const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Answer checking.

/// Which engine variant answers for a generation; -1 = none may.
using VariantOf = std::function<int(std::uint64_t generation)>;

struct Checked {
  bool ok = false;
  std::uint64_t generation = 0;
};

Checked check_answer(const sp::net::Frame& frame, std::uint32_t request_id,
                     const std::vector<std::vector<std::vector<std::uint8_t>>>& expected,
                     std::size_t index, const VariantOf& variant_of) {
  Checked checked;
  if (frame.type != static_cast<std::uint8_t>(sp::net::FrameType::kQueryResponse) ||
      frame.body.size() < kResponseAnswersOffset) {
    return checked;
  }
  std::uint32_t id = 0;
  std::memcpy(&id, frame.body.data(), sizeof id);
  std::memcpy(&checked.generation, frame.body.data() + 4, sizeof checked.generation);
  const int variant = variant_of(checked.generation);
  if (id != request_id || variant < 0) return checked;
  const std::vector<std::uint8_t>& want = expected[static_cast<std::size_t>(variant)][index];
  checked.ok = frame.body.size() - kResponseAnswersOffset == want.size() &&
               std::memcmp(frame.body.data() + kResponseAnswersOffset, want.data(),
                           want.size()) == 0;
  return checked;
}

void patch_request_id(std::vector<std::uint8_t>& frame, std::uint32_t id) {
  std::memcpy(frame.data() + sp::net::kHeaderSize, &id, sizeof id);
}

// ---------------------------------------------------------------------------
// Open-loop generator: one connection per thread.

struct OpenLoopResult {
  bool connected = false;
  std::vector<double> latency_us;  // answered frames, from due time
  std::vector<double> due_s;       // when each answered frame was due, from the phase start
  std::vector<double> late_us;     // send time − due time
  std::uint64_t sent = 0, answered = 0, wrong = 0, over_slo = 0;
  std::size_t max_outstanding = 0;
};

OpenLoopResult run_open_loop(std::uint16_t port, const FramePool& pool, std::uint64_t seed,
                             std::uint64_t conn, double fps, Clock::time_point start,
                             Clock::time_point end, const VariantOf& variant_of) {
  OpenLoopResult out;
  pin_to(kLoadCpus);
  auto socket = Socket::connect(port);
  if (!socket) return out;
  out.connected = true;
  struct InFlight {
    Clock::time_point due;
    std::uint32_t id;
  };
  std::deque<InFlight> in_flight;
  std::vector<std::uint8_t> frame;
  const double mean_gap_ns = 1e9 / fps;
  const auto gap = [&](std::uint64_t k) {
    const double u = unit(seed, conn, k, 0x6f70656eull);  // "open"
    return std::chrono::nanoseconds(static_cast<std::int64_t>(-std::log1p(-u) * mean_gap_ns));
  };
  std::uint32_t k = 0;
  Clock::time_point due = start + gap(k);
  const Clock::time_point drain_until = end + kDrainTimeout;
  while (true) {
    Clock::time_point now = Clock::now();
    while (due < end && due <= now) {
      const std::size_t index = k % pool.requests.size();
      frame = pool.requests[index];
      patch_request_id(frame, k);
      if (!socket->send_all(frame)) return out;
      const Clock::time_point sent = Clock::now();
      out.late_us.push_back(std::chrono::duration<double, std::micro>(sent - due).count());
      in_flight.push_back({due, k});
      out.max_outstanding = std::max(out.max_outstanding, in_flight.size());
      ++out.sent;
      ++k;
      due += gap(k);
      now = Clock::now();
    }
    while (auto response = socket->next()) {
      const Clock::time_point answered = Clock::now();
      if (in_flight.empty()) {
        ++out.wrong;
        continue;
      }
      const InFlight head = in_flight.front();
      in_flight.pop_front();
      ++out.answered;
      const double latency = std::chrono::duration<double, std::micro>(answered - head.due).count();
      out.latency_us.push_back(latency);
      out.due_s.push_back(std::chrono::duration<double>(head.due - start).count());
      out.over_slo += latency > kSloUs ? 1 : 0;
      if (!check_answer(*response, head.id, pool.expected, head.id % pool.requests.size(),
                        variant_of)
               .ok) {
        ++out.wrong;
      }
    }
    if (due >= end && in_flight.empty()) break;
    if (now > drain_until) break;
    const Clock::time_point wake = due < end ? due : drain_until;
    // While answers are outstanding, poll without sleeping for a short
    // while first: the answer usually lands within it, so the measured
    // latency does not include this thread's own wake-up delay.
    const bool spin = !in_flight.empty() && now - in_flight.front().due < kSpin;
    if (!socket->pump(spin ? std::chrono::nanoseconds(0) : wake - now)) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reload churn: one connection alternating delta and full RELOADs.

struct ReloadResult {
  std::vector<double> rtt_ms, delta_rtt_ms, full_rtt_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

ReloadResult run_reloads(std::uint16_t port, const ServedData& data, const FramePool& pool,
                         Clock::time_point start, Clock::time_point end,
                         const VariantOf& variant_of) {
  ReloadResult out;
  pin_to(kLoadCpus);
  const auto fail = [&out](const std::string& what) {
    ++out.failed;
    if (out.failures.size() < 5) out.failures.push_back(what);
  };
  auto socket = Socket::connect(port);
  if (!socket) {
    ++out.attempted;
    fail("reload connection refused");
    return out;
  }
  std::uint64_t generation = 1;
  std::vector<std::uint8_t> request;
  for (std::uint32_t k = 0; start + kReloadPeriod * (k + 1) < end; ++k) {
    std::this_thread::sleep_until(start + kReloadPeriod * (k + 1));
    const bool delta = k % 2 == 0;  // the server starts on month m-1
    request.clear();
    sp::net::encode_reload_request(request, {delta ? data.delta : data.prev_db});
    ++out.attempted;
    const Clock::time_point sent = Clock::now();
    if (!socket->send_all(request)) {
      fail("reload send failed");
      return out;
    }
    const auto frame = socket->read_frame(sent + std::chrono::seconds(30));
    const double rtt = ms_since(sent);
    std::string error;
    const auto response =
        frame ? sp::net::parse_reload_response(frame->body, &error) : std::nullopt;
    if (!response || !response->ok || response->generation != generation + 1) {
      fail("RELOAD " + std::string(delta ? "delta" : "full") + " failed: " +
           (response ? response->error : error));
      return out;
    }
    generation = response->generation;
    out.rtt_ms.push_back(rtt);
    (delta ? out.delta_rtt_ms : out.full_rtt_ms).push_back(rtt);

    // The generation must match: a QUERY right after the RELOAD answers
    // from the new snapshot.
    ++out.attempted;
    const std::size_t index = k % pool.requests.size();
    request = pool.requests[index];
    patch_request_id(request, k);
    const auto answer = socket->send_all(request)
                            ? socket->read_frame(Clock::now() + std::chrono::seconds(10))
                            : std::nullopt;
    const Checked checked =
        answer ? check_answer(*answer, k, pool.expected, index, variant_of) : Checked{};
    if (!checked.ok || checked.generation != generation) {
      fail("QUERY after RELOAD did not answer from generation " + std::to_string(generation));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------

struct Engines {
  std::vector<sp::serve::SiblingDB> dbs;
  std::vector<std::unique_ptr<sp::serve::LookupEngine>> engines;
  [[nodiscard]] std::vector<const sp::serve::LookupEngine*> pointers() const {
    std::vector<const sp::serve::LookupEngine*> out;
    for (const auto& engine : engines) out.push_back(engine.get());
    return out;
  }
};

std::optional<Engines> load_engines(const std::vector<std::string>& paths, Result& result) {
  Engines engines;
  engines.dbs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string error;
    auto db = sp::serve::SiblingDB::load(path, &error);
    if (!result.check(db.has_value(), "cannot load " + path + ": " + error)) return std::nullopt;
    engines.dbs.push_back(std::move(*db));
  }
  for (const auto& db : engines.dbs) {
    engines.engines.push_back(std::make_unique<sp::serve::LookupEngine>(db));
  }
  return engines;
}

void add_stats_layers(Result& result, const ServerProcess& server, double client_p50_us) {
  const auto stats = server.stats();
  if (!result.check(stats.has_value(), "STATS failed")) return;
  result.layer("net.server_frame_p50_us", stats->frame_p50_us, "us");
  result.layer("net.frame_p99_us", stats->frame_p99_us, "us");
  result.layer("net.frames_in", static_cast<double>(stats->frames_in), "count");
  result.layer("net.reads_paused", static_cast<double>(stats->reads_paused), "count");
  result.layer("net.queue_wire_us", client_p50_us - stats->frame_p50_us, "us");
}

/// Median over 1-s windows of each window's q-quantile of `values`: the
/// host's transient stalls land in a few windows and the median across
/// windows ignores them, while an effect present in every window (reload
/// stalls every 250 ms) is kept.
double windowed_quantile(const std::vector<double>& at_s, const std::vector<double>& values,
                         double q) {
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < values.size(); ++i) {
    windows[static_cast<long>(at_s[i])].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& [index, window] : windows) per_window.push_back(quantile(std::move(window), q));
  return median(per_window);
}

struct OpenLoopSummary {
  std::vector<double> latency_us, due_s, late_us;
  std::uint64_t sent = 0, answered = 0, wrong = 0, over_slo = 0;
  std::size_t max_outstanding = 0;
  double seconds = 0.0;
};

OpenLoopSummary run_open_loop_phase(std::uint16_t port, const std::vector<FramePool>& pools,
                                    const Options& options, Clock::time_point start,
                                    Clock::time_point end, const VariantOf& variant_of,
                                    Result& result) {
  std::vector<OpenLoopResult> results(pools.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < pools.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = run_open_loop(port, pools[c], options.seed, c, kOpenLoopFps / pools.size(),
                                 start, end, variant_of);
    });
  }
  for (std::thread& thread : threads) thread.join();

  OpenLoopSummary summary;
  summary.seconds = std::chrono::duration<double>(end - start).count();
  for (const OpenLoopResult& r : results) {
    result.check(r.connected, "open-loop connection refused");
    summary.latency_us.insert(summary.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    summary.due_s.insert(summary.due_s.end(), r.due_s.begin(), r.due_s.end());
    summary.late_us.insert(summary.late_us.end(), r.late_us.begin(), r.late_us.end());
    summary.sent += r.sent;
    summary.answered += r.answered;
    summary.wrong += r.wrong;
    summary.over_slo += r.over_slo;
    summary.max_outstanding = std::max(summary.max_outstanding, r.max_outstanding);
  }
  // Every frame is one checked operation; unanswered or wrong ones fail
  // and count as SLO misses.
  result.attempted += summary.sent;
  const std::uint64_t bad = summary.wrong + (summary.sent - summary.answered);
  result.failed += bad;
  if (bad > 0) {
    result.failures.push_back(std::to_string(summary.wrong) + " wrong and " +
                              std::to_string(summary.sent - summary.answered) +
                              " unanswered QUERY frames");
  }
  const double late_p50 = quantile(summary.late_us, 0.5);
  result.check(late_p50 <= kSloUs,
               "load generator fell behind its schedule (late p50 " + std::to_string(late_p50) +
                   " us): run invalid");
  return summary;
}

/// Reports the churn phase's query figures.
void report_open_loop(Result& result, const OpenLoopSummary& s) {
  const double slo_miss = s.sent == 0 ? 1.0
                                      : static_cast<double>(s.over_slo + s.sent - s.answered +
                                                            s.wrong) /
                                            static_cast<double>(s.sent);
  result.note("query_p50_us", windowed_quantile(s.due_s, s.latency_us, 0.5), "us");
  result.note("query_p99_us", windowed_quantile(s.due_s, s.latency_us, 0.99), "us");
  result.note("query_p99_whole_run_us", quantile(s.latency_us, 0.99), "us");
  result.note("query_max_us", quantile(s.latency_us, 1.0), "us");
  result.note("query_slo_miss_ratio", slo_miss, "ratio");
  result.note("open_loop_frames", static_cast<double>(s.sent), "count");
  result.note("open_loop_fps", static_cast<double>(s.sent) / s.seconds, "1/s");
  result.layer("loadgen.late_p99_us", quantile(s.late_us, 0.99), "us");
  result.layer("loadgen.max_outstanding", static_cast<double>(s.max_outstanding), "count");
}

/// Splits the client frame p50 into the server-side layers (decode,
/// lookup, encode, server remainder) and the queue/wire time outside the
/// server; the parts add up to the client p50.
void account_frame(Result& result, double client_p50_us, double keys_per_frame) {
  const auto get = [&](const char* name) {
    const auto it = result.layers.find(name);
    return it == result.layers.end() ? 0.0 : it->second.value;
  };
  const double lookup_us = keys_per_frame * get("serve.mixed_ns_per_key") / 1e3;
  result.layer("serve.frame_lookup_us", lookup_us, "us");
  const double server_us = client_p50_us - get("net.queue_wire_us");
  result.layer("net.remainder_us",
               server_us - get("net.decode_request_ns") / 1e3 - lookup_us -
                   get("net.encode_response_ns") / 1e3,
               "us");
}

Clock::time_point after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

}  // namespace

Result run_serve_reload(const Options& options) {
  Result result;
  const auto data = prepare_served_data(options, result);
  if (!data) return result;
  // Variant 0 answers for odd generations (month m-1: the initial load and
  // every full RELOAD), variant 1 for even ones (the applied delta).
  const auto engines = load_engines({data->prev_db, data->last_db}, result);
  if (!engines) return result;
  std::vector<FramePool> pools;
  for (std::size_t c = 0; c < kConnections; ++c) {
    pools.push_back(make_frame_pool(engines->dbs.back(), engines->pointers(), KeyMix{},
                                    options.seed, c, 2048, 1, 16));
  }
  const VariantOf by_parity = [](std::uint64_t generation) {
    return generation == 0 ? -1 : static_cast<int>((generation + 1) % 2);
  };

  const double quiet_s = options.seconds / 3.0;
  const double churn_s = options.seconds - quiet_s;
  double peak_mb = 0.0, server_cpu_s = 0.0;
  OpenLoopSummary quiet, churn;
  ReloadResult reloads;
  std::vector<double> setup_ms;
  for (int i = 0; i < kLaunches; ++i) {
    ServerProcess server;
    std::string error;
    const std::string log = options.work_dir + "/sp_serve-" + std::to_string(i) + ".log";
    if (!result.check(server.start(options, data->prev_db, log, &error),
                      "launch failed: " + error)) {
      continue;
    }
    setup_ms.push_back(server.setup_ms());
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    if (i == 1) {
      // The query path alone: the server's CPU time over the quiet phase,
      // drain included, per frame answered.
      const double cpu_before = server.cpu_seconds();
      quiet = run_open_loop_phase(server.port(), pools, options, start, after(start, quiet_s),
                                  by_parity, result);
      server_cpu_s = server.cpu_seconds() - cpu_before;
      result.check(cpu_before >= 0 && server_cpu_s > 0, "cannot read sp_serve's CPU time");
    } else if (i == 2) {
      const Clock::time_point end = after(start, churn_s);
      std::thread reloader([&] {
        reloads = run_reloads(server.port(), *data, pools[0], start, end, by_parity);
      });
      churn = run_open_loop_phase(server.port(), pools, options, start, end, by_parity, result);
      reloader.join();
      peak_mb = static_cast<double>(server.peak_rss_kb()) / 1024.0;
      if (options.trace) add_stats_layers(result, server, quantile(churn.latency_us, 0.5));
    }
    server.stop();
  }
  result.attempted += reloads.attempted;
  result.failed += reloads.failed;
  for (const std::string& failure : reloads.failures) result.failures.push_back(failure);

  const double frames_per_cpu_s =
      server_cpu_s > 0 ? static_cast<double>(quiet.answered) / server_cpu_s : 0.0;
  result.end_to_end["op_p50_ms"] = {median(reloads.rtt_ms), "ms"};
  result.end_to_end["items_per_s"] = {frames_per_cpu_s, "1/s"};
  result.end_to_end["setup_s"] = {median(setup_ms) / 1e3, "s"};
  result.end_to_end["peak_rss_mb"] = {peak_mb, "MB"};

  report_open_loop(result, churn);
  result.note("reload_ms", median(reloads.rtt_ms), "ms");
  result.note("reload_delta_ms", median(reloads.delta_rtt_ms), "ms");
  result.note("reload_full_ms", median(reloads.full_rtt_ms), "ms");
  result.note("reloads", static_cast<double>(reloads.rtt_ms.size()), "count");
  result.note("quiet_query_p50_us", windowed_quantile(quiet.due_s, quiet.latency_us, 0.5), "us");
  result.note("quiet_server_cpu_us_per_frame",
              quiet.answered > 0 ? server_cpu_s * 1e6 / static_cast<double>(quiet.answered) : 0.0,
              "us");
  result.note("quiet_frames_per_cpu_s", frames_per_cpu_s, "1/s");
  result.note("setup_s", median(setup_ms) / 1e3, "s");
  result.note("peak_rss_mb", peak_mb, "MB");

  if (options.trace) {
    probe_serve_layers(result, {data->last_db, data->prev_db, data->delta, &pools[0]});
    double keys = 0.0;
    for (const auto& frame_keys : pools[0].keys) keys += static_cast<double>(frame_keys.size());
    account_frame(result, quantile(churn.latency_us, 0.5), keys / pools[0].keys.size());
    // Nothing is recorded while the traffic runs: STATS is scraped and the
    // probes run after it, so the traced op is the untraced one.
    result.layer("trace.op_ms", median(reloads.rtt_ms), "ms");
    result.layer("trace.overhead_ms", 0.0, "ms");
  }
  return result;
}

}  // namespace perfbench
