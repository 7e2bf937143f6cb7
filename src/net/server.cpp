#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "lint/lock_order.h"
#include "stream/reload.h"

namespace sp::net {

namespace {

/// Read chunk size; also the unit the backpressure check runs at, so a
/// connection's output buffer is bounded by high_water plus the
/// expansion of one chunk.
constexpr std::size_t kReadChunk = 64 * 1024;

/// HTTP request heads larger than this are dropped — the only routes
/// are one-line GETs.
constexpr std::size_t kMaxHttpHead = 8 * 1024;

obs::MetricsRegistry& pick_registry(obs::MetricsRegistry* registry) {
  return registry != nullptr ? *registry : obs::MetricsRegistry::global();
}

std::string hex_byte(std::uint8_t value) {
  constexpr char digits[] = "0123456789abcdef";
  return {'0', 'x', digits[value >> 4], digits[value & 0xf]};
}

}  // namespace

struct Server::Connection {
  int fd = -1;
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  bool sniffed = false;
  bool http = false;
  std::string http_head;
  bool paused = false;            // reads dropped by backpressure
  bool close_after_flush = false; // error/HTTP response queued; close on drain
  std::uint32_t armed = 0;        // epoll events currently registered
  std::chrono::steady_clock::time_point last_read;
  std::chrono::steady_clock::time_point last_write_progress;

  explicit Connection(int socket_fd, std::size_t max_body)
      : fd(socket_fd), decoder(max_body) {}

  [[nodiscard]] std::size_t pending_out() const noexcept { return out.size() - out_pos; }
};

struct Server::Worker {
  unsigned id = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  // lock-order: 60 net.server.inbox_mutex (hand-off of accepted fds from
  // the acceptor to this worker; leaf — nothing is acquired under it)
  std::mutex inbox_mutex_;
  std::vector<int> inbox_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  std::chrono::steady_clock::time_point last_sweep{};
};

Server::Server(serve::SiblingService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      worker_count_(0),
      frame_us_(pick_registry(config_.registry).histogram("net.frame_us")),
      obs_queries_(pick_registry(config_.registry).counter("net.queries")),
      obs_query_frames_(pick_registry(config_.registry).counter("net.frames.query")),
      obs_reload_frames_(pick_registry(config_.registry).counter("net.frames.reload")),
      obs_stats_frames_(pick_registry(config_.registry).counter("net.frames.stats")),
      obs_metrics_frames_(pick_registry(config_.registry).counter("net.frames.metrics")),
      obs_accept_errors_(pick_registry(config_.registry).counter("net.accept_errors")) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (running_.load()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }

  const auto host = IPAddress::from_string(config_.host);
  if (!host) {
    if (error != nullptr) *error = "cannot parse listen host '" + config_.host + "'";
    return false;
  }
  const int family = host->is_v4() ? AF_INET : AF_INET6;
  listen_fd_ = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_storage address{};
  socklen_t address_len = 0;
  if (host->is_v4()) {
    auto* v4 = reinterpret_cast<sockaddr_in*>(&address);
    v4->sin_family = AF_INET;
    v4->sin_port = htons(config_.port);
    v4->sin_addr.s_addr = htonl(host->v4().value());
    address_len = sizeof(sockaddr_in);
  } else {
    auto* v6 = reinterpret_cast<sockaddr_in6*>(&address);
    v6->sin6_family = AF_INET6;
    v6->sin6_port = htons(config_.port);
    std::memcpy(v6->sin6_addr.s6_addr, host->v6().bytes().data(), 16);
    address_len = sizeof(sockaddr_in6);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), address_len) != 0) {
    return fail("bind " + config_.host + ":" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, 256) != 0) return fail("listen");
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(host->is_v4() ? reinterpret_cast<sockaddr_in*>(&bound)->sin_port
                                    : reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);

  worker_count_ = config_.workers;
  if (worker_count_ == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    worker_count_ = hardware == 0 ? 1 : (hardware > 8 ? 8 : hardware);
  }
  workers_.clear();
  for (unsigned id = 0; id < worker_count_; ++id) {
    auto worker = std::make_unique<Worker>();
    worker->id = id;
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->epoll_fd < 0 || worker->event_fd < 0) {
      workers_.clear();
      return fail("epoll/eventfd");
    }
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.fd = worker->event_fd;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->event_fd, &wake);
    if (id == 0) {  // the single acceptor
      epoll_event accept_event{};
      accept_event.events = EPOLLIN;
      accept_event.data.fd = listen_fd_;
      ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &accept_event);
    }
    workers_.push_back(std::move(worker));
  }

  accept_paused_ = false;
  stopping_.store(false);
  running_.store(true);
  // The event loops are pinned to WorkerPool threads: one fork-join run()
  // hosts all of them until stop(); worker 0 executes on the driver
  // thread, so worker_count_ == 1 serves from a single extra thread.
  pool_ = std::make_unique<core::WorkerPool>(worker_count_);
  driver_ = std::thread([this] { pool_->run([this](unsigned id) { worker_loop(id); }); });
  return true;
}

void Server::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  for (const auto& worker : workers_) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto ignored = ::write(worker->event_fd, &one, sizeof(one));
  }
  if (driver_.joinable()) driver_.join();
  pool_.reset();
  for (const auto& worker : workers_) {
    if (worker->event_fd >= 0) ::close(worker->event_fd);
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
}

void Server::worker_loop(unsigned worker_id) {
  Worker& worker = *workers_[worker_id];
  worker.last_sweep = std::chrono::steady_clock::now();
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    const int ready = ::epoll_wait(worker.epoll_fd, events.data(),
                                   static_cast<int>(events.size()), 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (worker.id == 0 && accept_paused_ &&
        std::chrono::steady_clock::now() >= accept_resume_at_) {
      // Backoff elapsed: re-register the listen fd and drain whatever
      // queued while the acceptor was parked. Level-triggered epoll
      // would re-fire anyway; accepting now just shaves the latency.
      epoll_event accept_event{};
      accept_event.events = EPOLLIN;
      accept_event.data.fd = listen_fd_;
      if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &accept_event) == 0) {
        accept_paused_ = false;
        accept_ready(worker);
      }
    }
    for (int i = 0; i < ready; ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.fd == worker.event_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto ignored =
            ::read(worker.event_fd, &drained, sizeof(drained));
        adopt_inbox(worker);
        continue;
      }
      if (event.data.fd == listen_fd_) {
        accept_ready(worker);
        continue;
      }
      // Look the connection up per event: an earlier event in this batch
      // may have closed it (stale events on a reused fd at worst trigger
      // one spurious EAGAIN read).
      const auto it = worker.connections.find(event.data.fd);
      if (it == worker.connections.end()) continue;
      Connection& connection = *it->second;
      if ((event.events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (event.events & (EPOLLIN | EPOLLOUT)) == 0) {
        close_connection(worker, connection);
        continue;
      }
      if ((event.events & EPOLLOUT) != 0) connection_writable(worker, connection);
      if (worker.connections.find(event.data.fd) == worker.connections.end()) continue;
      if ((event.events & EPOLLIN) != 0) connection_readable(worker, connection);
    }
    sweep_timeouts(worker);
  }
  // Shutdown: close every connection this loop owns.
  while (!worker.connections.empty()) {
    close_connection(worker, *worker.connections.begin()->second);
  }
}

void Server::adopt_inbox(Worker& worker) {
  std::vector<int> adopted;
  {
    std::lock_guard lock(worker.inbox_mutex_);
    [[maybe_unused]] const lint::LockOrderScope held("net.server.inbox_mutex");
    adopted.swap(worker.inbox_);
  }
  const auto now = std::chrono::steady_clock::now();
  for (const int fd : adopted) {
    if (stopping_.load()) {
      ::close(fd);
      active_.fetch_sub(1);
      continue;
    }
    auto connection = std::make_unique<Connection>(fd, config_.max_body);
    connection->last_read = now;
    connection->last_write_progress = now;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    connection->armed = EPOLLIN;
    if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      active_.fetch_sub(1);
      continue;
    }
    worker.connections.emplace(fd, std::move(connection));
  }
}

void Server::accept_ready(Worker& worker) {
  while (!accept_paused_) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // backlog drained
      if (errno == ECONNABORTED || errno == EPROTO) {
        // The peer vanished between SYN and accept — count it and keep
        // draining; the rest of the backlog is still acceptable.
        accept_errors_.fetch_add(1);
        obs_accept_errors_.add();
        continue;
      }
      // Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) or another
      // persistent failure. Under level-triggered epoll the listen fd
      // re-arms on every epoll_wait, so `break` alone becomes a 100% CPU
      // hot loop until a descriptor frees up. Park the acceptor instead:
      // unregister the listen fd and let worker 0's loop re-add it after
      // `accept_backoff`. Pending SYNs wait in the kernel backlog.
      accept_errors_.fetch_add(1);
      obs_accept_errors_.add();
      ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      accept_paused_ = true;
      accept_resume_at_ = std::chrono::steady_clock::now() + config_.accept_backoff;
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1);
    active_.fetch_add(1);
    const unsigned target =
        static_cast<unsigned>(next_worker_.fetch_add(1) % worker_count_);
    Worker& owner = *workers_[target];
    {
      std::lock_guard lock(owner.inbox_mutex_);
      [[maybe_unused]] const lint::LockOrderScope held("net.server.inbox_mutex");
      owner.inbox_.push_back(fd);
    }
    if (target == worker.id) {
      adopt_inbox(owner);  // self-delivery: no eventfd round trip needed
    } else {
      const std::uint64_t wake = 1;
      [[maybe_unused]] const auto ignored =
          ::write(owner.event_fd, &wake, sizeof(wake));
    }
  }
}

void Server::connection_readable(Worker& worker, Connection& connection) {
  std::uint8_t chunk[kReadChunk];
  while (!connection.paused && !connection.close_after_flush) {
    const ssize_t got = ::read(connection.fd, chunk, sizeof(chunk));
    if (got == 0) {
      close_connection(worker, connection);
      return;
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(worker, connection);
      return;
    }
    bytes_in_.fetch_add(static_cast<std::uint64_t>(got));
    connection.last_read = std::chrono::steady_clock::now();
    std::span<const std::uint8_t> bytes(chunk, static_cast<std::size_t>(got));
    if (!connection.sniffed) {
      connection.sniffed = true;
      // First byte of the connection routes it: 'G' (never a frame type)
      // means a curl-style HTTP GET, anything else the binary protocol.
      connection.http = bytes[0] == 'G';
    }
    if (connection.http) {
      connection.http_head.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
      if (connection.http_head.size() > kMaxHttpHead) {
        close_connection(worker, connection);
        return;
      }
      if (connection.http_head.find("\r\n\r\n") != std::string::npos) {
        handle_http(connection);
        break;
      }
      continue;
    }
    connection.decoder.feed(bytes);
    while (auto frame = connection.decoder.next()) {
      frames_in_.fetch_add(1);
      dispatch_frame(connection, *frame);
      if (connection.close_after_flush) break;
    }
    if (connection.decoder.error() && !connection.close_after_flush) {
      fail_connection(connection, connection.decoder.error_message());
    }
    // Backpressure inside the read loop: a coalesced pipeline may expand
    // far past the buffered input, so the output bound must be enforced
    // per chunk, not per wakeup.
    if (!connection.close_after_flush &&
        connection.pending_out() > config_.high_water && !connection.paused) {
      connection.paused = true;
      reads_paused_.fetch_add(1);
    }
  }
  flush_output(worker, connection);
}

void Server::connection_writable(Worker& worker, Connection& connection) {
  flush_output(worker, connection);
}

void Server::dispatch_frame(Connection& connection, const Frame& frame) {
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kQuery: {
      const auto start = std::chrono::steady_clock::now();
      std::string reason;
      const auto request = parse_query_request(frame.body, &reason);
      if (!request) {
        fail_connection(connection, reason);
        return;
      }
      obs_query_frames_.add();
      // Pin the RCU snapshot once for the whole batch (the SiblingService
      // discipline): every key answers from the same generation even if a
      // RELOAD swaps mid-frame, and the per-generation tally stays exact.
      const auto snapshot = service_.snapshot();
      QueryResponse response;
      response.request_id = request->request_id;
      response.generation = snapshot ? snapshot->generation : 0;
      response.answers.reserve(request->keys.size());
      std::uint64_t hit_count = 0;
      for (const Prefix& key : request->keys) {
        std::optional<serve::SiblingAnswer> answer;
        if (snapshot) answer = snapshot->engine.query(key);
        hit_count += answer.has_value() ? 1 : 0;
        response.answers.push_back(std::move(answer));
      }
      if (snapshot) snapshot->count(request->keys.size(), hit_count);
      queries_.fetch_add(request->keys.size());
      hits_.fetch_add(hit_count);
      batches_.fetch_add(1);
      obs_queries_.add(static_cast<std::int64_t>(request->keys.size()));
      encode_query_response(connection.out, response);
      frames_out_.fetch_add(1);
      frame_us_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      return;
    }
    case FrameType::kReload: {
      std::string reason;
      const auto request = parse_reload_request(frame.body, &reason);
      if (!request) {
        fail_connection(connection, reason);
        return;
      }
      obs_reload_frames_.add();
      ReloadResponse response;
      std::string error;
      if (request->path.empty()) {
        response.ok = service_.reload(&error);
      } else if (stream::is_spdl_path(request->path)) {
        // A delta log: patch the currently served snapshot and swap the
        // result in, instead of loading a full snapshot from the path.
        response.ok = stream::apply_delta_and_reload(service_, request->path, &error);
      } else {
        response.ok = service_.load(request->path, &error);
      }
      if (response.ok) {
        const auto snapshot = service_.snapshot();
        response.generation = snapshot ? snapshot->generation : 0;
        reloads_ok_.fetch_add(1);
      } else {
        response.error = error;
        reloads_failed_.fetch_add(1);
      }
      encode_reload_response(connection.out, response);
      frames_out_.fetch_add(1);
      return;
    }
    case FrameType::kStats: {
      if (!frame.body.empty()) {
        fail_connection(connection, "STATS body must be empty");
        return;
      }
      obs_stats_frames_.add();
      encode_stats_response(connection.out, stats_payload());
      frames_out_.fetch_add(1);
      return;
    }
    case FrameType::kMetrics: {
      if (!frame.body.empty()) {
        fail_connection(connection, "METRICS body must be empty");
        return;
      }
      obs_metrics_frames_.add();
      std::string json = pick_registry(config_.registry).scrape().to_json();
      if (json.size() > config_.max_body) {
        json = "{\"error\":\"metrics scrape exceeds frame limit\"}";
      }
      encode_metrics_response(connection.out, json);
      frames_out_.fetch_add(1);
      return;
    }
    default:
      fail_connection(connection, "unknown frame type " + hex_byte(frame.type));
      return;
  }
}

void Server::handle_http(Connection& connection) {
  http_requests_.fetch_add(1);
  const std::size_t line_end = connection.http_head.find("\r\n");
  const std::string request_line = connection.http_head.substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  const std::size_t target_end = request_line.find(' ', method_end + 1);
  std::string target;
  if (method_end != std::string::npos && target_end != std::string::npos) {
    target = request_line.substr(method_end + 1, target_end - method_end - 1);
  }
  const bool is_get = request_line.compare(0, 4, "GET ") == 0;
  std::string body;
  std::string status;
  std::string content_type;
  if (is_get && (target == "/metrics" || target.rfind("/metrics?", 0) == 0)) {
    body = pick_registry(config_.registry).scrape().to_json();
    status = "200 OK";
    content_type = "application/json";
  } else {
    body = "not found\n";
    status = "404 Not Found";
    content_type = "text/plain";
  }
  std::string head = "HTTP/1.1 " + status + "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  connection.out.insert(connection.out.end(), head.begin(), head.end());
  connection.out.insert(connection.out.end(), body.begin(), body.end());
  // Only queue here: the flush at the end of connection_readable sends
  // and — with close_after_flush set — closes. Flushing now would
  // destroy the connection while the read loop still holds it.
  connection.close_after_flush = true;
}

void Server::flush_output(Worker& worker, Connection& connection) {
  while (connection.out_pos < connection.out.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection must surface as
    // EPIPE/ECONNRESET from send, never as a process-killing SIGPIPE —
    // the server's liveness cannot depend on the CLI having installed
    // SIG_IGN or on which errno the kernel reports first.
    const ssize_t sent =
        ::send(connection.fd, connection.out.data() + connection.out_pos,
               connection.out.size() - connection.out_pos, MSG_NOSIGNAL);
    if (sent > 0) {
      bytes_out_.fetch_add(static_cast<std::uint64_t>(sent));
      connection.out_pos += static_cast<std::size_t>(sent);
      connection.last_write_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(worker, connection);  // peer is gone (EPIPE, reset)
    return;
  }
  if (connection.out_pos == connection.out.size()) {
    connection.out.clear();
    connection.out_pos = 0;
    if (connection.close_after_flush) {
      close_connection(worker, connection);
      return;
    }
  } else if (connection.out_pos >= connection.out.size() / 2) {
    // Bound the buffer under sustained partial writes.
    connection.out.erase(connection.out.begin(),
                         connection.out.begin() + static_cast<std::ptrdiff_t>(connection.out_pos));
    connection.out_pos = 0;
  }
  // Resume reading once a paused connection drains below half the mark.
  if (connection.paused && connection.pending_out() < config_.high_water / 2) {
    connection.paused = false;
  }
  update_interest(worker, connection);
}

void Server::update_interest(Worker& worker, Connection& connection) {
  std::uint32_t wanted = 0;
  if (!connection.paused && !connection.close_after_flush) wanted |= EPOLLIN;
  if (connection.pending_out() > 0) wanted |= EPOLLOUT;
  if (wanted == connection.armed) return;
  epoll_event event{};
  event.events = wanted;
  event.data.fd = connection.fd;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, connection.fd, &event) == 0) {
    connection.armed = wanted;
  }
}

void Server::fail_connection(Connection& connection, const std::string& message) {
  protocol_errors_.fetch_add(1);
  encode_error(connection.out, message);
  frames_out_.fetch_add(1);
  connection.close_after_flush = true;
}

void Server::close_connection(Worker& worker, Connection& connection) {
  const int fd = connection.fd;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  worker.connections.erase(fd);  // destroys `connection`
  active_.fetch_sub(1);
}

void Server::sweep_timeouts(Worker& worker) {
  const auto now = std::chrono::steady_clock::now();
  if (now - worker.last_sweep < std::chrono::milliseconds(50)) return;
  worker.last_sweep = now;
  std::vector<int> expired_idle;
  std::vector<int> expired_write;
  for (const auto& [fd, connection] : worker.connections) {
    if (connection->pending_out() > 0) {
      if (now - connection->last_write_progress > config_.write_timeout) {
        expired_write.push_back(fd);
      }
    } else if (now - connection->last_read > config_.idle_timeout) {
      expired_idle.push_back(fd);
    }
  }
  // Count each eviction only after close_connection has dropped the
  // active count: a stats() poller that observes the eviction counter
  // must never still see the evicted connection as active.
  for (const int fd : expired_idle) {
    const auto it = worker.connections.find(fd);
    if (it == worker.connections.end()) continue;
    close_connection(worker, *it->second);
    idle_evictions_.fetch_add(1);
  }
  for (const int fd : expired_write) {
    const auto it = worker.connections.find(fd);
    if (it == worker.connections.end()) continue;
    close_connection(worker, *it->second);
    write_timeouts_.fetch_add(1);
  }
}

ServerStats Server::stats() const {
  ServerStats out;
  out.connections_accepted = accepted_.load();
  out.connections_active = active_.load();
  out.frames_in = frames_in_.load();
  out.frames_out = frames_out_.load();
  out.bytes_in = bytes_in_.load();
  out.bytes_out = bytes_out_.load();
  out.queries = queries_.load();
  out.hits = hits_.load();
  out.batches = batches_.load();
  out.reloads_ok = reloads_ok_.load();
  out.reloads_failed = reloads_failed_.load();
  out.protocol_errors = protocol_errors_.load();
  out.reads_paused = reads_paused_.load();
  out.idle_evictions = idle_evictions_.load();
  out.write_timeouts = write_timeouts_.load();
  out.http_requests = http_requests_.load();
  out.accept_errors = accept_errors_.load();
  return out;
}

StatsPayload Server::stats_payload() const {
  StatsPayload stats;
  const serve::ServiceStats service = service_.stats();
  stats.generation = service.generation;
  stats.reloads = service.reloads;
  stats.connections_accepted = accepted_.load();
  stats.connections_active = active_.load();
  stats.frames_in = frames_in_.load();
  stats.frames_out = frames_out_.load();
  stats.bytes_in = bytes_in_.load();
  stats.bytes_out = bytes_out_.load();
  stats.queries = queries_.load();
  stats.hits = hits_.load();
  stats.batches = batches_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.reads_paused = reads_paused_.load();
  stats.idle_evictions = idle_evictions_.load();
  stats.http_requests = http_requests_.load();
  const auto histogram = obs::HistogramSnapshot::of(frame_us_);
  stats.frame_p50_us = histogram.quantile(0.50);
  stats.frame_p90_us = histogram.quantile(0.90);
  stats.frame_p99_us = histogram.quantile(0.99);
  stats.frame_max_us = histogram.max;
  return stats;
}

}  // namespace sp::net
