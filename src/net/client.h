// sp::net::Client — a small blocking TCP client for the binary protocol.
//
// This is the consumer side the conformance tests and the chaos soak
// driver share: connect, write raw frame bytes, read frames back through the
// same incremental FrameDecoder the server uses. It is deliberately
// synchronous (poll-guarded reads/writes with deadlines) — pipelining is
// expressed by writing several request frames before reading responses,
// which TCP and the server's in-order dispatch make safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/protocol.h"

namespace sp::net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port (either address family) within `timeout`.
  [[nodiscard]] static std::optional<Client> connect(
      const std::string& host, std::uint16_t port, std::string* error,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  /// Writes all of `bytes` (blocking, poll-guarded). False on error.
  [[nodiscard]] bool send_bytes(std::span<const std::uint8_t> bytes, std::string* error);

  /// Reads until one complete frame is decoded or `timeout` elapses.
  /// Returns nullopt on timeout, EOF or a framing error (reason in
  /// `error`; "" + eof()==true distinguishes a clean close).
  [[nodiscard]] std::optional<Frame> read_frame(
      std::string* error,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  /// True once the server closed its end during a read_frame().
  [[nodiscard]] bool eof() const noexcept { return eof_; }

  /// The raw socket, for tests that need shutdown()/partial writes.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  void close();

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  bool eof_ = false;
};

}  // namespace sp::net
