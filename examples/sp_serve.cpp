// The sibling lookup service CLI: load a .sibdb snapshot and answer
// line-oriented queries from stdin — the operator-facing front of the
// sp::serve subsystem.
//
//   sp_serve <db.sibdb>                    serve queries from stdin
//   sp_serve --convert <in.csv> <out.sibdb>  CSV release -> binary snapshot
//   sp_serve --listen <host:port> <db.sibdb> [--workers N]
//                                          serve the binary TCP protocol
//                                          (net/protocol.h) until SIGINT;
//                                          prints "LISTENING host:port"
//                                          once bound (port 0 = ephemeral,
//                                          the line reports the real one)
//
// Query protocol (one per line):
//   <address>            LPM lookup, either family ("20.1.2.3", "2620:100::1")
//   <prefix>             LPM lookup for a whole prefix ("20.1.0.0/16")
//   RELOAD <path>        hot-swap to a new snapshot; queries keep serving.
//                        A ".spdl" path is a delta log: it is applied to
//                        the served snapshot (stream/reload.h) and the
//                        patched .sibdb written next to it is swapped in
//   RELOAD               re-read the current snapshot's file (the
//                        publisher — e.g. sp_pipeline — replaced it in place)
//   STATS                print service counters
//
// Run: ./build/examples/sp_serve siblings.sibdb < queries.txt
#include <charconv>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "net/server.h"
#include "serve/service.h"
#include "stream/reload.h"

using namespace sp;

namespace {

void print_answer(const std::string& query, const serve::SiblingAnswer& answer,
                  std::uint64_t generation) {
  std::printf("HIT %s matched=%s sibling=%s similarity=%.9f shared=%u v4_domains=%u "
              "v6_domains=%u gen=%llu\n",
              query.c_str(), answer.matched.to_string().c_str(),
              answer.sibling.to_string().c_str(), answer.similarity, answer.shared_domains,
              answer.v4_domain_count, answer.v6_domain_count,
              static_cast<unsigned long long>(generation));
}

void print_stats(const serve::ServiceStats& stats) {
  // Only single queries: neither front-end batches through query_many, so
  // the service's batch figures would always read zero here.
  std::printf("STATS gen=%llu queries=%llu hits=%llu misses=%llu reloads=%llu "
              "query_ms=%.3f\n",
              static_cast<unsigned long long>(stats.generation),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.reloads), stats.query_ms_total);
  // Distribution line: log₂-histogram quantile estimates (obs/metrics.h),
  // exact max; all in microseconds.
  std::printf("STATS latency query_p50_us=%.1f query_p90_us=%.1f query_p99_us=%.1f "
              "query_max_us=%llu\n",
              stats.query_p50_us, stats.query_p90_us, stats.query_p99_us,
              static_cast<unsigned long long>(stats.query_max_us));
  // Generations older than the retained window, folded into one bucket
  // so reload churn cannot grow this report (or service memory) forever.
  if (stats.compacted_generations > 0) {
    std::printf("STATS gen=compacted(%llu) served=%llu hits=%llu hit_rate=%.4f\n",
                static_cast<unsigned long long>(stats.compacted_generations),
                static_cast<unsigned long long>(stats.compacted.queries),
                static_cast<unsigned long long>(stats.compacted.hits),
                stats.compacted.hit_rate());
  }
  // One line per snapshot generation this process has served (the last is
  // the live one): how much traffic it answered and how well it covered it.
  for (const serve::GenerationStats& gen : stats.generations) {
    std::printf("STATS gen=%llu served=%llu hits=%llu hit_rate=%.4f\n",
                static_cast<unsigned long long>(gen.generation),
                static_cast<unsigned long long>(gen.queries),
                static_cast<unsigned long long>(gen.hits), gen.hit_rate());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: sp_serve <db.sibdb>\n"
               "       sp_serve --convert <in.csv> <out.sibdb>\n"
               "       sp_serve --listen <host:port> <db.sibdb> [--workers N]\n");
  return 2;
}

// sp-lint: atomics-ok(volatile sig_atomic_t is the one type the C++
// standard guarantees safe to write from a signal handler; no
// cross-thread ordering rides on it — the main loop only polls it)
volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

/// A decimal number of at most `max`: digits only, no sign, no spaces.
std::optional<unsigned long> parse_decimal(std::string_view text, unsigned long max) {
  unsigned long value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, status] = std::from_chars(text.data(), end, value);
  if (text.empty() || status != std::errc() || stop != end || value > max) return std::nullopt;
  return value;
}

/// `sp_serve --listen host:port db [--workers N]`: TCP front-end until
/// SIGINT/SIGTERM. The LISTENING line is the machine-readable contract
/// tier1.sh and the CI smoke parse for the bound (possibly ephemeral)
/// port, so it goes to stdout and is flushed before blocking.
int run_listen(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string endpoint = argv[2];
  const std::string db_path = argv[3];
  net::ServerConfig config;
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--listen expects host:port, got '%s'\n", endpoint.c_str());
    return 2;
  }
  config.host = endpoint.substr(0, colon);
  // Port 0 asks for an ephemeral port.
  const auto port = parse_decimal(std::string_view(endpoint).substr(colon + 1), 65535);
  if (!port) {
    std::fprintf(stderr, "--listen port must be 0-65535, got '%s'\n",
                 endpoint.c_str() + colon + 1);
    return usage();
  }
  config.port = static_cast<std::uint16_t>(*port);
  for (int i = 4; i < argc; i += 2) {
    if (std::string(argv[i]) != "--workers" || i + 1 >= argc) return usage();
    const auto workers = parse_decimal(argv[i + 1], std::numeric_limits<unsigned>::max());
    if (!workers) return usage();
    config.workers = static_cast<unsigned>(*workers);
  }

  // One thread: the batch pool exists for query_many, which neither
  // front-end calls (net workers answer each frame inline), so a larger
  // pool would only start idle threads.
  serve::SiblingService service(1);
  std::string error;
  if (!service.load(db_path, &error)) {
    std::fprintf(stderr, "cannot load %s: %s\n", db_path.c_str(), error.c_str());
    return 1;
  }
  net::Server server(service, config);
  if (!server.start(&error)) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", endpoint.c_str(), error.c_str());
    return 1;
  }
  std::printf("LISTENING %s:%u\n", config.host.c_str(), server.port());
  std::fflush(stdout);

  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  while (g_stop == 0) {
    const timespec nap{0, 100 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
  server.stop();
  // Machine-readable shutdown marker, mirroring LISTENING. A supervisor
  // tailing stdout may be gone by now (`| head -1`), making this write
  // hit a dead pipe — exactly the case the SIG_IGN(SIGPIPE) in main()
  // exists for; scripts/tier1.sh asserts we exit 0 here, not die on 141.
  std::printf("STOPPED %s:%u\n", config.host.c_str(), server.port());
  std::fflush(stdout);
  const net::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "served %llu connections, %llu frames, %llu queries (%llu hits), "
               "%llu protocol errors\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.hits),
               static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead peer must never kill the service: the TCP path already sends
  // with MSG_NOSIGNAL, but stdout/stderr may be pipes (a supervisor, a
  // `| head`) whose reader can exit first — without SIG_IGN the next
  // printf would terminate the process mid-serve with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc >= 2 && std::string(argv[1]) == "--convert") {
    if (argc != 4) return usage();
    std::string error;
    if (!serve::convert_sibling_list(argv[2], argv[3], &error)) {
      std::fprintf(stderr, "convert failed: %s\n", error.c_str());
      return 1;
    }
    std::string load_error;
    const auto db = serve::SiblingDB::load(argv[3], &load_error);
    if (!db) {
      std::fprintf(stderr, "wrote %s but it does not load back: %s\n", argv[3],
                   load_error.c_str());
      return 1;
    }
    std::printf("wrote %s: %zu pairs, %zu bytes\n", argv[3], db->size(), db->mapped_bytes());
    return 0;
  }
  if (argc >= 2 && std::string(argv[1]) == "--listen") return run_listen(argc, argv);
  if (argc != 2) return usage();

  serve::SiblingService service(1);  // stdin queries go through query()
  std::string error;
  if (!service.load(argv[1], &error)) {
    std::fprintf(stderr, "cannot load %s: %s\n", argv[1], error.c_str());
    return 1;
  }
  {
    const auto snapshot = service.snapshot();
    std::fprintf(stderr, "serving %s: %zu pairs (%zu v4 / %zu v6 prefixes)\n", argv[1],
                 snapshot->db.size(), snapshot->engine.v4_prefix_count(),
                 snapshot->engine.v6_prefix_count());
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "STATS") {
      print_stats(service.stats());
      continue;
    }
    if (line == "RELOAD") {
      if (service.reload(&error)) {
        const auto snapshot = service.snapshot();
        std::printf("RELOADED %s gen=%llu\n", snapshot->path.c_str(),
                    static_cast<unsigned long long>(snapshot->generation));
      } else {
        std::printf("ERR reload: %s\n", error.c_str());
      }
      continue;
    }
    if (line.rfind("RELOAD ", 0) == 0) {
      const std::string path = line.substr(7);
      const bool ok = sp::stream::is_spdl_path(path)
                          ? sp::stream::apply_delta_and_reload(service, path, &error)
                          : service.load(path, &error);
      if (ok) {
        std::printf("RELOADED %s gen=%llu\n", path.c_str(),
                    static_cast<unsigned long long>(service.stats().generation));
      } else {
        std::printf("ERR reload %s: %s\n", path.c_str(), error.c_str());
      }
      continue;
    }
    const std::uint64_t generation = service.stats().generation;
    if (line.find('/') != std::string::npos) {
      const auto prefix = Prefix::from_string(line);
      if (!prefix) {
        std::printf("ERR bad prefix: %s\n", line.c_str());
        continue;
      }
      if (const auto answer = service.query(*prefix)) {
        print_answer(line, *answer, generation);
      } else {
        std::printf("MISS %s\n", line.c_str());
      }
      continue;
    }
    const auto address = IPAddress::from_string(line);
    if (!address) {
      std::printf("ERR bad address: %s\n", line.c_str());
      continue;
    }
    if (const auto answer = service.query(*address)) {
      print_answer(line, *answer, generation);
    } else {
      std::printf("MISS %s\n", line.c_str());
    }
  }
  print_stats(service.stats());
  return 0;
}
