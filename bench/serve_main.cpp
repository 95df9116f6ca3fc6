// maia_serve: the streaming prediction server.  Serves the svc::QueryEngine
// over a unix-domain or TCP socket (src/net protocol; --listen tcp:host:port
// puts a fleet on a network) to any client that can speak length-prefixed
// frames — including the dependency-free examples/client.py.
//
//   maia_serve --socket PATH [--workers N] [--queue-depth N] [--cache N]
//              [--shards N] [--shard I/N] [--snapshot-in P]
//              [--snapshot-out P] [--metrics PATH] [--drain-timeout-ms T]
//
// The server registers the eight NPB Class-C kernels (same ids as
// maia_sweep / maia_client), optionally warm-starts from a cache snapshot,
// then serves until SIGTERM/SIGINT.  On the signal it drains gracefully:
// stops accepting, answers DRAINING to new work, flushes every in-flight
// batch, saves --snapshot-out, writes --metrics, prints the final SLO
// counters, and exits 0.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "arch/registry.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "svc/engine.hpp"
#include "sweep_grid.hpp"

namespace {

maia::net::Server* g_server = nullptr;

void handle_signal(int) {
  // request_drain() is async-signal-safe: an atomic store + a pipe write.
  if (g_server != nullptr) g_server->request_drain();
}

void print_help(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s --socket PATH [options]\n"
      "\n"
      "Serve the batch prediction engine over a unix-domain socket.\n"
      "SIGTERM/SIGINT drain gracefully: in-flight batches finish, the\n"
      "cache snapshot is saved, and the process exits 0.\n"
      "\n"
      "options:\n"
      "  --socket ADDR        listen endpoint: unix:/path, tcp:host:port,\n"
      "                       or a bare unix path (default: maia.sock);\n"
      "                       a stale leftover unix socket is probed and\n"
      "                       reclaimed, a live one refuses startup\n"
      "  --listen ADDR        alias for --socket\n"
      "  --workers N          evaluation worker threads (default: 2)\n"
      "  --queue-depth N      admission queue bound; a full queue answers\n"
      "                       RETRY_LATER (default: 64)\n"
      "  --cache N            cache entries per engine shard (default: 32768)\n"
      "  --shards N           engine shard count (default: auto)\n"
      "  --shard I/N          serve only consistent-hash range I of N and\n"
      "                       answer WRONG_SHARD to any key outside it;\n"
      "                       the range is advertised in the stats\n"
      "                       handshake so a router can validate routing\n"
      "  --snapshot-in P      warm-start the caches from snapshot P\n"
      "  --snapshot-out P     save a snapshot at drain\n"
      "  --metrics PATH       write the metrics registry JSON at drain\n"
      "  --drain-timeout-ms T force-exit ceiling on drain (default: 30000)\n"
      "  --help               show this help\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maia;

  net::ServerConfig server_config;
  server_config.socket_path = "maia.sock";
  server_config.workers = 2;
  svc::EngineConfig engine_config;
  std::string snapshot_in;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "maia_serve: %s expects a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      server_config.socket_path = need_value("--socket");
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      server_config.socket_path = need_value("--listen");
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      server_config.workers = std::atoi(need_value("--workers"));
    } else if (std::strcmp(argv[i], "--queue-depth") == 0) {
      server_config.admission_depth =
          static_cast<std::size_t>(std::atol(need_value("--queue-depth")));
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      engine_config.cache_capacity_per_shard =
          static_cast<std::size_t>(std::atol(need_value("--cache")));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      engine_config.shards = std::atoi(need_value("--shards"));
    } else if (std::strcmp(argv[i], "--shard") == 0) {
      const char* spec = need_value("--shard");
      char* slash = nullptr;
      const long index = std::strtol(spec, &slash, 10);
      long count = 0;
      if (slash != nullptr && *slash == '/') {
        count = std::strtol(slash + 1, nullptr, 10);
      }
      if (count <= 0 || index < 0 || index >= count) {
        std::fprintf(stderr,
                     "maia_serve: --shard expects INDEX/COUNT with "
                     "0 <= INDEX < COUNT, got '%s'\n",
                     spec);
        return 2;
      }
      server_config.shard_index = static_cast<int>(index);
      server_config.shard_count = static_cast<int>(count);
    } else if (std::strcmp(argv[i], "--snapshot-in") == 0) {
      snapshot_in = need_value("--snapshot-in");
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0) {
      server_config.snapshot_out = need_value("--snapshot-out");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = need_value("--metrics");
    } else if (std::strcmp(argv[i], "--drain-timeout-ms") == 0) {
      server_config.drain_timeout_ms =
          static_cast<std::uint32_t>(std::atol(need_value("--drain-timeout-ms")));
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_help(argv[0], stdout);
      return 0;
    } else {
      print_help(argv[0], stderr);
      return 2;
    }
  }

  svc::QueryEngine engine(arch::maia_node(), engine_config);
  sweepgrid::register_npb_kernels(engine);

  if (!snapshot_in.empty()) {
    const svc::SnapshotLoadResult loaded = engine.load_snapshot(snapshot_in);
    if (loaded.ok()) {
      std::printf("maia_serve: warmed %llu records from %s\n",
                  static_cast<unsigned long long>(loaded.records_loaded),
                  snapshot_in.c_str());
    } else {
      std::printf("maia_serve: snapshot %s REJECTED (%s) — cold start\n",
                  snapshot_in.c_str(), svc::snapshot_error_name(loaded.error));
    }
  }

  server_config.log_accepts = true;
  net::Server server(engine, server_config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "maia_serve: %s\n", error.c_str());
    return 1;
  }
  std::printf("maia_serve: listening on %s (%d workers, queue depth %zu)\n",
              server_config.socket_path.c_str(), server_config.workers,
              server_config.admission_depth);
  if (server_config.shard_count > 0) {
    std::printf("maia_serve: serving shard %d/%d only\n",
                server_config.shard_index, server_config.shard_count);
  }
  std::fflush(stdout);

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  const int exit_code = server.wait();
  g_server = nullptr;

  const net::ServerStats stats = server.stats();
  const svc::EngineStats engine_stats = engine.stats();
  std::printf(
      "maia_serve: drained (%s)\n"
      "  requests: %llu served, %llu rejected (retry), %llu timed out, "
      "%llu malformed, %llu refused draining, %llu wrong shard\n"
      "  connections: %llu accepted, %llu closed\n"
      "  bytes: %llu in, %llu out\n"
      "  engine: %llu queries, %llu hits, %llu misses (%.1f%% hit rate)\n",
      exit_code == 0 ? "clean" : "forced",
      static_cast<unsigned long long>(stats.served),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.timed_out),
      static_cast<unsigned long long>(stats.malformed),
      static_cast<unsigned long long>(stats.draining_rejected),
      static_cast<unsigned long long>(stats.wrong_shard),
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_closed),
      static_cast<unsigned long long>(stats.bytes_read),
      static_cast<unsigned long long>(stats.bytes_written),
      static_cast<unsigned long long>(engine_stats.queries),
      static_cast<unsigned long long>(engine_stats.cache_hits),
      static_cast<unsigned long long>(engine_stats.cache_misses),
      100.0 * engine_stats.hit_rate());
  std::printf("  bufpool: %llu allocs, %llu reuses\n",
              static_cast<unsigned long long>(stats.bufpool_allocations),
              static_cast<unsigned long long>(stats.bufpool_reuses));
  if (!server_config.snapshot_out.empty()) {
    std::printf("  snapshot: %llu records -> %s\n",
                static_cast<unsigned long long>(stats.snapshot_records),
                server_config.snapshot_out.c_str());
  }

  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::fprintf(stderr, "maia_serve: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    obs::write_metrics_json(os, obs::MetricsRegistry::global().snapshot());
    std::printf("  metrics: %s\n", metrics_path.c_str());
  }

  return exit_code;
}
