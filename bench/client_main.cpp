// maia_client: drives a running maia_serve — over a unix or TCP socket
// (--socket unix:/path | tcp:host:port | bare path) — with
// sweep-grid slices and verifies the responses byte-for-byte against a
// local serial evaluation of the same queries — the end-to-end identity
// check for the whole wire path (encode -> server decode -> engine ->
// encode -> client decode).
//
//   maia_client --socket PATH [--connections N] [--batch N] [--smoke]
//               [--kernels K] [--deadline-ms D] [--no-verify]
//               [--expect-no-rejects] [--require-hit-rate R]
//               [--max-p99-ms X] [--json PATH]
//
// The grid slice is split into --batch-sized requests, dealt round-robin
// across --connections concurrent client connections.  RETRY_LATER
// backpressure responses are retried with backoff (and counted), so
// overload slows the client down instead of losing work.  Exit 0 iff
// every request was answered, verification passed, and every --expect /
// --require / --max floor held.
//
// Sharded mode: repeat `--backend PATH` (instead of --socket) to fan each
// request out client-side across several maia_serve backends through a
// net::Router per connection — the same consistent-hash scatter/gather
// maia_router runs server-side, with the same byte-identity check on the
// merged results.  Stats deltas aggregate over the whole backend fleet.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "svc/engine.hpp"
#include "sweep_grid.hpp"

namespace {

using namespace maia;

struct ChunkOutcome {
  bool ok = false;
  net::WireError error = net::WireError::kOk;
  std::uint64_t rtt_ns = 0;
  std::uint64_t retries = 0;
};

void print_help(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "\n"
      "Replay a sweep-grid slice against a running maia_serve and verify\n"
      "the responses byte-identical to a local serial evaluation.\n"
      "\n"
      "options:\n"
      "  --socket ADDR         server endpoint: unix:/path, tcp:host:port,\n"
      "                        or a bare unix path (default: maia.sock)\n"
      "  --backend ADDR        fan out client-side across these backend\n"
      "                        endpoints instead (repeatable; implies the\n"
      "                        consistent-hash scatter/gather of\n"
      "                        maia_router, merged byte-identical)\n"
      "  --connections N       concurrent client connections (default: 4)\n"
      "  --batch N             queries per request frame (default: 4096)\n"
      "  --frame-size N        small-frame load-gen mode: same as --batch N\n"
      "                        but tagged as a frame-size point; emitted\n"
      "                        as \"frame_size\" in --json\n"
      "  --smoke               sample the thread axis 1-in-10 (~10^5\n"
      "                        queries instead of ~10^6)\n"
      "  --kernels K           restrict the slice to the first K NPB\n"
      "                        kernels (default: all 8)\n"
      "  --deadline-ms D       per-request deadline sent to the server\n"
      "  --no-verify           skip the local reference evaluation\n"
      "  --expect-no-rejects   fail if the server rejected (RETRY_LATER)\n"
      "                        any request of this workload\n"
      "  --require-hit-rate R  fail unless the server engine's hit rate\n"
      "                        over this workload is >= R percent (0..100)\n"
      "  --max-p99-ms X        fail if client-observed p99 request\n"
      "                        latency exceeds X milliseconds\n"
      "  --json PATH           write measured stats as JSON\n"
      "  --help                show this help\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "maia.sock";
  int connections = 4;
  std::size_t batch = 4096;
  bool frame_size_mode = false;
  int thread_step = 1;
  std::size_t kernel_limit = 0;
  std::uint32_t deadline_ms = 0;
  bool verify = true;
  bool expect_no_rejects = false;
  double require_hit_rate = -1.0;
  double max_p99_ms = -1.0;
  std::string json_path;
  std::vector<std::string> backends;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "maia_client: %s expects a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      socket_path = need_value("--socket");
    } else if (std::strcmp(argv[i], "--backend") == 0) {
      backends.push_back(need_value("--backend"));
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      connections = std::atoi(need_value("--connections"));
      if (connections < 1) connections = 1;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = static_cast<std::size_t>(std::atol(need_value("--batch")));
      if (batch == 0) batch = 1;
    } else if (std::strcmp(argv[i], "--frame-size") == 0) {
      batch = static_cast<std::size_t>(std::atol(need_value("--frame-size")));
      if (batch == 0) batch = 1;
      frame_size_mode = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      thread_step = 10;
    } else if (std::strcmp(argv[i], "--kernels") == 0) {
      kernel_limit = static_cast<std::size_t>(std::atol(need_value("--kernels")));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = static_cast<std::uint32_t>(std::atol(need_value("--deadline-ms")));
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else if (std::strcmp(argv[i], "--expect-no-rejects") == 0) {
      expect_no_rejects = true;
    } else if (std::strcmp(argv[i], "--require-hit-rate") == 0) {
      require_hit_rate = std::atof(need_value("--require-hit-rate"));
    } else if (std::strcmp(argv[i], "--max-p99-ms") == 0) {
      max_p99_ms = std::atof(need_value("--max-p99-ms"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_help(argv[0], stdout);
      return 0;
    } else {
      print_help(argv[0], stderr);
      return 2;
    }
  }

  // Local engine: the reference for --verify and the source of the same
  // kernel-id registry the server uses.
  svc::QueryEngine engine(arch::maia_node(), {});
  const std::vector<npb::NpbWorkload> workloads =
      sweepgrid::register_npb_kernels(engine);
  const sweepgrid::Grid grid =
      sweepgrid::build_grid(workloads, thread_step, kernel_limit);
  const std::size_t n = grid.queries.size();
  const std::size_t chunks = (n + batch - 1) / batch;
  if (backends.empty()) {
    std::printf("maia_client: %zu queries in %zu requests of <=%zu across %d "
                "connections -> %s\n",
                n, chunks, batch, connections, socket_path.c_str());
  } else {
    std::printf("maia_client: %zu queries in %zu requests of <=%zu across %d "
                "connections -> client-side fan-out over %zu backends\n",
                n, chunks, batch, connections, backends.size());
  }
  if (frame_size_mode) {
    std::printf("maia_client: small-frame mode (%zu queries per frame)\n",
                batch);
  }

  // One transport per connection thread.  Direct mode uses a Client per
  // thread; sharded mode a Router per thread (each owning its own backend
  // connections), constructed and admitted here so a bad fleet fails fast
  // before any thread starts.
  std::vector<std::unique_ptr<net::Router>> routers;
  std::string error;
  if (!backends.empty()) {
    net::RouterConfig router_config;
    router_config.backends = backends;
    for (int c = 0; c < connections; ++c) {
      routers.push_back(std::make_unique<net::Router>(engine, router_config));
      if (!routers.back()->connect(&error)) {
        std::fprintf(stderr, "maia_client: backend admission failed: %s\n",
                     error.c_str());
        return 1;
      }
    }
  }

  // Stats before the workload, for workload-attributable deltas.  In
  // sharded mode the deltas aggregate over the whole backend fleet
  // (routers[0] is only touched here, before and after the worker threads
  // run, so its thread confinement holds).
  net::Client stats_client;
  if (backends.empty() && !stats_client.connect(socket_path, &error)) {
    std::fprintf(stderr, "maia_client: %s\n", error.c_str());
    return 1;
  }
  auto fetch_stats = [&]() -> std::optional<net::WireStats> {
    if (backends.empty()) return stats_client.stats();
    return routers.front()->aggregate_backend_stats();
  };
  const std::optional<net::WireStats> before = fetch_stats();
  if (!before.has_value()) {
    std::fprintf(stderr, "maia_client: stats request failed\n");
    return 1;
  }

  std::vector<net::WireResult> results(n);
  std::vector<ChunkOutcome> outcomes(chunks);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (backends.empty()) {
        std::string conn_error;
        if (!client.connect(socket_path, &conn_error)) {
          std::fprintf(stderr, "maia_client: connection %d: %s\n", c,
                       conn_error.c_str());
          return;
        }
      }
      std::vector<net::WireResult> chunk_results;
      svc::BatchResults chunk_batch;
      for (std::size_t chunk = static_cast<std::size_t>(c); chunk < chunks;
           chunk += static_cast<std::size_t>(connections)) {
        const std::size_t lo = chunk * batch;
        const std::size_t hi = std::min(lo + batch, n);
        ChunkOutcome& outcome = outcomes[chunk];
        const auto subspan =
            std::span<const svc::Query>(grid.queries).subspan(lo, hi - lo);
        if (backends.empty()) {
          const net::ClientOutcome rc = client.evaluate_with_retry(
              subspan, chunk_results, deadline_ms, /*max_retries=*/256,
              /*backoff_us=*/200, &outcome.retries);
          outcome.error = rc.error;
          outcome.rtt_ns = rc.rtt_ns;
          if (!rc.ok()) continue;
          std::copy(chunk_results.begin(), chunk_results.end(),
                    results.begin() + static_cast<std::ptrdiff_t>(lo));
        } else {
          // The router absorbs RETRY_LATER itself; its retry counters are
          // folded into the total after the join.
          const auto req0 = std::chrono::steady_clock::now();
          outcome.error =
              routers[static_cast<std::size_t>(c)]->evaluate(
                  subspan, chunk_batch, deadline_ms);
          outcome.rtt_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - req0)
                  .count());
          if (outcome.error != net::WireError::kOk) continue;
          for (std::size_t i = lo; i < hi; ++i) {
            results[i].value = chunk_batch.values()[i - lo];
            results[i].secondary = chunk_batch.secondary()[i - lo];
            results[i].flags = chunk_batch.flags()[i - lo];
          }
        }
        outcome.ok = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::optional<net::WireStats> after = fetch_stats();
  if (!after.has_value()) {
    std::fprintf(stderr, "maia_client: post-workload stats request failed\n");
    return 1;
  }

  std::uint64_t router_retries = 0, router_resprayed = 0;
  bool degraded = false;
  for (const std::unique_ptr<net::Router>& r : routers) {
    const net::RouterStats rs = r->stats();
    router_retries += rs.retries;
    router_resprayed += rs.resprayed;
    degraded = degraded || rs.degraded;
  }

  std::size_t failed = 0;
  std::uint64_t retries = router_retries;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(chunks);
  for (const ChunkOutcome& o : outcomes) {
    if (!o.ok) {
      ++failed;
      std::fprintf(stderr, "maia_client: request failed: %s\n",
                   net::wire_error_name(o.error));
    }
    retries += o.retries;
    latencies_ms.push_back(static_cast<double>(o.rtt_ns) / 1e6);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto quantile = [&](double q) {
    if (latencies_ms.empty()) return 0.0;
    const std::size_t idx = std::min(
        latencies_ms.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies_ms.size())));
    return latencies_ms[idx];
  };
  const double p50 = quantile(0.50), p95 = quantile(0.95), p99 = quantile(0.99);

  // Byte-identity: the wire results against a local serial evaluation.
  bool identical = true;
  if (verify && failed == 0) {
    svc::BatchResults reference;
    engine.evaluate_serial(grid.queries, reference);
    for (std::size_t i = 0; i < n; ++i) {
      if (std::memcmp(&results[i].value, &reference.values()[i], 8) != 0 ||
          std::memcmp(&results[i].secondary, &reference.secondary()[i], 8) != 0 ||
          results[i].flags != reference.flags()[i]) {
        identical = false;
        std::fprintf(stderr, "maia_client: result %zu DIVERGED from local "
                     "reference\n", i);
        break;
      }
    }
  }

  const std::uint64_t d_rejected = after->rejected - before->rejected;
  const std::uint64_t d_queries = after->engine_queries - before->engine_queries;
  const std::uint64_t d_hits = after->engine_hits - before->engine_hits;
  const double hit_rate =
      d_queries > 0 ? static_cast<double>(d_hits) / static_cast<double>(d_queries)
                    : 0.0;
  const double qps = wall_seconds > 0.0 ? static_cast<double>(n) / wall_seconds : 0.0;

  std::printf("requests:   %zu ok, %zu failed, %llu backpressure retries\n",
              chunks - failed, failed, static_cast<unsigned long long>(retries));
  std::printf("throughput: %.3f s wall, %.0f queries/s over the wire\n",
              wall_seconds, qps);
  std::printf("latency:    p50 %.2f ms, p95 %.2f ms, p99 %.2f ms per request\n",
              p50, p95, p99);
  std::printf("server:     +%llu rejected, engine +%llu queries +%llu hits "
              "(%.1f%% hit rate this workload)\n",
              static_cast<unsigned long long>(d_rejected),
              static_cast<unsigned long long>(d_queries),
              static_cast<unsigned long long>(d_hits), 100.0 * hit_rate);
  if (!backends.empty()) {
    std::printf("router:     %zu backends, %llu re-sprayed on failover%s\n",
                backends.size(),
                static_cast<unsigned long long>(router_resprayed),
                degraded ? ", DEGRADED" : "");
  }
  if (verify) {
    std::printf("identity:   %s\n",
                failed == 0 ? (identical ? "IDENTICAL" : "DIVERGED")
                            : "SKIPPED (failed requests)");
  }

  bool ok = failed == 0 && (!verify || identical);
  if (expect_no_rejects && d_rejected != 0) {
    std::fprintf(stderr, "maia_client: FAILED expect-no-rejects: %llu\n",
                 static_cast<unsigned long long>(d_rejected));
    ok = false;
  }
  if (require_hit_rate >= 0.0 && 100.0 * hit_rate < require_hit_rate) {
    std::fprintf(stderr, "maia_client: FAILED hit-rate %.1f%% < %.1f%%\n",
                 100.0 * hit_rate, require_hit_rate);
    ok = false;
  }
  if (max_p99_ms >= 0.0 && p99 > max_p99_ms) {
    std::fprintf(stderr, "maia_client: FAILED p99 %.2f ms > %.2f ms\n", p99,
                 max_p99_ms);
    ok = false;
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "maia_client: cannot write %s\n", json_path.c_str());
      return 1;
    }
    json << "{\n"
         << "  \"suite\": \"maia streaming client\",\n"
         << "  \"queries\": " << n << ",\n"
         << "  \"requests\": " << chunks << ",\n"
         << "  \"batch\": " << batch << ",\n"
         << "  \"frame_size\": " << (frame_size_mode ? batch : 0) << ",\n"
         << "  \"connections\": " << connections << ",\n"
         << "  \"failed_requests\": " << failed << ",\n"
         << "  \"backpressure_retries\": " << retries << ",\n"
         << "  \"wall_seconds\": " << wall_seconds << ",\n"
         << "  \"queries_per_second\": " << qps << ",\n"
         << "  \"latency_ms\": {\"p50\": " << p50 << ", \"p95\": " << p95
         << ", \"p99\": " << p99 << "},\n"
         << "  \"server_rejected\": " << d_rejected << ",\n"
         << "  \"server_hit_rate\": " << hit_rate << ",\n"
         << "  \"backends\": " << backends.size() << ",\n"
         << "  \"resprayed\": " << router_resprayed << ",\n"
         << "  \"degraded\": " << (degraded ? "true" : "false") << ",\n"
         << "  \"verified\": " << (verify ? "true" : "false") << ",\n"
         << "  \"identical_results\": "
         << (verify && failed == 0 && identical ? "true" : "false") << "\n"
         << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}
