// Shared types of the stackbench binary: run options, the result a
// workload hands back to main(), and small timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stackbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory for sockets and snapshot images (removed at exit).
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_dir = ".bench_build/traces";
  unsigned nproc = 1;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The timed run's metrics; every workload reports all of them.
inline constexpr MetricSpec kEndToEnd[] = {
    {"qps", "1/s"},        {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"setup_s", "s"},      {"peak_rss_mb", "MiB"},   {"suite_s", "s"},
};

/// The traced run's metrics.  A layer the workload never reaches reports
/// 0 (the router rows off routed_warm, every serving layer on paper_suite).
inline constexpr MetricSpec kPerLayer[] = {
    {"engine.us_per_frame", "us"},
    {"engine.hit_rate", "ratio"},
    {"engine.evictions_per_kquery", "1/kquery"},
    {"engine.promotions_per_kquery", "1/kquery"},
    {"engine.lockfree_hit_share", "ratio"},
    {"engine.lock_acquisitions_per_kquery", "1/kquery"},
    {"engine.lock_wait_us_per_kquery", "us/kquery"},
    {"engine.read_retries_per_kquery", "1/kquery"},
    {"codec.us_per_frame", "us"},
    {"codec.crc_ns_per_byte", "ns/B"},
    {"codec.bytes_per_query", "B"},
    {"server.us_per_frame", "us"},
    {"server.queue_wait_us.p50", "us"},
    {"server.queue_wait_us.p99", "us"},
    {"server.decode_us.p50", "us"},
    {"server.evaluate_us.p50", "us"},
    {"server.encode_us.p50", "us"},
    {"server.total_us.p50", "us"},
    {"server.frames_per_evaluation", "count"},
    {"server.linger_us.p50", "us"},
    {"server.retry_later_per_kframe", "1/kframe"},
    {"server.bufpool_reuse_share", "ratio"},
    {"transport.tcp_us_per_frame", "us"},
    {"router.us_per_frame", "us"},
    {"router.fanout2_us_per_frame", "us"},
    {"router.subbatches_per_frame", "count"},
    {"router.retries_per_kframe", "1/kframe"},
    {"router.resprayed_per_kframe", "1/kframe"},
    {"router.backend_imbalance", "ratio"},
    {"snapshot.load_s", "s"},
    {"snapshot.partition_s", "s"},
    {"snapshot.records", "count"},
    {"suite.serial_s", "s"},
    {"suite.fig05_s", "s"},
    {"suite.fig16_s", "s"},
    {"suite.walk_laps_simulated", "count"},
    {"suite.walk_laps_extrapolated", "count"},
    {"suite.events_dispatched", "count"},
    {"ledger.residual_share", "ratio"},
    {"trace.overhead_p50_ms", "ms"},
};

/// What a workload reports: metric values by name (units come from the
/// tables above) plus info lines printed before the result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t frames_hash = 0;  ///< hash of the generated input sequence
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// FNV-1a over raw bytes, chained through `h`: the input-sequence stamp.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Load-generator threads (one connection each) a serving workload runs;
/// 0 for paper_suite, whose runner has nproc jobs.
unsigned generator_threads(const std::string& workload);

RunResult run_serving(const Options& opts);
RunResult run_paper_suite(const Options& opts);

}  // namespace stackbench
