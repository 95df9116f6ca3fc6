// stackbench: one command that runs a named workload of the serving stack
// or the paper suite from a seed, checks every answer, and prints its
// metrics as one JSON line.
//
//   stackbench --workload NAME --seed N --seconds S --trace 0|1
//              [--commit SHA] [--source-digest HEX]
//
// --trace 0 is the timed run (end-to-end metrics); --trace 1 the traced
// run (per-layer metrics, the layer ledger and the tracing overhead).
// Before the result line it prints a stamp line with what the numbers
// depend on: nproc, compiler, build type, commit, seed and a hash of the
// generated input sequence.
//
// Every run starts with self_test() of the metric arithmetic.
//
// Exit codes: 0 ok; 1 a wrong answer or failed frame (the result line is
// still printed, with "correct": false); 2 usage or refused
// configuration; 3 the metric self-test failed; 4 the workload could not
// run (no result line).
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"
#include "ledger.hpp"

namespace stackbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace stackbench

namespace {

using namespace stackbench;

constexpr const char* kWorkloads[] = {"wire_small_warm", "mixed_churn",
                                      "routed_warm", "paper_suite"};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: stackbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--source-digest HEX]\n"
               "workloads: wire_small_warm mixed_churn routed_warm "
               "paper_suite\n");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown", source_digest = "unknown";
  int trace_flag = -1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--workload") == 0) {
      opts.workload = value();
    } else if (std::strcmp(a, "--seed") == 0) {
      opts.seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opts.seconds = std::atof(value());
    } else if (std::strcmp(a, "--trace") == 0) {
      trace_flag = std::atoi(value());
    } else if (std::strcmp(a, "--commit") == 0) {
      commit = value();
    } else if (std::strcmp(a, "--source-digest") == 0) {
      source_digest = value();
    } else {
      usage(stderr);
      return 2;
    }
  }

  std::string why;
  if (!self_test(&why)) {
    std::fprintf(stderr, "stackbench: metric self-test FAILED: %s\n", why.c_str());
    return 3;
  }

  bool known = false;
  for (const char* w : kWorkloads) known = known || opts.workload == w;
  if (!known || (trace_flag != 0 && trace_flag != 1) || !(opts.seconds > 0.0)) {
    usage(stderr);
    return 2;
  }
  opts.trace = trace_flag == 1;
  opts.nproc = std::thread::hardware_concurrency();
  if (opts.nproc == 0) opts.nproc = 1;
  // More load-generator threads than cores would measure an
  // oversubscribed generator, not the stack.
  if (const unsigned threads = generator_threads(opts.workload); threads > opts.nproc) {
    std::fprintf(stderr,
                 "stackbench: refusing to run %u client threads on %u cores\n",
                 threads, opts.nproc);
    return 2;
  }
  opts.work_dir = ".bench_build/run/" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  std::filesystem::create_directories(opts.trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "stackbench: cannot create %s\n", opts.work_dir.c_str());
    return 4;
  }

  RunResult result = opts.workload == "paper_suite" ? run_paper_suite(opts)
                                                    : run_serving(opts);
  std::filesystem::remove_all(opts.work_dir, ec);
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  if (result.attempted == 0) {
    std::fprintf(stderr, "stackbench: %s attempted nothing\n", opts.workload.c_str());
    return 4;
  }

  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(result.frames_hash));
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"input_hash\": \"%s\"}}\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      json_number(opts.seconds).c_str(), opts.trace ? 1 : 0, opts.nproc,
      __VERSION__, STACKBENCH_BUILD_TYPE, commit.c_str(), source_digest.c_str(),
      hash);

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  const std::span<const MetricSpec> specs =
      opts.trace ? std::span<const MetricSpec>(kPerLayer)
                 : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& [name, value] : result.metrics) {
    bool listed = false;
    for (const MetricSpec& spec : specs) listed = listed || name == spec.name;
    if (!listed) {
      std::fprintf(stderr, "stackbench: unlisted metric %s\n", name.c_str());
      return 4;
    }
  }
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && !opts.trace) {
      std::fprintf(stderr, "stackbench: %s did not measure %s\n",
                   opts.workload.c_str(), spec.name);
      return 4;
    }
    line += first ? "\"" : ", \"";
    first = false;
    line += std::string(spec.name) + "\": {\"value\": " +
            json_number(it == result.metrics.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
