// paper_suite: core::SuiteRunner regenerates all figures pass after pass
// on nproc threads, mem::clear_walk_memo() before each pass so every pass
// pays for the latency walker.  A serial pass, off the clock, is the
// reference: every later pass must pass every shape check and match it
// figure by figure (core::fingerprint).  Set-up is the runner's warm-up,
// the process's first passes before timing starts.
//
// A figure's latency is its FigureRun::wall_seconds.  (The time from a
// pass's start until a figure is ready would mostly measure where the
// figure lands in the workers' queues: it moves far more than the pass
// time when the host gets busier.)
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/figures.hpp"
#include "core/runner.hpp"
#include "ledger.hpp"
#include "memsim/latency_walker.hpp"
#include "obs/obs.hpp"

namespace stackbench {

namespace {

/// Warm-up passes; setup_s is their median.  A pass takes 15-60 ms on a
/// 4-vCPU VM, so many are cheap and steady the median.
constexpr int kSetupReps = 15;
/// A pass yields only one sample per figure, so the whole timed window is
/// one slice: a supported p99 then needs ~40 passes in it, where five
/// slices needed ~200 and fell short on a busy host.
constexpr std::size_t kSlices = 1;

struct PassLog {
  /// Every figure's wall time (ms), by the slice its pass ended in; work
  /// is 1 per verified figure.
  Slices window;
  std::vector<double> pass_s;
  std::vector<double> fig05_s, fig16_s;
  std::uint64_t figures = 0, failed = 0;
};

}  // namespace

RunResult run_paper_suite(const Options& opts) {
  RunResult res;
  // SuiteRunner(N) runs N pool workers plus the calling thread, which
  // helps drain the queue; N = nproc - 1 keeps nproc threads busy.
  const int jobs = std::max(1, static_cast<int>(opts.nproc) - 1);
  const std::vector<maia::core::FigureResult (*)()> generators = maia::core::all_figures();

  maia::mem::clear_walk_memo();
  const maia::core::SuiteResult reference = maia::core::SuiteRunner(1).run(generators);
  if (!reference.all_pass()) {
    res.notes.push_back("serial reference pass failed its shape checks");
    return res;
  }
  std::vector<std::string> ref_fp;
  for (const maia::core::FigureRun& f : reference.figures) {
    ref_fp.push_back(maia::core::fingerprint(f.result));
    res.frames_hash = fnv1a(f.result.id.data(), f.result.id.size(), res.frames_hash);
  }

  // The suite has no random input: every pass runs the generators in paper
  // order, and the seed only enters the stamp.  Given `traced`, every
  // other pass runs with the span tracer on and is logged there (enabling
  // restamps the trace epoch, so the trace keeps only the last one).
  const maia::core::SuiteRunner runner(jobs);
  maia::obs::Tracer& tracer = maia::obs::Tracer::global();
  auto run_passes = [&](double budget_s, PassLog& plain, PassLog* traced) {
    const auto t_start = Clock::now();
    const auto t_end = t_start + std::chrono::duration<double>(budget_s);
    std::size_t n = 0;
    do {
      PassLog& log = traced != nullptr && n++ % 2 == 1 ? *traced : plain;
      if (&log == traced) {
        tracer.clear();
        tracer.set_enabled(true);
      }
      maia::mem::clear_walk_memo();
      const auto t0 = Clock::now();
      maia::core::SuiteResult pass;
      {
        MAIA_OBS_SPAN("bench", "pass");
        pass = runner.run(generators);
      }
      log.pass_s.push_back(seconds_since(t0));
      tracer.set_enabled(false);
      const double at = seconds_since(t_start);
      for (std::size_t i = 0; i < pass.figures.size(); ++i) {
        const maia::core::FigureRun& f = pass.figures[i];
        ++log.figures;
        const bool ok = f.result.all_pass() &&
                        maia::core::fingerprint(f.result) == ref_fp[i];
        if (!ok && ++log.failed <= 5) {
          res.notes.push_back("figure " + f.result.id + " diverged from the serial pass");
        }
        log.window.add(at, f.wall_seconds * 1e3, ok ? 1.0 : 0.0);
        if (f.result.id == "fig05") log.fig05_s.push_back(f.wall_seconds);
        if (f.result.id == "fig16") log.fig16_s.push_back(f.wall_seconds);
      }
    } while (Clock::now() < t_end);
  };
  auto fresh_log = [](double budget_s) {
    return PassLog{Slices(kSlices, budget_s / kSlices), {}, {}, {}, 0, 0};
  };

  // Set-up: kSetupReps warm-up passes (first touch of every generator's
  // state); their median is setup_s.
  PassLog warmup = fresh_log(0.0);
  for (int rep = 0; rep < kSetupReps; ++rep) run_passes(0.0, warmup, nullptr);

  const double timed_s = opts.trace ? 0.9 * opts.seconds : opts.seconds;
  PassLog timed = fresh_log(timed_s), traced = fresh_log(timed_s);
  run_passes(timed_s, timed, opts.trace ? &traced : nullptr);

  res.attempted = warmup.figures + timed.figures + traced.figures;
  res.failed = warmup.failed + timed.failed + traced.failed;
  res.correct = res.failed == 0;
  res.notes.push_back("checks " + std::to_string(reference.checks_passed()) + "/" +
                      std::to_string(reference.checks_total()) + ", " +
                      std::to_string(timed.pass_s.size()) + " timed passes, jobs " +
                      std::to_string(jobs));

  if (!opts.trace) {
    const Slices::Summary w = timed.window.summarize();
    if (!w.ok) {
      res.notes.push_back("too few figure samples for a supported p99");
      res.attempted = 0;
      return res;
    }
    res.notes.push_back("latency_p99_ms: over " + std::to_string(w.samples) +
                        " figure runs, " + std::to_string(w.min_beyond) + " beyond it");
    res.set("qps", w.rate);
    res.set("latency_p50_ms", w.p50);
    res.set("latency_p99_ms", w.p99);
    res.set("setup_s", median(warmup.pass_s));
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("suite_s", median(timed.pass_s));
    return res;
  }

  // Traced run: every other pass ran with the span tracer on; the
  // difference of the pass medians is the tracing overhead.
  const std::string trace_path = opts.trace_dir + "/paper_suite.json";
  std::ofstream trace_out(trace_path);
  tracer.write_chrome_json(trace_out);
  tracer.clear();
  res.notes.push_back("chrome trace: " + trace_path);

  // Walker and event-queue counts come from the serial pass: its figures
  // run on one thread, so the thread-local telemetry lands on the figure
  // that did the work, and the counts repeat exactly from run to run.
  double laps_sim = 0, laps_ext = 0, events = 0;
  for (const maia::core::FigureRun& f : reference.figures) {
    laps_sim += static_cast<double>(f.walk_laps_simulated);
    laps_ext += static_cast<double>(f.walk_laps_extrapolated);
    events += static_cast<double>(f.events_dispatched);
  }
  res.set("suite.serial_s", reference.total_wall_seconds);
  res.set("suite.fig05_s", median(timed.fig05_s));
  res.set("suite.fig16_s", median(timed.fig16_s));
  res.set("suite.walk_laps_simulated", laps_sim);
  res.set("suite.walk_laps_extrapolated", laps_ext);
  res.set("suite.events_dispatched", events);
  res.set("trace.overhead_p50_ms", (median(traced.pass_s) - median(timed.pass_s)) * 1e3);
  return res;
}

}  // namespace stackbench
