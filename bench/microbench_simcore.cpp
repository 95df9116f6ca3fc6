// google-benchmark timings of the simulator's own hot paths: the
// functional cache, the pointer-chase walker, collective cost evaluation,
// the loop-schedule simulation, and the NPB numerical kernels.  These are
// the costs a user pays per modelled experiment.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <future>
#include <vector>

#include "arch/registry.hpp"
#include "memsim/cache_sim.hpp"
#include "memsim/latency_walker.hpp"
#include "mpi/collectives.hpp"
#include "net/bufpool.hpp"
#include "npb/ep.hpp"
#include "npb/ft.hpp"
#include "npb/mg.hpp"
#include "obs/obs.hpp"
#include "omp/schedule.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "sim/units.hpp"
#include "svc/engine.hpp"

namespace {

using namespace maia;
using sim::operator""_KiB;
using sim::operator""_MiB;

void BM_CacheAccess(benchmark::State& state) {
  mem::SetAssociativeCache cache(32_KiB, 64, 8);
  sim::Rng rng(1);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.next_below(1_MiB);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addrs[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

// The steady-state walk engine with the memo cache bypassed, so every
// iteration pays for a real evaluation (a memoized walk is just a map
// lookup and would be meaningless to time).
void BM_LatencyWalk(benchmark::State& state) {
  const mem::LatencyWalker walker(arch::xeon_phi_5110p());
  const auto ws = static_cast<sim::Bytes>(state.range(0));
  mem::WalkOptions opts;
  opts.memoize = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.walk(ws, 4, opts).avg_latency);
  }
}
BENCHMARK(BM_LatencyWalk)->Arg(64 * 1024)->Arg(4 * 1024 * 1024);

// Brute-force reference: every lap simulated, as under --no-extrapolate.
// The ratio to BM_LatencyWalk is the steady-state engine's payoff.
void BM_LatencyWalkBrute(benchmark::State& state) {
  const mem::LatencyWalker walker(arch::xeon_phi_5110p());
  const auto ws = static_cast<sim::Bytes>(state.range(0));
  mem::WalkOptions opts;
  opts.memoize = false;
  opts.extrapolate = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.walk(ws, 4, opts).avg_latency);
  }
}
BENCHMARK(BM_LatencyWalkBrute)->Arg(64 * 1024)->Arg(4 * 1024 * 1024);

void BM_AllgatherCost(benchmark::State& state) {
  const mpi::Collectives coll(
      mpi::MpiCostModel(arch::maia_node(), fabric::SoftwareStack::kPostUpdate));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        coll.allgather(arch::DeviceId::kPhi0, 236, 4096).time);
  }
}
BENCHMARK(BM_AllgatherCost);

void BM_DynamicSchedule(benchmark::State& state) {
  const omp::LoopScheduler sched(omp::ThreadTeam(arch::xeon_phi_5110p(), 1, 236));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched.run_uniform(state.range(0), sim::microseconds(0.1),
                          omp::SchedulePolicy::kDynamic)
            .makespan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicSchedule)->Arg(1024)->Arg(8192);

void BM_EpKernel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(npb::run_ep(static_cast<int>(state.range(0))).sx);
  }
}
BENCHMARK(BM_EpKernel)->Arg(12)->Arg(16);

void BM_MgVCycle(benchmark::State& state) {
  const npb::Grid3 rhs = npb::make_mg_rhs(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(npb::run_mg(rhs, 1).final_residual_norm);
  }
}
BENCHMARK(BM_MgVCycle);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // Per-event cost of the arena-backed queue with a realistically fat
  // (40-byte) capture — the case the slot arena and trivial-relocation
  // fast path were built for.
  sim::EventQueue queue;
  queue.reserve(4096);
  struct Fat {
    std::uint64_t a, b, c, d;
    std::uint64_t* sink;
  };
  std::uint64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    queue.reset();
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < 4096; ++i) {
      Fat fat{i, i + 1, i + 2, i + 3, &sink};
      queue.schedule_at(static_cast<sim::Seconds>(i & 255),
                        [fat] { *fat.sink += fat.a + fat.b + fat.c + fat.d; });
    }
    queue.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_ThreadPoolSubmitDrain(benchmark::State& state) {
  // Round-trip cost of submit + future.get over a batch of tiny tasks.
  sim::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::future<std::uint64_t>> futures;
  futures.reserve(256);
  for (auto _ : state) {
    futures.clear();
    for (std::uint64_t i = 0; i < 256; ++i) {
      futures.push_back(pool.submit([i] { return i * i; }));
    }
    std::uint64_t total = 0;
    for (auto& f : futures) total += f.get();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ThreadPoolSubmitDrain)->Arg(1)->Arg(4);

void BM_MetricsCounterAdd(benchmark::State& state) {
  // Hot-path cost of one enabled counter increment: a thread-local shard
  // lookup plus one relaxed fetch_add.
  obs::set_metrics_enabled(true);
  static const obs::Counter c =
      obs::MetricsRegistry::global().counter("microbench.counter");
  for (auto _ : state) {
    MAIA_OBS_COUNT(c, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsCounterDisabled(benchmark::State& state) {
  // The overhead contract for a runtime-disabled site: one relaxed atomic
  // load and a predictable branch.
  obs::set_metrics_enabled(false);
  static const obs::Counter c =
      obs::MetricsRegistry::global().counter("microbench.counter_off");
  for (auto _ : state) {
    MAIA_OBS_COUNT(c, 1);
  }
  obs::set_metrics_enabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterDisabled);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  static const obs::Histogram h = obs::MetricsRegistry::global().histogram(
      "microbench.hist", obs::exponential_bounds(256.0, 4.0, 12));
  std::uint64_t v = 1;
  for (auto _ : state) {
    MAIA_OBS_HISTOGRAM(h, static_cast<double>(v));
    v = v * 2654435761u + 1;  // cheap value churn across buckets
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_SpanDisabled(benchmark::State& state) {
  // The near-zero-overhead guarantee for tracing left off (the default):
  // a ScopedSpan is one relaxed enabled() load at construction.
  obs::Tracer::global().set_enabled(false);
  for (auto _ : state) {
    MAIA_OBS_SPAN("microbench", "disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer::global().set_enabled(true);
  for (auto _ : state) {
    MAIA_OBS_SPAN("microbench", "enabled");
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

// ------------------------------------------------ batch query service ---

svc::QueryEngine& microbench_engine() {
  static svc::QueryEngine engine = [] {
    svc::QueryEngine e(arch::maia_node());
    perf::KernelSignature sig;
    sig.name = "microbench";
    sig.flops = 1e11;
    sig.dram_bytes = 1e9;
    sig.vector_fraction = 1.0;
    e.register_kernel(sig);
    return e;
  }();
  return engine;
}

std::vector<svc::Query> microbench_batch(std::size_t n) {
  // A realistic mix: a thread sweep's worth of exec, collective and
  // latency queries, heavy with repeats like the figure grids are.
  std::vector<svc::Query> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0: {
        svc::ExecQuery q;
        q.device = arch::DeviceId::kPhi0;
        q.threads = static_cast<std::uint16_t>(1 + i % 240);
        batch.push_back(svc::Query::of(q));
        break;
      }
      case 1: {
        svc::CollectiveQuery q;
        q.op = svc::CollectiveOp::kAllreduce;
        q.device = arch::DeviceId::kPhi0;
        q.ranks = static_cast<std::uint16_t>(1 + i % 240);
        q.message_bytes = sim::Bytes{64} << (i % 12);
        batch.push_back(svc::Query::of(q));
        break;
      }
      default: {
        svc::LatencyQuery q;
        q.device = arch::DeviceId::kPhi0;
        q.working_set = sim::Bytes{16 * 1024} << (i % 4);
        batch.push_back(svc::Query::of(q));
        break;
      }
    }
  }
  return batch;
}

// Per-query cost of a cache hit: canonicalize + pack + hash + one
// lock-free cache probe.  This is the service's steady-state hot path.
void BM_QueryCached(benchmark::State& state) {
  svc::QueryEngine& engine = microbench_engine();
  const std::vector<svc::Query> batch = microbench_batch(1024);
  svc::BatchResults out;
  engine.clear_cache();
  engine.evaluate(batch, out);  // warm every key
  for (auto _ : state) {
    engine.evaluate(batch, out);
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_QueryCached);

// Per-query cost of a miss: the same path plus a full model evaluation
// and a cache insert.  The gap to BM_QueryCached is what each cache hit
// saves.
void BM_QueryUncached(benchmark::State& state) {
  svc::QueryEngine& engine = microbench_engine();
  const std::vector<svc::Query> batch = microbench_batch(1024);
  svc::BatchResults out;
  for (auto _ : state) {
    state.PauseTiming();
    engine.clear_cache();
    state.ResumeTiming();
    engine.evaluate(batch, out);
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_QueryUncached);

// Whole-batch throughput through the sharded path with a worker pool,
// warm caches — the configuration maia_sweep reports as queries/sec.
void BM_BatchEvaluate(benchmark::State& state) {
  svc::QueryEngine& engine = microbench_engine();
  sim::ThreadPool pool(static_cast<int>(state.range(0)));
  const std::vector<svc::Query> batch = microbench_batch(8192);
  svc::BatchResults out;
  engine.clear_cache();
  engine.evaluate(batch, out, &pool);
  for (auto _ : state) {
    engine.evaluate(batch, out, &pool);
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_BatchEvaluate)->Arg(1)->Arg(4);

// Raw cost of one lock-free probe against a resident key: the seqlock
// epoch validation bracket around a linear probe plus the 3-word value
// copy.  The floor under every warm-path number above.
void BM_ShardCacheProbe(benchmark::State& state) {
  constexpr std::size_t kEntries = 1024;
  static svc::ShardCache cache(kEntries);
  static const bool warmed = [] {
    for (std::uint64_t i = 0; i < kEntries; ++i) {
      const svc::CanonicalKey k{i, 0};
      svc::QueryResult r;
      r.value = static_cast<double>(i);
      cache.insert(k, svc::hash_key(k), r);
    }
    return true;
  }();
  benchmark::DoNotOptimize(warmed);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const svc::CanonicalKey k{i++ & (kEntries - 1), 0};
    svc::QueryResult out;
    const auto p = cache.probe_read_only(k, svc::hash_key(k), out);
    benchmark::DoNotOptimize(p.status);
    benchmark::DoNotOptimize(out.value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardCacheProbe);

// The contended version: N benchmark threads all probing ONE shard cache
// lock-free.  With the seqlock read view this should scale with threads
// (no shared-line writes on the read path beyond the epoch load); any
// collapse here means readers are serializing somewhere.
void BM_ShardCacheContended(benchmark::State& state) {
  constexpr std::size_t kEntries = 4096;
  static svc::ShardCache cache(kEntries);
  if (state.thread_index() == 0) {
    cache.clear();
    for (std::uint64_t i = 0; i < kEntries; ++i) {
      const svc::CanonicalKey k{i, 0};
      svc::QueryResult r;
      r.value = static_cast<double>(i) * 2.0;
      cache.insert(k, svc::hash_key(k), r);
    }
  }
  // Stride the threads apart so they sweep different keys concurrently.
  std::uint64_t i = static_cast<std::uint64_t>(state.thread_index()) * 1031;
  std::uint64_t retries = 0;
  for (auto _ : state) {
    const svc::CanonicalKey k{i++ & (kEntries - 1), 0};
    svc::QueryResult out;
    const auto p = cache.probe_read_only(k, svc::hash_key(k), out);
    retries += p.retries;
    benchmark::DoNotOptimize(out.value);
  }
  state.counters["read_retries"] =
      benchmark::Counter(static_cast<double>(retries));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardCacheContended)->ThreadRange(1, 4)->UseRealTime();

// --------------------------------------------------- response buffers ---

// One acquire/release cycle through the response-buffer pool at a typical
// framed-response size.  After the first lap every acquire must recycle
// (reuse_rate -> 1.0): this is the zero-steady-state-allocation claim of
// the server's zero-copy response path, measured.
void BM_BufPool(benchmark::State& state) {
  net::BufPool pool;
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  { net::PooledBuf warm = pool.acquire(size); }  // prime this thread's shard
  for (auto _ : state) {
    net::PooledBuf buf = pool.acquire(size);
    benchmark::DoNotOptimize(buf.data());
  }
  const net::BufPoolStats stats = pool.stats();
  state.counters["reuse_rate"] = benchmark::Counter(
      stats.allocations + stats.reuses > 0
          ? static_cast<double>(stats.reuses) /
                static_cast<double>(stats.allocations + stats.reuses)
          : 0.0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufPool)->Arg(1568)->Arg(65576);

void BM_Fft3d(benchmark::State& state) {
  npb::Field3 f = npb::make_ft_initial(16);
  for (auto _ : state) {
    npb::fft3d(f, false);
    npb::fft3d(f, true);
    benchmark::DoNotOptimize(f.raw().front());
  }
}
BENCHMARK(BM_Fft3d);

}  // namespace

BENCHMARK_MAIN();
