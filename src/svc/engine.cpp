#include "svc/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/obs.hpp"
#include "perf/exec_model.hpp"
#include "sim/fingerprint.hpp"

namespace maia::svc {
namespace {

/// Stage-1/stage-2 block size: canonicalization lane loops and the
/// lock-free hit sweep both stream 4096-query chunks — big enough to
/// amortize task scheduling, small enough that the key/hash lanes of one
/// block stay cache-resident between stages.
constexpr std::size_t kCanonBlock = 4096;

struct SvcCounters {
  obs::Counter queries;
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter batches;
  obs::Counter snapshot_saved;
  obs::Counter snapshot_loaded;
  obs::Counter snapshot_rejected;
  obs::Counter snapshot_records;
  obs::Counter lockfree_hits;
  obs::Counter read_retries;
  obs::Counter lock_acquisitions;
  obs::Counter hit_lock_acquisitions;
  obs::Counter promotions;
  obs::Histogram lock_wait_ns;    // per miss-pass mutex acquisition
  obs::Histogram read_retries_h;  // seqlock retries per 4096-query block
};

const SvcCounters& svc_counters() {
  static const SvcCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return SvcCounters{reg.counter("svc.queries"), reg.counter("svc.cache.hits"),
                       reg.counter("svc.cache.misses"),
                       reg.counter("svc.batches"),
                       reg.counter("svc.snapshot.saved"),
                       reg.counter("svc.snapshot.loaded"),
                       reg.counter("svc.snapshot.rejected"),
                       reg.counter("svc.snapshot.records"),
                       reg.counter("svc.cache.lockfree_hits"),
                       reg.counter("svc.shard.read_retries_total"),
                       reg.counter("svc.shard.lock_acquisitions"),
                       reg.counter("svc.shard.hit_lock_acquisitions"),
                       reg.counter("svc.shard.promotions"),
                       reg.histogram("svc.shard.lock_wait_ns",
                                     obs::exponential_bounds(64.0, 2.0, 20)),
                       reg.histogram("svc.shard.read_retries",
                                     obs::exponential_bounds(1.0, 2.0, 12))};
  }();
  return c;
}

/// Count one rejection, both in aggregate and under its reason code
/// (svc.snapshot.rejected.<reason>).  Cold path: the per-reason handle is
/// registered on demand.
void count_snapshot_rejection(SnapshotError error) {
  const SvcCounters& counters = svc_counters();
  MAIA_OBS_COUNT(counters.snapshot_rejected, 1);
  const obs::Counter by_reason = obs::MetricsRegistry::global().counter(
      std::string("svc.snapshot.rejected.") + snapshot_error_name(error));
  MAIA_OBS_COUNT(by_reason, 1);
}

int default_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t shards = 8;
  while (shards < 2u * std::max(hw, 1u)) shards <<= 1;
  return static_cast<int>(std::min<std::size_t>(shards, 256));
}

}  // namespace

QueryEngine::QueryEngine(const arch::NodeTopology& node, EngineConfig config)
    : node_(node),
      walkers_{mem::LatencyWalker(node.host.processor),
               mem::LatencyWalker(node.phi0.processor),
               mem::LatencyWalker(node.phi1.processor)},
      coll_post_(mpi::MpiCostModel(node, fabric::SoftwareStack::kPostUpdate)),
      coll_pre_(mpi::MpiCostModel(node, fabric::SoftwareStack::kPreUpdate)) {
  for (const arch::DeviceId id :
       {arch::DeviceId::kHost, arch::DeviceId::kPhi0, arch::DeviceId::kPhi1}) {
    const int d = static_cast<int>(id);
    const arch::Device& dev = node_.device(id);
    profiles_[d] = perf::ProcessorProfile::make(dev.processor);
    sockets_[d] = dev.sockets;
    max_threads_[d] = dev.total_threads();
  }
  const int shards = config.shards > 0 ? config.shards : default_shards();
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config.cache_capacity_per_shard));
  }
}

std::uint16_t QueryEngine::register_kernel(const perf::KernelSignature& sig) {
  if (kernels_.size() >= 0xffff) {
    throw std::length_error("QueryEngine: too many kernels");
  }
  kernels_.push_back(sig);
  return static_cast<std::uint16_t>(kernels_.size() - 1);
}

Query QueryEngine::canonicalize(const Query& q) const {
  Query c = q;
  switch (c.kind) {
    case QueryKind::kExec: {
      const int d = static_cast<int>(c.exec.device);
      // The device cannot run more threads than it has hardware contexts,
      // and ExecModel clamps identically — folding the clamp into the key
      // is what dedupes a 1..240-thread sweep down to the host's 32.
      c.exec.threads = static_cast<std::uint16_t>(std::clamp(
          static_cast<int>(c.exec.threads), 1, max_threads_[d]));
      if (!kernels_.empty() && c.exec.kernel >= kernels_.size()) {
        c.exec.kernel = static_cast<std::uint16_t>(kernels_.size() - 1);
      }
      break;
    }
    case QueryKind::kCollective: {
      const int d = static_cast<int>(c.coll.device);
      c.coll.ranks = static_cast<std::uint16_t>(std::clamp(
          static_cast<int>(c.coll.ranks), 1, max_threads_[d]));
      // A barrier moves no payload; drop it from the identity.
      if (c.coll.op == CollectiveOp::kBarrier) c.coll.message_bytes = 0;
      // Intra-device collectives never touch the PCIe fabric, so the
      // software stack cannot change their cost; normalizing it halves the
      // key space.  Only kCrossP2P keeps its stack.
      if (c.coll.op != CollectiveOp::kCrossP2P) {
        c.coll.stack = fabric::SoftwareStack::kPostUpdate;
      }
      break;
    }
    case QueryKind::kLatency: {
      if (c.lat.iterations == 0) c.lat.iterations = 1;
      // The walker needs at least two lines to chase.
      c.lat.working_set = std::max<sim::Bytes>(c.lat.working_set, 128);
      break;
    }
  }
  return c;
}

CanonicalKey QueryEngine::pack(const Query& c) {
  CanonicalKey k;
  const auto kind = static_cast<std::uint64_t>(c.kind);
  switch (c.kind) {
    case QueryKind::kExec: {
      const auto dev = static_cast<std::uint64_t>(c.exec.device);
      k.hi = (kind << 56) | (dev << 48) |
             (static_cast<std::uint64_t>(c.exec.kernel) << 16) |
             static_cast<std::uint64_t>(c.exec.threads);
      break;
    }
    case QueryKind::kCollective: {
      const auto dev = static_cast<std::uint64_t>(c.coll.device);
      k.hi = (kind << 56) | (dev << 48) |
             (static_cast<std::uint64_t>(c.coll.op) << 40) |
             (static_cast<std::uint64_t>(c.coll.stack) << 32) |
             static_cast<std::uint64_t>(c.coll.ranks);
      k.lo = c.coll.message_bytes;
      break;
    }
    case QueryKind::kLatency: {
      const auto dev = static_cast<std::uint64_t>(c.lat.device);
      k.hi = (kind << 56) | (dev << 48) |
             static_cast<std::uint64_t>(c.lat.iterations);
      k.lo = c.lat.working_set;
      break;
    }
  }
  return k;
}

CanonicalKey QueryEngine::key_of(const Query& q) const {
  return pack(canonicalize(q));
}

void QueryEngine::canonicalize_block(std::span<const Query> queries,
                                     std::size_t lo, std::size_t hi,
                                     BatchResults& out) const {
  // Partition the block's indices by kind first: three compact lanes, so
  // every loop below walks queries of ONE layout with no per-iteration
  // dispatch — the clamps and normalizations become selects the
  // vectorizer can turn into cmov/blend, and the splitmix64 pass at the
  // end runs over pure structure-of-arrays u64 lanes.
  std::array<std::uint32_t, kCanonBlock> idx_exec, idx_coll, idx_lat;
  std::size_t n_exec = 0, n_coll = 0, n_lat = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    switch (queries[i].kind) {
      case QueryKind::kExec:
        idx_exec[n_exec++] = static_cast<std::uint32_t>(i);
        break;
      case QueryKind::kCollective:
        idx_coll[n_coll++] = static_cast<std::uint32_t>(i);
        break;
      case QueryKind::kLatency:
        idx_lat[n_lat++] = static_cast<std::uint32_t>(i);
        break;
      default:
        // Unknown kind: like the scalar path, the canonical form is the
        // input itself and the key is zero.
        out.canon_[i] = queries[i];
        out.key_hi_[i] = 0;
        out.key_lo_[i] = 0;
        break;
    }
  }

  const std::uint32_t kmax =
      kernels_.empty() ? 0xffffu
                       : static_cast<std::uint32_t>(kernels_.size() - 1);
  for (std::size_t j = 0; j < n_exec; ++j) {
    const std::size_t i = idx_exec[j];
    ExecQuery q = queries[i].exec;
    const auto d = static_cast<std::uint64_t>(q.device);
    const int tmax = max_threads_[d];
    int t = static_cast<int>(q.threads);
    t = t < 1 ? 1 : t;
    t = t > tmax ? tmax : t;
    std::uint32_t kern = q.kernel;
    kern = kern > kmax ? kmax : kern;
    q.threads = static_cast<std::uint16_t>(t);
    q.kernel = static_cast<std::uint16_t>(kern);
    Query c;
    c.kind = QueryKind::kExec;
    c.exec = q;
    out.canon_[i] = c;
    out.key_hi_[i] =
        (static_cast<std::uint64_t>(QueryKind::kExec) << 56) | (d << 48) |
        (static_cast<std::uint64_t>(kern) << 16) | static_cast<std::uint64_t>(t);
    out.key_lo_[i] = 0;
  }

  for (std::size_t j = 0; j < n_coll; ++j) {
    const std::size_t i = idx_coll[j];
    CollectiveQuery q = queries[i].coll;
    const auto d = static_cast<std::uint64_t>(q.device);
    const int rmax = max_threads_[d];
    int r = static_cast<int>(q.ranks);
    r = r < 1 ? 1 : r;
    r = r > rmax ? rmax : r;
    const bool barrier = q.op == CollectiveOp::kBarrier;
    const bool cross = q.op == CollectiveOp::kCrossP2P;
    const sim::Bytes msg = barrier ? 0 : q.message_bytes;
    const fabric::SoftwareStack stack =
        cross ? q.stack : fabric::SoftwareStack::kPostUpdate;
    q.ranks = static_cast<std::uint16_t>(r);
    q.message_bytes = msg;
    q.stack = stack;
    Query c;
    c.kind = QueryKind::kCollective;
    c.coll = q;
    out.canon_[i] = c;
    out.key_hi_[i] =
        (static_cast<std::uint64_t>(QueryKind::kCollective) << 56) | (d << 48) |
        (static_cast<std::uint64_t>(q.op) << 40) |
        (static_cast<std::uint64_t>(stack) << 32) | static_cast<std::uint64_t>(r);
    out.key_lo_[i] = msg;
  }

  for (std::size_t j = 0; j < n_lat; ++j) {
    const std::size_t i = idx_lat[j];
    LatencyQuery q = queries[i].lat;
    const auto d = static_cast<std::uint64_t>(q.device);
    const std::uint16_t iters = q.iterations == 0 ? 1 : q.iterations;
    const sim::Bytes ws = q.working_set < 128 ? 128 : q.working_set;
    q.iterations = iters;
    q.working_set = ws;
    Query c;
    c.kind = QueryKind::kLatency;
    c.lat = q;
    out.canon_[i] = c;
    out.key_hi_[i] = (static_cast<std::uint64_t>(QueryKind::kLatency) << 56) |
                     (d << 48) | static_cast<std::uint64_t>(iters);
    out.key_lo_[i] = ws;
  }

  // splitmix64 over the SoA key lanes, fully in-register: contiguous
  // loads, shift/mul avalanche, contiguous store — the vectorizable tail
  // of stage 1.
  for (std::size_t i = lo; i < hi; ++i) {
    std::uint64_t x = out.key_hi_[i] * 0x9e3779b97f4a7c15ull ^ out.key_lo_[i];
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    out.hashes_[i] = x;
  }
}

QueryResult QueryEngine::compute(const Query& q) const {
  QueryResult r;
  switch (q.kind) {
    case QueryKind::kExec: {
      const ExecQuery& e = q.exec;
      const int d = static_cast<int>(e.device);
      const perf::KernelSignature& sig = kernels_.at(e.kernel);
      const perf::ExecBreakdown b = perf::ExecModel::predict(
          profiles_[d], sockets_[d], e.threads, sig);
      r.value = b.total;
      r.secondary = b.total > 0.0 ? sig.flops / b.total / 1e9 : 0.0;
      break;
    }
    case QueryKind::kCollective: {
      const CollectiveQuery& c = q.coll;
      const mpi::Collectives& coll =
          c.stack == fabric::SoftwareStack::kPreUpdate ? coll_pre_ : coll_post_;
      mpi::CollectiveResult cr;
      const int ranks = c.ranks;
      switch (c.op) {
        case CollectiveOp::kSendrecvRing:
          cr = coll.sendrecv_ring(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kBcast:
          cr = coll.bcast(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kAllreduce:
          cr = coll.allreduce(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kAllgather:
          cr = coll.allgather(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kAlltoall:
          cr = coll.alltoall(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kBarrier:
          cr = coll.barrier(c.device, ranks);
          break;
        case CollectiveOp::kReduce:
          cr = coll.reduce(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kGather:
          cr = coll.gather(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kScatter:
          cr = coll.scatter(c.device, ranks, c.message_bytes);
          break;
        case CollectiveOp::kCrossP2P: {
          // One rank on `device` messaging its PCIe peer through the DAPL
          // fabric — the stack-sensitive path (Fig 15's provider gap).
          const arch::DeviceId to = c.device == arch::DeviceId::kHost
                                        ? arch::DeviceId::kPhi0
                                        : arch::DeviceId::kHost;
          cr.time =
              coll.cost_model().cross_device_time(c.device, to, 1, c.message_bytes);
          cr.algorithm = "cross-device p2p";
          break;
        }
      }
      r.value = cr.time;
      r.secondary = cr.bandwidth(c.message_bytes);
      r.flags = cr.out_of_memory ? QueryResult::kOutOfMemory : 0u;
      break;
    }
    case QueryKind::kLatency: {
      const LatencyQuery& l = q.lat;
      const int d = static_cast<int>(l.device);
      // The walker's process-wide memo is a cache layer below this service;
      // compute() bypasses it so the engine's shard caches are the single
      // caching layer (one place to account hits, and evaluate_serial()
      // stays a genuinely uncached reference).  Walk results are
      // bit-identical across option combinations, so this changes cost,
      // never bits.
      mem::WalkOptions opts;
      opts.memoize = false;
      const mem::WalkResult w = walkers_[d].walk(l.working_set, l.iterations, opts);
      r.value = w.avg_latency;
      r.secondary = w.level_mix.empty() ? 0.0 : w.level_mix.back();
      break;
    }
  }
  return r;
}

void QueryEngine::evaluate(std::span<const Query> queries, BatchResults& out,
                           sim::ThreadPool* pool) {
  const std::size_t n = queries.size();
  out.resize(n);
  out.canon_.resize(n);
  out.key_hi_.resize(n);
  out.key_lo_.resize(n);
  out.hashes_.resize(n);
  if (n == 0) return;
  if (n > 0xffffffffull) {
    throw std::length_error("QueryEngine::evaluate: batch exceeds 2^32 queries");
  }
  if (pool == nullptr) pool = sim::ThreadPool::current();
  MAIA_OBS_SPAN("svc", "batch_evaluate");
  const SvcCounters& counters = svc_counters();

  // Stage 1: canonicalize and key every query — branchless per-kind lane
  // loops over 4096-index blocks, filling the SoA key/hash lanes.
  sim::parallel_for_blocked(
      pool, n, kCanonBlock,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        canonicalize_block(queries, lo, hi, out);
      });

  // Stage 2a: the lock-free hit sweep.  Every query probes its shard's
  // seqlock read view; hits copy the cached bytes (and mark the entry
  // referenced), misses are queued per block for the locked fill.  No
  // mutex is touched anywhere on this path.
  const std::size_t nshards = shards_.size();
  const std::size_t blocks = (n + kCanonBlock - 1) / kCanonBlock;
  out.miss_idx_.resize(n);
  out.block_misses_.resize(blocks);
  std::atomic<std::uint64_t> sweep_hits{0};
  std::atomic<std::uint64_t> sweep_retries{0};
  sim::parallel_for_blocked(
      pool, n, kCanonBlock,
      [&](std::size_t b, std::size_t lo, std::size_t hi) {
        std::uint64_t hits = 0;
        std::uint64_t retries = 0;
        std::uint32_t misses = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint64_t hash = out.hashes_[i];
          const CanonicalKey key{out.key_hi_[i], out.key_lo_[i]};
          Shard& shard = *shards_[shard_of(hash)];
          QueryResult r;
          const ShardCache::ProbeResult probe =
              shard.cache.probe_read_only(key, hash, r);
          retries += probe.retries;
          if (probe.status == ShardCache::ProbeStatus::kHit) {
            out.values_[i] = r.value;
            out.secondary_[i] = r.secondary;
            out.flags_[i] = r.flags;
            ++hits;
          } else {
            // kMiss and kRetry both resolve under the shard mutex below.
            out.miss_idx_[lo + misses] = static_cast<std::uint32_t>(i);
            ++misses;
          }
        }
        out.block_misses_[b] = misses;
        sweep_hits.fetch_add(hits, std::memory_order_relaxed);
        sweep_retries.fetch_add(retries, std::memory_order_relaxed);
        MAIA_OBS_HISTOGRAM(counters.read_retries_h,
                           static_cast<double>(retries));
      });

  // Stage 2b: the per-shard miss fill.  Group the sweep's leftovers by
  // shard (one counting sort over the miss indices), then one task per
  // shard takes its mutex exactly once, re-probes each leftover (another
  // batch may have inserted it since the sweep — that's a locked hit), and
  // computes the rest.  Second chances the CLOCK hand grants while
  // inserting are counted as promotions.
  std::uint64_t total_misses = 0;
  for (std::size_t b = 0; b < blocks; ++b) total_misses += out.block_misses_[b];
  std::atomic<std::uint64_t> locked_hits{0};
  std::atomic<std::uint64_t> locked_misses{0};
  std::atomic<std::uint64_t> lock_acqs{0};
  std::atomic<std::uint64_t> hit_lock_acqs{0};
  std::atomic<std::uint64_t> promotions{0};
  if (total_misses > 0) {
    out.shard_offsets_.assign(nshards + 1, 0);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = b * kCanonBlock;
      for (std::uint32_t j = 0; j < out.block_misses_[b]; ++j) {
        ++out.shard_offsets_[shard_of(out.hashes_[out.miss_idx_[lo + j]]) + 1];
      }
    }
    for (std::size_t s = 0; s < nshards; ++s) {
      out.shard_offsets_[s + 1] += out.shard_offsets_[s];
    }
    out.shard_miss_.resize(total_misses);
    out.shard_cursor_.assign(out.shard_offsets_.begin(),
                             out.shard_offsets_.end() - 1);
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = b * kCanonBlock;
      for (std::uint32_t j = 0; j < out.block_misses_[b]; ++j) {
        const std::uint32_t i = out.miss_idx_[lo + j];
        out.shard_miss_[out.shard_cursor_[shard_of(out.hashes_[i])]++] = i;
      }
    }

    sim::parallel_for(pool, nshards, [&](std::size_t s) {
      const std::size_t begin = out.shard_offsets_[s];
      const std::size_t end = out.shard_offsets_[s + 1];
      if (begin == end) return;  // untouched shard: its mutex stays cold
      Shard& shard = *shards_[s];
      const std::uint64_t t0 = obs::metrics_now_ns();
      std::unique_lock<std::mutex> lock(shard.mutex);
      const std::uint64_t wait = t0 ? obs::metrics_now_ns() - t0 : 0;
      const std::uint64_t chances = shard.cache.second_chances();
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      for (std::size_t j = begin; j < end; ++j) {
        const std::size_t i = out.shard_miss_[j];
        const CanonicalKey key{out.key_hi_[i], out.key_lo_[i]};
        const std::uint64_t hash = out.hashes_[i];
        QueryResult r;
        if (shard.cache.find(key, hash, r)) {
          ++hits;
        } else {
          r = compute(out.canon_[i]);
          shard.cache.insert(key, hash, r);
          ++misses;
        }
        out.values_[i] = r.value;
        out.secondary_[i] = r.secondary;
        out.flags_[i] = r.flags;
      }
      shard.hits += hits;
      shard.misses += misses;
      ++shard.lock_acquisitions;
      if (misses == 0) ++shard.hit_lock_acquisitions;
      shard.lock_wait_ns += wait;
      const std::uint64_t promos = shard.cache.second_chances() - chances;
      lock.unlock();
      locked_hits.fetch_add(hits, std::memory_order_relaxed);
      locked_misses.fetch_add(misses, std::memory_order_relaxed);
      lock_acqs.fetch_add(1, std::memory_order_relaxed);
      if (misses == 0) hit_lock_acqs.fetch_add(1, std::memory_order_relaxed);
      promotions.fetch_add(promos, std::memory_order_relaxed);
      MAIA_OBS_HISTOGRAM(counters.lock_wait_ns, static_cast<double>(wait));
    });
  }

  const std::uint64_t lf_hits = sweep_hits.load(std::memory_order_relaxed);
  const std::uint64_t retries = sweep_retries.load(std::memory_order_relaxed);
  lockfree_hits_.v.fetch_add(lf_hits, std::memory_order_relaxed);
  read_retries_.v.fetch_add(retries, std::memory_order_relaxed);

  MAIA_OBS_COUNT(counters.batches, 1);
  MAIA_OBS_COUNT(counters.queries, n);
  MAIA_OBS_COUNT(counters.hits,
                 lf_hits + locked_hits.load(std::memory_order_relaxed));
  MAIA_OBS_COUNT(counters.misses, locked_misses.load(std::memory_order_relaxed));
  MAIA_OBS_COUNT(counters.lockfree_hits, lf_hits);
  MAIA_OBS_COUNT(counters.read_retries, retries);
  MAIA_OBS_COUNT(counters.lock_acquisitions,
                 lock_acqs.load(std::memory_order_relaxed));
  MAIA_OBS_COUNT(counters.hit_lock_acquisitions,
                 hit_lock_acqs.load(std::memory_order_relaxed));
  MAIA_OBS_COUNT(counters.promotions,
                 promotions.load(std::memory_order_relaxed));
}

void QueryEngine::evaluate_serial(std::span<const Query> queries,
                                  BatchResults& out) const {
  const std::size_t n = queries.size();
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const QueryResult r = compute(canonicalize(queries[i]));
    out.values_[i] = r.value;
    out.secondary_[i] = r.secondary;
    out.flags_[i] = r.flags;
  }
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    s.locked_hits += shard->hits;
    s.cache_misses += shard->misses;
    s.evictions += shard->cache.evictions();
    s.lock_acquisitions += shard->lock_acquisitions;
    s.hit_lock_acquisitions += shard->hit_lock_acquisitions;
    s.lock_wait_ns += shard->lock_wait_ns;
    s.promotions += shard->cache.second_chances();
  }
  s.lockfree_hits = lockfree_hits_.v.load(std::memory_order_relaxed);
  s.read_retries = read_retries_.v.load(std::memory_order_relaxed);
  s.cache_hits = s.lockfree_hits + s.locked_hits;
  s.queries = s.cache_hits + s.cache_misses;
  return s;
}

void QueryEngine::clear_cache() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cache.clear();
    shard->hits = 0;
    shard->misses = 0;
    shard->lock_acquisitions = 0;
    shard->hit_lock_acquisitions = 0;
    shard->lock_wait_ns = 0;
  }
  lockfree_hits_.v.store(0, std::memory_order_relaxed);
  read_retries_.v.store(0, std::memory_order_relaxed);
}

std::uint64_t QueryEngine::calibration_hash() const {
  sim::Fingerprint fp;
  fp.add(std::string_view(node_.name));
  for (int d = 0; d < 3; ++d) {
    fp.add(perf::calibration_fingerprint(profiles_[d]));
    fp.add(sockets_[d]);
    fp.add(max_threads_[d]);
    fp.add(walkers_[d].calibration_fingerprint());
  }
  fp.add(coll_post_.cost_model().calibration_fingerprint());
  fp.add(coll_pre_.cost_model().calibration_fingerprint());
  fp.add(static_cast<std::uint64_t>(kernels_.size()));
  for (const perf::KernelSignature& k : kernels_) {
    fp.add(std::string_view(k.name));
    fp.add(k.flops);
    fp.add(k.dram_bytes);
    fp.add(k.vector_fraction);
    fp.add(k.gather_fraction);
    fp.add(static_cast<std::uint64_t>(k.working_set_per_thread));
    fp.add(k.parallel_fraction);
    fp.add(k.parallel_trip);
    fp.add(k.omp_regions);
    fp.add(k.prefetch_efficiency);
  }
  return fp.value();
}

SnapshotSaveResult QueryEngine::save_snapshot(const std::string& path) {
  SnapshotSaveResult saved;
  const SnapshotError rc = write_file_atomically(path, [&](std::ostream& os) {
    saved = save_snapshot_range(os);
    return saved.ok();
  });
  return rc == SnapshotError::kOk ? saved : SnapshotSaveResult{rc, 0};
}

SnapshotSaveResult QueryEngine::save_snapshot_range(std::ostream& os,
                                                    std::uint64_t hash_lo,
                                                    std::uint64_t hash_hi) {
  MAIA_OBS_SPAN("svc", "snapshot_save");
  std::vector<std::uint64_t> counts(shards_.size());
  std::vector<SnapshotRecord> records;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::size_t before = records.size();
    records.reserve(records.size() + shard.cache.size());
    shard.cache.for_each_in_hand_order(
        [&](const CanonicalKey& key, const QueryResult& result) {
          const std::uint64_t h = hash_key(key);
          if (h >= hash_lo && h <= hash_hi) {
            records.push_back(SnapshotRecord{key, result});
          }
        });
    counts[s] = records.size() - before;
  }

  write_snapshot(os, calibration_hash(), counts, records);
  os.flush();
  if (!os) return {SnapshotError::kIoError, 0};

  const SvcCounters& counters = svc_counters();
  MAIA_OBS_COUNT(counters.snapshot_saved, 1);
  return {SnapshotError::kOk, records.size()};
}

SnapshotLoadResult QueryEngine::load_snapshot(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    SnapshotLoadResult out;
    out.error = SnapshotError::kIoError;
    count_snapshot_rejection(out.error);
    return out;
  }
  return load_snapshot_stream(is);
}

SnapshotLoadResult QueryEngine::load_snapshot_stream(std::istream& is) {
  MAIA_OBS_SPAN("svc", "snapshot_load");
  SnapshotLoadResult out;
  SnapshotReadResult parsed = read_snapshot(is, calibration_hash());
  if (!parsed.ok()) {
    out.error = parsed.error;
    count_snapshot_rejection(out.error);
    return out;
  }
  out.records_in_file = parsed.records.size();

  // Re-shard by key hash (the snapshot may come from an engine with a
  // different shard count), bucketing first so each shard locks once.
  // Within a destination shard, file order is preserved — each saved
  // shard's hand order (next victim first) survives, so an at-capacity
  // refill drops the saver's next victims.
  std::vector<std::vector<std::uint32_t>> buckets(shards_.size());
  std::vector<std::uint64_t> hashes(parsed.records.size());
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    hashes[i] = hash_key(parsed.records[i].key);
    buckets[shard_of(hashes[i])].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const std::uint32_t i : buckets[s]) {
      const SnapshotRecord& r = parsed.records[i];
      QueryResult resident;
      if (!shard.cache.find(r.key, hashes[i], resident)) {
        shard.cache.insert(r.key, hashes[i], r.result);
        ++out.records_loaded;
      }
    }
  }

  const SvcCounters& counters = svc_counters();
  MAIA_OBS_COUNT(counters.snapshot_loaded, 1);
  MAIA_OBS_COUNT(counters.snapshot_records, out.records_loaded);
  return out;
}

}  // namespace maia::svc
