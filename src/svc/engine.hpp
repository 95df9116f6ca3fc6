// QueryEngine: the batch prediction service over the analytical models.
//
// evaluate(queries) answers a batch by:
//   1. canonicalizing every query in 4096-index blocks through branchless
//      per-kind lane loops (structure-of-arrays key/hash lanes, clamp and
//      normalize via select, splitmix64 hashed in-register — see
//      canonicalize_block()), packing each into a 128-bit CanonicalKey;
//   2. a lock-free hit sweep over the same blocks: every query probes its
//      shard's seqlock read view (ShardCache::probe_read_only) and a hit
//      copies the cached bytes without touching any mutex, setting the
//      entry's CLOCK reference byte only if it was clear;
//   3. a per-shard miss-fill pass over the sweep's leftovers: one task
//      per shard takes the shard mutex once, re-probes (a racing batch may
//      have filled the key), and computes genuine misses against
//      precomputed model state (ProcessorProfile, device cost tables,
//      resident latency walkers) — the per-query hot path touches no heap.
//
// A batch that hits everywhere therefore acquires zero shard mutexes;
// stats() exposes the lock/wait/retry telemetry that proves it.
//
// Determinism contract: evaluate() output is byte-identical to
// evaluate_serial(), the naive one-query-at-a-time loop with no sharding
// and no cache.  This holds by construction: results land at their input
// index (order independent of scheduling), the models are pure functions
// of the canonical query, and a cache hit replays the exact bits a fresh
// computation would produce.  tests/svc_test.cpp enforces it on randomized
// batches.
//
// The serving tier leans on the same contract: a server evaluates each
// client frame on its own, so every layer (engine, wire, router) answers
// byte-identically to evaluate_serial over that frame's queries.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "arch/node.hpp"
#include "memsim/latency_walker.hpp"
#include "mpi/collectives.hpp"
#include "perf/processor_profile.hpp"
#include "perf/signature.hpp"
#include "sim/thread_pool.hpp"
#include "svc/shard_cache.hpp"
#include "svc/query.hpp"
#include "svc/snapshot.hpp"

namespace maia::svc {

struct EngineConfig {
  /// Shard count; <= 0 selects 2x hardware_concurrency rounded to a
  /// power of two (enough shards that a pool's workers rarely collide).
  int shards = 0;
  /// Resident entries per shard cache.
  std::size_t cache_capacity_per_shard = 1 << 15;
};

/// Outcome of QueryEngine::save_snapshot().
struct SnapshotSaveResult {
  SnapshotError error = SnapshotError::kOk;
  std::uint64_t records = 0;  ///< cache entries written
  bool ok() const { return error == SnapshotError::kOk; }
};

/// Outcome of QueryEngine::load_snapshot().  On rejection (`!ok()`) the
/// caches are exactly as they were: a bad snapshot warms nothing.
struct SnapshotLoadResult {
  SnapshotError error = SnapshotError::kOk;
  std::uint64_t records_in_file = 0;  ///< records the snapshot carried
  std::uint64_t records_loaded = 0;   ///< records inserted (not already resident)
  bool ok() const { return error == SnapshotError::kOk; }
};

struct EngineStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;    ///< lockfree_hits + locked_hits
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  // Contention telemetry (also published as svc.shard.* metrics).
  std::uint64_t lockfree_hits = 0;  ///< hits served with no shard mutex
  std::uint64_t locked_hits = 0;    ///< sweep leftovers resolved under lock
  std::uint64_t read_retries = 0;   ///< seqlock epoch conflicts, total
  std::uint64_t lock_acquisitions = 0;      ///< miss-pass mutex acquisitions
  std::uint64_t hit_lock_acquisitions = 0;  ///< acquisitions that resolved
                                            ///< only hits (no computes)
  std::uint64_t lock_wait_ns = 0;   ///< time spent blocked on shard mutexes
  std::uint64_t promotions = 0;     ///< second chances the CLOCK hands granted
  double hit_rate() const {
    return queries ? static_cast<double>(cache_hits) / static_cast<double>(queries)
                   : 0.0;
  }
};

class QueryEngine {
 public:
  explicit QueryEngine(const arch::NodeTopology& node, EngineConfig config = {});

  /// Register a kernel signature; the returned id names it in ExecQuery.
  /// Not safe to call concurrently with evaluate().
  std::uint16_t register_kernel(const perf::KernelSignature& sig);
  std::size_t kernel_count() const { return kernels_.size(); }

  /// The canonical form of `q`: out-of-range fields clamped to the modelled
  /// hardware and cost-irrelevant fields normalized (a barrier's payload,
  /// the software stack of intra-device collectives).  Two queries with the
  /// same canonical form get the same answer by definition.
  Query canonicalize(const Query& q) const;

  /// canonicalize() packed into the cache identity.
  CanonicalKey key_of(const Query& q) const;

  /// Answer the batch: results land at the query's input index in `out`.
  /// Shards fan out over `pool` (or the ambient pool when null; serial
  /// without one).  Thread-safe: concurrent batches interleave per shard.
  void evaluate(std::span<const Query> queries, BatchResults& out,
                sim::ThreadPool* pool = nullptr);

  /// The naive reference loop: no sharding, no cache, one query at a time
  /// in input order.  evaluate() must match this byte for byte.
  void evaluate_serial(std::span<const Query> queries, BatchResults& out) const;

  /// Aggregate cache statistics since construction / the last clear.
  EngineStats stats() const;

  /// Drop all cached results and zero the stats (timed-run hygiene).
  void clear_cache();

  /// Hash of every calibration constant a cached result depends on: the
  /// per-device ProcessorProfiles, latency walkers, both MpiCostModels,
  /// and the registered kernel signatures (an ExecQuery's cached answer is
  /// only as stable as the signature its kernel id names).  Snapshots are
  /// keyed on it, so a snapshot taken under any other calibration — or
  /// another kernel registry — can never warm this engine.
  std::uint64_t calibration_hash() const;

  /// Persist every resident cache entry to `path` (svc/snapshot.hpp
  /// format).  Safe to call while other threads evaluate(): each shard is
  /// drained under its lock, so the snapshot is per-shard consistent.
  /// Crash-safe (write_file_atomically): a failed save returns kIoError
  /// and leaves any previous file at `path` untouched.
  SnapshotSaveResult save_snapshot(const std::string& path);

  /// Warm the shard caches from a snapshot at `path`.  The file is fully
  /// validated (magic -> version -> endianness -> calibration hash -> CRC)
  /// and rejected wholesale on any mismatch — loading never crashes, never
  /// trusts bytes on disk, and a stale or corrupt snapshot leaves the
  /// engine cold rather than serving wrong numbers.  Records re-shard by
  /// key hash, so shard-count and cache-capacity differences from the
  /// saving engine are fine (at capacity the records the saver would have
  /// evicted next are dropped).  Loaded entries are not counted as hits or
  /// misses.  Thread-safe against concurrent evaluate() and against other
  /// engines loading the same file.
  SnapshotLoadResult load_snapshot(const std::string& path);

  /// Stream variants behind save/load_snapshot, plus the live-rebalance
  /// migration path: save_snapshot_range() serializes only the resident
  /// entries whose canonical-key hash lies in [hash_lo, hash_hi]
  /// (inclusive) — exactly the records a shard range moving to a new
  /// owner must carry — and load_snapshot_stream() merges an image into
  /// the caches with the same full validation as load_snapshot().  Both
  /// are thread-safe against concurrent evaluate().
  SnapshotSaveResult save_snapshot_range(std::ostream& os,
                                         std::uint64_t hash_lo = 0,
                                         std::uint64_t hash_hi = ~0ull);
  SnapshotLoadResult load_snapshot_stream(std::istream& is);

  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    std::mutex mutex;
    ShardCache cache;
    // All counters below are guarded by `mutex`.
    std::uint64_t hits = 0;    // locked-path (miss-pass re-probe) hits
    std::uint64_t misses = 0;
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t hit_lock_acquisitions = 0;
    std::uint64_t lock_wait_ns = 0;
    explicit Shard(std::size_t capacity) : cache(capacity) {}
  };

  /// Stage 1 worker: canonicalize queries[lo..hi) into out.canon_ and the
  /// SoA key/hash lanes.  Behaviorally identical to scalar
  /// canonicalize()+pack()+hash_key(), restructured as branchless per-kind
  /// lane loops the vectorizer can chew on.
  void canonicalize_block(std::span<const Query> queries, std::size_t lo,
                          std::size_t hi, BatchResults& out) const;

  /// Evaluate one canonical query against the models.  Pure and reentrant.
  QueryResult compute(const Query& canonical) const;
  static CanonicalKey pack(const Query& canonical);
  std::size_t shard_of(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> 48) % shards_.size();
  }

  arch::NodeTopology node_;
  // Per-device precomputed model state, indexed by DeviceId.
  perf::ProcessorProfile profiles_[3];
  int sockets_[3] = {1, 1, 1};
  int max_threads_[3] = {1, 1, 1};
  mem::LatencyWalker walkers_[3];
  mpi::Collectives coll_post_;
  mpi::Collectives coll_pre_;
  /// A relaxed telemetry counter that moves by value, so the engine stays
  /// movable (construction helpers return engines by value; nothing moves
  /// an engine while batches are in flight).
  struct TelemetryCounter {
    std::atomic<std::uint64_t> v{0};
    TelemetryCounter() = default;
    TelemetryCounter(TelemetryCounter&& o) noexcept
        : v(o.v.load(std::memory_order_relaxed)) {}
    TelemetryCounter& operator=(TelemetryCounter&& o) noexcept {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  std::vector<perf::KernelSignature> kernels_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Lock-free-path telemetry (no mutex to hang it off).
  TelemetryCounter lockfree_hits_;
  TelemetryCounter read_retries_;
};

}  // namespace maia::svc
