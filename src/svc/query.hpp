// Typed queries for the batch prediction service.
//
// A Query asks one of the three model families one question:
//   * ExecQuery       — how long does kernel K take with T threads on
//                       device D?  (ExecModel::predict)
//   * CollectiveQuery — what does collective OP over R ranks of S bytes
//                       cost on device D under software stack ST?
//                       (mpi::Collectives / the cross-device p2p path)
//   * LatencyQuery    — what is the average load latency of a W-byte
//                       pointer chase on device D's processor?
//                       (mem::LatencyWalker)
//
// Queries are plain trivially-copyable values so batches are contiguous
// spans the engine can shard without touching the heap.  Every query
// canonicalizes to a 128-bit CanonicalKey; queries with equal keys are
// equivalent by construction (the canonical form IS the input the model
// evaluates), which is what makes cache hits exact rather than heuristic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "arch/node.hpp"
#include "fabric/mpi_fabric.hpp"
#include "sim/units.hpp"

namespace maia::svc {

enum class QueryKind : std::uint8_t { kExec = 0, kCollective = 1, kLatency = 2 };

/// Collective operations servable by a CollectiveQuery.  All but kCrossP2P
/// run inside one device over shared memory; kCrossP2P is one message
/// between a device and its PCIe peer through the DAPL fabric — the only
/// op whose cost depends on the software stack.
enum class CollectiveOp : std::uint8_t {
  kSendrecvRing = 0,
  kBcast,
  kAllreduce,
  kAllgather,
  kAlltoall,
  kBarrier,
  kReduce,
  kGather,
  kScatter,
  kCrossP2P,
};

struct ExecQuery {
  std::uint16_t kernel = 0;  ///< id from QueryEngine::register_kernel()
  arch::DeviceId device = arch::DeviceId::kHost;
  std::uint16_t threads = 1;
};

struct CollectiveQuery {
  CollectiveOp op = CollectiveOp::kAllreduce;
  arch::DeviceId device = arch::DeviceId::kHost;
  std::uint16_t ranks = 1;
  sim::Bytes message_bytes = 0;
  fabric::SoftwareStack stack = fabric::SoftwareStack::kPostUpdate;
};

struct LatencyQuery {
  arch::DeviceId device = arch::DeviceId::kHost;
  sim::Bytes working_set = 1024;
  std::uint16_t iterations = 4;  ///< pointer-chase iterations per line
};

/// One query: a kind tag plus the matching payload.  Only the member named
/// by `kind` is meaningful.
struct Query {
  QueryKind kind = QueryKind::kExec;
  union {
    ExecQuery exec;
    CollectiveQuery coll;
    LatencyQuery lat;
  };

  Query() : exec() {}
  static Query of(const ExecQuery& q) {
    Query out;
    out.kind = QueryKind::kExec;
    out.exec = q;
    return out;
  }
  static Query of(const CollectiveQuery& q) {
    Query out;
    out.kind = QueryKind::kCollective;
    out.coll = q;
    return out;
  }
  static Query of(const LatencyQuery& q) {
    Query out;
    out.kind = QueryKind::kLatency;
    out.lat = q;
    return out;
  }
};

/// Canonical identity of a query: every field of the canonicalized query
/// packed into 128 bits.  Equal keys <=> the model is asked the same
/// question, so a cached answer is exact.
struct CanonicalKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool operator==(const CanonicalKey&) const = default;
};

/// splitmix64-style avalanche of the key; the engine uses the high bits to
/// pick a shard and the low bits to pick a table slot, so both need to be
/// well mixed.
inline std::uint64_t hash_key(const CanonicalKey& k) {
  std::uint64_t x = k.hi * 0x9e3779b97f4a7c15ull ^ k.lo;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Answer to one query.  Flat POD so result arrays can be compared with
/// memcmp — the engine's determinism contract is byte-identity against the
/// naive serial loop, not approximate equality.
struct QueryResult {
  double value = 0.0;      ///< primary metric, seconds
  double secondary = 0.0;  ///< exec: Gflop/s; collective: B/s; latency: memory mix
  std::uint32_t flags = 0; ///< kOutOfMemory for failed collectives
  std::uint32_t reserved = 0;

  static constexpr std::uint32_t kOutOfMemory = 1u << 0;
};

/// Structure-of-arrays arena for batch results.  The engine writes each
/// query's answer at its input index, so output order never depends on
/// shard scheduling.  The arena also owns the canonicalization scratch —
/// canonical queries plus the key lanes (hi / lo / hash as separate
/// arrays, the SIMD-friendly layout stage 1 fills branchlessly) — and the
/// miss-pass scratch, so a reused BatchResults makes repeated evaluate()
/// calls allocation-free once warmed.
class BatchResults {
 public:
  std::size_t size() const { return values_.size(); }

  void resize(std::size_t n) {
    values_.resize(n);
    secondary_.resize(n);
    flags_.resize(n);
  }

  std::span<const double> values() const { return values_; }
  std::span<const double> secondary() const { return secondary_; }
  std::span<const std::uint32_t> flags() const { return flags_; }

  // Mutable result lanes for external producers.  The scatter/gather
  // router fills a BatchResults from backend responses, writing each
  // sub-batch result at its original input index — same placement
  // contract as the engine itself.
  std::span<double> values_mut() { return values_; }
  std::span<double> secondary_mut() { return secondary_; }
  std::span<std::uint32_t> flags_mut() { return flags_; }

  /// Exact bitwise comparison of the result arrays (scratch excluded).
  bool bitwise_equal(const BatchResults& o) const {
    const std::size_t n = size();
    if (o.size() != n) return false;
    if (n == 0) return true;
    return std::memcmp(values_.data(), o.values_.data(), n * sizeof(double)) == 0 &&
           std::memcmp(secondary_.data(), o.secondary_.data(),
                       n * sizeof(double)) == 0 &&
           std::memcmp(flags_.data(), o.flags_.data(),
                       n * sizeof(std::uint32_t)) == 0;
  }

 private:
  friend class QueryEngine;
  std::vector<double> values_;
  std::vector<double> secondary_;
  std::vector<std::uint32_t> flags_;
  // Scratch reused across evaluate() calls.
  std::vector<Query> canon_;
  std::vector<std::uint64_t> key_hi_;   // CanonicalKey.hi lane
  std::vector<std::uint64_t> key_lo_;   // CanonicalKey.lo lane
  std::vector<std::uint64_t> hashes_;   // hash_key lane
  // Miss bookkeeping for the two-phase hit-sweep / miss-fill pass: the
  // lock-free sweep records missing indices per block, then one counting
  // sort groups them by shard for the locked fill.
  std::vector<std::uint32_t> miss_idx_;      // block-major miss indices
  std::vector<std::uint32_t> block_misses_;  // misses recorded per block
  std::vector<std::uint32_t> shard_miss_;    // miss indices grouped by shard
  std::vector<std::size_t> shard_offsets_;   // per-shard extents in shard_miss_
  std::vector<std::size_t> shard_cursor_;    // scatter cursors for the sort
};

}  // namespace maia::svc
