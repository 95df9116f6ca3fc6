// Scatter/gather shard router: fans one batch out across N maia_serve
// backends and merges the sub-results back into evaluate_serial order.
//
// Partitioning rides the canonical-key splitmix64 hash (svc/query.hpp)
// through svc::shard_owner, so the router, `maia_serve --shard` range
// enforcement, and `svc::partition_snapshot` always agree on who owns a
// key.  Results are written at each query's ORIGINAL input index, so the
// merged BatchResults is byte-identical to a local evaluate_serial() run —
// the same determinism contract the engine itself honours.
//
// Admission handshake: before a backend serves traffic its kStatsResponse
// must echo the router's calibration fingerprint (a backend calibrated
// differently would answer with different bytes) and its advertised shard
// range must be consistent — either every backend is unsharded
// (shard_count == 0, full-range; failover allowed) or the backends form a
// complete disjoint permutation of shard 0..N-1 of N (strict mode;
// failover is impossible because survivors enforce their range and would
// answer WRONG_SHARD to re-sprayed keys).
//
// Robustness:
//   * RETRY_LATER from one backend -> bounded linear backoff resend of
//     that sub-batch against that shard only; the rest of the fan-out is
//     unaffected.
//   * A dead backend (connect/IO error) or one that answers DRAINING ->
//     its keys are re-sprayed across the survivors (failover_spray remix
//     spreads the range uniformly) and the batch still completes; the
//     degraded state is a metrics-visible gauge, and the next batch
//     attempts a reconnect.
//   * WRONG_SHARD is a routing bug by definition — never retried, the
//     batch fails with the typed code.
//
// Threading: a Router is thread-confined like the Client connections it
// owns (stats counters are atomics so another thread may *read* them).
// RouterPool holds one Router per front-server worker plus a dedicated
// stats channel, which is how the maia_router binary serves concurrent
// clients.
//
// Data plane: sub-batch request frames are encoded in place into pooled
// buffers (net/bufpool.hpp) — zero steady-state allocation on the scatter
// path — and responses are scatter-decoded straight into the output lanes
// with no intermediate record vector.  The front server calls evaluate()
// once per admitted client frame, with that frame's deadline_ms.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/bufpool.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "obs/obs.hpp"
#include "svc/engine.hpp"

namespace maia::net {

struct RouterConfig {
  std::vector<std::string> backends;  ///< backend unix-socket paths
  /// Bounded RETRY_LATER rounds per sub-batch (linear backoff).
  int max_retries = 64;
  std::uint32_t backoff_us = 200;
  /// Queries per backend request frame; a full sweep grid response would
  /// overflow the payload ceiling in one frame, so sub-batches above this
  /// are pipelined as several requests on the same connection.
  std::size_t max_subbatch = 65536;
  /// Refuse backends whose calibration hash differs from the router's.
  bool verify_calibration = true;
  /// Re-spray a dead backend's range across survivors instead of failing
  /// the batch (forced off in strict --shard mode).
  bool allow_failover = true;
};

/// Point-in-time per-backend counters (readable from other threads).
struct RouterBackendStats {
  std::string socket;
  bool alive = false;
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 0;  ///< advertised; 0 = unsharded
  std::uint64_t batches = 0;      ///< sub-batches sent
  std::uint64_t queries = 0;
  std::uint64_t retries = 0;      ///< RETRY_LATER rounds absorbed
  std::uint64_t failures = 0;     ///< transport errors + DRAINING
  std::uint64_t reconnects = 0;
};

struct RouterStats {
  std::vector<RouterBackendStats> backends;
  std::uint64_t batches = 0;    ///< evaluate() calls
  std::uint64_t queries = 0;
  std::uint64_t retries = 0;
  std::uint64_t resprayed = 0;  ///< queries rerouted off a dead backend
  bool degraded = false;        ///< any configured backend currently dead
};

class Router {
 public:
  /// The engine is the canonicalization + calibration reference; the
  /// router never evaluates through it.  Must outlive the router.
  Router(svc::QueryEngine& engine, RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connect + handshake every backend.  All backends must be reachable,
  /// calibration-identical, and shard-consistent at startup; false with a
  /// reason otherwise.  (Failover covers deaths *after* admission.)
  bool connect(std::string* error);

  /// Scatter `queries` across the backends, gather, and merge into `out`
  /// at the original input indices.  kOk when every query was answered;
  /// otherwise the first terminal typed error (kDraining when no live
  /// backend remains, kWrongShard on a routing bug, ...).  Dead backends
  /// are re-connected lazily at the next call.
  WireError evaluate(std::span<const svc::Query> queries,
                     svc::BatchResults& out, std::uint32_t deadline_ms = 0);

  RouterStats stats() const;
  bool degraded() const;
  bool strict_sharding() const { return strict_; }
  std::size_t backend_count() const { return backends_.size(); }

  /// Tear down every connection and rebuild against a new backend list
  /// (connect() + handshake included).  Thread-confined like evaluate():
  /// only call while this Router is checked out of its pool.  On failure
  /// the router needs another set_backends() before it can serve.
  bool set_backends(const std::vector<std::string>& backends,
                    std::string* error);

  /// Which RouterPool topology epoch this router's connections reflect;
  /// the pool bumps its epoch on rebalance and lazily upgrades each
  /// router at its next checkout.
  std::uint64_t topology_epoch() const { return topology_epoch_; }
  void set_topology_epoch(std::uint64_t e) { topology_epoch_ = e; }

  /// Sum of the live backends' server counters (one kStatsRequest each).
  /// The engine_* fields let callers compute a true end-to-end hit rate
  /// through the router tier.  Empty when no backend answers.
  std::optional<WireStats> aggregate_backend_stats();

 private:
  struct Backend;
  struct SubBatch;

  bool handshake(Backend& backend, std::string* error);
  bool try_reconnect(Backend& backend);
  void mark_dead(Backend& backend);
  void publish_degraded();

  svc::QueryEngine& engine_;
  RouterConfig config_;
  /// Recycles sub-batch request frames (declared before any scratch that
  /// could hold a PooledBuf so it is destroyed last).
  BufPool pool_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Maps a key's range index to the backend owning it (strict mode uses
  /// the advertised permutation; identity otherwise).
  std::vector<std::size_t> range_to_backend_;
  bool strict_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t topology_epoch_ = 0;

  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> resprayed_{0};

  // Scratch reused across evaluate() calls.
  std::vector<std::uint64_t> hash_scratch_;
  std::vector<std::vector<std::uint32_t>> assign_scratch_;
  std::vector<svc::Query> gather_scratch_;

  obs::Gauge degraded_gauge_;
  obs::Counter respray_counter_;
  obs::Histogram fanout_ns_;
};

/// Checkout pool of Routers for a multi-worker front server: each worker
/// borrows a Router for the duration of one batch (connections are
/// thread-confined while borrowed), and a dedicated stats Router answers
/// kStatsRequest augmentation without contending with the data path.
class RouterPool {
 public:
  RouterPool(svc::QueryEngine& engine, RouterConfig config, int size);
  ~RouterPool();

  /// Connect every pooled Router (and the stats channel); false with the
  /// first failure's reason.
  bool connect_all(std::string* error);

  /// ServerConfig::evaluator-shaped entry point: borrows a Router, fans
  /// the batch out, returns it.  Blocks while all Routers are busy (the
  /// front server's admission queue bounds how many can wait here).
  WireError evaluate(std::span<const svc::Query> queries,
                     svc::BatchResults& out, std::uint32_t deadline_ms);

  /// ServerConfig::stats_augment-shaped: substitutes the aggregated
  /// backend engine counters into `w` so clients of the front server see
  /// the true end-to-end cache behaviour.
  void augment_stats(WireStats& w);

  /// Counters merged across every pooled Router.
  RouterStats stats() const;

  /// Live N -> M shard rebalance (ServerConfig::rebalance-shaped): moves
  /// the fleet behind this pool to `req.backends` with zero cold restarts
  /// and no cache loss on the moved ranges.  The orchestration:
  ///
  ///   1. validate the request and connect + handshake every new backend
  ///      BEFORE touching live traffic (an unreachable or miscalibrated
  ///      target aborts with the old topology fully intact);
  ///   2. compute the moved ranges — the elementary intervals of the old
  ///      and new shard maps whose owning ADDRESS changes — and pause
  ///      exactly those (queries touching them answer RETRY_LATER; all
  ///      other traffic flows uninterrupted);
  ///   3. barrier: check out every pooled Router once, so any batch that
  ///      entered before the pause has finished before records move;
  ///   4. stream each moved range's warm cache records old -> new owner
  ///      (kSnapshotFetch / kSnapshotInstall; oversized images are
  ///      bisected), so moved keys stay cache-warm across the flip;
  ///   5. strict fleets only: kShardAssign each new backend its range
  ///      j of M (rolled back on failure);
  ///   6. flip the topology atomically (epoch++; routers re-home lazily
  ///      at next checkout) and resume the paused ranges.
  ///
  /// Any failure aborts without flipping: the pause is lifted and the old
  /// topology — including its failover re-spray for dead backends —
  /// keeps serving.  Serialized: concurrent calls run one at a time.
  RebalanceReport rebalance(const RebalanceRequest& req);

  /// Current topology epoch (bumped once per successful rebalance).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  Router* checkout();
  void checkin(Router* router);
  /// True when `hash` lies in a paused (mid-migration) range.
  bool hash_paused(std::uint64_t hash) const;

  svc::QueryEngine& engine_;
  RouterConfig config_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::unique_ptr<Router> stats_router_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Router*> idle_;
  std::mutex stats_mutex_;

  // --- live-rebalance state ---
  std::mutex rebalance_mutex_;  ///< serializes rebalance() calls
  mutable std::mutex topo_mutex_;
  std::vector<std::string> topology_;  ///< current backend list, shard order
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> rebalancing_{false};
  mutable std::mutex pause_mutex_;
  /// Inclusive hash ranges currently mid-migration (guarded by
  /// pause_mutex_; consulted only while rebalancing_ is set).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> paused_ranges_;
};

}  // namespace maia::net
