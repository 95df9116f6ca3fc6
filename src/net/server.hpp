// Streaming prediction server: serves svc::QueryEngine over a unix-domain
// socket speaking the src/net/protocol.hpp frame protocol.
//
// Architecture — one reactor, W evaluation workers, a bounded admission
// queue between them:
//
//   * The reactor thread owns every file descriptor: it poll()s the
//     listener, a self-pipe, and all client connections; accepts,
//     incrementally parses frames (FrameParser), decodes batches, and
//     flushes response bytes.  Workers never touch a socket.
//   * Decoded batches enter the bounded admission queue.  A full queue is
//     explicit backpressure: the reactor answers RETRY_LATER immediately
//     and drops nothing — a client that backs off and resends loses no
//     work, and the queue depth bounds server memory under overload.
//   * Each admitted frame is exactly one evaluation.  A worker pops one
//     frame, answers DEADLINE_EXCEEDED if it expired while queued, and
//     otherwise evaluates that frame's own queries: serially in the
//     engine, or through config.evaluator with the frame's own
//     deadline_ms.  The deadline is checked again after the evaluation,
//     so a slow evaluation never smuggles results past it.
//   * Responses take a zero-copy path: the worker encodes the answer
//     directly into a pooled buffer (src/net/bufpool.hpp) at its final
//     framed offsets, the reactor flushes outboxes with one sendmsg/writev
//     over many frames, and the buffer returns to the pool — the steady
//     state allocates nothing per response.
//
// Graceful drain (request_drain(), typically from a SIGTERM handler —
// async-signal-safe): the reactor closes and unlinks the listener, answers
// DRAINING to any new batch, lets queued and in-flight batches finish,
// flushes every outbox, then saves a cache snapshot (config.snapshot_out)
// so the next server starts warm, and wait() returns 0.
//
// Startup is stale-socket robust: a leftover socket path is unlinked only
// after probing it dead (connect() refused); if a live server answers the
// probe, start() fails with a clear error instead of stealing the path.
//
// Observability (src/obs): per-stage latency histograms
// net.request.{decode,queue_wait,evaluate,encode,total}_ns, SLO counters
// net.requests.{served,rejected,timed_out,malformed,draining}, connection
// and byte counters, high-watermark gauges net.clients.connected and
// net.admission.depth.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/bufpool.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "svc/engine.hpp"

namespace maia::net {

struct ServerConfig {
  /// Listen endpoint: "unix:/path", "tcp:host:port", or a bare unix path
  /// (back-compat).  See net/transport.hpp for the address scheme.
  std::string socket_path = "maia.sock";
  /// Evaluation worker threads (each runs whole frames; <= 0 -> 1).
  int workers = 1;
  /// Bounded admission queue depth; a full queue answers RETRY_LATER.
  std::size_t admission_depth = 64;
  /// Frame payload ceiling (parser-enforced, bounded allocation).
  std::size_t max_payload_bytes = kDefaultMaxPayload;
  /// Forced-exit ceiling on drain (queue flush + outbox flush).
  std::uint32_t drain_timeout_ms = 30'000;
  /// When nonempty, save a cache snapshot here at the end of drain.
  std::string snapshot_out;
  /// Pluggable batch evaluator.  Null -> the local engine evaluates.
  /// When set, workers call it instead (the router front server plugs in
  /// its scatter/gather fan-out here), once per admitted frame with that
  /// frame's queries and deadline_ms; it must fill `out` with one result
  /// per query at its input index, or return a typed error the server
  /// answers the request with.  Called concurrently from all workers.
  std::function<WireError(std::span<const svc::Query>, svc::BatchResults&,
                          std::uint32_t deadline_ms)>
      evaluator;
  /// Optional decoration of kStatsResponse frames (after the server fills
  /// its own counters).  The router front substitutes its backends'
  /// aggregated engine counters so hit-rate checks see through the tier.
  /// Runs on the reactor thread — keep it quick.
  std::function<void(WireStats&)> stats_augment;
  /// Shard-range enforcement: when shard_count > 0 this server owns shard
  /// `shard_index` of `shard_count` consistent-hash ranges (svc/sharding)
  /// and answers WRONG_SHARD (detail = query index) to any batch holding
  /// a key outside its range.  Both are advertised in kStatsResponse.
  /// These are the *initial* values: a kShardAssign admin frame (sent by
  /// the router's live-rebalance orchestration) re-ranges a running
  /// server atomically, with no restart and no cache loss.
  int shard_index = 0;
  int shard_count = 0;
  /// Log every accepted connection's peer ("accepted tcp:1.2.3.4:567") to
  /// stderr.  Off by default; the bench mains turn it on.
  bool log_accepts = false;
  /// Live-rebalance handler for kRebalance frames (the router front plugs
  /// in RouterPool::rebalance here).  Runs on a dedicated admin thread so
  /// a slow migration never stalls the data-plane reactor.  Null -> the
  /// server answers BAD_TYPE (plain backends do not orchestrate fleets).
  std::function<RebalanceReport(const RebalanceRequest&)> rebalance;
  /// Ceiling on a single kSnapshotData response payload; a kSnapshotFetch
  /// whose range image exceeds it is answered with a typed kTooLarge error
  /// so the fetching router bisects the range and retries the halves.
  /// 0 -> max_payload_bytes.  Tests set it tiny to force the bisect path.
  std::size_t snapshot_fetch_max_bytes = 0;
};

/// Point-in-time server counters (see also the net.* obs metrics).
struct ServerStats {
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;  ///< RETRY_LATER (admission queue full)
  std::uint64_t timed_out = 0;
  std::uint64_t malformed = 0;
  std::uint64_t draining_rejected = 0;
  std::uint64_t wrong_shard = 0;  ///< batches refused by shard enforcement
  std::uint64_t shard_moves = 0;  ///< kShardAssign re-ranges applied
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connected = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t snapshot_records = 0;  ///< records persisted by drain
  std::uint64_t bufpool_allocations = 0;  ///< response buffers heap-allocated
  std::uint64_t bufpool_reuses = 0;       ///< response buffers recycled
};

class Server {
 public:
  /// The engine must outlive the server.  Kernel registration must be
  /// complete before start() — clients address kernels by id.
  Server(svc::QueryEngine& engine, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind (stale-socket probe first), listen, spawn reactor + workers.
  /// False with a human-readable reason in `*error` on failure.
  bool start(std::string* error);

  /// Begin graceful drain.  Async-signal-safe and idempotent: storms of
  /// SIGTERMs and concurrent callers collapse into one drain.
  void request_drain();

  /// Block until drain completes; returns the process exit code (0 on a
  /// clean drain, 1 if the drain timeout forced connections closed).
  int wait();

  /// True once start() succeeded and wait() has not yet returned.
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  /// Test hooks: freeze / thaw the evaluation workers so tests can fill
  /// the admission queue deterministically (backpressure, deadline, and
  /// drain-under-load scenarios).  Not used in production paths.
  void pause_workers();
  void resume_workers();

 private:
  struct Conn;
  struct WorkItem {
    std::shared_ptr<Conn> conn;
    std::uint64_t request_id = 0;
    std::uint32_t deadline_ms = 0;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t recv_ns = 0;  ///< frame completion time (total latency t0)
    std::vector<svc::Query> queries;
  };

  void reactor_loop();
  void worker_loop();
  void accept_clients();
  bool handle_readable(const std::shared_ptr<Conn>& conn);
  bool flush_writable(Conn& conn);
  void dispatch_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void enqueue_out(Conn& conn, PooledBuf&& buf);
  void send_frame(Conn& conn, FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);
  void send_error(Conn& conn, std::uint64_t request_id, WireError code,
                  std::uint32_t detail = 0);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void wake();
  WireStats wire_stats() const;

  svc::QueryEngine& engine_;
  ServerConfig config_;
  Address listen_addr_;  ///< parsed config_.socket_path (set by start())

  /// Live shard assignment, packed (index << 32) | count so enforcement
  /// and kStatsResponse read one atomic.  Seeded from config_; re-ranged
  /// by kShardAssign with no restart.
  std::atomic<std::uint64_t> shard_state_{0};

  // Declared before the connection table and threads so it is destroyed
  // after every PooledBuf still parked in an outbox has returned.
  BufPool pool_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  bool socket_bound_ = false;

  std::thread reactor_;
  std::vector<std::thread> workers_;

  /// Admin threads spawned for kRebalance frames (joined at reactor
  /// shutdown, before the final connection flush).
  std::mutex admin_mutex_;
  std::vector<std::thread> admin_threads_;

  // Admission queue (bounded, mutex + condvar).
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  bool queue_closed_ = false;
  bool workers_paused_ = false;

  std::vector<std::shared_ptr<Conn>> conns_;

  std::atomic<bool> running_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> drained_{false};
  std::atomic<int> exit_code_{0};
  std::atomic<std::int64_t> inflight_{0};  ///< admitted, response not yet queued

  // Counters (relaxed; aggregated by stats()).
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> draining_rejected_{0};
  std::atomic<std::uint64_t> wrong_shard_{0};
  std::atomic<std::uint64_t> shard_moves_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> snapshot_records_{0};

  mutable std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
};

/// Probe `path`: true when a unix socket answers a connect() there (a
/// live server owns it).  Used by Server::start() and exposed for tests.
bool socket_alive(const std::string& path);

}  // namespace maia::net
