#include "net/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "obs/obs.hpp"
#include "svc/sharding.hpp"

namespace maia::net {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Stage histograms share one exponential layout: 1 us .. ~8.6 s.
std::vector<double> stage_bounds() { return obs::exponential_bounds(1024.0, 2.0, 24); }

struct NetMetrics {
  obs::Counter served, rejected, timed_out, malformed, draining, wrong_shard;
  obs::Counter accepted, closed, bytes_read, bytes_written;
  obs::Gauge clients, depth;
  obs::Histogram decode_ns, queue_wait_ns, evaluate_ns, encode_ns, total_ns;
  static const NetMetrics& get() {
    static const NetMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      NetMetrics n;
      n.served = reg.counter("net.requests.served");
      n.rejected = reg.counter("net.requests.rejected");
      n.timed_out = reg.counter("net.requests.timed_out");
      n.malformed = reg.counter("net.requests.malformed");
      n.draining = reg.counter("net.requests.draining");
      n.wrong_shard = reg.counter("net.requests.wrong_shard");
      n.accepted = reg.counter("net.connections.accepted");
      n.closed = reg.counter("net.connections.closed");
      n.bytes_read = reg.counter("net.bytes.read");
      n.bytes_written = reg.counter("net.bytes.written");
      n.clients = reg.gauge("net.clients.connected");
      n.depth = reg.gauge("net.admission.depth");
      n.decode_ns = reg.histogram("net.request.decode_ns", stage_bounds());
      n.queue_wait_ns = reg.histogram("net.request.queue_wait_ns", stage_bounds());
      n.evaluate_ns = reg.histogram("net.request.evaluate_ns", stage_bounds());
      n.encode_ns = reg.histogram("net.request.encode_ns", stage_bounds());
      n.total_ns = reg.histogram("net.request.total_ns", stage_bounds());
      return n;
    }();
    return m;
  }
};

}  // namespace

bool socket_alive(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return false;
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const bool alive =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return alive;
}

/// One client connection.  File descriptor and parser belong to the
/// reactor; the outbox is the only state workers share (under its mutex).
struct Server::Conn {
  int fd = -1;
  FrameParser parser;
  std::mutex out_mutex;
  std::deque<PooledBuf> outbox;  // guarded by out_mutex
  std::size_t out_offset = 0;  // bytes of outbox.front() already written
  bool has_output = false;     // mirrored under out_mutex for poll() setup
  bool close_after_flush = false;
  bool closed = false;  // guarded by out_mutex: workers drop responses
  std::vector<svc::Query> decode_scratch;

  explicit Conn(int fd_, std::size_t max_payload)
      : fd(fd_), parser(max_payload) {}
};

Server::Server(svc::QueryEngine& engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.workers <= 0) config_.workers = 1;
  if (config_.admission_depth == 0) config_.admission_depth = 1;
  if (config_.snapshot_fetch_max_bytes == 0) {
    config_.snapshot_fetch_max_bytes = config_.max_payload_bytes;
  }
  const std::uint64_t count =
      config_.shard_count > 0 ? static_cast<std::uint64_t>(config_.shard_count) : 0;
  const std::uint64_t index =
      count > 0 ? static_cast<std::uint64_t>(config_.shard_index) : 0;
  shard_state_.store((index << 32) | count, std::memory_order_release);
}

Server::~Server() {
  if (running_.load(std::memory_order_acquire)) {
    request_drain();
    wait();
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  std::string parse_err;
  if (!parse_address(config_.socket_path, listen_addr_, &parse_err)) {
    return fail(parse_err);
  }

  if (!listen_addr_.is_tcp()) {
    // Stale-socket probe (unix only; TCP has no on-disk residue): a
    // leftover path from a crashed server is unlinked only once a
    // connect() probe confirms nobody answers there; a live server keeps
    // ownership and we refuse to start.
    struct stat st{};
    if (::lstat(listen_addr_.path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        return fail("path exists and is not a socket: " + listen_addr_.path);
      }
      if (socket_alive(listen_addr_.path)) {
        return fail("another live server owns " + listen_addr_.path +
                    " (connect() succeeded); refusing to steal the socket");
      }
      if (::unlink(listen_addr_.path.c_str()) != 0 && errno != ENOENT) {
        return fail("cannot unlink stale socket " + listen_addr_.path + ": " +
                    std::strerror(errno));
      }
    }
  }

  const TransportResult bound = bind_listen(listen_addr_, 64);
  if (!bound.ok()) return fail(bound.message);
  listen_fd_ = bound.fd;
  socket_bound_ = true;
  if (!set_nonblocking(listen_fd_)) {
    return fail(std::string("fcntl(listener): ") + std::strerror(errno));
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return fail(std::string("pipe(): ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  running_.store(true, std::memory_order_release);
  reactor_ = std::thread([this] { reactor_loop(); });
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void Server::request_drain() {
  // Only async-signal-safe operations: an atomic store and a write() on a
  // pipe fd that was created before any signal handler could exist.
  drain_requested_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 'd';
    [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
  }
}

void Server::wake() {
  if (wake_write_fd_ >= 0) {
    const char byte = 'w';
    [[maybe_unused]] ssize_t rc = ::write(wake_write_fd_, &byte, 1);
  }
}

int Server::wait() {
  {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    wait_cv_.wait(lock, [this] { return drained_.load(std::memory_order_acquire); });
  }
  if (reactor_.joinable()) reactor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
  return exit_code_.load(std::memory_order_acquire);
}

void Server::pause_workers() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  workers_paused_ = true;
}

void Server::resume_workers() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_paused_ = false;
  }
  queue_cv_.notify_all();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.served = served_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.draining_rejected = draining_rejected_.load(std::memory_order_relaxed);
  s.wrong_shard = wrong_shard_.load(std::memory_order_relaxed);
  s.shard_moves = shard_moves_.load(std::memory_order_relaxed);
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_closed = closed_.load(std::memory_order_relaxed);
  s.connected = s.connections_accepted - s.connections_closed;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
  }
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.snapshot_records = snapshot_records_.load(std::memory_order_relaxed);
  const BufPoolStats pool = pool_.stats();
  s.bufpool_allocations = pool.allocations;
  s.bufpool_reuses = pool.reuses;
  return s;
}

WireStats Server::wire_stats() const {
  const ServerStats s = stats();
  const svc::EngineStats e = engine_.stats();
  WireStats w;
  w.served = s.served;
  w.rejected = s.rejected;
  w.timed_out = s.timed_out;
  w.malformed = s.malformed;
  w.draining_rejected = s.draining_rejected;
  w.engine_queries = e.queries;
  w.engine_hits = e.cache_hits;
  w.engine_misses = e.cache_misses;
  w.connected_clients = s.connected;
  w.calibration_hash = engine_.calibration_hash();
  const std::uint64_t shard_state = shard_state_.load(std::memory_order_acquire);
  w.shard_index = shard_state >> 32;
  w.shard_count = shard_state & 0xffffffffull;
  if (config_.stats_augment) config_.stats_augment(w);
  return w;
}

void Server::enqueue_out(Conn& conn, PooledBuf&& buf) {
  {
    std::lock_guard<std::mutex> lock(conn.out_mutex);
    // A closed client has no home for the response; the buffer's
    // destructor returns it to the pool.
    if (!conn.closed) {
      conn.outbox.push_back(std::move(buf));
      conn.has_output = true;
    }
  }
  wake();
}

void Server::send_frame(Conn& conn, FrameType type, std::uint64_t request_id,
                        std::span<const std::uint8_t> payload) {
  PooledBuf buf = pool_.acquire(kHeaderBytes + payload.size());
  if (!payload.empty()) {
    std::memcpy(buf.data() + kHeaderBytes, payload.data(), payload.size());
  }
  finish_frame(buf.bytes(), type, request_id);
  enqueue_out(conn, std::move(buf));
}

void Server::send_error(Conn& conn, std::uint64_t request_id, WireError code,
                        std::uint32_t detail) {
  const std::vector<std::uint8_t> payload = encode_error(code, detail);
  send_frame(conn, FrameType::kError, request_id, payload);
}

void Server::dispatch_frame(const std::shared_ptr<Conn>& conn, Frame&& frame) {
  const NetMetrics& m = NetMetrics::get();
  switch (frame.header.type) {
    case FrameType::kPing:
      send_frame(*conn, FrameType::kPong, frame.header.request_id, {});
      return;
    case FrameType::kStatsRequest: {
      const std::vector<std::uint8_t> payload = encode_stats(wire_stats());
      send_frame(*conn, FrameType::kStatsResponse, frame.header.request_id,
                 payload);
      return;
    }
    case FrameType::kBatchRequest: {
      const std::uint64_t t0 = now_ns();
      const WireError decode_rc =
          decode_batch_request(frame.payload, conn->decode_scratch);
      MAIA_OBS_HISTOGRAM(m.decode_ns, static_cast<double>(now_ns() - t0));
      if (decode_rc != WireError::kOk) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        MAIA_OBS_COUNT(m.malformed, 1);
        send_error(*conn, frame.header.request_id, decode_rc);
        return;
      }
      const std::uint64_t shard_state =
          shard_state_.load(std::memory_order_acquire);
      if ((shard_state & 0xffffffffull) != 0) {
        // Shard enforcement: answering a key outside this backend's range
        // would be a routing bug upstream, so it gets a typed WRONG_SHARD
        // (detail = offending query index), never a silent wrong answer.
        // The range is the live kShardAssign state, not the boot config —
        // a rebalanced server starts refusing its ceded range atomically.
        const auto count = static_cast<std::size_t>(shard_state & 0xffffffffull);
        const auto index = static_cast<std::size_t>(shard_state >> 32);
        for (std::size_t qi = 0; qi < conn->decode_scratch.size(); ++qi) {
          const std::uint64_t h =
              svc::hash_key(engine_.key_of(conn->decode_scratch[qi]));
          if (!svc::in_shard(h, index, count)) {
            wrong_shard_.fetch_add(1, std::memory_order_relaxed);
            MAIA_OBS_COUNT(m.wrong_shard, 1);
            send_error(*conn, frame.header.request_id, WireError::kWrongShard,
                       static_cast<std::uint32_t>(qi));
            return;
          }
        }
      }
      if (drain_requested_.load(std::memory_order_acquire)) {
        draining_rejected_.fetch_add(1, std::memory_order_relaxed);
        MAIA_OBS_COUNT(m.draining, 1);
        send_error(*conn, frame.header.request_id, WireError::kDraining);
        return;
      }
      WorkItem item;
      item.conn = conn;
      item.request_id = frame.header.request_id;
      item.deadline_ms = frame.header.deadline_ms;
      item.recv_ns = t0;
      item.queries = std::move(conn->decode_scratch);
      conn->decode_scratch = {};
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.size() >= config_.admission_depth) {
          // Explicit backpressure: the client is told to retry, nothing
          // is silently dropped, and queue memory stays bounded.
          rejected_.fetch_add(1, std::memory_order_relaxed);
          MAIA_OBS_COUNT(m.rejected, 1);
          send_error(*conn, item.request_id, WireError::kRetryLater,
                     static_cast<std::uint32_t>(queue_.size()));
          return;
        }
        item.enqueue_ns = now_ns();
        queue_.push_back(std::move(item));
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        MAIA_OBS_GAUGE(m.depth, static_cast<double>(queue_.size()));
      }
      queue_cv_.notify_one();
      return;
    }
    case FrameType::kShardAssign: {
      // Live re-range: the rebalance orchestrator moves this backend to a
      // new (index, count) with one atomic store — enforcement and stats
      // flip together, no restart, no cache loss.
      std::uint32_t index = 0, count = 0;
      if (!decode_shard_assign(frame.payload, index, count)) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        MAIA_OBS_COUNT(m.malformed, 1);
        send_error(*conn, frame.header.request_id, WireError::kMalformed);
        return;
      }
      shard_state_.store(
          (static_cast<std::uint64_t>(count) > 0
               ? (static_cast<std::uint64_t>(index) << 32) | count
               : 0ull),
          std::memory_order_release);
      shard_moves_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<std::uint8_t> echo = encode_shard_assign(index, count);
      send_frame(*conn, FrameType::kShardAssigned, frame.header.request_id, echo);
      return;
    }
    case FrameType::kSnapshotFetch: {
      // Serialize the resident cache records in [lo, hi] as a snapshot
      // image.  An image over the fetch ceiling answers a typed kTooLarge
      // (detail = clamped byte size) so the fetcher bisects the range —
      // never a torn or truncated image.
      std::uint64_t lo = 0, hi = 0;
      if (!decode_snapshot_fetch(frame.payload, lo, hi)) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        MAIA_OBS_COUNT(m.malformed, 1);
        send_error(*conn, frame.header.request_id, WireError::kMalformed);
        return;
      }
      std::ostringstream image;
      const svc::SnapshotSaveResult saved =
          engine_.save_snapshot_range(image, lo, hi);
      if (!saved.ok()) {
        send_error(*conn, frame.header.request_id, WireError::kMalformed,
                   static_cast<std::uint32_t>(saved.error));
        return;
      }
      const std::string bytes = image.str();
      if (bytes.size() > config_.snapshot_fetch_max_bytes) {
        send_error(*conn, frame.header.request_id, WireError::kTooLarge,
                   static_cast<std::uint32_t>(
                       std::min<std::uint64_t>(bytes.size(), 0xffffffffull)));
        return;
      }
      send_frame(*conn, FrameType::kSnapshotData, frame.header.request_id,
                 {reinterpret_cast<const std::uint8_t*>(bytes.data()),
                  bytes.size()});
      return;
    }
    case FrameType::kSnapshotInstall: {
      // Merge a streamed snapshot image into the caches.  The image gets
      // the same full validation as an on-disk snapshot; a bad one warms
      // nothing and answers a typed error (detail = SnapshotError).
      std::istringstream image(std::string(
          reinterpret_cast<const char*>(frame.payload.data()),
          frame.payload.size()));
      const svc::SnapshotLoadResult loaded = engine_.load_snapshot_stream(image);
      if (!loaded.ok()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        MAIA_OBS_COUNT(m.malformed, 1);
        send_error(*conn, frame.header.request_id, WireError::kMalformed,
                   static_cast<std::uint32_t>(loaded.error));
        return;
      }
      std::uint8_t payload[8];
      for (int i = 0; i < 8; ++i) {
        payload[i] =
            static_cast<std::uint8_t>(loaded.records_loaded >> (8 * i));
      }
      send_frame(*conn, FrameType::kSnapshotInstalled, frame.header.request_id,
                 payload);
      return;
    }
    case FrameType::kRebalance: {
      RebalanceRequest req;
      if (!decode_rebalance_request(frame.payload, req)) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        MAIA_OBS_COUNT(m.malformed, 1);
        send_error(*conn, frame.header.request_id, WireError::kMalformed);
        return;
      }
      if (!config_.rebalance) {
        // Plain backends do not orchestrate fleets.
        send_error(*conn, frame.header.request_id, WireError::kBadType);
        return;
      }
      // A migration can stream many megabytes; run it on a dedicated admin
      // thread (joined at shutdown) so the data-plane reactor never stalls.
      const std::uint64_t request_id = frame.header.request_id;
      std::lock_guard<std::mutex> lock(admin_mutex_);
      admin_threads_.emplace_back(
          [this, conn, request_id, req = std::move(req)] {
            const RebalanceReport report = config_.rebalance(req);
            const std::vector<std::uint8_t> payload =
                encode_rebalance_report(report);
            send_frame(*conn, FrameType::kRebalanceDone, request_id, payload);
          });
      return;
    }
    default:
      // Response-typed frames have no business arriving at the server.
      malformed_.fetch_add(1, std::memory_order_relaxed);
      MAIA_OBS_COUNT(m.malformed, 1);
      send_error(*conn, frame.header.request_id, WireError::kBadType);
      return;
  }
}

bool Server::handle_readable(const std::shared_ptr<Conn>& conn) {
  const NetMetrics& m = NetMetrics::get();
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_read_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
      MAIA_OBS_COUNT(m.bytes_read, static_cast<std::uint64_t>(n));
      conn->parser.feed({buf, static_cast<std::size_t>(n)});
      Frame frame;
      for (;;) {
        const FrameParser::Status status = conn->parser.next(frame);
        if (status == FrameParser::Status::kNeedMore) break;
        switch (status) {
          case FrameParser::Status::kFrame:
            dispatch_frame(conn, std::move(frame));
            break;
          case FrameParser::Status::kBadVersion:
            malformed_.fetch_add(1, std::memory_order_relaxed);
            MAIA_OBS_COUNT(m.malformed, 1);
            send_error(*conn, conn->parser.rejected_id(), WireError::kBadVersion);
            break;
          case FrameParser::Status::kBadType:
            malformed_.fetch_add(1, std::memory_order_relaxed);
            MAIA_OBS_COUNT(m.malformed, 1);
            send_error(*conn, conn->parser.rejected_id(), WireError::kBadType);
            break;
          case FrameParser::Status::kBadCrc:
            malformed_.fetch_add(1, std::memory_order_relaxed);
            MAIA_OBS_COUNT(m.malformed, 1);
            send_error(*conn, conn->parser.rejected_id(), WireError::kMalformed);
            break;
          case FrameParser::Status::kBadMagic:
            malformed_.fetch_add(1, std::memory_order_relaxed);
            MAIA_OBS_COUNT(m.malformed, 1);
            send_error(*conn, conn->parser.rejected_id(), WireError::kBadMagic);
            conn->close_after_flush = true;
            break;
          case FrameParser::Status::kTooLarge:
            malformed_.fetch_add(1, std::memory_order_relaxed);
            MAIA_OBS_COUNT(m.malformed, 1);
            send_error(*conn, conn->parser.rejected_id(), WireError::kTooLarge);
            conn->close_after_flush = true;
            break;
          case FrameParser::Status::kNeedMore:
            break;
        }
        if (conn->parser.poisoned()) break;
      }
      if (conn->parser.poisoned()) {
        // Deliver the error frame, then hang up: the stream is desynced.
        return true;
      }
      continue;
    }
    if (n == 0) return false;  // EOF: peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // hard error
  }
}

bool Server::flush_writable(Conn& conn) {
  const NetMetrics& m = NetMetrics::get();
  // Gathered flush: one sendmsg() covers up to kFlushVecs queued frames,
  // so header + payload (already contiguous in each pooled buffer) are
  // never re-copied and a burst of queued responses costs one syscall.
  constexpr std::size_t kFlushVecs = 16;
  std::lock_guard<std::mutex> lock(conn.out_mutex);
  while (!conn.outbox.empty()) {
    iovec iov[kFlushVecs];
    std::size_t nvec = 0;
    for (auto it = conn.outbox.begin();
         it != conn.outbox.end() && nvec < kFlushVecs; ++it) {
      const std::size_t skip = (nvec == 0) ? conn.out_offset : 0;
      iov[nvec].iov_base = it->data() + skip;
      iov[nvec].iov_len = it->size() - skip;
      ++nvec;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = nvec;
    // MSG_NOSIGNAL: a client that vanished mid-flush is a close_conn(),
    // never a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // EPIPE etc: peer gone
    }
    bytes_written_.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
    MAIA_OBS_COUNT(m.bytes_written, static_cast<std::uint64_t>(n));
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0 && !conn.outbox.empty()) {
      const std::size_t front_left =
          conn.outbox.front().size() - conn.out_offset;
      if (left >= front_left) {
        left -= front_left;
        conn.outbox.pop_front();  // returns the buffer to the pool
        conn.out_offset = 0;
      } else {
        conn.out_offset += left;
        left = 0;
      }
    }
  }
  conn.has_output = false;
  return !conn.close_after_flush;
}

void Server::close_conn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->closed) return;
    conn->closed = true;
  }
  ::close(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  MAIA_OBS_COUNT(NetMetrics::get().closed, 1);
}

void Server::accept_clients() {
  const NetMetrics& m = NetMetrics::get();
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    tune_stream_fd(fd);  // TCP_NODELAY on TCP peers; no-op on unix
    if (config_.log_accepts) {
      std::fprintf(stderr, "[serve] accepted %s\n", peer_description(fd).c_str());
    }
    conns_.push_back(std::make_shared<Conn>(fd, config_.max_payload_bytes));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    MAIA_OBS_COUNT(m.accepted, 1);
    MAIA_OBS_GAUGE(m.clients,
                   static_cast<double>(accepted_.load(std::memory_order_relaxed) -
                                       closed_.load(std::memory_order_relaxed)));
  }
}

void Server::reactor_loop() {
  std::vector<pollfd> pfds;
  std::uint64_t drain_started_ns = 0;
  bool listener_open = true;

  for (;;) {
    const bool draining = drain_requested_.load(std::memory_order_acquire);
    if (draining && listener_open) {
      // Stop accepting: close and unlink so new clients fail fast instead
      // of queueing behind a server that will never serve them.
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_open = false;
      if (!listen_addr_.is_tcp()) ::unlink(listen_addr_.path.c_str());
      drain_started_ns = now_ns();
    }

    if (draining) {
      bool outboxes_empty = true;
      for (const auto& conn : conns_) {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        if (!conn->outbox.empty()) {
          outboxes_empty = false;
          break;
        }
      }
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_empty = queue_.empty();
      }
      if (queue_empty && inflight_.load(std::memory_order_acquire) == 0 &&
          outboxes_empty) {
        break;  // clean drain: everything admitted has been answered
      }
      if (now_ns() - drain_started_ns >
          static_cast<std::uint64_t>(config_.drain_timeout_ms) * 1'000'000ull) {
        exit_code_.store(1, std::memory_order_release);
        break;  // forced drain: give up on stuck work / dead peers
      }
    }

    pfds.clear();
    if (listener_open) pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    const std::size_t conn_base = pfds.size();
    // accept_clients() below can append to conns_ mid-iteration; only the
    // connections polled this round have a pfds entry.
    const std::size_t polled_conns = conns_.size();
    for (const auto& conn : conns_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        if (conn->has_output) events |= POLLOUT;
      }
      pfds.push_back({conn->fd, events, 0});
    }

    const int rc = ::poll(pfds.data(), pfds.size(), draining ? 20 : 200);
    if (rc < 0 && errno != EINTR) break;

    std::size_t idx = 0;
    if (listener_open) {
      if ((pfds[idx].revents & POLLIN) != 0) accept_clients();
      ++idx;
    }
    if ((pfds[idx].revents & POLLIN) != 0) {
      std::uint8_t drain_buf[256];
      while (::read(wake_read_fd_, drain_buf, sizeof(drain_buf)) > 0) {
      }
    }

    for (std::size_t c = 0; c < polled_conns; ++c) {
      const pollfd& pfd = pfds[conn_base + c];
      const auto& conn = conns_[c];
      bool keep = true;
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) keep = false;
      if (keep && (pfd.revents & POLLIN) != 0) keep = handle_readable(conn);
      // POLLHUP with readable data still pending is handled above; a bare
      // hangup (or one left after reading) means the peer is gone.
      if (keep && (pfd.revents & POLLHUP) != 0 && (pfd.revents & POLLIN) == 0) {
        keep = false;
      }
      bool flush_ok = true;
      {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        flush_ok = conn->outbox.empty();
      }
      if (!flush_ok || (pfd.revents & POLLOUT) != 0) {
        if (!flush_writable(*conn)) keep = false;
      }
      if (!keep) close_conn(conn);
    }
    std::erase_if(conns_, [](const std::shared_ptr<Conn>& c) {
      std::lock_guard<std::mutex> lock(c->out_mutex);
      return c->closed;
    });
  }

  // Shut down: no more admissions, release the workers, hang up on
  // everyone still connected.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_closed_ = true;
    for (WorkItem& item : queue_) {
      // Forced drain only: anything still queued is answered DRAINING so
      // no request ever vanishes without a typed response (the flush is
      // best-effort at this point; the socket may already be gone).
      send_error(*item.conn, item.request_id, WireError::kDraining);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    queue_.clear();
  }
  queue_cv_.notify_all();
  // Join admin threads BEFORE the final flush so an in-flight rebalance's
  // kRebalanceDone frame still reaches its admin client.
  {
    std::vector<std::thread> admins;
    {
      std::lock_guard<std::mutex> lock(admin_mutex_);
      admins.swap(admin_threads_);
    }
    for (std::thread& t : admins) {
      if (t.joinable()) t.join();
    }
  }
  for (const auto& conn : conns_) {
    flush_writable(*conn);
    close_conn(conn);
  }
  conns_.clear();
  if (listener_open) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!listen_addr_.is_tcp()) ::unlink(listen_addr_.path.c_str());
  }

  if (!config_.snapshot_out.empty()) {
    const svc::SnapshotSaveResult saved = engine_.save_snapshot(config_.snapshot_out);
    if (saved.ok()) {
      snapshot_records_.store(saved.records, std::memory_order_release);
    }
  }

  drained_.store(true, std::memory_order_release);
  wait_cv_.notify_all();
}

void Server::worker_loop() {
  const NetMetrics& m = NetMetrics::get();
  svc::BatchResults results;  // reused scratch: warm frames allocate nothing
  const auto expired = [](const WorkItem& item, std::uint64_t now) {
    return item.deadline_ms > 0 &&
           now - item.recv_ns >
               static_cast<std::uint64_t>(item.deadline_ms) * 1'000'000ull;
  };
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return queue_closed_ || (!queue_.empty() && !workers_paused_);
      });
      if (queue_closed_ && (queue_.empty() || workers_paused_)) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      MAIA_OBS_GAUGE(m.depth, static_cast<double>(queue_.size()));
    }

    const std::uint64_t t_start = now_ns();
    MAIA_OBS_HISTOGRAM(m.queue_wait_ns,
                       static_cast<double>(t_start - item.enqueue_ns));
    // Expired while queued: a typed timeout, never a stale answer.
    WireError rc =
        expired(item, t_start) ? WireError::kDeadlineExceeded : WireError::kOk;
    std::uint64_t t_done = t_start;
    if (rc == WireError::kOk) {
      if (config_.evaluator) {
        rc = config_.evaluator(item.queries, results, item.deadline_ms);
      } else {
        engine_.evaluate(item.queries, results);
      }
      t_done = now_ns();
      MAIA_OBS_HISTOGRAM(m.evaluate_ns, static_cast<double>(t_done - t_start));
      // Re-checked after evaluation: a slow evaluation must not smuggle
      // results past the frame's deadline.
      if (rc == WireError::kOk && expired(item, t_done)) {
        rc = WireError::kDeadlineExceeded;
      }
    }

    if (rc == WireError::kOk) {
      // Encoded straight into a pooled buffer at its final framed offsets:
      // no payload staging vector, no re-copy at send time.
      PooledBuf buf = pool_.acquire(batch_response_frame_bytes(results.size()));
      encode_batch_response_frame(item.request_id, results.values(),
                                  results.secondary(), results.flags(),
                                  buf.bytes());
      // Count before the response can reach the wire so a client that has
      // seen its reply also sees the served counter reflect it.
      served_.fetch_add(1, std::memory_order_relaxed);
      MAIA_OBS_COUNT(m.served, 1);
      enqueue_out(*item.conn, std::move(buf));
      const std::uint64_t t_sent = now_ns();
      MAIA_OBS_HISTOGRAM(m.encode_ns, static_cast<double>(t_sent - t_done));
      MAIA_OBS_HISTOGRAM(m.total_ns, static_cast<double>(t_sent - item.recv_ns));
    } else {
      // A timeout, or a pluggable evaluator's typed error relayed from
      // upstream; fold it into the closest counter.
      switch (rc) {
        case WireError::kRetryLater:
          rejected_.fetch_add(1, std::memory_order_relaxed);
          MAIA_OBS_COUNT(m.rejected, 1);
          break;
        case WireError::kDraining:
          draining_rejected_.fetch_add(1, std::memory_order_relaxed);
          MAIA_OBS_COUNT(m.draining, 1);
          break;
        case WireError::kDeadlineExceeded:
          timed_out_.fetch_add(1, std::memory_order_relaxed);
          MAIA_OBS_COUNT(m.timed_out, 1);
          break;
        default:
          malformed_.fetch_add(1, std::memory_order_relaxed);
          MAIA_OBS_COUNT(m.malformed, 1);
          break;
      }
      send_error(*item.conn, item.request_id, rc);
    }
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    // The response is already queued (and the reactor woken); this second
    // wake lets a draining reactor see inflight_ reach zero promptly.
    wake();
  }
}

}  // namespace maia::net
