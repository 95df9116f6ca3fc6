// The three serving workloads: wire_small_warm, mixed_churn, routed_warm.
//
// Every run builds its stack from nothing (engine, kernels, grid snapshot,
// partition and load, servers, router, client admission) kSetupReps times
// and reports the median as setup_s; the last stack serves the run.  Load is
// a closed loop: four connections, each sending a frame and waiting for its
// answer before it sends the next.  Every
// response is compared byte for byte with evaluate_serial answers computed
// off the clock.
//
// The traced run adds the layer ledger: one connection with a window of 1
// replays the seed's frames through the rows engine -> codec ->
// server_unix (-> server_tcp -> router_1 -> router_2 on routed_warm), each
// frame through every row in turn, and a layer's cost is the median over
// frames of the difference between adjacent rows.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/registry.hpp"
#include "bench.hpp"
#include "ledger.hpp"
#include "memsim/latency_walker.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "sim/thread_pool.hpp"
#include "svc/engine.hpp"
#include "svc/snapshot.hpp"
#include "sweep_grid.hpp"

namespace stackbench {

namespace {

namespace arch = maia::arch;
namespace net = maia::net;
namespace obs = maia::obs;
namespace svc = maia::svc;
namespace sweepgrid = maia::sweepgrid;
using Bytes = maia::sim::Bytes;

/// A workload's load shape (also recorded in BENCHMARK.json).
struct Shape {
  const char* name;
  int connections;
  std::size_t frame_min, frame_max;
  std::size_t novel_per_frame;  ///< off-grid keys per frame; 0 = grid only
  bool routed;
  std::size_t pool_frames;      ///< pre-generated frames per connection
};

// routed_warm keeps round trips short (96-384-query frames).  Every routed
// frame waits for both backends, so a few-ms stall of one thread on its
// path (the host taking a vCPU away) delays every frame in flight.  On a
// 4-vCPU VM, at ~2 ms per frame (256-1024 queries, window 4) that was over
// 1% of frames and doubled p99; at ~0.35 ms it moves p99 by a quarter at
// most.
constexpr Shape kShapes[] = {
    {"wire_small_warm", 4, 16, 64, 0, false, 512},
    {"mixed_churn", 4, 4096, 4096, 64, false, 16},
    {"routed_warm", 4, 96, 384, 0, true, 256},
};

constexpr int kSetupReps = 5;
constexpr int kServerWorkers = 2;   // maia_serve's default
constexpr int kBackendWorkers = 1;  // keeps routed_warm near nproc threads
/// mixed_churn registers this many kernel variants past the eight NPB
/// kernels: the off-grid exec key space.
constexpr std::size_t kExtraKernels = 1016;
/// mixed_churn's cache: 8 shards x 16 Ki entries, filled at start by the
/// grid plus kFillerKeys off-grid keys, so novel keys evict.
constexpr int kChurnShards = 8;
constexpr std::size_t kChurnShardCapacity = 16384;
constexpr std::size_t kFillerKeys = 24576;
/// Novel-key streams: one per connection plus the ledger replay.
constexpr std::uint64_t kStreams = 5;
/// The traced run warns when the ledger misses the client total by more.
constexpr double kLedgerTolerance = 0.25;
/// Untraced/traced phase pairs the tracing overhead is the median over.
constexpr int kOverheadPairs = 3;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------ novel keys

/// Off-grid keys for mixed_churn.  Each kind has its own index space, and
/// each index maps to a canonical key no other index and no grid query
/// has, so a novel key misses the first time it is asked.  The spaces are
/// sized so that a run of 16 s at twice the rate measured on a 4-vCPU VM
/// draws no index twice:
///   latency    working sets 16 KiB + 1 .. 272 KiB other than the grid's
///              power-of-two rungs, at 4 or 5 iterations (the grid's 4
///              and one more), 2^19 per device;
///   collective odd message sizes off the grid's 44-size ladder (the
///              filler keys use even sizes);
///   exec       the kExtraKernels variants x every device x thread count.
class NovelKeys {
 public:
  NovelKeys(const arch::NodeTopology& node, std::uint64_t seed)
      : seed_(splitmix(seed)) {
    for (const Bytes b : sweepgrid::message_sizes()) rungs_.push_back(b);
    for (int d = 0; d < 3; ++d) {
      threads_[d] = static_cast<std::uint64_t>(
          node.device(static_cast<arch::DeviceId>(d)).total_threads());
      exec_space_ += kExtraKernels * threads_[d];
    }
    exec_mult_ = 1000003;
    while (std::gcd(exec_mult_, exec_space_) != 1) exec_mult_ += 2;
  }

  static constexpr std::uint64_t kLatencySpace = 3ull << 19;
  static constexpr std::uint64_t kCollectiveSpace = 1ull << 21;
  std::uint64_t exec_space() const { return exec_space_; }

  svc::Query latency(std::uint64_t i) const {
    constexpr std::uint64_t mask = (1ull << 19) - 1;
    const std::uint64_t x = (((i / 3) + seed_) * 0x9e3779b1ull) & mask;
    svc::LatencyQuery q;
    q.device = static_cast<arch::DeviceId>(i % 3);
    q.working_set = 16385 + (x >> 1);
    if (std::has_single_bit(q.working_set)) {
      q.working_set += mask;  // a grid rung: move it above the range
    }
    q.iterations = static_cast<std::uint16_t>(4 + (x & 1));
    return svc::Query::of(q);
  }

  svc::Query collective(std::uint64_t i, bool filler) const {
    static constexpr svc::CollectiveOp kOps[] = {
        svc::CollectiveOp::kSendrecvRing, svc::CollectiveOp::kBcast,
        svc::CollectiveOp::kAllreduce,    svc::CollectiveOp::kAllgather,
        svc::CollectiveOp::kAlltoall,     svc::CollectiveOp::kReduce,
        svc::CollectiveOp::kGather,       svc::CollectiveOp::kScatter,
        svc::CollectiveOp::kCrossP2P};
    Bytes bytes = filler ? 18 + 2 * i : 17 + 2 * ((i + seed_) % kCollectiveSpace);
    if (std::find(rungs_.begin(), rungs_.end(), bytes) != rungs_.end()) {
      bytes += Bytes{1} << 23;  // above every ladder size and every index
    }
    const std::uint64_t h = splitmix(seed_ ^ (i << 1) ^ (filler ? 1 : 0));
    svc::CollectiveQuery q;
    q.op = kOps[h % 9];
    q.device = static_cast<arch::DeviceId>((h >> 8) % 3);
    q.ranks = static_cast<std::uint16_t>(1 + (h >> 16) % 240);
    q.message_bytes = bytes;
    q.stack = (h >> 32) & 1 ? maia::fabric::SoftwareStack::kPreUpdate
                            : maia::fabric::SoftwareStack::kPostUpdate;
    return svc::Query::of(q);
  }

  svc::Query exec(std::uint64_t i) const {
    std::uint64_t k = ((i + seed_) % exec_space_) * exec_mult_ % exec_space_;
    int d = 0;
    while (k >= kExtraKernels * threads_[d]) k -= kExtraKernels * threads_[d++];
    svc::ExecQuery q;
    q.device = static_cast<arch::DeviceId>(d);
    q.kernel = static_cast<std::uint16_t>(8 + k / threads_[d]);
    q.threads = static_cast<std::uint16_t>(1 + k % threads_[d]);
    return svc::Query::of(q);
  }

 private:
  std::uint64_t seed_;
  std::vector<Bytes> rungs_;
  std::uint64_t threads_[3] = {1, 1, 1};
  std::uint64_t exec_space_ = 0;
  std::uint64_t exec_mult_ = 1;
};

/// A stream's position in each kind's index space.  Stream s takes
/// indices s, s + kStreams, s + 2 kStreams, ... so streams never collide.
struct NovelCursor {
  std::uint64_t stream = 0;
  std::uint64_t lat = 0, coll = 0, exec = 0;
  std::uint64_t wraps = 0;  ///< indices past a kind's space (keys repeat)
};

/// Novel slots sit every `stride` queries; their kinds follow the slot's
/// ordinal: 1/4 latency, 5/8 collective, 1/8 exec.
void fill_novel(const NovelKeys& keys, NovelCursor& c, std::size_t stride,
                std::vector<svc::Query>& q) {
  const std::size_t slots = q.size() / stride;
  for (std::size_t k = 0; k < slots; ++k) {
    const std::size_t kind = k * 8 / slots;
    svc::Query& out = q[k * stride];
    std::uint64_t idx;
    if (kind < 2) {
      idx = (c.lat++) * kStreams + c.stream;
      c.wraps += idx >= NovelKeys::kLatencySpace;
      out = keys.latency(idx);
    } else if (kind < 7) {
      idx = (c.coll++) * kStreams + c.stream;
      c.wraps += idx >= NovelKeys::kCollectiveSpace;
      out = keys.collective(idx, false);
    } else {
      idx = (c.exec++) * kStreams + c.stream;
      c.wraps += idx >= keys.exec_space();
      out = keys.exec(idx);
    }
  }
}

// ------------------------------------------------------ engines, frames

/// The workload's engine.  A `reference` engine only answers with
/// evaluate_serial, which never touches the cache, so it gets the smallest
/// one and the harness's reference answers stay out of peak_rss_mb.
std::unique_ptr<svc::QueryEngine> make_engine(const Shape& shape, bool reference = false) {
  svc::EngineConfig config;
  if (reference) {
    config.shards = 1;
    config.cache_capacity_per_shard = 1;
  } else if (shape.novel_per_frame > 0) {
    config.shards = kChurnShards;
    config.cache_capacity_per_shard = kChurnShardCapacity;
  }
  auto engine = std::make_unique<svc::QueryEngine>(arch::maia_node(), config);
  const std::vector<maia::npb::NpbWorkload> npb =
      sweepgrid::register_npb_kernels(*engine);
  if (shape.novel_per_frame > 0) {
    for (std::size_t j = 0; j < kExtraKernels; ++j) {
      maia::perf::KernelSignature sig = npb[j % npb.size()].signature;
      sig.name += "/variant" + std::to_string(j);
      sig.flops *= 1.0 + static_cast<double>(j + 1) / 512.0;
      engine->register_kernel(sig);
    }
  }
  return engine;
}

struct PoolFrame {
  std::vector<svc::Query> queries;  ///< novel slots hold grid placeholders
  std::vector<std::uint8_t> expected;  ///< BatchResponse payload (novel slots skipped)
};

/// A frame's novel slots, kept as the cursor they were drawn from plus a
/// digest of the answers received for them, so a run's memory does not
/// grow with its throughput; verify_novel() draws the keys again.
struct NovelCheck {
  NovelCursor from;
  std::size_t frame_size = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of the novel records, in slot order
};

/// The sweep grid with evaluate_serial answers for every query.  Answers
/// are computed once per distinct query (by its 16 wire bytes — the grid
/// repeats each latency query thousands of times) and fanned back out.
struct Grid {
  std::vector<svc::Query> queries;
  std::vector<double> values, secondary;
  std::vector<std::uint32_t> flags;
};

Grid build_reference_grid(const svc::QueryEngine& engine) {
  Grid grid;
  std::vector<maia::npb::NpbWorkload> npb;
  for (const maia::npb::Benchmark b : maia::npb::all_benchmarks()) {
    npb.push_back(maia::npb::class_c_workload(b));
  }
  grid.queries = sweepgrid::build_grid(npb, 1).queries;
  const std::vector<std::uint8_t> wire = net::encode_batch_request(grid.queries);
  struct KeyHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k) const {
      return splitmix(k.first ^ splitmix(k.second));
    }
  };
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t, KeyHash>
      first_of;
  first_of.reserve(grid.queries.size());
  std::vector<std::uint32_t> rep_of(grid.queries.size());
  std::vector<svc::Query> reps;
  for (std::size_t i = 0; i < grid.queries.size(); ++i) {
    std::pair<std::uint64_t, std::uint64_t> key;
    std::memcpy(&key.first, wire.data() + 8 + 16 * i, 8);
    std::memcpy(&key.second, wire.data() + 16 + 16 * i, 8);
    const auto [it, fresh] =
        first_of.emplace(key, static_cast<std::uint32_t>(reps.size()));
    if (fresh) reps.push_back(grid.queries[i]);
    rep_of[i] = it->second;
  }
  svc::BatchResults ref;
  engine.evaluate_serial(reps, ref);
  const std::size_t n = grid.queries.size();
  grid.values.resize(n);
  grid.secondary.resize(n);
  grid.flags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    grid.values[i] = ref.values()[rep_of[i]];
    grid.secondary[i] = ref.secondary()[rep_of[i]];
    grid.flags[i] = ref.flags()[rep_of[i]];
  }
  return grid;
}

std::size_t novel_stride(const Shape& shape, std::size_t frame_size) {
  return shape.novel_per_frame ? frame_size / shape.novel_per_frame : 0;
}

/// Per-connection frame pools: sizes uniform in [frame_min, frame_max],
/// queries drawn uniformly from the full grid, all from the seed.
std::vector<std::vector<PoolFrame>> build_pools(const Shape& shape, const Grid& grid,
                                                std::uint64_t seed,
                                                std::uint64_t* hash) {
  std::vector<std::vector<PoolFrame>> pools(static_cast<std::size_t>(shape.connections));
  std::vector<double> v, s;
  std::vector<std::uint32_t> f;
  for (std::size_t c = 0; c < pools.size(); ++c) {
    std::mt19937_64 rng(splitmix(seed * 0x100 + c));
    std::uniform_int_distribution<std::size_t> size_of(shape.frame_min, shape.frame_max);
    std::uniform_int_distribution<std::size_t> pick(0, grid.queries.size() - 1);
    for (std::size_t k = 0; k < shape.pool_frames; ++k) {
      PoolFrame frame;
      const std::size_t n = size_of(rng);
      v.clear();
      s.clear();
      f.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = pick(rng);
        frame.queries.push_back(grid.queries[g]);
        v.push_back(grid.values[g]);
        s.push_back(grid.secondary[g]);
        f.push_back(grid.flags[g]);
      }
      frame.expected = net::encode_batch_response(v, s, f);
      const std::vector<std::uint8_t> wire = net::encode_batch_request(frame.queries);
      *hash = fnv1a(wire.data(), wire.size(), *hash);
      pools[c].push_back(std::move(frame));
    }
  }
  return pools;
}

/// Compare a response payload with the frame's expectation.  Novel slots
/// (every `stride`-th record, stride 0 = none) have no precomputed answer;
/// their records are folded into `*novel_digest` for verify_novel().
bool check_payload(const PoolFrame& frame, std::span<const std::uint8_t> payload,
                   std::size_t stride, std::uint64_t* novel_digest) {
  if (payload.size() != frame.expected.size()) return false;
  if (stride == 0) {
    return std::memcmp(payload.data(), frame.expected.data(), payload.size()) == 0;
  }
  if (std::memcmp(payload.data(), frame.expected.data(), 8) != 0) return false;
  const std::size_t n = frame.queries.size();
  std::uint64_t digest = fnv1a(nullptr, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = 8 + i * net::kWireResultBytes;
    if (i % stride == 0 && i / stride < n / stride) {
      digest = fnv1a(payload.data() + at, net::kWireResultBytes, digest);
    } else if (std::memcmp(payload.data() + at, frame.expected.data() + at,
                           net::kWireResultBytes) != 0) {
      return false;
    }
  }
  *novel_digest = digest;
  return true;
}

/// Draw every checked frame's novel keys again, answer them with
/// evaluate_serial (one reference engine per thread), and compare
/// digests.  Returns the number of frames whose novel answers differ.
std::uint64_t verify_novel(const Shape& shape, const NovelKeys* keys,
                           const std::vector<NovelCheck>& checks) {
  // As many threads as the load had connections (at most nproc).
  const auto nthreads = static_cast<std::size_t>(shape.connections);
  if (keys == nullptr || checks.empty()) return 0;
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      const std::unique_ptr<svc::QueryEngine> ref = make_engine(shape, /*reference=*/true);
      std::vector<svc::Query> frame, novel;
      svc::BatchResults out;
      for (std::size_t i = checks.size() * t / nthreads;
           i < checks.size() * (t + 1) / nthreads; ++i) {
        const NovelCheck& check = checks[i];
        NovelCursor cursor = check.from;
        const std::size_t stride = novel_stride(shape, check.frame_size);
        frame.assign(check.frame_size, svc::Query{});
        fill_novel(*keys, cursor, stride, frame);
        novel.clear();
        for (std::size_t k = 0; k < check.frame_size / stride; ++k) {
          novel.push_back(frame[k * stride]);
        }
        ref->evaluate_serial(novel, out);
        const std::vector<std::uint8_t> payload =
            net::encode_batch_response(out.values(), out.secondary(), out.flags());
        if (fnv1a(payload.data() + 8, payload.size() - 8) != check.digest) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return wrong.load();
}

// ------------------------------------------------------------------ stack

/// A loopback TCP port nobody listens on right now.
int free_tcp_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  int port = -1;
  if (fd >= 0 && ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  if (fd >= 0) ::close(fd);
  return port;
}

/// Everything a serving workload runs on.  Members are declared in
/// dependency order, so destruction closes the clients first, then drains
/// the front server, the router pool, the backends, and the engines.
struct Stack {
  std::vector<std::unique_ptr<svc::QueryEngine>> backend_engines;
  std::vector<std::unique_ptr<net::Server>> backends;
  std::vector<std::string> backend_addrs;
  std::unique_ptr<svc::QueryEngine> engine;  ///< served (direct) or router reference
  std::unique_ptr<net::RouterPool> pool;
  std::unique_ptr<net::Server> server;
  std::string address;
  std::vector<std::unique_ptr<net::Client>> clients;
  double load_s = 0.0, partition_s = 0.0;
  std::uint64_t records = 0;
};

std::unique_ptr<net::Server> start_server(svc::QueryEngine& engine,
                                          net::ServerConfig config, std::string* error) {
  auto server = std::make_unique<net::Server>(engine, std::move(config));
  if (!server->start(error)) return nullptr;
  return server;
}

/// Build the workload's stack from nothing; false with a reason.
bool build_stack(const Shape& shape, const Options& opts,
                 const std::vector<svc::Query>& grid, const NovelKeys* novel,
                 Stack& st, std::string* error) {
  const std::string snap = opts.work_dir + "/grid.snap";
  {
    // The cold grid evaluation fans out over nproc workers, as a server
    // warming itself would.
    maia::sim::ThreadPool pool(static_cast<int>(opts.nproc));
    const std::unique_ptr<svc::QueryEngine> warmer = make_engine(shape);
    svc::BatchResults answers;
    if (novel != nullptr) {
      std::vector<svc::Query> filler;
      for (std::size_t i = 0; i < kFillerKeys; ++i) {
        filler.push_back(novel->collective(i, /*filler=*/true));
      }
      warmer->evaluate(filler, answers, &pool);
    }
    warmer->evaluate(grid, answers, &pool);
    if (!warmer->save_snapshot(snap).ok()) {
      *error = "cannot save " + snap;
      return false;
    }
  }
  auto load = [&](svc::QueryEngine& engine, const std::string& path) {
    const auto t0 = Clock::now();
    const svc::SnapshotLoadResult r = engine.load_snapshot(path);
    st.load_s += seconds_since(t0);
    st.records += r.records_loaded;
    if (!r.ok()) *error = path + ": " + svc::snapshot_error_name(r.error);
    return r.ok();
  };

  st.engine = make_engine(shape);
  net::ServerConfig front;
  front.socket_path = "unix:" + opts.work_dir + "/serve.sock";
  front.workers = kServerWorkers;
  if (!shape.routed) {
    if (!load(*st.engine, snap)) return false;
  } else {
    const std::vector<std::string> halves = {opts.work_dir + "/shard0.snap",
                                             opts.work_dir + "/shard1.snap"};
    const auto t0 = Clock::now();
    const svc::PartitionResult part = svc::partition_snapshot(snap, halves);
    st.partition_s = seconds_since(t0);
    if (!part.ok()) {
      *error = "partition failed";
      return false;
    }
    for (std::size_t i = 0; i < halves.size(); ++i) {
      st.backend_engines.push_back(make_engine(shape));
      if (!load(*st.backend_engines.back(), halves[i])) return false;
      net::ServerConfig backend;
      backend.socket_path = "tcp:127.0.0.1:" + std::to_string(free_tcp_port());
      backend.workers = kBackendWorkers;
      backend.shard_index = static_cast<int>(i);
      backend.shard_count = static_cast<int>(halves.size());
      st.backend_addrs.push_back(backend.socket_path);
      st.backends.push_back(start_server(*st.backend_engines.back(), backend, error));
      if (!st.backends.back()) return false;
    }
    net::RouterConfig rc;
    rc.backends = st.backend_addrs;
    st.pool = std::make_unique<net::RouterPool>(*st.engine, rc, kServerWorkers);
    if (!st.pool->connect_all(error)) return false;
    net::RouterPool* pool = st.pool.get();
    front.evaluator = [pool](std::span<const svc::Query> q, svc::BatchResults& out,
                             std::uint32_t deadline_ms) {
      return pool->evaluate(q, out, deadline_ms);
    };
  }
  st.address = front.socket_path;
  st.server = start_server(*st.engine, front, error);
  if (!st.server) return false;
  for (int c = 0; c < shape.connections; ++c) {
    st.clients.push_back(std::make_unique<net::Client>());
    if (!st.clients.back()->connect(st.address, error) ||
        !st.clients.back()->ping().ok()) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ load phase

/// Slices of each timed window; qps, p50 and p99 are medians over them.
constexpr std::size_t kSlices = 5;

struct ConnLog {
  /// Latency (ms) and queries of frames sent and answered inside the window.
  Slices window;
  std::vector<double> pass_s;  ///< one full pass over the connection's pool
  std::uint64_t attempted = 0, failed = 0, wrong = 0, retry_later = 0;
  std::vector<NovelCheck> novel;
};

/// Closed-loop load of one connection, as maia_client, client.py and the
/// router keep it: send a frame, wait for its answer, and send the next,
/// until `t1`.  RETRY_LATER resends the same frame and is not a failure.
void drive(net::Client& client, const std::vector<PoolFrame>& pool, const Shape& shape,
           const NovelKeys* keys, NovelCursor& cursor, Clock::time_point t0,
           Clock::time_point t1, bool traced, ConnLog& log) {
  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<svc::Query> queries;
  std::vector<std::uint8_t> request;
  std::optional<Clock::time_point> pass_start;
  for (std::uint64_t id = 1; Clock::now() < t1; ++id) {
    const PoolFrame& f = pool[(id - 1) % pool.size()];
    queries.assign(f.queries.begin(), f.queries.end());
    const NovelCursor novel_from = cursor;
    const std::size_t stride = keys ? novel_stride(shape, queries.size()) : 0;
    if (keys != nullptr) fill_novel(*keys, cursor, stride, queries);
    net::encode_batch_request_frame(id, 0, queries, request);
    ++log.attempted;
    const Clock::time_point sent = Clock::now();
    const std::uint64_t trace_ns = traced ? tracer.now_ns() : 0;
    std::optional<net::Frame> frame;
    for (;;) {
      if (!client.send_raw(request) || !(frame = client.read_frame())) {
        ++log.failed;  // the connection is gone
        return;
      }
      if (frame->header.type != net::FrameType::kError ||
          net::decode_error(frame->payload) != net::WireError::kRetryLater) {
        break;
      }
      ++log.retry_later;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const Clock::time_point now = Clock::now();
    std::uint64_t digest = 0;
    if (frame->header.type == net::FrameType::kError) {
      ++log.failed;
    } else if (frame->header.type != net::FrameType::kBatchResponse ||
               frame->header.request_id != id ||
               !check_payload(f, frame->payload, stride, &digest)) {
      ++log.wrong;
    } else {
      if (stride != 0) log.novel.push_back({novel_from, queries.size(), digest});
      if (sent >= t0 && now <= t1) {
        log.window.add(std::chrono::duration<double>(now - t0).count(),
                       std::chrono::duration<double, std::milli>(now - sent).count(),
                       static_cast<double>(queries.size()));
      }
    }
    if (traced) {
      tracer.record("frame", "client", trace_ns, tracer.now_ns() - trace_ns,
                    "{\"request_id\": " + std::to_string(id) + "}");
    }
    if (id % pool.size() == 0 && now >= t0 && now <= t1) {
      if (pass_start) {
        log.pass_s.push_back(std::chrono::duration<double>(now - *pass_start).count());
      }
      pass_start = now;
    }
  }
}

struct Phase {
  ConnLog total;
  Slices::Summary summary;
};

Phase run_load(Stack& st, const Shape& shape,
               const std::vector<std::vector<PoolFrame>>& pools, const NovelKeys* keys,
               std::vector<NovelCursor>& cursors, double warm_s, double timed_s,
               bool traced) {
  const Slices empty(kSlices, timed_s / static_cast<double>(kSlices));
  std::vector<ConnLog> logs(pools.size(), ConnLog{empty, {}, 0, 0, 0, 0, {}});
  const Clock::time_point t0 =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warm_s));
  const Clock::time_point t1 =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(timed_s));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < pools.size(); ++c) {
    threads.emplace_back([&, c] {
      drive(*st.clients[c], pools[c], shape, keys, cursors[c], t0, t1, traced, logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase{ConnLog{empty, {}, 0, 0, 0, 0, {}}, {}};
  for (ConnLog& log : logs) {
    ConnLog& t = phase.total;
    t.window.merge(log.window);
    t.pass_s.insert(t.pass_s.end(), log.pass_s.begin(), log.pass_s.end());
    t.novel.insert(t.novel.end(), log.novel.begin(), log.novel.end());
    t.attempted += log.attempted;
    t.failed += log.failed;
    t.wrong += log.wrong;
    t.retry_later += log.retry_later;
  }
  phase.total.wrong += verify_novel(shape, keys, phase.total.novel);
  phase.total.novel.clear();
  phase.summary = phase.total.window.summarize();
  return phase;
}

// ---------------------------------------------------------------- ledger

struct RowOut {
  svc::BatchResults batch;                  ///< engine and router rows
  std::optional<std::vector<net::WireResult>> wire;  ///< codec and socket rows
};

/// Byte-compare a row's answers with the frame's expectation (novel slots
/// are digested as in check_payload).
bool check_row(const PoolFrame& frame, const RowOut& out, bool from_wire,
               std::size_t stride, std::uint64_t* novel_digest) {
  std::vector<std::uint8_t> payload;
  if (from_wire) {
    if (!out.wire.has_value()) return false;
    std::vector<double> v, s;
    std::vector<std::uint32_t> f;
    for (const net::WireResult& r : *out.wire) {
      v.push_back(r.value);
      s.push_back(r.secondary);
      f.push_back(r.flags);
    }
    payload = net::encode_batch_response(v, s, f);
  } else {
    payload = net::encode_batch_response(out.batch.values(), out.batch.secondary(),
                                         out.batch.flags());
  }
  return check_payload(frame, payload, stride, novel_digest);
}

/// A client round trip over `client` with window 1.
bool round_trip(net::Client& client, std::span<const svc::Query> q,
                std::vector<std::uint8_t>& buf, RowOut& out) {
  net::encode_batch_request_frame(1, 0, q, buf);
  if (!client.send_raw(buf)) return false;
  const std::optional<net::Frame> f = client.read_frame();
  if (!f || f->header.type != net::FrameType::kBatchResponse) return false;
  out.wire = net::decode_batch_response(f->payload);
  return out.wire.has_value();
}

struct Row {
  const char* name;
  bool from_wire;
  std::function<bool(std::span<const svc::Query>, RowOut&)> call;
};

// ---------------------------------------------------------------- metrics

obs::HistogramData hist_delta(const obs::MetricsSnapshot& before,
                              const obs::MetricsSnapshot& after, const char* name) {
  obs::HistogramData d;
  const obs::HistogramData* a = after.histogram(name);
  if (a == nullptr) return d;
  d = *a;
  if (const obs::HistogramData* b = before.histogram(name)) {
    for (std::size_t i = 0; i < d.counts.size() && i < b->counts.size(); ++i) {
      d.counts[i] -= b->counts[i];
    }
    d.total -= b->total;
    d.sum -= b->sum;
  }
  return d;
}

svc::EngineStats engine_stats(const Stack& st) {
  if (st.backend_engines.empty()) return st.engine->stats();
  svc::EngineStats sum;
  for (const auto& e : st.backend_engines) {
    const svc::EngineStats s = e->stats();
    sum.queries += s.queries;
    sum.cache_hits += s.cache_hits;
    sum.evictions += s.evictions;
    sum.lockfree_hits += s.lockfree_hits;
    sum.read_retries += s.read_retries;
    sum.lock_acquisitions += s.lock_acquisitions;
    sum.lock_wait_ns += s.lock_wait_ns;
    sum.promotions += s.promotions;
  }
  return sum;
}

net::ServerStats server_stats(const Stack& st) {
  net::ServerStats sum = st.server->stats();
  for (const auto& b : st.backends) {
    const net::ServerStats s = b->stats();
    sum.rejected += s.rejected;
    sum.bufpool_allocations += s.bufpool_allocations;
    sum.bufpool_reuses += s.bufpool_reuses;
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

unsigned generator_threads(const std::string& workload) {
  for (const Shape& s : kShapes) {
    if (workload == s.name) return static_cast<unsigned>(s.connections);
  }
  return 0;
}

RunResult run_serving(const Options& opts) {
  RunResult res;
  const Shape* shape_ptr = nullptr;
  for (const Shape& s : kShapes) {
    if (opts.workload == s.name) shape_ptr = &s;
  }
  const Shape& shape = *shape_ptr;

  // Inputs and reference answers: off the clock.
  const Grid grid = build_reference_grid(*make_engine(shape, /*reference=*/true));
  std::optional<NovelKeys> novel;
  if (shape.novel_per_frame > 0) novel.emplace(arch::maia_node(), opts.seed);
  const NovelKeys* keys = novel ? &*novel : nullptr;
  const std::vector<std::vector<PoolFrame>> pools =
      build_pools(shape, grid, opts.seed, &res.frames_hash);
  std::vector<NovelCursor> cursors(kStreams);
  for (std::uint64_t s = 0; s < kStreams; ++s) cursors[s].stream = s;
  if (keys != nullptr) {  // the novel key stream is part of the input too
    for (std::uint64_t i = 0; i < 64; ++i) {
      const svc::Query q[3] = {keys->latency(i), keys->collective(i, false), keys->exec(i)};
      const std::vector<std::uint8_t> wire = net::encode_batch_request(q);
      res.frames_hash = fnv1a(wire.data(), wire.size(), res.frames_hash);
    }
  }

  // Set-up, kSetupReps times from nothing; the last stack serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    maia::mem::clear_walk_memo();
    std::string error;
    auto fresh = std::make_unique<Stack>();
    const auto t0 = Clock::now();
    if (!build_stack(shape, opts, grid.queries, keys, *fresh, &error)) {
      res.notes.push_back("set-up failed: " + error);
      return res;
    }
    setup_s.push_back(seconds_since(t0));
    st = std::move(fresh);
  }

  const double warm_s = std::min(1.0, 0.1 * opts.seconds);
  if (!opts.trace) {
    const Phase p = run_load(*st, shape, pools, keys, cursors, warm_s, opts.seconds, false);
    const ConnLog& t = p.total;
    res.attempted = t.attempted;
    res.failed = t.failed + t.wrong;
    res.correct = t.wrong == 0;
    const Slices::Summary& w = p.summary;
    res.notes.push_back("frames " + std::to_string(t.attempted) + ", failed_share " +
                        std::to_string(failed_share(t.attempted, t.failed, 0, t.wrong)) +
                        ", retry_later " + std::to_string(t.retry_later));
    if (!w.ok || t.pass_s.empty()) {
      res.notes.push_back("too few frames for a supported p99 and a full pass");
      res.attempted = 0;
      return res;
    }
    res.notes.push_back("latency_p99_ms: median of " + std::to_string(kSlices) +
                        " slice p99s over " + std::to_string(w.samples) +
                        " frames, >= " + std::to_string(w.min_beyond) + " beyond each");
    std::uint64_t wraps = 0;
    for (const NovelCursor& c : cursors) wraps += c.wraps;
    if (wraps) {
      res.notes.push_back("WARNING: " + std::to_string(wraps) +
                          " novel keys repeated (index space exhausted)");
    }
    res.set("qps", w.rate);
    res.set("latency_p50_ms", w.p50);
    res.set("latency_p99_ms", w.p99);
    res.set("setup_s", median(setup_s));
    res.set("peak_rss_mb", peak_rss_mb());
    res.set("suite_s", median(t.pass_s));
    return res;
  }

  // ---- traced run: counters over an untraced load phase, the tracing
  // overhead, then the ledger rows.
  const auto before_reg = obs::MetricsRegistry::global().snapshot();
  const svc::EngineStats e0 = engine_stats(*st);
  const net::ServerStats s0 = server_stats(*st);
  const net::RouterStats r0 = st->pool ? st->pool->stats() : net::RouterStats{};
  const Phase plain = run_load(*st, shape, pools, keys, cursors, warm_s, 0.3 * opts.seconds, false);
  const auto after_reg = obs::MetricsRegistry::global().snapshot();
  const svc::EngineStats e1 = engine_stats(*st);
  const net::ServerStats s1 = server_stats(*st);
  const net::RouterStats r1 = st->pool ? st->pool->stats() : net::RouterStats{};

  // Tracing overhead: short untraced and traced phases in turn, so a
  // drift of the host's speed lands on both sides; the overhead is the
  // median over pairs of the p50 difference.
  obs::Tracer& tracer = obs::Tracer::global();
  res.attempted = plain.total.attempted;
  res.failed = plain.total.failed + plain.total.wrong;
  std::vector<double> overhead_ms;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double p50[2];
    for (const bool on : {false, true}) {
      tracer.set_enabled(on);
      const Phase ph = run_load(*st, shape, pools, keys, cursors, 0.0,
                                0.15 * opts.seconds / (2 * kOverheadPairs), on);
      tracer.set_enabled(false);
      res.attempted += ph.total.attempted;
      res.failed += ph.total.failed + ph.total.wrong;
      p50[on] = ph.summary.p50;
    }
    overhead_ms.push_back(p50[1] - p50[0]);
  }
  tracer.clear();

  // Ledger rows.  Direct workloads cross engine -> codec -> server_unix;
  // routed_warm also crosses TCP and the router, and its client talks to
  // the front server, so it needs a full-grid engine with unix and TCP
  // servers of its own for the lower rows.
  std::unique_ptr<svc::QueryEngine> local_engine;
  std::unique_ptr<net::Server> unix_server, tcp_server;
  std::unique_ptr<net::Router> router1, router2;
  net::Client unix_client, tcp_client, front_client;
  svc::QueryEngine* row_engine = st->engine.get();
  std::string error;
  if (shape.routed) {
    local_engine = make_engine(shape);
    if (!local_engine->load_snapshot(opts.work_dir + "/grid.snap").ok()) {
      res.notes.push_back("ledger engine warm-load failed");
      res.attempted = 0;
      return res;
    }
    row_engine = local_engine.get();
    net::ServerConfig uc, tc;
    uc.socket_path = "unix:" + opts.work_dir + "/ledger.sock";
    tc.socket_path = "tcp:127.0.0.1:" + std::to_string(free_tcp_port());
    uc.workers = tc.workers = kServerWorkers;
    unix_server = start_server(*local_engine, uc, &error);
    tcp_server = start_server(*local_engine, tc, &error);
    net::RouterConfig one, two;
    one.backends = {tc.socket_path};
    two.backends = st->backend_addrs;
    if (unix_server && tcp_server) {
      router1 = std::make_unique<net::Router>(*st->engine, one);
      router2 = std::make_unique<net::Router>(*st->engine, two);
    }
    if (!router1 || !router1->connect(&error) || !router2->connect(&error) ||
        !unix_client.connect(uc.socket_path, &error) ||
        !tcp_client.connect(tc.socket_path, &error) ||
        !front_client.connect(st->address, &error)) {
      res.notes.push_back("ledger stack failed: " + error);
      res.attempted = 0;
      return res;
    }
  } else if (!unix_client.connect(st->address, &error)) {
    res.notes.push_back("ledger client failed: " + error);
    res.attempted = 0;
    return res;
  }

  std::vector<std::uint8_t> req_buf, resp_buf;
  std::vector<svc::Query> decoded;
  net::FrameParser server_parser, client_parser;
  net::Frame parsed;
  svc::BatchResults codec_batch;
  std::vector<Row> rows = {
      {"engine", false,
       [&](std::span<const svc::Query> q, RowOut& out) {
         row_engine->evaluate(q, out.batch);
         return true;
       }},
      {"codec", true,
       [&](std::span<const svc::Query> q, RowOut& out) {
         net::encode_batch_request_frame(1, 0, q, req_buf);
         server_parser.feed(req_buf);
         if (server_parser.next(parsed) != net::FrameParser::Status::kFrame ||
             net::decode_batch_request(parsed.payload, decoded) != net::WireError::kOk) {
           return false;
         }
         row_engine->evaluate(decoded, codec_batch);
         net::encode_batch_response_frame(1, codec_batch.values(), codec_batch.secondary(),
                                          codec_batch.flags(), resp_buf);
         client_parser.feed(resp_buf);
         if (client_parser.next(parsed) != net::FrameParser::Status::kFrame) return false;
         out.wire = net::decode_batch_response(parsed.payload);
         return out.wire.has_value();
       }},
      {"server_unix", true,
       [&](std::span<const svc::Query> q, RowOut& out) {
         return round_trip(unix_client, q, req_buf, out);
       }},
  };
  if (shape.routed) {
    rows.push_back({"server_tcp", true, [&](std::span<const svc::Query> q, RowOut& out) {
                      return round_trip(tcp_client, q, req_buf, out);
                    }});
    rows.push_back({"router_1", false, [&](std::span<const svc::Query> q, RowOut& out) {
                      return router1->evaluate(q, out.batch) == net::WireError::kOk;
                    }});
    rows.push_back({"router_2", false, [&](std::span<const svc::Query> q, RowOut& out) {
                      return router2->evaluate(q, out.batch) == net::WireError::kOk;
                    }});
    rows.push_back({"front", true, [&](std::span<const svc::Query> q, RowOut& out) {
                      return round_trip(front_client, q, req_buf, out);
                    }});
  }

  // Replay the seed's frames (connection pools interleaved), each frame
  // through every row in a seeded random order (so no row always runs on
  // caches the previous one warmed); novel slots get fresh keys at every
  // row.
  std::mt19937_64 row_rng(splitmix(opts.seed));
  std::vector<std::size_t> row_order(rows.size());
  std::iota(row_order.begin(), row_order.end(), 0);
  tracer.set_enabled(true);
  std::vector<LedgerRow> ledger_rows(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) ledger_rows[r].name = rows[r].name;
  std::vector<NovelCheck> novel_checks;
  std::vector<svc::Query> q;
  RowOut out;
  std::uint64_t row_wrong = 0, row_frames = 0;
  const auto t_rows = Clock::now();
  for (std::size_t f = 0; seconds_since(t_rows) < 0.5 * opts.seconds; ++f) {
    const PoolFrame& frame = pools[f % pools.size()][(f / pools.size()) % shape.pool_frames];
    const std::size_t stride = keys ? novel_stride(shape, frame.queries.size()) : 0;
    std::shuffle(row_order.begin(), row_order.end(), row_rng);
    for (const std::size_t r : row_order) {
      q.assign(frame.queries.begin(), frame.queries.end());
      const NovelCursor novel_from = cursors[kStreams - 1];
      if (keys != nullptr) fill_novel(*keys, cursors[kStreams - 1], stride, q);
      out.wire.reset();
      const std::uint64_t ts = tracer.now_ns();
      const auto t0 = Clock::now();
      const bool ok = rows[r].call(q, out);
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      tracer.record(rows[r].name, "ledger", ts, tracer.now_ns() - ts,
                    "{\"frame\": " + std::to_string(f) + "}");
      ledger_rows[r].us.push_back(us);
      ++row_frames;
      std::uint64_t digest = 0;
      if (!ok || !check_row(frame, out, rows[r].from_wire, stride, &digest)) {
        ++row_wrong;
      } else if (stride != 0) {
        novel_checks.push_back({novel_from, q.size(), digest});
      }
    }
  }
  tracer.set_enabled(false);
  row_wrong += verify_novel(shape, keys, novel_checks);
  res.attempted += row_frames;
  res.failed += row_wrong;
  res.correct = res.failed == 0;
  const std::string trace_path = opts.trace_dir + "/" + opts.workload + ".json";
  {
    std::ofstream trace_out(trace_path);
    tracer.write_chrome_json(trace_out);
  }
  res.notes.push_back("chrome trace: " + trace_path);

  // The client row is the top of the workload's path; routed_warm's front
  // server is one more unix hop (codec + server) on top of router_2.
  std::vector<double> client_us = ledger_rows.back().us;
  std::vector<LedgerRow> path = ledger_rows;
  std::vector<std::size_t> twice;
  if (shape.routed) {
    path.pop_back();
    twice = {1, 2};
  }
  const Ledger ledger = build_ledger(path, client_us, twice);
  char line[256];
  std::snprintf(line, sizeof line,
                "ledger: client p50 %.2f us, layers sum %.2f us, residual %.1f%% "
                "(tolerance %.0f%%), engine share %.1f%%",
                ledger.client_us, ledger.layers_sum_us, 100 * ledger.residual_share,
                100 * kLedgerTolerance, 100 * ratio(ledger.layer_us[0], ledger.client_us));
  res.notes.push_back(line);
  if (ledger.residual_share > kLedgerTolerance) {
    res.notes.push_back("WARNING: layer rows miss the client total by more than the tolerance");
  }
  static const char* kLayerMetric[] = {
      "engine.us_per_frame", "codec.us_per_frame", "server.us_per_frame",
      "transport.tcp_us_per_frame", "router.us_per_frame", "router.fanout2_us_per_frame"};
  for (std::size_t i = 0; i < ledger.layer_us.size(); ++i) {
    res.set(kLayerMetric[i], ledger.layer_us[i]);
  }
  res.set("ledger.residual_share", ledger.residual_share);

  // Engine, server and router counters over the untraced phase, per 1000
  // queries the engines answered or per 1000 frames the clients sent, so
  // that a faster stack, which gets through more work in the phase, does
  // not read as more of each event.
  const double kqueries = static_cast<double>(e1.queries - e0.queries) / 1e3;
  const double kframes = static_cast<double>(plain.total.attempted) / 1e3;
  auto per = [](std::uint64_t delta, double k) { return ratio(static_cast<double>(delta), k); };
  res.set("engine.hit_rate", ratio(static_cast<double>(e1.cache_hits - e0.cache_hits),
                                   static_cast<double>(e1.queries - e0.queries)));
  res.set("engine.evictions_per_kquery", per(e1.evictions - e0.evictions, kqueries));
  res.set("engine.promotions_per_kquery", per(e1.promotions - e0.promotions, kqueries));
  res.set("engine.lockfree_hit_share",
          ratio(static_cast<double>(e1.lockfree_hits - e0.lockfree_hits),
                static_cast<double>(e1.cache_hits - e0.cache_hits)));
  res.set("engine.lock_acquisitions_per_kquery",
          per(e1.lock_acquisitions - e0.lock_acquisitions, kqueries));
  res.set("engine.lock_wait_us_per_kquery",
          per(e1.lock_wait_ns - e0.lock_wait_ns, kqueries) / 1e3);
  res.set("engine.read_retries_per_kquery", per(e1.read_retries - e0.read_retries, kqueries));

  auto stage_us = [&](const char* name, double q) {
    return hist_delta(before_reg, after_reg, name).percentile(q) / 1e3;
  };
  res.set("server.queue_wait_us.p50", stage_us("net.request.queue_wait_ns", 0.5));
  res.set("server.queue_wait_us.p99", stage_us("net.request.queue_wait_ns", 0.99));
  res.set("server.decode_us.p50", stage_us("net.request.decode_ns", 0.5));
  res.set("server.evaluate_us.p50", stage_us("net.request.evaluate_ns", 0.5));
  res.set("server.encode_us.p50", stage_us("net.request.encode_ns", 0.5));
  res.set("server.total_us.p50", stage_us("net.request.total_ns", 0.5));
  res.set("server.linger_us.p50", stage_us("net.coalesce.linger_ns", 0.5));
  res.set("server.frames_per_evaluation",
          hist_delta(before_reg, after_reg, "net.coalesce.requests").mean());
  res.set("server.retry_later_per_kframe", per(s1.rejected - s0.rejected, kframes));
  const double allocs = static_cast<double>(s1.bufpool_allocations - s0.bufpool_allocations);
  const double reuses = static_cast<double>(s1.bufpool_reuses - s0.bufpool_reuses);
  res.set("server.bufpool_reuse_share", ratio(reuses, allocs + reuses));

  // Codec: CRC over the workload's own request frames, and wire bytes.
  std::vector<std::uint8_t> frames_bytes, one;
  double wire_bytes = 0, wire_queries = 0;
  for (const auto& pool : pools) {
    for (const PoolFrame& frame : pool) {
      net::encode_batch_request_frame(1, 0, frame.queries, one);
      if (frames_bytes.size() < (8u << 20)) {
        frames_bytes.insert(frames_bytes.end(), one.begin(), one.end());
      }
      wire_bytes += static_cast<double>(
          one.size() + net::batch_response_frame_bytes(frame.queries.size()));
      wire_queries += static_cast<double>(frame.queries.size());
    }
  }
  std::vector<double> crc_ns;
  std::uint32_t crc = 0;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    crc = svc::crc32(frames_bytes.data(), frames_bytes.size(), crc);
    crc_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                     static_cast<double>(frames_bytes.size()));
  }
  res.set("codec.crc_ns_per_byte", median(crc_ns));
  res.set("codec.bytes_per_query", ratio(wire_bytes, wire_queries));

  if (st->pool) {
    std::uint64_t sub = 0;
    double max_q = 0, sum_q = 0;
    for (std::size_t i = 0; i < r1.backends.size(); ++i) {
      sub += r1.backends[i].batches - r0.backends[i].batches;
      const double bq = static_cast<double>(r1.backends[i].queries - r0.backends[i].queries);
      max_q = std::max(max_q, bq);
      sum_q += bq;
    }
    res.set("router.subbatches_per_frame",
            ratio(static_cast<double>(sub), static_cast<double>(r1.batches - r0.batches)));
    res.set("router.retries_per_kframe", per(r1.retries - r0.retries, kframes));
    res.set("router.resprayed_per_kframe", per(r1.resprayed - r0.resprayed, kframes));
    res.set("router.backend_imbalance",
            ratio(max_q, sum_q / static_cast<double>(r1.backends.size())));
  }
  res.set("snapshot.load_s", st->load_s);
  res.set("snapshot.partition_s", st->partition_s);
  res.set("snapshot.records", static_cast<double>(st->records));
  res.set("trace.overhead_p50_ms", median(overhead_ms));
  return res;
}

}  // namespace stackbench
