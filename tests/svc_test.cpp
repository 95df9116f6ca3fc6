// Tests for the batch prediction service: the ShardCache's CLOCK
// replacement and backward-shift deletion, query canonicalization and
// cache keying, and the QueryEngine's determinism contract — sharded +
// cached evaluate() must be byte-identical to the naive serial loop, on
// randomized batches, under eviction pressure, and under concurrent
// batches from several threads sharing one engine and pool.
//
// Randomized cases seed from the logged, MAIA_TEST_SEED-overridable base
// seed (tests/test_seed.hpp), so any failure reproduces exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "perf/signature.hpp"
#include "sim/thread_pool.hpp"
#include "svc/engine.hpp"
#include "svc/shard_cache.hpp"
#include "svc/query.hpp"
#include "test_seed.hpp"

namespace maia::svc {
namespace {

// ----------------------------------------------------------- ShardCache ---

CanonicalKey key(std::uint64_t hi, std::uint64_t lo = 0) { return {hi, lo}; }

QueryResult result(double v) {
  QueryResult r;
  r.value = v;
  return r;
}

/// A lock-free probe with the result discarded: membership, and a hit
/// marks the entry referenced.
bool touch(const ShardCache& cache, const CanonicalKey& k, std::uint64_t hash) {
  QueryResult out;
  return cache.probe_read_only(k, hash, out).status ==
         ShardCache::ProbeStatus::kHit;
}

TEST(ShardCacheTest, FindsInsertedEntries) {
  ShardCache cache(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  EXPECT_EQ(cache.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    QueryResult r;
    ASSERT_TRUE(cache.find(key(i), hash_key(key(i)), r));
    EXPECT_EQ(r.value, static_cast<double>(i));
  }
  QueryResult r;
  EXPECT_FALSE(cache.find(key(99), hash_key(key(99)), r));
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ShardCacheTest, LockFreeHitEarnsASecondChance) {
  ShardCache cache(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  // A lock-free hit marks key 0, so the hand clears its mark, passes it,
  // and evicts key 1 instead.
  ASSERT_TRUE(touch(cache, key(0), hash_key(key(0))));
  cache.insert(key(4), hash_key(key(4)), result(4.0));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.second_chances(), 1u);
  QueryResult r;
  EXPECT_FALSE(cache.find(key(1), hash_key(key(1)), r));  // evicted
  EXPECT_TRUE(cache.find(key(0), hash_key(key(0)), r));   // spared by the hit
  EXPECT_TRUE(cache.find(key(4), hash_key(key(4)), r));
  // The hand now points at key 2; the snapshot drain's walk starts there.
  std::vector<std::uint64_t> order;
  cache.for_each_in_hand_order(
      [&](const CanonicalKey& k, const QueryResult&) { order.push_back(k.hi); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 0, 4}));
  // The chance is spent: with no new hit, key 0 goes when the hand comes
  // round again, after keys 2 and 3.
  for (std::uint64_t i = 5; i < 8; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  EXPECT_FALSE(cache.find(key(0), hash_key(key(0)), r));
  EXPECT_EQ(cache.second_chances(), 1u);
}

TEST(ShardCacheTest, EvictionStreamKeepsOnlyTheLastCapacityKeys) {
  constexpr std::size_t kCapacity = 8;
  ShardCache cache(kCapacity);
  constexpr std::uint64_t kTotal = 100;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(cache.evictions(), kTotal - kCapacity);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    QueryResult r;
    const bool found = cache.find(key(i), hash_key(key(i)), r);
    if (i < kTotal - kCapacity) {
      EXPECT_FALSE(found) << "key " << i << " should have been evicted";
    } else {
      ASSERT_TRUE(found) << "key " << i << " should be resident";
      EXPECT_EQ(r.value, static_cast<double>(i));
    }
  }
}

TEST(ShardCacheTest, BackwardShiftKeepsCollidingChainsReachable) {
  // All keys share one hash, so they form a single probe chain; evicting
  // from the middle of it exercises backward-shift compaction.  Every
  // find() must still resolve by key comparison alone.
  constexpr std::uint64_t kHash = 5;  // arbitrary; same for all entries
  ShardCache cache(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key(i), kHash, result(static_cast<double>(i)));
  }
  // Touch 0 and 2; inserting two more evicts 1 then 3.
  ASSERT_TRUE(touch(cache, key(0), kHash));
  ASSERT_TRUE(touch(cache, key(2), kHash));
  cache.insert(key(4), kHash, result(4.0));
  cache.insert(key(5), kHash, result(5.0));
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_FALSE(touch(cache, key(1), kHash));
  EXPECT_FALSE(touch(cache, key(3), kHash));
  for (const std::uint64_t i : {0ull, 2ull, 4ull, 5ull}) {
    QueryResult r;
    ASSERT_TRUE(cache.find(key(i), kHash, r))
        << "key " << i << " lost after backward shift";
    EXPECT_EQ(r.value, static_cast<double>(i));
  }
}

TEST(ShardCacheTest, ClearResetsSizeAndEvictions) {
  ShardCache cache(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  EXPECT_GT(cache.evictions(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_FALSE(touch(cache, key(4), hash_key(key(4))));
  cache.insert(key(7), hash_key(key(7)), result(7.0));
  EXPECT_TRUE(touch(cache, key(7), hash_key(key(7))));
}

TEST(ShardCacheTest, ProbeReadOnlyHitsAndMisses) {
  ShardCache cache(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.insert(key(i), hash_key(key(i)),
                 result(static_cast<double>(i) * 0.5));
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    QueryResult r;
    const ShardCache::ProbeResult p =
        cache.probe_read_only(key(i), hash_key(key(i)), r);
    ASSERT_EQ(p.status, ShardCache::ProbeStatus::kHit);
    EXPECT_EQ(p.retries, 0u);  // no concurrent writer: first pass validates
    EXPECT_EQ(r.value, static_cast<double>(i) * 0.5);
  }
  QueryResult r;
  EXPECT_EQ(cache.probe_read_only(key(99), hash_key(key(99)), r).status,
            ShardCache::ProbeStatus::kMiss);
}

TEST(ShardCacheTest, LockedFindGrantsNoSecondChance) {
  // The locked find() (the miss fill's re-probe, the snapshot refill's
  // membership check) leaves the reference byte alone: finding key 0 does
  // not save it, while a lock-free hit on key 1 does.
  ShardCache cache(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  QueryResult r;
  ASSERT_TRUE(cache.find(key(0), hash_key(key(0)), r));
  ASSERT_TRUE(touch(cache, key(1), hash_key(key(1))));
  cache.insert(key(4), hash_key(key(4)), result(4.0));  // evicts 0
  cache.insert(key(5), hash_key(key(5)), result(5.0));  // passes 1, evicts 2
  EXPECT_FALSE(cache.find(key(0), hash_key(key(0)), r));
  EXPECT_TRUE(cache.find(key(1), hash_key(key(1)), r));
  EXPECT_FALSE(cache.find(key(2), hash_key(key(2)), r));
  EXPECT_EQ(cache.second_chances(), 1u);
}

// Scan resistance: at capacity, a stream of one-shot keys (inserted once,
// never probed again) must not push out a hot set that is probed between
// inserts.  One-shot keys enter unmarked, so the hand always evicts one of
// them before it comes round again to a hot key the probes have re-marked.
TEST(ShardCacheTest, OneShotStreamDoesNotEvictAProbedHotSet) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kHot = 16;  // keys 0..15; the rest are one-shot
  constexpr std::uint64_t kStream = 100 * kCapacity;
  ShardCache cache(kCapacity);
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  for (std::uint64_t n = 0; n <= kStream; ++n) {
    for (std::uint64_t h = 0; h < kHot; ++h) {
      QueryResult r;
      ASSERT_EQ(cache.probe_read_only(key(h), hash_key(key(h)), r).status,
                ShardCache::ProbeStatus::kHit)
          << "hot key " << h << " evicted after " << n << " one-shot keys";
      ASSERT_EQ(r.value, static_cast<double>(h));
    }
    if (n == kStream) break;
    const std::uint64_t i = kCapacity + n;  // never seen before
    cache.insert(key(i), hash_key(key(i)), result(static_cast<double>(i)));
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(cache.evictions(), kStream);
  EXPECT_GT(cache.second_chances(), 0u);
}

TEST(ShardCacheTest, EpochOverflowWrapsSafely) {
  // The seqlock epoch is a free-running u64; park it two increments from
  // the wrap point and push a write through it.  Quiescent probes must
  // validate on both sides of the wrap.
  ShardCache cache(4);
  cache.insert(key(1), hash_key(key(1)), result(1.0));
  cache.set_epoch_for_test(~std::uint64_t{1});  // 0xfffffffffffffffe, even
  QueryResult r;
  EXPECT_EQ(cache.probe_read_only(key(1), hash_key(key(1)), r).status,
            ShardCache::ProbeStatus::kHit);
  cache.insert(key(2), hash_key(key(2)), result(2.0));  // odd: ~0, even: 0
  EXPECT_EQ(cache.epoch(), 0u);
  EXPECT_EQ(cache.probe_read_only(key(1), hash_key(key(1)), r).status,
            ShardCache::ProbeStatus::kHit);
  ASSERT_EQ(cache.probe_read_only(key(2), hash_key(key(2)), r).status,
            ShardCache::ProbeStatus::kHit);
  EXPECT_EQ(r.value, 2.0);
}

// The seqlock's actual guarantee, under the adversarial schedule: readers
// probing lock-free while a writer churns evictions at capacity never see
// a torn value.  Every cached result here is a pure function of its key,
// so any hit whose bytes disagree with f(key) is a consistency violation.
// Run under TSan (the CI TSan job) this also proves the probe path
// is race-free in the C++ memory model sense, including the reference
// bytes readers set while the writer's hand clears them.
TEST(ShardCacheTest, SeqlockReadersNeverObserveTornValuesUnderChurn) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kKeySpace = 256;  // 4x capacity: constant eviction
  const auto value_of = [](std::uint64_t i) {
    return static_cast<double>(i) * 1.5 + 0.25;
  };
  const auto secondary_of = [](std::uint64_t i) {
    return -static_cast<double>(i) - 0.5;
  };
  ShardCache cache(kCapacity);
  // Prefill to capacity so readers have resident keys from the first
  // probe, whatever the scheduler does to the writer thread.
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    QueryResult entry;
    entry.value = value_of(i);
    entry.secondary = secondary_of(i);
    entry.flags = static_cast<std::uint32_t>(i & 0xff);
    cache.insert(key(i), hash_key(key(i)), entry);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> hits{0};

  // Quiescent phase first: every prefilled key must hit with exact bytes.
  // This pins the hits floor whatever the scheduler later does to the
  // writer (on a single hardware thread the readers can exhaust their
  // probe budget inside one of the writer's epoch brackets, seeing only
  // kRetry — a legal schedule, not a cache defect).
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    QueryResult r;
    ASSERT_EQ(cache.probe_read_only(key(i), hash_key(key(i)), r).status,
              ShardCache::ProbeStatus::kHit);
    ASSERT_EQ(r.value, value_of(i));
    hits.fetch_add(1, std::memory_order_relaxed);
  }

  std::thread writer([&] {
    std::mt19937_64 rng(test::case_seed(31));
    // Single writer: the external shard mutex is trivially held.
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t i = rng() % kKeySpace;
      QueryResult r;
      QueryResult entry;
      entry.value = value_of(i);
      entry.secondary = secondary_of(i);
      entry.flags = static_cast<std::uint32_t>(i & 0xff);
      if (!cache.find(key(i), hash_key(key(i)), r)) {
        cache.insert(key(i), hash_key(key(i)), entry);
      }
    }
  });

  constexpr int kReaders = 2;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(test::case_seed(37) + static_cast<std::uint32_t>(t));
      for (int probes = 0; probes < 200000; ++probes) {
        const std::uint64_t i = rng() % kKeySpace;
        QueryResult r;
        const ShardCache::ProbeResult p =
            cache.probe_read_only(key(i), hash_key(key(i)), r);
        if (p.status == ShardCache::ProbeStatus::kRetry) {
          // Writer descheduled mid-bracket: yield it the core, as the
          // engine's locked fallback path effectively would.
          std::this_thread::yield();
          continue;
        }
        if (p.status != ShardCache::ProbeStatus::kHit) continue;
        hits.fetch_add(1, std::memory_order_relaxed);
        if (r.value != value_of(i) || r.secondary != secondary_of(i) ||
            r.flags != static_cast<std::uint32_t>(i & 0xff)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(hits.load(), 0u);  // the schedule actually exercised hits
}

// -------------------------------------------------- engine test fixtures ---

perf::KernelSignature test_kernel(double flops, double bytes) {
  perf::KernelSignature s;
  s.name = "svc-test";
  s.flops = flops;
  s.dram_bytes = bytes;
  s.vector_fraction = 0.9;
  return s;
}

/// An engine with two registered kernels (one compute-bound, one
/// memory-bound) over the paper's node.
QueryEngine make_engine(EngineConfig config = {}) {
  QueryEngine engine(arch::maia_node(), config);
  engine.register_kernel(test_kernel(1e11, 1e8));
  engine.register_kernel(test_kernel(1e9, 1e10));
  return engine;
}

/// A reproducible batch mixing all three query kinds, with out-of-range
/// fields and plenty of duplicates (small value pools) so canonicalization
/// and the caches both get exercised.
std::vector<Query> random_batch(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  const arch::DeviceId devices[] = {arch::DeviceId::kHost, arch::DeviceId::kPhi0,
                                    arch::DeviceId::kPhi1};
  std::vector<Query> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 3) {
      case 0: {
        ExecQuery q;
        q.kernel = static_cast<std::uint16_t>(rng() % 3);  // 2 = out of range
        q.device = devices[rng() % 3];
        q.threads = static_cast<std::uint16_t>(rng() % 300);  // 0 and >max
        batch.push_back(Query::of(q));
        break;
      }
      case 1: {
        CollectiveQuery q;
        q.op = static_cast<CollectiveOp>(rng() % 10);
        q.device = devices[rng() % 3];
        q.ranks = static_cast<std::uint16_t>(rng() % 300);
        q.message_bytes = sim::Bytes{1} << (rng() % 20);  // 1 B .. 512 KiB
        q.stack = (rng() % 2) ? fabric::SoftwareStack::kPreUpdate
                              : fabric::SoftwareStack::kPostUpdate;
        batch.push_back(Query::of(q));
        break;
      }
      default: {
        LatencyQuery q;
        q.device = devices[rng() % 3];
        // Small pool of working sets: walks are the expensive queries.
        q.working_set = sim::Bytes{1024} << (rng() % 6);  // 1 KiB .. 32 KiB
        q.iterations = static_cast<std::uint16_t>(rng() % 3);  // 0 canonical-clamps
        batch.push_back(Query::of(q));
        break;
      }
    }
  }
  return batch;
}

// ------------------------------------------------------ canonicalization ---

TEST(QueryEngineTest, CanonicalizeClampsThreadsToHardwareContexts) {
  const QueryEngine engine = make_engine();
  const arch::NodeTopology node = arch::maia_node();
  const int host_max = node.device(arch::DeviceId::kHost).total_threads();

  ExecQuery lo;
  lo.threads = 0;
  ExecQuery one;
  one.threads = 1;
  EXPECT_EQ(engine.key_of(Query::of(lo)), engine.key_of(Query::of(one)));

  ExecQuery big;
  big.threads = 9999;
  ExecQuery max;
  max.threads = static_cast<std::uint16_t>(host_max);
  EXPECT_EQ(engine.key_of(Query::of(big)), engine.key_of(Query::of(max)));

  // Distinct in-range thread counts stay distinct.
  ExecQuery two = one;
  two.threads = 2;
  EXPECT_NE(engine.key_of(Query::of(one)), engine.key_of(Query::of(two)));
}

TEST(QueryEngineTest, CanonicalizeNormalizesIntraDeviceStack) {
  const QueryEngine engine = make_engine();
  CollectiveQuery q;
  q.op = CollectiveOp::kAllreduce;
  q.ranks = 16;
  q.message_bytes = 4096;
  q.stack = fabric::SoftwareStack::kPostUpdate;
  CollectiveQuery pre = q;
  pre.stack = fabric::SoftwareStack::kPreUpdate;
  // Intra-device collectives never touch the fabric: same key.
  EXPECT_EQ(engine.key_of(Query::of(q)), engine.key_of(Query::of(pre)));

  // kCrossP2P goes through the fabric, so its stack is identity.
  q.op = CollectiveOp::kCrossP2P;
  pre.op = CollectiveOp::kCrossP2P;
  EXPECT_NE(engine.key_of(Query::of(q)), engine.key_of(Query::of(pre)));
}

TEST(QueryEngineTest, CanonicalizeDropsBarrierPayload) {
  const QueryEngine engine = make_engine();
  CollectiveQuery a;
  a.op = CollectiveOp::kBarrier;
  a.ranks = 8;
  a.message_bytes = 64;
  CollectiveQuery b = a;
  b.message_bytes = 1 << 20;
  EXPECT_EQ(engine.key_of(Query::of(a)), engine.key_of(Query::of(b)));
}

TEST(QueryEngineTest, CanonicalizeFloorsLatencyFields) {
  const QueryEngine engine = make_engine();
  LatencyQuery a;
  a.working_set = 0;
  a.iterations = 0;
  LatencyQuery b;
  b.working_set = 128;
  b.iterations = 1;
  EXPECT_EQ(engine.key_of(Query::of(a)), engine.key_of(Query::of(b)));
}

TEST(QueryEngineTest, EquivalentQueriesGetIdenticalAnswers) {
  QueryEngine engine = make_engine();
  ExecQuery big;
  big.threads = 9999;
  ExecQuery max;
  max.threads = static_cast<std::uint16_t>(
      arch::maia_node().device(arch::DeviceId::kHost).total_threads());
  const std::vector<Query> pair = {Query::of(big), Query::of(max)};
  BatchResults out;
  engine.evaluate_serial(pair, out);
  EXPECT_EQ(out.values()[0], out.values()[1]);
  EXPECT_EQ(out.secondary()[0], out.secondary()[1]);
}

// ---------------------------------------------------------- determinism ---

TEST(QueryEngineTest, ShardedMatchesSerialOnRandomizedBatches) {
  for (const std::uint32_t salt : {1u, 2u, 3u}) {
    const std::uint32_t seed = test::case_seed(salt);
    QueryEngine engine = make_engine();
    const std::vector<Query> batch = random_batch(seed, 2000);
    BatchResults reference;
    engine.evaluate_serial(batch, reference);
    BatchResults sharded;
    sim::ThreadPool pool(4);
    engine.evaluate(batch, sharded, &pool);
    EXPECT_TRUE(sharded.bitwise_equal(reference)) << "seed " << seed;
  }
}

TEST(QueryEngineTest, ShardedMatchesSerialWithoutPool) {
  QueryEngine engine = make_engine();
  const std::vector<Query> batch = random_batch(test::case_seed(7), 1000);
  BatchResults reference;
  engine.evaluate_serial(batch, reference);
  BatchResults out;
  engine.evaluate(batch, out);  // no pool: serial sharded path
  EXPECT_TRUE(out.bitwise_equal(reference));
}

TEST(QueryEngineTest, EvictionPressureDoesNotChangeResults) {
  // Tiny caches: far fewer entries than distinct keys, so the engine
  // recomputes under constant eviction.  Answers must not change.
  EngineConfig config;
  config.shards = 2;
  config.cache_capacity_per_shard = 16;
  QueryEngine engine = make_engine(config);
  const std::vector<Query> batch = random_batch(test::case_seed(11), 3000);
  BatchResults reference;
  engine.evaluate_serial(batch, reference);
  BatchResults sharded;
  sim::ThreadPool pool(4);
  engine.evaluate(batch, sharded, &pool);
  EXPECT_TRUE(sharded.bitwise_equal(reference));
  EXPECT_GT(engine.stats().evictions, 0u);
}

TEST(QueryEngineTest, RepeatedEvaluationIsStableAcrossCacheStates) {
  // Same batch three times: cold cache, warm cache, cleared cache.  All
  // byte-identical — a hit replays exactly what a fresh compute produces.
  QueryEngine engine = make_engine();
  const std::vector<Query> batch = random_batch(test::case_seed(13), 1500);
  sim::ThreadPool pool(2);
  BatchResults cold, warm, cleared;
  engine.evaluate(batch, cold, &pool);
  engine.evaluate(batch, warm, &pool);
  engine.clear_cache();
  engine.evaluate(batch, cleared, &pool);
  EXPECT_TRUE(warm.bitwise_equal(cold));
  EXPECT_TRUE(cleared.bitwise_equal(cold));
}

// ---------------------------------------------------------------- stats ---

TEST(QueryEngineTest, StatsAccountEveryQuery) {
  QueryEngine engine = make_engine();
  const std::vector<Query> batch = random_batch(test::case_seed(17), 2000);
  BatchResults out;
  engine.evaluate(batch, out);
  const EngineStats first = engine.stats();
  EXPECT_EQ(first.queries, batch.size());
  EXPECT_EQ(first.cache_hits + first.cache_misses, first.queries);
  EXPECT_GT(first.cache_hits, 0u);  // duplicates guarantee repeats

  // A second pass over the same batch hits for every query.
  engine.evaluate(batch, out);
  const EngineStats second = engine.stats();
  EXPECT_EQ(second.queries, 2 * batch.size());
  EXPECT_EQ(second.cache_misses, first.cache_misses);

  engine.clear_cache();
  const EngineStats cleared = engine.stats();
  EXPECT_EQ(cleared.queries, 0u);
  EXPECT_EQ(cleared.hit_rate(), 0.0);
}

TEST(QueryEngineTest, WarmHitPathAcquiresNoShardLocks) {
  // The tentpole acceptance check: after a warming pass, re-evaluating the
  // same batch is 100% cache hits and the hit path must take zero shard
  // mutexes — every answer comes off the seqlock read view.
  QueryEngine engine = make_engine();
  const std::vector<Query> batch = random_batch(test::case_seed(41), 2000);
  sim::ThreadPool pool(4);
  BatchResults out;
  engine.evaluate(batch, out, &pool);  // cold: misses take locks
  const EngineStats cold = engine.stats();
  EXPECT_GT(cold.lock_acquisitions, 0u);

  engine.evaluate(batch, out, &pool);  // warm: all hits
  const EngineStats warm = engine.stats();
  EXPECT_EQ(warm.lock_acquisitions, cold.lock_acquisitions)
      << "warm hits took a shard mutex";
  EXPECT_EQ(warm.lockfree_hits, cold.lockfree_hits + batch.size());
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_EQ(warm.queries, 2 * batch.size());
}

TEST(QueryEngineTest, SnapshotWarmedRunIsAllLockFreeHits) {
  // Same acceptance check through the snapshot path: a fresh engine warmed
  // purely from a snapshot answers the whole batch without a single mutex
  // acquisition or miss.
  const std::string path = ::testing::TempDir() + "/svc_lockfree_warm.snap";
  const std::vector<Query> batch = random_batch(test::case_seed(43), 1500);
  QueryEngine warmer = make_engine();
  BatchResults out;
  warmer.evaluate(batch, out);
  ASSERT_TRUE(warmer.save_snapshot(path).ok());

  QueryEngine engine = make_engine();
  ASSERT_TRUE(engine.load_snapshot(path).ok());
  sim::ThreadPool pool(4);
  engine.evaluate(batch, out, &pool);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.lock_acquisitions, 0u);
  EXPECT_EQ(stats.lockfree_hits, batch.size());
  EXPECT_EQ(stats.hit_lock_acquisitions, 0u);
}

// ----------------------------------------------------- concurrent stress ---

TEST(QueryEngineTest, ConcurrentBatchesShareEngineAndPool) {
  QueryEngine engine = make_engine();
  sim::ThreadPool pool(4);
  const std::vector<Query> batch = random_batch(test::case_seed(23), 2000);
  BatchResults reference;
  engine.evaluate_serial(batch, reference);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<BatchResults> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        engine.evaluate(batch, results[t], &pool);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].bitwise_equal(reference)) << "thread " << t;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kThreads) * kRounds *
                               batch.size());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

TEST(QueryEngineTest, ConcurrentBatchesUnderEvictionPressureStayExact) {
  // The hard schedule for the lock-free read path: tiny caches force
  // continuous insert/evict churn in every shard while several threads run
  // lock-free hit sweeps over the same keys.  Byte-identity must survive
  // the races — a seqlock-retried or stale-miss probe may cost a lock,
  // never a wrong byte.
  EngineConfig config;
  config.shards = 4;
  config.cache_capacity_per_shard = 32;
  QueryEngine engine = make_engine(config);
  sim::ThreadPool pool(4);
  const std::vector<Query> batch = random_batch(test::case_seed(47), 3000);
  BatchResults reference;
  engine.evaluate_serial(batch, reference);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<BatchResults> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        engine.evaluate(batch, results[t], &pool);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].bitwise_equal(reference)) << "thread " << t;
  }
  EXPECT_GT(engine.stats().evictions, 0u);
}

}  // namespace
}  // namespace maia::svc
