// Tests for the snapshot warm-start path (svc/snapshot.{hpp,cpp} and the
// QueryEngine save/load API):
//
//   * format round-trip — write_snapshot/read_snapshot preserve every
//     record bit-for-bit, including an empty cache;
//   * fault injection via CorruptingStream — truncation at EVERY byte
//     boundary, a bit-flip sweep over EVERY bit of the image (header
//     flips must map to the field's reason code, payload flips to
//     kBadCrc), and spliced files — all rejected, none crash, and a
//     rejected parse returns no records;
//   * golden fixture — tests/data/golden_snapshot_v1.bin was produced by
//     an independent implementation of the documented v1 layout; if this
//     test breaks, the format changed and kSnapshotVersion must be
//     bumped deliberately;
//   * record order — each shard's records go out in CLOCK hand order,
//     next victim first, so an at-capacity save -> load -> save is
//     byte-identical and a smaller cache keeps the file's last records;
//   * engine-level fallback — every corruption class leaves a loading
//     engine cold (still byte-identical to serial) and is counted under
//     svc.snapshot.rejected[.<reason>];
//   * crash-safe saves — a save that fails part way (a file-size cap in
//     a child process) leaves the previous snapshot byte-identical and
//     no temp file beside it;
//   * concurrency (run under TSan in CI) — save_snapshot racing
//     concurrent evaluate() batches, two engines loading one file
//     simultaneously, and a load racing an evaluate on the same engine.
//
// Randomized cases seed from the logged, MAIA_TEST_SEED-overridable base
// seed (tests/test_seed.hpp), so any failure reproduces exactly.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/registry.hpp"
#include "obs/metrics.hpp"
#include "perf/signature.hpp"
#include "sim/thread_pool.hpp"
#include "svc/engine.hpp"
#include "svc/query.hpp"
#include "svc/snapshot.hpp"
#include "test_seed.hpp"

namespace maia::svc {
namespace {

// ---------------------------------------------------------------- fixtures ---

perf::KernelSignature test_kernel(double flops, double bytes) {
  perf::KernelSignature s;
  s.name = "snapshot-test";
  s.flops = flops;
  s.dram_bytes = bytes;
  s.vector_fraction = 0.9;
  return s;
}

/// An engine with two registered kernels (one compute-bound, one
/// memory-bound) over the paper's node — the same shape svc_test uses, so
/// two make_engine() engines share a calibration hash.
QueryEngine make_engine(EngineConfig config = {}) {
  QueryEngine engine(arch::maia_node(), config);
  engine.register_kernel(test_kernel(1e11, 1e8));
  engine.register_kernel(test_kernel(1e9, 1e10));
  return engine;
}

/// A reproducible batch mixing all three query kinds with plenty of
/// duplicates, mirroring svc_test's generator.
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
        q.kernel = static_cast<std::uint16_t>(rng() % 3);
        q.device = devices[rng() % 3];
        q.threads = static_cast<std::uint16_t>(rng() % 300);
        batch.push_back(Query::of(q));
        break;
      }
      case 1: {
        CollectiveQuery q;
        q.op = static_cast<CollectiveOp>(rng() % 10);
        q.device = devices[rng() % 3];
        q.ranks = static_cast<std::uint16_t>(rng() % 300);
        q.message_bytes = sim::Bytes{1} << (rng() % 20);
        q.stack = (rng() % 2) ? fabric::SoftwareStack::kPreUpdate
                              : fabric::SoftwareStack::kPostUpdate;
        batch.push_back(Query::of(q));
        break;
      }
      default: {
        LatencyQuery q;
        q.device = devices[rng() % 3];
        q.working_set = sim::Bytes{1024} << (rng() % 6);
        q.iterations = static_cast<std::uint16_t>(rng() % 3);
        batch.push_back(Query::of(q));
        break;
      }
    }
  }
  return batch;
}

/// A temp-file path that is removed on scope exit.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + "maia_snapshot_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Synthetic records with varied bit patterns (denormal-ish doubles,
/// set flags) so round-trip comparison is a real bit-level check.
std::vector<SnapshotRecord> sample_records(std::size_t n, std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<SnapshotRecord> records(n);
  for (SnapshotRecord& r : records) {
    r.key.hi = rng();
    r.key.lo = rng();
    r.result.value = static_cast<double>(rng()) * 0x1p-64;
    r.result.secondary = static_cast<double>(rng()) * 0x1p-32;
    r.result.flags = static_cast<std::uint32_t>(rng() % 2);
    r.result.reserved = 0;
  }
  return records;
}

std::string make_image(std::uint64_t calib,
                       const std::vector<std::uint64_t>& counts,
                       const std::vector<SnapshotRecord>& records) {
  std::ostringstream os(std::ios::binary);
  write_snapshot(os, calib, counts, records);
  return os.str();
}

/// Test-only fault injector over a serialized snapshot image: parses
/// truncated, bit-flipped, and spliced variants of the pristine bytes.
class CorruptingStream {
 public:
  explicit CorruptingStream(std::string image) : image_(std::move(image)) {}

  const std::string& image() const { return image_; }
  std::size_t size() const { return image_.size(); }

  static SnapshotReadResult parse_bytes(const std::string& bytes,
                                        std::uint64_t calib) {
    std::istringstream is(bytes, std::ios::binary);
    return read_snapshot(is, calib);
  }

  SnapshotReadResult parse(std::uint64_t calib) const {
    return parse_bytes(image_, calib);
  }
  SnapshotReadResult parse_truncated(std::size_t len, std::uint64_t calib) const {
    return parse_bytes(image_.substr(0, len), calib);
  }
  SnapshotReadResult parse_bit_flipped(std::size_t byte, int bit,
                                       std::uint64_t calib) const {
    return parse_bytes(bit_flipped(byte, bit), calib);
  }
  /// The image with extra bytes appended (a spliced / concatenated file).
  SnapshotReadResult parse_spliced(const std::string& tail,
                                   std::uint64_t calib) const {
    return parse_bytes(image_ + tail, calib);
  }

  std::string bit_flipped(std::size_t byte, int bit) const {
    std::string bytes = image_;
    bytes[byte] = static_cast<char>(bytes[byte] ^ (1u << bit));
    return bytes;
  }

 private:
  std::string image_;
};

constexpr std::uint64_t kTestCalib = 0xfeedf00d12345678ull;

bool records_equal(const std::vector<SnapshotRecord>& a,
                   const std::vector<SnapshotRecord>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(SnapshotRecord)) == 0);
}

// ------------------------------------------------------------ format layer ---

TEST(SnapshotFormatTest, Crc32MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check string; pins the polynomial + reflection
  // so the format really is the documented zlib CRC.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  // Chained calls must equal one shot.
  std::uint32_t chained = crc32("12345", 5);
  chained = crc32("6789", 4, chained);
  EXPECT_EQ(chained, 0xcbf43926u);
}

TEST(SnapshotFormatTest, RoundTripPreservesEveryRecordBit) {
  const std::vector<SnapshotRecord> records =
      sample_records(7, test::case_seed(31));
  const std::vector<std::uint64_t> counts = {3, 0, 4};
  CorruptingStream cs(make_image(kTestCalib, counts, records));

  EXPECT_EQ(cs.image().substr(0, 8), "MAIASNP1");
  EXPECT_EQ(cs.size(), kSnapshotHeaderBytes + 3 * 8 + 7 * sizeof(SnapshotRecord));

  const SnapshotReadResult r = cs.parse(kTestCalib);
  ASSERT_TRUE(r.ok()) << snapshot_error_name(r.error);
  EXPECT_EQ(r.shard_counts, counts);
  EXPECT_TRUE(records_equal(r.records, records));
}

TEST(SnapshotFormatTest, EmptySnapshotRoundTrips) {
  // One shard, zero records: what an engine that never evaluated saves.
  CorruptingStream cs(make_image(kTestCalib, {0}, {}));
  const SnapshotReadResult r = cs.parse(kTestCalib);
  ASSERT_TRUE(r.ok()) << snapshot_error_name(r.error);
  EXPECT_EQ(r.shard_counts, std::vector<std::uint64_t>{0});
  EXPECT_TRUE(r.records.empty());
}

TEST(SnapshotFormatTest, TruncationAtEveryByteIsRejected) {
  CorruptingStream cs(
      make_image(kTestCalib, {2, 3}, sample_records(5, test::case_seed(37))));
  for (std::size_t len = 0; len < cs.size(); ++len) {
    const SnapshotReadResult r = cs.parse_truncated(len, kTestCalib);
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(r.error, SnapshotError::kTruncated) << "prefix of " << len;
    EXPECT_TRUE(r.records.empty());
  }
}

TEST(SnapshotFormatTest, EveryHeaderBitFlipMapsToTheFieldsReason) {
  CorruptingStream cs(
      make_image(kTestCalib, {2, 3}, sample_records(5, test::case_seed(41))));
  for (std::size_t byte = 0; byte < kSnapshotHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const SnapshotReadResult r = cs.parse_bit_flipped(byte, bit, kTestCalib);
      ASSERT_FALSE(r.ok()) << "byte " << byte << " bit " << bit << " accepted";
      EXPECT_TRUE(r.records.empty());
      if (byte < 8) {
        EXPECT_EQ(r.error, SnapshotError::kBadMagic) << "byte " << byte;
      } else if (byte < 12) {
        EXPECT_EQ(r.error, SnapshotError::kBadVersion) << "byte " << byte;
      } else if (byte < 16) {
        EXPECT_EQ(r.error, SnapshotError::kBadEndianness) << "byte " << byte;
      } else if (byte < 24) {
        EXPECT_EQ(r.error, SnapshotError::kBadCalibration) << "byte " << byte;
      } else if (byte < 28) {
        // Shard count: a flip shifts the expected payload length, so the
        // file reads short (kTruncated), fails the CRC over the resized
        // payload (kBadCrc), or trips the size caps (kBadHeader).
        EXPECT_TRUE(r.error == SnapshotError::kTruncated ||
                    r.error == SnapshotError::kBadCrc ||
                    r.error == SnapshotError::kBadHeader)
            << "byte " << byte << " bit " << bit << ": "
            << snapshot_error_name(r.error);
      } else if (byte < 32) {
        EXPECT_EQ(r.error, SnapshotError::kBadCrc) << "byte " << byte;
      } else {
        // Total record count: same length-shift outcomes as shard count.
        EXPECT_TRUE(r.error == SnapshotError::kTruncated ||
                    r.error == SnapshotError::kBadCrc ||
                    r.error == SnapshotError::kBadHeader)
            << "byte " << byte << " bit " << bit << ": "
            << snapshot_error_name(r.error);
      }
    }
  }
}

TEST(SnapshotFormatTest, EveryPayloadBitFlipFailsTheCrc) {
  CorruptingStream cs(
      make_image(kTestCalib, {2, 3}, sample_records(5, test::case_seed(43))));
  for (std::size_t byte = kSnapshotHeaderBytes; byte < cs.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const SnapshotReadResult r = cs.parse_bit_flipped(byte, bit, kTestCalib);
      ASSERT_FALSE(r.ok()) << "byte " << byte << " bit " << bit << " accepted";
      EXPECT_EQ(r.error, SnapshotError::kBadCrc)
          << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(r.records.empty());
    }
  }
}

TEST(SnapshotFormatTest, SplicedFilesAreRejected) {
  const std::vector<SnapshotRecord> records =
      sample_records(5, test::case_seed(47));
  CorruptingStream cs(make_image(kTestCalib, {2, 3}, records));

  // A valid image with anything after it is not the image that was saved.
  EXPECT_EQ(cs.parse_spliced(cs.image(), kTestCalib).error,
            SnapshotError::kBadHeader);
  EXPECT_EQ(cs.parse_spliced("x", kTestCalib).error, SnapshotError::kBadHeader);

  // This header stapled onto a different payload of the same shape fails
  // the CRC: the header vouches for bytes it never covered.
  const std::string other =
      make_image(kTestCalib, {2, 3}, sample_records(5, test::case_seed(53)));
  const std::string franken =
      cs.image().substr(0, kSnapshotHeaderBytes) + other.substr(kSnapshotHeaderBytes);
  EXPECT_EQ(CorruptingStream::parse_bytes(franken, kTestCalib).error,
            SnapshotError::kBadCrc);
}

TEST(SnapshotFormatTest, WrongCalibrationIsStaleNotCorrupt) {
  CorruptingStream cs(
      make_image(kTestCalib, {1}, sample_records(1, test::case_seed(59))));
  ASSERT_TRUE(cs.parse(kTestCalib).ok());
  // The same pristine bytes against a recalibrated model: rejected as
  // stale before the CRC is even consulted.
  EXPECT_EQ(cs.parse(kTestCalib + 1).error, SnapshotError::kBadCalibration);
}

TEST(SnapshotFormatTest, InconsistentShardCountsAreRejected) {
  // Hand-build an image whose per-shard counts do not sum to the header's
  // total, with the CRC recomputed so only the consistency check can
  // catch it.  write_snapshot() would never produce this; a hostile or
  // buggy writer could.
  const std::vector<SnapshotRecord> records =
      sample_records(4, test::case_seed(61));
  std::string bytes = make_image(kTestCalib, {2, 2}, records);
  std::string payload = bytes.substr(kSnapshotHeaderBytes);
  payload[0] = static_cast<char>(3);  // counts now {3, 2}, total still 4
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes[28 + i] = static_cast<char>(crc >> (8 * i));
  }
  bytes.replace(kSnapshotHeaderBytes, payload.size(), payload);
  const SnapshotReadResult r = CorruptingStream::parse_bytes(bytes, kTestCalib);
  EXPECT_EQ(r.error, SnapshotError::kBadHeader);
  EXPECT_TRUE(r.records.empty());
}

// ---------------------------------------------------------- golden fixture ---

TEST(SnapshotGoldenTest, CheckedInV1FixtureStillParses) {
  // tests/data/golden_snapshot_v1.bin was generated by an independent
  // implementation of the documented format (Python struct + zlib.crc32).
  // If this test fails, the on-disk layout changed: bump kSnapshotVersion
  // and regenerate the fixture DELIBERATELY — old snapshots in the wild
  // must be rejected as kBadVersion, not misread.
  constexpr std::uint64_t kGoldenCalib = 0x600dcafef00d5eedull;
  const std::string path =
      std::string(MAIA_TEST_DATA_DIR) + "/golden_snapshot_v1.bin";
  const std::string bytes = slurp(path);
  ASSERT_EQ(bytes.size(), 176u) << "fixture missing or resized: " << path;
  EXPECT_EQ(bytes.substr(0, 8), "MAIASNP1");

  const SnapshotReadResult r = CorruptingStream::parse_bytes(bytes, kGoldenCalib);
  ASSERT_TRUE(r.ok()) << snapshot_error_name(r.error);
  EXPECT_EQ(r.shard_counts, (std::vector<std::uint64_t>{2, 1}));
  ASSERT_EQ(r.records.size(), 3u);

  EXPECT_EQ(r.records[0].key.hi, 0x1111111111111111ull);
  EXPECT_EQ(r.records[0].key.lo, 0x2222222222222222ull);
  EXPECT_EQ(r.records[0].result.value, 1.5);
  EXPECT_EQ(r.records[0].result.secondary, 2.25);
  EXPECT_EQ(r.records[0].result.flags, 0u);

  EXPECT_EQ(r.records[1].key.hi, 0x0123456789abcdefull);
  EXPECT_EQ(r.records[1].key.lo, 0ull);
  EXPECT_EQ(r.records[1].result.value, -0.125);
  EXPECT_EQ(r.records[1].result.secondary, 1e-9);
  EXPECT_EQ(r.records[1].result.flags, 1u);

  EXPECT_EQ(r.records[2].key.hi, 0xfedcba9876543210ull);
  EXPECT_EQ(r.records[2].key.lo, 0xdeadbeefcafebabeull);
  EXPECT_EQ(r.records[2].result.value, 3.141592653589793);
  EXPECT_EQ(r.records[2].result.secondary, 0.0);
  EXPECT_EQ(r.records[2].result.flags, 0u);

  // And a stale reader still rejects it on calibration alone.
  EXPECT_EQ(CorruptingStream::parse_bytes(bytes, kGoldenCalib ^ 1).error,
            SnapshotError::kBadCalibration);
}

// ------------------------------------------------------------ engine layer ---

TEST(SnapshotEngineTest, WarmStartReplaysByteIdenticalWithFullHits) {
  QueryEngine engine = make_engine();
  const std::uint32_t seed = test::case_seed(101);
  const std::vector<Query> batch = random_batch(seed, 4000);
  BatchResults ref;
  engine.evaluate_serial(batch, ref);

  sim::ThreadPool pool(4);
  BatchResults first;
  engine.evaluate(batch, first, &pool);
  const EngineStats after_first = engine.stats();
  BatchResults second;
  engine.evaluate(batch, second, &pool);
  const EngineStats after_second = engine.stats();
  const double pre_save_warm_rate =
      static_cast<double>(after_second.cache_hits - after_first.cache_hits) /
      static_cast<double>(batch.size());

  TempFile file("roundtrip.snap");
  const SnapshotSaveResult saved = engine.save_snapshot(file.path);
  ASSERT_TRUE(saved.ok()) << snapshot_error_name(saved.error);
  // Every distinct key (= first-pass miss) is resident and persisted.
  EXPECT_EQ(saved.records, after_first.cache_misses) << "seed " << seed;

  QueryEngine fresh = make_engine();
  EXPECT_EQ(fresh.calibration_hash(), engine.calibration_hash());
  const SnapshotLoadResult loaded = fresh.load_snapshot(file.path);
  ASSERT_TRUE(loaded.ok()) << snapshot_error_name(loaded.error);
  EXPECT_EQ(loaded.records_in_file, saved.records);
  EXPECT_EQ(loaded.records_loaded, saved.records);

  BatchResults replay;
  fresh.evaluate(batch, replay, &pool);
  EXPECT_TRUE(replay.bitwise_equal(ref)) << "seed " << seed;
  const EngineStats warm = fresh.stats();
  // The snapshot carried every key this batch needs: no misses at all,
  // and at least the pre-save warm pass's hit rate.
  EXPECT_EQ(warm.cache_misses, 0u) << "seed " << seed;
  EXPECT_GE(warm.hit_rate(), pre_save_warm_rate) << "seed " << seed;
}

TEST(SnapshotEngineTest, LoadingTwiceInsertsNothingNew) {
  QueryEngine engine = make_engine();
  const std::vector<Query> batch = random_batch(test::case_seed(103), 1000);
  BatchResults out;
  engine.evaluate(batch, out);
  TempFile file("idempotent.snap");
  ASSERT_TRUE(engine.save_snapshot(file.path).ok());

  QueryEngine fresh = make_engine();
  const SnapshotLoadResult once = fresh.load_snapshot(file.path);
  ASSERT_TRUE(once.ok());
  EXPECT_GT(once.records_loaded, 0u);
  const SnapshotLoadResult twice = fresh.load_snapshot(file.path);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice.records_in_file, once.records_in_file);
  EXPECT_EQ(twice.records_loaded, 0u);  // insert-if-absent: all resident
}

TEST(SnapshotEngineTest, SnapshotWarmsAnEngineWithDifferentShardCount) {
  EngineConfig wide;
  wide.shards = 8;
  QueryEngine engine = make_engine(wide);
  const std::uint32_t seed = test::case_seed(107);
  const std::vector<Query> batch = random_batch(seed, 2000);
  BatchResults ref;
  engine.evaluate_serial(batch, ref);
  BatchResults out;
  engine.evaluate(batch, out);
  TempFile file("reshard.snap");
  const SnapshotSaveResult saved = engine.save_snapshot(file.path);
  ASSERT_TRUE(saved.ok());

  EngineConfig narrow;
  narrow.shards = 2;
  QueryEngine fresh = make_engine(narrow);
  ASSERT_EQ(fresh.shard_count(), 2);
  const SnapshotLoadResult loaded = fresh.load_snapshot(file.path);
  ASSERT_TRUE(loaded.ok()) << snapshot_error_name(loaded.error);
  EXPECT_EQ(loaded.records_loaded, saved.records);  // records re-shard by hash

  BatchResults replay;
  fresh.evaluate(batch, replay);
  EXPECT_TRUE(replay.bitwise_equal(ref)) << "seed " << seed;
  EXPECT_EQ(fresh.stats().cache_misses, 0u) << "seed " << seed;
}

TEST(SnapshotEngineTest, AtCapacityRecordOrderSurvivesAReload) {
  // The v1 format has no recency field; the order of each shard's records
  // carries it.  Records go out next victim first, so reloading into the
  // same shape puts the hand back in front of the same victims, and a
  // smaller cache keeps the records that come last in the file.
  EngineConfig config;
  config.shards = 1;
  config.cache_capacity_per_shard = 64;
  QueryEngine engine = make_engine(config);
  const std::uint32_t seed = test::case_seed(113);
  const std::vector<Query> batch = random_batch(seed, 2000);
  BatchResults out;
  engine.evaluate(batch, out);
  engine.evaluate(batch, out);  // hits mark entries, misses move the hand
  ASSERT_GT(engine.stats().evictions, 0u) << "seed " << seed;
  std::stringstream saved;
  ASSERT_TRUE(engine.save_snapshot_range(saved).ok());
  const std::string image = saved.str();

  QueryEngine same = make_engine(config);
  std::istringstream in(image);
  ASSERT_TRUE(same.load_snapshot_stream(in).ok());
  std::stringstream resaved;
  ASSERT_TRUE(same.save_snapshot_range(resaved).ok());
  EXPECT_EQ(resaved.str(), image) << "seed " << seed;

  EngineConfig small = config;
  small.cache_capacity_per_shard = 16;
  QueryEngine smaller = make_engine(small);
  std::istringstream in_small(image);
  ASSERT_TRUE(smaller.load_snapshot_stream(in_small).ok());
  std::stringstream kept;
  ASSERT_TRUE(smaller.save_snapshot_range(kept).ok());
  const std::uint64_t calib = engine.calibration_hash();
  std::istringstream full_in(image);
  const SnapshotReadResult full = read_snapshot(full_in, calib);
  const SnapshotReadResult tail = read_snapshot(kept, calib);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(full.records.size(), 64u);
  ASSERT_EQ(tail.records.size(), 16u);
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    EXPECT_EQ(std::memcmp(&tail.records[i], &full.records[48 + i],
                          sizeof(SnapshotRecord)),
              0)
        << "record " << i << ", seed " << seed;
  }
}

TEST(SnapshotEngineTest, EmptyEngineRoundTripsZeroRecords) {
  QueryEngine engine = make_engine();
  TempFile file("empty.snap");
  const SnapshotSaveResult saved = engine.save_snapshot(file.path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved.records, 0u);
  QueryEngine fresh = make_engine();
  const SnapshotLoadResult loaded = fresh.load_snapshot(file.path);
  ASSERT_TRUE(loaded.ok()) << snapshot_error_name(loaded.error);
  EXPECT_EQ(loaded.records_in_file, 0u);
  EXPECT_EQ(loaded.records_loaded, 0u);
}

TEST(SnapshotEngineTest, MissingFileIsIoError) {
  QueryEngine engine = make_engine();
  const SnapshotLoadResult loaded =
      engine.load_snapshot(testing::TempDir() + "maia_snapshot_test_nonexistent");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error, SnapshotError::kIoError);
}

TEST(SnapshotEngineTest, UnwritablePathIsIoError) {
  QueryEngine engine = make_engine();
  // A directory is not a writable file.
  const SnapshotSaveResult saved = engine.save_snapshot(testing::TempDir());
  EXPECT_FALSE(saved.ok());
  EXPECT_EQ(saved.error, SnapshotError::kIoError);
}

TEST(SnapshotEngineTest, FailedSaveKeepsThePreviousSnapshot) {
  QueryEngine engine = make_engine();
  BatchResults out;
  engine.evaluate(random_batch(test::case_seed(127), 2000), out);
  TempFile file("crash_safe.snap");
  ASSERT_TRUE(engine.save_snapshot(file.path).ok());
  const std::string good = slurp(file.path);
  ASSERT_GT(good.size(), 16384u) << "too small for the cap below to bite";

  // Save again in a child whose file-size limit is half the image: with
  // SIGXFSZ ignored, the write past the cap fails with EFBIG part way
  // through, the stand-in for ENOSPC or a crash mid-save.
  const auto save_under_cap = [&] {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap{};
    cap.rlim_cur = cap.rlim_max = good.size() / 2;
    ::setrlimit(RLIMIT_FSIZE, &cap);
    const SnapshotSaveResult again = engine.save_snapshot(file.path);
    std::_Exit(again.error == SnapshotError::kIoError ? 0 : 1);
  };
  EXPECT_EXIT(save_under_cap(), testing::ExitedWithCode(0), "");

  const std::string after = slurp(file.path);
  EXPECT_TRUE(after == good) << "the failed save damaged the snapshot: "
                             << after.size() << " of " << good.size() << " bytes";
  const std::filesystem::path target(file.path);
  const std::string name = target.filename().string();
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string other = entry.path().filename().string();
    EXPECT_FALSE(other != name && other.rfind(name, 0) == 0)
        << "temp file left behind: " << other;
  }
}

TEST(SnapshotEngineTest, RecalibratedEngineRejectsTheSnapshotAsStale) {
  QueryEngine engine = make_engine();
  const std::vector<Query> batch = random_batch(test::case_seed(109), 500);
  BatchResults out;
  engine.evaluate(batch, out);
  TempFile file("stale.snap");
  ASSERT_TRUE(engine.save_snapshot(file.path).ok());

  // A third registered kernel is a different calibration: cached exec
  // answers keyed by kernel id are not comparable across registries.
  QueryEngine recalibrated = make_engine();
  recalibrated.register_kernel(test_kernel(5e10, 5e9));
  ASSERT_NE(recalibrated.calibration_hash(), engine.calibration_hash());
  const SnapshotLoadResult loaded = recalibrated.load_snapshot(file.path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error, SnapshotError::kBadCalibration);
  EXPECT_EQ(loaded.records_loaded, 0u);
}

TEST(SnapshotEngineTest, EveryCorruptionClassFallsBackColdAndIsCounted) {
  QueryEngine engine = make_engine();
  const std::uint32_t seed = test::case_seed(113);
  const std::vector<Query> batch = random_batch(seed, 1500);
  BatchResults ref;
  engine.evaluate_serial(batch, ref);
  BatchResults out;
  engine.evaluate(batch, out);
  TempFile file("corrupt.snap");
  ASSERT_TRUE(engine.save_snapshot(file.path).ok());
  const std::string pristine = slurp(file.path);
  ASSERT_GT(pristine.size(), kSnapshotHeaderBytes);
  CorruptingStream cs(pristine);

  struct Case {
    const char* name;
    std::string bytes;
    SnapshotError expected;
  };
  const Case cases[] = {
      {"bad_magic", cs.bit_flipped(0, 3), SnapshotError::kBadMagic},
      {"bad_version", cs.bit_flipped(9, 0), SnapshotError::kBadVersion},
      {"bad_endianness", cs.bit_flipped(13, 5), SnapshotError::kBadEndianness},
      {"bad_calibration", cs.bit_flipped(20, 7), SnapshotError::kBadCalibration},
      {"bad_crc", cs.bit_flipped(pristine.size() / 2, 4), SnapshotError::kBadCrc},
      {"truncated", pristine.substr(0, pristine.size() - 1),
       SnapshotError::kTruncated},
      {"bad_header", pristine + pristine, SnapshotError::kBadHeader},
  };

  const auto& registry = obs::MetricsRegistry::global();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    spill(file.path, c.bytes);
    const obs::MetricsSnapshot before = registry.snapshot();
    QueryEngine fresh = make_engine();
    const SnapshotLoadResult loaded = fresh.load_snapshot(file.path);
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error, c.expected)
        << "got " << snapshot_error_name(loaded.error);
    EXPECT_EQ(loaded.records_loaded, 0u);

    // The rejection is visible in the metrics registry, aggregate and
    // per-reason.
    const obs::MetricsSnapshot after = registry.snapshot();
    EXPECT_EQ(after.counter("svc.snapshot.rejected"),
              before.counter("svc.snapshot.rejected") + 1);
    const std::string reason_metric =
        std::string("svc.snapshot.rejected.") + snapshot_error_name(c.expected);
    EXPECT_EQ(after.counter(reason_metric), before.counter(reason_metric) + 1);

    // Cold but correct: the engine computes the batch from scratch and
    // still matches the serial reference bit for bit.
    BatchResults cold;
    fresh.evaluate(batch, cold);
    EXPECT_TRUE(cold.bitwise_equal(ref)) << "seed " << seed;
    EXPECT_GT(fresh.stats().cache_misses, 0u);  // genuinely cold
  }
}

// ------------------------------------------------------------- concurrency ---
// These run under -fsanitize=thread in CI (see .github/workflows/ci.yml).

TEST(SnapshotConcurrencyTest, SaveRacesConcurrentEvaluateBatches) {
  QueryEngine engine = make_engine();
  const std::uint32_t seed = test::case_seed(301);
  const std::vector<Query> batch = random_batch(seed, 2000);
  BatchResults ref;
  engine.evaluate_serial(batch, ref);

  sim::ThreadPool pool(4);
  TempFile files[3] = {TempFile("race0.snap"), TempFile("race1.snap"),
                       TempFile("race2.snap")};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        BatchResults out;
        engine.evaluate(batch, out, &pool);
        EXPECT_TRUE(out.bitwise_equal(ref)) << "seed " << seed;
      }
    });
  }
  threads.emplace_back([&] {
    // Snapshots taken mid-flight: each drains the shards under their
    // locks while the evaluators keep inserting.
    for (const TempFile& f : files) {
      const SnapshotSaveResult saved = engine.save_snapshot(f.path);
      EXPECT_TRUE(saved.ok()) << snapshot_error_name(saved.error);
    }
  });
  for (std::thread& t : threads) t.join();

  // A post-race save must capture the fully warm cache; loading it warms
  // a fresh engine to byte-identical replays.
  const SnapshotSaveResult final_save = engine.save_snapshot(files[0].path);
  ASSERT_TRUE(final_save.ok());
  QueryEngine fresh = make_engine();
  ASSERT_TRUE(fresh.load_snapshot(files[0].path).ok());
  BatchResults replay;
  fresh.evaluate(batch, replay);
  EXPECT_TRUE(replay.bitwise_equal(ref)) << "seed " << seed;

  // The mid-race snapshots must each be internally valid too — whatever
  // subset they caught, it loads cleanly.
  for (const TempFile& f : files) {
    QueryEngine probe = make_engine();
    const SnapshotLoadResult loaded = probe.load_snapshot(f.path);
    EXPECT_TRUE(loaded.ok()) << snapshot_error_name(loaded.error);
  }
}

TEST(SnapshotConcurrencyTest, TwoEnginesLoadTheSameFileSimultaneously) {
  QueryEngine engine = make_engine();
  const std::uint32_t seed = test::case_seed(307);
  const std::vector<Query> batch = random_batch(seed, 1500);
  BatchResults ref;
  engine.evaluate_serial(batch, ref);
  BatchResults out;
  engine.evaluate(batch, out);
  TempFile file("shared.snap");
  ASSERT_TRUE(engine.save_snapshot(file.path).ok());

  auto worker = [&] {
    QueryEngine e = make_engine();
    const SnapshotLoadResult loaded = e.load_snapshot(file.path);
    EXPECT_TRUE(loaded.ok()) << snapshot_error_name(loaded.error);
    BatchResults replay;
    e.evaluate(batch, replay);
    EXPECT_TRUE(replay.bitwise_equal(ref)) << "seed " << seed;
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
}

TEST(SnapshotConcurrencyTest, LoadRacesEvaluateOnTheSameEngine) {
  QueryEngine warm = make_engine();
  const std::uint32_t seed = test::case_seed(311);
  const std::vector<Query> batch = random_batch(seed, 1500);
  BatchResults ref;
  warm.evaluate_serial(batch, ref);
  BatchResults out;
  warm.evaluate(batch, out);
  TempFile file("loadrace.snap");
  ASSERT_TRUE(warm.save_snapshot(file.path).ok());

  // Loading inserts the exact bits a fresh compute would produce, so the
  // racing evaluate stays byte-identical no matter who wins each shard.
  QueryEngine engine = make_engine();
  sim::ThreadPool pool(4);
  std::thread loader([&] {
    const SnapshotLoadResult loaded = engine.load_snapshot(file.path);
    EXPECT_TRUE(loaded.ok()) << snapshot_error_name(loaded.error);
  });
  BatchResults racing;
  engine.evaluate(batch, racing, &pool);
  loader.join();
  EXPECT_TRUE(racing.bitwise_equal(ref)) << "seed " << seed;
  BatchResults after;
  engine.evaluate(batch, after, &pool);
  EXPECT_TRUE(after.bitwise_equal(ref)) << "seed " << seed;
}

}  // namespace
}  // namespace maia::svc
