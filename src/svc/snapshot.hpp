// Versioned binary snapshots of the QueryEngine's shard caches — the
// cross-process warm-start path.  A snapshot persists every resident
// (CanonicalKey, QueryResult) pair so a cold `maia_sweep` or a restarted
// service replays warm instead of re-paying the full uncached model cost.
//
// Format v1 (all integers little-endian as written; a mismatched reader
// rejects on the endianness tag):
//
//   offset  size  field
//        0     8  magic            "MAIASNP1"
//        8     4  format version   (kSnapshotVersion)
//       12     4  endianness tag   (kSnapshotEndianTag as written)
//       16     8  calibration hash (QueryEngine::calibration_hash())
//       24     4  shard count at save time
//       28     4  CRC32 of the payload (zlib polynomial)
//       32     8  total record count
//       40     -  payload: u64 per-shard record counts, then the records
//                 (key.hi, key.lo, value, secondary, flags, reserved —
//                 40 bytes each), each shard's entries in CLOCK hand
//                 order, next victim first
//
// Trust model: bytes on disk are never trusted.  read_snapshot() validates
// magic -> version -> endianness -> calibration hash -> CRC (then count
// consistency and exact length), and the engine falls back to a cold start
// on any mismatch — a stale snapshot saved before a recalibration must
// silently warm nothing rather than serve numbers a fresh compute would
// not produce.  Every rejection carries a SnapshotError reason code and is
// counted under svc.snapshot.rejected[.<reason>] in the metrics registry.
//
// The per-shard counts are advisory (they let a same-shape engine refill
// without rehashing); records are re-sharded by key hash on load, so a
// snapshot warms engines of any shard count.
//
// Saves are crash-safe: QueryEngine::save_snapshot and partition_snapshot
// both write through write_file_atomically, so a failed or interrupted
// save leaves the previous snapshot file intact.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "svc/query.hpp"

namespace maia::svc {

inline constexpr std::uint64_t kSnapshotMagic = 0x31504e534149414dull;  // "MAIASNP1"
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint32_t kSnapshotEndianTag = 0x01020304u;
inline constexpr std::size_t kSnapshotHeaderBytes = 40;

/// Why a snapshot was (or was not) usable.  Ordered by validation stage.
enum class SnapshotError : std::uint8_t {
  kOk = 0,
  kIoError,         // file unopenable / unwritable
  kTruncated,       // fewer bytes than the header or its counts promise
  kBadMagic,        // not a snapshot file
  kBadVersion,      // a different format generation
  kBadEndianness,   // written on a machine with the other byte order
  kBadCalibration,  // saved under different model constants: stale
  kBadCrc,          // payload bytes corrupted
  kBadHeader,       // counts inconsistent / insane sizes / trailing bytes
};

/// Stable lower-case token for metrics suffixes and log lines.
const char* snapshot_error_name(SnapshotError error);

/// One persisted cache entry.  The on-disk image is exactly this struct.
struct SnapshotRecord {
  CanonicalKey key;
  QueryResult result;
};
static_assert(sizeof(SnapshotRecord) == 40, "on-disk record layout");

/// CRC32 (zlib/IEEE 802.3 polynomial, reflected).  Chain calls by passing
/// the previous return value as `crc`; start with 0.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// Serialize a snapshot.  `shard_counts` must sum to `records.size()`,
/// with each shard's records contiguous and in hand order (next victim
/// first).
void write_snapshot(std::ostream& os, std::uint64_t calibration_hash,
                    std::span<const std::uint64_t> shard_counts,
                    std::span<const SnapshotRecord> records);

/// Replace the file at `path` with the bytes `write` puts on the stream,
/// crash-safely.  The bytes go to a fresh temp file beside `path` (mkstemp,
/// so concurrent saves never share one), which is flushed, fsync'd and
/// renamed over `path`; then the directory is fsync'd.  A reader, or a
/// restart after a crash, sees the old file or the new one, never a torn
/// one.  On any failure, including `write` returning false, the temp file
/// is unlinked and the result is kIoError.
SnapshotError write_file_atomically(const std::string& path,
                                    const std::function<bool(std::ostream&)>& write);

struct SnapshotReadResult {
  SnapshotError error = SnapshotError::kOk;
  std::vector<std::uint64_t> shard_counts;
  std::vector<SnapshotRecord> records;
  bool ok() const { return error == SnapshotError::kOk; }
};

/// Parse and fully validate a snapshot.  On any error the returned
/// records/shard_counts are empty — a rejected snapshot warms nothing.
SnapshotReadResult read_snapshot(std::istream& is,
                                 std::uint64_t expected_calibration);

/// Outcome of partition_snapshot().
struct PartitionResult {
  SnapshotError error = SnapshotError::kOk;
  std::uint64_t records_in = 0;
  std::vector<std::uint64_t> records_per_shard;
  bool ok() const { return error == SnapshotError::kOk; }
};

/// Split one snapshot into `out_paths.size()` per-shard snapshot files:
/// each record lands in the file whose index is
/// `shard_owner(hash_key(record.key), out_paths.size())` — the same
/// consistent-hash ranges the router scatters by, so shard file i warms
/// exactly the keys `maia_serve --shard i/N` will be asked.  The source
/// file is fully validated first (against its own stored calibration,
/// which every output preserves); on any error nothing useful is written.
/// Each output is replaced through write_file_atomically, so a failed
/// write leaves that path's previous file intact.
PartitionResult partition_snapshot(const std::string& in_path,
                                   std::span<const std::string> out_paths);

}  // namespace maia::svc
