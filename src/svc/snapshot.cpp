#include "svc/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "svc/sharding.hpp"

namespace maia::svc {
namespace {

// Caps on header-declared sizes, checked before any allocation so a
// corrupt header cannot make the loader attempt a multi-terabyte resize.
// Far above anything a real engine saves (256 shards x 32k entries).
constexpr std::uint64_t kMaxShards = 1u << 20;
constexpr std::uint64_t kMaxRecords = 1ull << 32;

// Slice-by-8 CRC32 tables: table[0] is the classic byte-at-a-time table,
// table[k][b] extends it so eight input bytes fold in one step.  The
// byte-serial loop is latency-bound (~3 ns/byte: each step waits on the
// previous lookup); slicing breaks the dependency chain and matters here
// because every wire frame is CRC'd twice (sender and receiver), which
// made the checksum the single largest per-byte cost on the serving path.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (int k = 1; k < 8; ++k) {
      c = tables[0][c & 0xffu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

// Fixed-width little-endian field access into a byte buffer; explicit
// byte arithmetic (not memcpy of host integers) so the written image is
// identical on any host and the endianness tag really detects a
// cross-endian reader.
void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

const char* snapshot_error_name(SnapshotError error) {
  switch (error) {
    case SnapshotError::kOk: return "ok";
    case SnapshotError::kIoError: return "io_error";
    case SnapshotError::kTruncated: return "truncated";
    case SnapshotError::kBadMagic: return "bad_magic";
    case SnapshotError::kBadVersion: return "bad_version";
    case SnapshotError::kBadEndianness: return "bad_endianness";
    case SnapshotError::kBadCalibration: return "bad_calibration";
    case SnapshotError::kBadCrc: return "bad_crc";
    case SnapshotError::kBadHeader: return "bad_header";
  }
  return "unknown";
}

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xffffffffu;
  while (n >= 8) {
    // Fold eight bytes at once: the first four mix into the running crc,
    // the next four enter through the lower-order tables.  Bitwise
    // identical to the byte-serial loop for any input.
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][p[4]] ^ tables[2][p[5]] ^ tables[1][p[6]] ^
          tables[0][p[7]];
    p += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i) {
    crc = tables[0][(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void write_snapshot(std::ostream& os, std::uint64_t calibration_hash,
                    std::span<const std::uint64_t> shard_counts,
                    std::span<const SnapshotRecord> records) {
  // Payload image: the shard-count array then the records, in one buffer
  // so the CRC covers exactly the bytes that land on disk.
  std::vector<unsigned char> payload(shard_counts.size() * 8 +
                                     records.size() * sizeof(SnapshotRecord));
  unsigned char* p = payload.data();
  for (const std::uint64_t count : shard_counts) {
    put_u64(p, count);
    p += 8;
  }
  for (const SnapshotRecord& r : records) {
    put_u64(p, r.key.hi);
    put_u64(p + 8, r.key.lo);
    std::uint64_t bits;
    std::memcpy(&bits, &r.result.value, 8);
    put_u64(p + 16, bits);
    std::memcpy(&bits, &r.result.secondary, 8);
    put_u64(p + 24, bits);
    put_u32(p + 32, r.result.flags);
    put_u32(p + 36, r.result.reserved);
    p += sizeof(SnapshotRecord);
  }

  unsigned char header[kSnapshotHeaderBytes];
  put_u64(header, kSnapshotMagic);
  put_u32(header + 8, kSnapshotVersion);
  put_u32(header + 12, kSnapshotEndianTag);
  put_u64(header + 16, calibration_hash);
  put_u32(header + 24, static_cast<std::uint32_t>(shard_counts.size()));
  put_u32(header + 28, crc32(payload.data(), payload.size()));
  put_u64(header + 32, records.size());

  os.write(reinterpret_cast<const char*>(header), sizeof(header));
  os.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
}

SnapshotReadResult read_snapshot(std::istream& is,
                                 std::uint64_t expected_calibration) {
  SnapshotReadResult out;
  const auto reject = [&](SnapshotError error) -> SnapshotReadResult& {
    out.error = error;
    out.shard_counts.clear();
    out.records.clear();
    return out;
  };

  unsigned char header[kSnapshotHeaderBytes];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    return reject(SnapshotError::kTruncated);
  }

  // Validation ladder: identity first (magic/version/endianness), then
  // staleness (calibration), then integrity (CRC).  Each stage's check is
  // meaningless unless every earlier one passed.
  if (get_u64(header) != kSnapshotMagic) return reject(SnapshotError::kBadMagic);
  if (get_u32(header + 8) != kSnapshotVersion) {
    return reject(SnapshotError::kBadVersion);
  }
  if (get_u32(header + 12) != kSnapshotEndianTag) {
    return reject(SnapshotError::kBadEndianness);
  }
  if (get_u64(header + 16) != expected_calibration) {
    return reject(SnapshotError::kBadCalibration);
  }
  const std::uint64_t shards = get_u32(header + 24);
  const std::uint32_t stored_crc = get_u32(header + 28);
  const std::uint64_t total = get_u64(header + 32);
  if (shards == 0 || shards > kMaxShards || total > kMaxRecords) {
    return reject(SnapshotError::kBadHeader);
  }

  const std::size_t payload_bytes = static_cast<std::size_t>(
      shards * 8 + total * sizeof(SnapshotRecord));
  // Bound the allocation by the bytes actually present before resizing:
  // a corrupt count field must produce kTruncated, not a multi-gigabyte
  // zero-fill.  (Seek-based; on a non-seekable stream the short read
  // below still catches it, just after the allocation.)
  const std::istream::pos_type here = is.tellg();
  if (here != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || end < here ||
        static_cast<std::uint64_t>(end - here) < payload_bytes) {
      return reject(SnapshotError::kTruncated);
    }
  }
  std::vector<unsigned char> payload(payload_bytes);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload_bytes));
  if (is.gcount() != static_cast<std::streamsize>(payload_bytes)) {
    return reject(SnapshotError::kTruncated);
  }
  if (crc32(payload.data(), payload.size()) != stored_crc) {
    return reject(SnapshotError::kBadCrc);
  }
  // A spliced file (valid image + trailing bytes) is not the image that
  // was saved: reject rather than silently ignore what follows.
  if (is.peek() != std::istream::traits_type::eof()) {
    return reject(SnapshotError::kBadHeader);
  }

  const unsigned char* p = payload.data();
  out.shard_counts.resize(static_cast<std::size_t>(shards));
  std::uint64_t sum = 0;
  for (std::uint64_t s = 0; s < shards; ++s) {
    out.shard_counts[static_cast<std::size_t>(s)] = get_u64(p);
    // Guard the sum against wrap-around before comparing with `total`.
    if (out.shard_counts[static_cast<std::size_t>(s)] > kMaxRecords ||
        (sum += out.shard_counts[static_cast<std::size_t>(s)]) > kMaxRecords) {
      return reject(SnapshotError::kBadHeader);
    }
    p += 8;
  }
  if (sum != total) return reject(SnapshotError::kBadHeader);

  out.records.resize(static_cast<std::size_t>(total));
  for (SnapshotRecord& r : out.records) {
    r.key.hi = get_u64(p);
    r.key.lo = get_u64(p + 8);
    std::uint64_t bits = get_u64(p + 16);
    std::memcpy(&r.result.value, &bits, 8);
    bits = get_u64(p + 24);
    std::memcpy(&r.result.secondary, &bits, 8);
    r.result.flags = get_u32(p + 32);
    r.result.reserved = get_u32(p + 36);
    p += sizeof(SnapshotRecord);
  }
  return out;
}

SnapshotError write_file_atomically(const std::string& path,
                                    const std::function<bool(std::ostream&)>& write) {
  std::string tmp = path;
  tmp += ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) return SnapshotError::kIoError;
  // mkstemp creates 0600; give the snapshot the usual file mode.
  bool ok = ::fchmod(fd, S_IRUSR | S_IWUSR | S_IRGRP | S_IROTH) == 0;
  if (ok) {
    std::ofstream os(tmp, std::ios::binary);
    ok = os && write(os);
    os.close();  // flushes; a failed flush sets failbit
    ok = ok && !os.fail();
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return SnapshotError::kIoError;
  }
  // The rename survives a crash only once the directory entry is on disk.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int dir_fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  ok = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  return ok ? SnapshotError::kOk : SnapshotError::kIoError;
}

PartitionResult partition_snapshot(const std::string& in_path,
                                   std::span<const std::string> out_paths) {
  PartitionResult out;
  if (out_paths.empty()) {
    out.error = SnapshotError::kBadHeader;
    return out;
  }
  std::ifstream is(in_path, std::ios::binary);
  if (!is) {
    out.error = SnapshotError::kIoError;
    return out;
  }
  // Peek the stored calibration so the full validation ladder can run
  // against it — partitioning preserves whatever calibration the source
  // carries; it is load_snapshot() on the target engine that decides
  // whether that calibration is acceptable.
  unsigned char header[kSnapshotHeaderBytes];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    out.error = SnapshotError::kTruncated;
    return out;
  }
  const std::uint64_t calibration = get_u64(header + 16);
  is.seekg(0);
  SnapshotReadResult parsed = read_snapshot(is, calibration);
  if (!parsed.ok()) {
    out.error = parsed.error;
    return out;
  }
  out.records_in = parsed.records.size();

  const std::size_t shards = out_paths.size();
  std::vector<std::vector<SnapshotRecord>> split(shards);
  for (const SnapshotRecord& r : parsed.records) {
    split[shard_owner(hash_key(r.key), shards)].push_back(r);
  }
  out.records_per_shard.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::uint64_t count = split[s].size();
    out.error = write_file_atomically(out_paths[s], [&](std::ostream& os) {
      write_snapshot(os, calibration, std::span<const std::uint64_t>(&count, 1),
                     split[s]);
      return static_cast<bool>(os);
    });
    if (!out.ok()) return out;
    out.records_per_shard[s] = count;
  }
  return out;
}

}  // namespace maia::svc
