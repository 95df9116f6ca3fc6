// Open-addressing CLOCK cache with a seqlock-published read view: one per
// QueryEngine shard.
//
// Layout: a power-of-two slot table of entry indices probed linearly, over
// stable structure-of-arrays entry storage (key words / hashes / value
// words / reference bytes) preallocated at capacity.  Nothing allocates
// after construction: a hit is a probe walk, an insert at capacity
// recycles the CLOCK hand's victim in place.  Deletion uses backward-shift
// compaction instead of tombstones, so probe chains stay as short as the
// load factor implies no matter how many evictions have happened —
// important for a cache that by design evicts forever.
//
// Replacement is CLOCK (second chance): every entry has one reference
// byte, set by a lock-free hit and clear on a new entry.  An insert at
// capacity advances a hand over the entry slots, clearing each set byte it
// passes and evicting the first entry whose byte is already clear.  A
// reader writes the byte only when it finds it clear, so a hot entry's
// byte stays in a shared cache-line state instead of bouncing between
// cores on every hit.
//
// Concurrency: the cache has two faces.
//  * The WRITER face (find / insert / clear / for_each_in_hand_order) must
//    run under the owner's external mutex.  Mutations that a reader could
//    observe — table slots, key words, value words — are bracketed by an
//    epoch counter (odd while a write is in flight) and performed through
//    relaxed atomic stores.  Reference bytes are not bracketed: the hand
//    clears them without bumping the epoch.
//  * The READER face (probe_read_only) is const, lock-free and wait-free
//    apart from seqlock retries: it validates the epoch around the probe
//    and the value copy, and reports kRetry on writer overlap instead of
//    blocking.  All shared words are read through relaxed atomics with
//    acquire fencing on the epoch re-check (the standard C++ seqlock
//    recipe), so the fast path is UB-free and TSan-clean.  After a
//    validated hit it sets the entry's reference byte, also relaxed and
//    outside the epoch: if the writer recycled the entry in between, the
//    new key gets one unearned second chance — recency never changes an
//    answer, only which entry is evicted next.
//
// A probe can return a momentarily-stale kMiss while a writer is between
// epochs; callers resolve misses under the writer mutex anyway, so a stale
// miss costs a lock, never a wrong answer.  A hit is always exact: values
// are pure functions of their key, and the epoch check guarantees the
// copied bytes belong to one consistent table state.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "svc/query.hpp"

namespace maia::svc {

class ShardCache {
 public:
  /// Outcome of one lock-free probe.
  enum class ProbeStatus : std::uint8_t {
    kHit,    ///< value copied out; exact at some consistent epoch
    kMiss,   ///< key absent at a consistent epoch (may be stale vs a writer)
    kRetry,  ///< writer overlap persisted past the retry budget
  };
  struct ProbeResult {
    ProbeStatus status = ProbeStatus::kMiss;
    std::uint32_t retries = 0;  ///< epoch-validation retries consumed
  };

  /// Lock-free probes give up after this many epoch conflicts and fall
  /// back to the caller's locked path (forward progress under heavy
  /// writer churn).
  static constexpr std::uint32_t kMaxProbeRetries = 16;

  /// `capacity` = maximum resident entries; the slot table is sized at
  /// twice that (next power of two), bounding the load factor at 1/2 —
  /// which also guarantees every probe walk, even one racing a writer,
  /// meets an empty slot within one table length.
  explicit ShardCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    std::size_t slots = 8;
    while (slots < capacity_ * 2) slots <<= 1;
    mask_ = slots - 1;
    table_ = std::vector<std::atomic<std::uint32_t>>(slots);
    for (auto& s : table_) s.store(kNil, std::memory_order_relaxed);
    key_hi_ = std::vector<std::atomic<std::uint64_t>>(capacity_);
    key_lo_ = std::vector<std::atomic<std::uint64_t>>(capacity_);
    val_value_ = std::vector<std::atomic<std::uint64_t>>(capacity_);
    val_secondary_ = std::vector<std::atomic<std::uint64_t>>(capacity_);
    val_flags_ = std::vector<std::atomic<std::uint64_t>>(capacity_);
    ref_ = std::vector<std::atomic<std::uint8_t>>(capacity_);
    hashes_.resize(capacity_);
  }

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Reference bytes the hand has cleared: entries spared from eviction.
  std::uint64_t second_chances() const { return second_chances_; }

  // ------------------------------------------------------- reader face ---

  /// Const lock-free probe: copy the cached result for `key` into `out`
  /// without taking any lock, and mark the entry referenced.  Retries
  /// internally on writer overlap; kRetry after kMaxProbeRetries conflicts.
  ProbeResult probe_read_only(const CanonicalKey& key, std::uint64_t hash,
                              QueryResult& out) const {
    ProbeResult result;
    while (result.retries <= kMaxProbeRetries) {
      const std::uint64_t e1 = epoch_.load(std::memory_order_acquire);
      if (e1 & 1) {  // writer mid-flight
        ++result.retries;
        continue;
      }
      std::uint32_t hit = kNil;
      bool torn = false;
      QueryResult candidate;
      std::size_t slot = hash & mask_;
      std::size_t steps = 0;
      for (;;) {
        const std::uint32_t e = table_[slot].load(std::memory_order_relaxed);
        if (e == kNil) break;
        if (key_hi_[e].load(std::memory_order_relaxed) == key.hi &&
            key_lo_[e].load(std::memory_order_relaxed) == key.lo) {
          candidate = value_at(e);
          hit = e;
          break;
        }
        slot = (slot + 1) & mask_;
        if (++steps > mask_) {  // only reachable through a torn table state
          torn = true;
          break;
        }
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (!torn && epoch_.load(std::memory_order_relaxed) == e1) {
        if (hit != kNil) {
          out = candidate;
          if (ref_[hit].load(std::memory_order_relaxed) == 0) {
            ref_[hit].store(1, std::memory_order_relaxed);
          }
        }
        result.status = hit != kNil ? ProbeStatus::kHit : ProbeStatus::kMiss;
        return result;
      }
      ++result.retries;
    }
    result.status = ProbeStatus::kRetry;
    return result;
  }

  /// Current epoch (even = quiescent, odd = write in flight).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Test hook: reposition the epoch counter (e.g. next to the wrap point)
  /// while no writer or reader is active.
  void set_epoch_for_test(std::uint64_t e) {
    epoch_.store(e, std::memory_order_release);
  }

  // ------------------------------------------------------- writer face ---
  // Every method below requires the owner's shard mutex.

  /// Copy the cached result into `out`; false on miss.  Leaves the
  /// reference byte alone: only lock-free hits earn a second chance.
  bool find(const CanonicalKey& key, std::uint64_t hash,
            QueryResult& out) const {
    const std::uint32_t e = locate(key, hash);
    if (e == kNil) return false;
    out = value_at(e);
    return true;
  }

  /// Insert a key known to be absent (call after a failed find()).  At
  /// capacity the CLOCK hand's victim is evicted.
  void insert(const CanonicalKey& key, std::uint64_t hash,
              const QueryResult& value) {
    write_begin();
    std::uint32_t e;
    if (size_ < capacity_) {
      e = static_cast<std::uint32_t>(size_++);
    } else {
      e = advance_hand();
      erase_slot(slot_of(e));
      ++evictions_;
    }
    key_hi_[e].store(key.hi, std::memory_order_relaxed);
    key_lo_[e].store(key.lo, std::memory_order_relaxed);
    hashes_[e] = hash;
    val_value_[e].store(std::bit_cast<std::uint64_t>(value.value),
                        std::memory_order_relaxed);
    val_secondary_[e].store(std::bit_cast<std::uint64_t>(value.secondary),
                            std::memory_order_relaxed);
    val_flags_[e].store(static_cast<std::uint64_t>(value.flags) |
                            (static_cast<std::uint64_t>(value.reserved) << 32),
                        std::memory_order_relaxed);
    ref_[e].store(0, std::memory_order_relaxed);
    std::size_t slot = hash & mask_;
    while (table_[slot].load(std::memory_order_relaxed) != kNil) {
      slot = (slot + 1) & mask_;
    }
    table_[slot].store(e, std::memory_order_relaxed);
    write_end();
  }

  void clear() {
    write_begin();
    for (auto& s : table_) s.store(kNil, std::memory_order_relaxed);
    write_end();
    size_ = 0;
    hand_ = 0;
    evictions_ = 0;
    second_chances_ = 0;
  }

  /// Visit every resident entry in hand order, next victim first — the
  /// order that, replayed through insert() into an empty cache, puts the
  /// hand back in front of the same victims (snapshot drain/refill).
  /// `fn(key, value)` must not mutate the cache.
  template <typename Fn>
  void for_each_in_hand_order(Fn&& fn) const {
    // hand_ is 0 until the cache first fills, so it is always < size_.
    std::size_t e = hand_;
    for (std::size_t i = 0; i < size_; ++i) {
      fn(key_at(e), value_at(e));
      if (++e == size_) e = 0;
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Seqlock write bracket.  Odd store first, release fence so no data
  // store can be observed before it; the closing even store is release so
  // all data stores are ordered before it.
  void write_begin() {
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  void write_end() {
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }

  /// Probe for `key`; entry index or kNil.  Writer-context (relaxed loads
  /// are exact because the caller holds the only write lock).
  std::uint32_t locate(const CanonicalKey& key, std::uint64_t hash) const {
    std::size_t slot = hash & mask_;
    for (;;) {
      const std::uint32_t e = table_[slot].load(std::memory_order_relaxed);
      if (e == kNil) return kNil;
      if (key_hi_[e].load(std::memory_order_relaxed) == key.hi &&
          key_lo_[e].load(std::memory_order_relaxed) == key.lo) {
        return e;
      }
      slot = (slot + 1) & mask_;
    }
  }

  CanonicalKey key_at(std::uint32_t e) const {
    return CanonicalKey{key_hi_[e].load(std::memory_order_relaxed),
                        key_lo_[e].load(std::memory_order_relaxed)};
  }

  QueryResult value_at(std::uint32_t e) const {
    QueryResult r;
    r.value =
        std::bit_cast<double>(val_value_[e].load(std::memory_order_relaxed));
    r.secondary =
        std::bit_cast<double>(val_secondary_[e].load(std::memory_order_relaxed));
    const std::uint64_t fr = val_flags_[e].load(std::memory_order_relaxed);
    r.flags = static_cast<std::uint32_t>(fr);
    r.reserved = static_cast<std::uint32_t>(fr >> 32);
    return r;
  }

  /// Move the hand to the next victim: clear each set reference byte it
  /// passes and stop at the first entry whose byte is already clear.  One
  /// revolution clears every byte, so the hand stops within capacity + 1
  /// steps unless readers re-mark entries behind it; past that bound it
  /// evicts where it stands rather than chase them.
  std::uint32_t advance_hand() {
    for (std::size_t step = 0;; ++step) {
      const auto e = static_cast<std::uint32_t>(hand_);
      if (++hand_ == capacity_) hand_ = 0;
      if (step == capacity_ || ref_[e].load(std::memory_order_relaxed) == 0) {
        return e;
      }
      ref_[e].store(0, std::memory_order_relaxed);
      ++second_chances_;
    }
  }

  /// The table slot currently holding entry `e` (probe from its home).
  std::size_t slot_of(std::uint32_t e) const {
    std::size_t slot = hashes_[e] & mask_;
    while (table_[slot].load(std::memory_order_relaxed) != e) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  /// Backward-shift deletion: close the hole at `s` by walking the probe
  /// chain and pulling back every entry whose home slot lies cyclically at
  /// or before the hole, so lookups never need tombstones.
  void erase_slot(std::size_t s) {
    table_[s].store(kNil, std::memory_order_relaxed);
    std::size_t j = s;
    for (;;) {
      j = (j + 1) & mask_;
      const std::uint32_t e = table_[j].load(std::memory_order_relaxed);
      if (e == kNil) return;
      const std::size_t home = hashes_[e] & mask_;
      if (((j - home) & mask_) >= ((j - s) & mask_)) {
        table_[s].store(e, std::memory_order_relaxed);
        table_[j].store(kNil, std::memory_order_relaxed);
        s = j;
      }
    }
  }

  std::size_t capacity_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t hand_ = 0;  // next entry the CLOCK hand inspects
  std::uint64_t evictions_ = 0;
  std::uint64_t second_chances_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  // Reader-visible state: accessed with relaxed atomics under the seqlock.
  std::vector<std::atomic<std::uint32_t>> table_;  // slot -> entry, kNil empty
  std::vector<std::atomic<std::uint64_t>> key_hi_;
  std::vector<std::atomic<std::uint64_t>> key_lo_;
  std::vector<std::atomic<std::uint64_t>> val_value_;      // double bits
  std::vector<std::atomic<std::uint64_t>> val_secondary_;  // double bits
  std::vector<std::atomic<std::uint64_t>> val_flags_;      // flags | reserved<<32
  // Reference bytes: set by readers (outside the seqlock), cleared by the
  // hand under the writer mutex.
  mutable std::vector<std::atomic<std::uint8_t>> ref_;
  // Writer-only state: never read on the lock-free path.
  std::vector<std::uint64_t> hashes_;
};

}  // namespace maia::svc
