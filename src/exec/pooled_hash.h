#ifndef CLOUDVIEWS_EXEC_POOLED_HASH_H_
#define CLOUDVIEWS_EXEC_POOLED_HASH_H_

#include <cstdint>
#include <vector>

namespace cloudviews {

// Cache-conscious chained hash table in the rdf3x style: all entries live in
// one contiguous arena pool and buckets are 32-bit indices into it, so build
// is append-only with no per-entry allocation and probe walks an index chain
// instead of chasing heap pointers.
//
// Chains use HEAD insertion and iterate head -> tail, i.e. newest-first among
// equal hashes. This is deliberate: the hash join's specified match order
// (tests/reference_exec) is newest-first among equal keys — the order
// std::unordered_multimap::equal_range iterates under libstdc++ — and the
// batch hash join must emit matches in exactly that order at any partition
// count.
class PooledHashTable {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  void Reserve(size_t expected) {
    entries_.reserve(expected);
    if (BucketCountFor(expected) > buckets_.size()) {
      Rehash(BucketCountFor(expected));
    }
  }

  size_t size() const { return entries_.size(); }

  // Inserts an entry mapping `hash` to `payload` (a caller-side row or group
  // ordinal).
  void Insert(uint64_t hash, uint32_t payload) {
    if (entries_.size() + 1 > buckets_.size() - (buckets_.size() >> 2)) {
      Rehash(buckets_.empty() ? kMinBuckets : buckets_.size() * 2);
    }
    const size_t b = hash & mask_;
    entries_.push_back(Entry{hash, payload, buckets_[b]});
    buckets_[b] = static_cast<uint32_t>(entries_.size() - 1);
  }

  // First entry whose hash equals `hash` (newest inserted), or kNil.
  uint32_t First(uint64_t hash) const {
    if (buckets_.empty()) return kNil;
    uint32_t e = buckets_[hash & mask_];
    while (e != kNil && entries_[e].hash != hash) e = entries_[e].next;
    return e;
  }

  // Next entry with the same hash as entry `e`, or kNil.
  uint32_t NextMatch(uint32_t e) const {
    const uint64_t h = entries_[e].hash;
    uint32_t n = entries_[e].next;
    while (n != kNil && entries_[n].hash != h) n = entries_[n].next;
    return n;
  }

  uint32_t payload(uint32_t e) const { return entries_[e].payload; }

 private:
  struct Entry {
    uint64_t hash;
    uint32_t payload;
    uint32_t next;
  };

  static constexpr size_t kMinBuckets = 16;

  static size_t BucketCountFor(size_t n) {
    size_t want = kMinBuckets;
    // Keep load factor under ~3/4.
    while (want - (want >> 2) < n) want <<= 1;
    return want;
  }

  // Re-chains every pooled entry in pool order with head insertion, which
  // preserves the newest-first iteration order within equal hashes.
  void Rehash(size_t new_buckets) {
    buckets_.assign(new_buckets, kNil);
    mask_ = new_buckets - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const size_t b = entries_[i].hash & mask_;
      entries_[i].next = buckets_[b];
      buckets_[b] = static_cast<uint32_t>(i);
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> buckets_;
  uint64_t mask_ = 0;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_EXEC_POOLED_HASH_H_
