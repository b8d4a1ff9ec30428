// hash_table.hpp — lock-free hash table with one Harris list per bucket,
// as evaluated in the paper (§6: "a hash table which uses Harris's linked
// list to implement each bucket").
//
// The bucket count is fixed at construction (the paper sizes it to the key
// range, keeping chains short). Bucket roots — the head/tail sentinel
// pointers of each chain — are stored in the persistent pool so a crash
// test can recover the whole table from the root array alone.
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <vector>

#include "ds/batch.hpp"
#include "ds/harris_list.hpp"

namespace flit::ds {

template <class K, class V, class Words = HashedWords,
          class Method = Automatic>
class HashTable {
 public:
  using Bucket = HarrisList<K, V, Words, Method>;
  using Node = typename Bucket::Node;

  /// Persistent root record: everything recovery needs.
  struct Roots {
    std::size_t nbuckets;
    // Followed in memory by nbuckets {head, tail} pairs.
    struct Entry {
      Node* head;
      Node* tail;
    };
    Entry entries[1];  // flexible-array idiom; allocated oversized
  };

  explicit HashTable(std::size_t nbuckets) {
    buckets_.reserve(nbuckets);
    for (std::size_t i = 0; i < nbuckets; ++i) buckets_.emplace_back();

    const std::size_t bytes =
        sizeof(Roots) + (nbuckets - 1) * sizeof(typename Roots::Entry);
    roots_ = static_cast<Roots*>(pmem::Pool::instance().alloc(bytes));
    roots_bytes_ = bytes;
    roots_->nbuckets = nbuckets;
    for (std::size_t i = 0; i < nbuckets; ++i) {
      roots_->entries[i] = {buckets_[i].head(), buckets_[i].tail()};
    }
    if constexpr (Words::persistent) pmem::persist_range(roots_, bytes);
  }

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;
  HashTable(HashTable&&) noexcept = default;

  bool insert(K k, V v) { return bucket(k).insert(k, v); }
  bool remove(K k) { return bucket(k).remove(k); }
  /// Remove k, returning the removed value (see HarrisList::remove_get).
  std::optional<V> remove_get(K k) { return bucket(k).remove_get(k); }
  bool contains(K k) const { return bucket(k).contains(k); }
  std::optional<V> find(K k) const { return bucket(k).find(k); }

  // --- batched multi-op hooks (see HarrisList) -----------------------------

  /// Prefetch k's bucket chain entry (the hash pick plus the sentinel and
  /// first node lines) ahead of a later operation on k.
  void prepare(K k) const noexcept { bucket(k).prepare(k); }
  /// Lookup without the per-op completion fence; the caller fences once
  /// per batch.
  std::optional<V> find_batched(K k) const {
    return bucket(k).find_batched(k);
  }
  /// Insert-or-replace with an atomic in-place value CAS whose publish
  /// defers its fence to `batch` (pointer values only; see
  /// HarrisList::upsert_batched). Returns the superseded value when k was
  /// present, nullopt on a fresh insert.
  std::optional<V> upsert_batched(K k, V v, PublishBatch& batch)
    requires std::is_pointer_v<V>
  {
    return bucket(k).upsert_batched(k, v, batch);
  }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Total reachable keys; single-threaded use only.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Bucket& b : buckets_) n += b.size();
    return n;
  }

  // --- crash recovery ------------------------------------------------------

  Roots* roots() const noexcept { return roots_; }

  /// Rebuild non-owning bucket handles from a persisted root array.
  static HashTable recover(Roots* roots) {
    HashTable t(RecoverTag{});
    t.roots_ = roots;
    t.buckets_.reserve(roots->nbuckets);
    for (std::size_t i = 0; i < roots->nbuckets; ++i) {
      t.buckets_.push_back(
          Bucket::recover(roots->entries[i].head, roots->entries[i].tail));
    }
    return t;
  }

  /// Disown every bucket's nodes (see HarrisList::release): the persisted
  /// bytes outlive this volatile handle.
  void release() noexcept {
    for (Bucket& b : buckets_) b.release();
  }

  /// Visit every linked node in every bucket as f(node, is_marked);
  /// single-threaded use only (see HarrisList::for_each_linked).
  template <class F>
  void for_each_linked(F&& f) const {
    for (const Bucket& b : buckets_) b.for_each_linked(f);
  }

  /// One past the last byte of the persisted root array.
  std::uintptr_t roots_extent() const noexcept {
    return reinterpret_cast<std::uintptr_t>(roots_) + sizeof(Roots) +
           (roots_->nbuckets - 1) * sizeof(typename Roots::Entry);
  }

 private:
  struct RecoverTag {};
  explicit HashTable(RecoverTag) noexcept {}

  std::size_t index(K k) const noexcept {
    const auto h = static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h % buckets_.size());
  }
  Bucket& bucket(K k) noexcept { return buckets_[index(k)]; }
  const Bucket& bucket(K k) const noexcept { return buckets_[index(k)]; }

  std::vector<Bucket> buckets_;
  Roots* roots_ = nullptr;
  std::size_t roots_bytes_ = 0;
};

}  // namespace flit::ds
