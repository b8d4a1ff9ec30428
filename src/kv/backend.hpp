// backend.hpp — the shard ↔ data-structure contract of the KV store.
//
// The paper's central claim is that FliT instrumentation makes *any*
// lock-free structure durably linearizable with minimal code change. The
// KV layer honors that generality: a kv::Shard is written against the
// *backend concept* below rather than against one structure, and a
// backend is a thin adapter giving a set structure from src/ds/ the
// uniform face the shard (and Store recovery) needs:
//
//   using Key = std::int64_t;                 // the store's key type
//   using Node;                               // the persisted node type
//   struct Roots;                             // persistent recovery root
//   static constexpr bool kOrdered;           // supports for_each_range
//   static constexpr const char* kLayoutName; // superblock layout tag
//
//   Backend(std::size_t capacity_hint);       // fresh structure
//   static Backend recover(Roots*);           // volatile handle rebuild
//   Roots* roots();
//   std::optional<Record*> remove_get(Key);   // unique unlink ownership
//   bool contains(Key);
//   void prepare(Key);                        // prefetch probe entry
//   std::optional<Record*> find_batched(Key); // lookup, caller fences
//   std::optional<Record*> upsert_batched(Key, Record*, ds::PublishBatch&);
//                                             // atomic in-place replace-
//                                             // or-insert with a deferred-
//                                             // fence publish; the
//                                             // superseded record (owned
//                                             // by the caller) or nullopt
//   std::size_t count();                      // O(data) reachable sweep
//   void release();                           // disown persisted nodes
//   for_each_linked(f);                       // recovery sweep, see below
//   std::uintptr_t roots_extent();
//   static std::size_t node_bytes(const Node&);
//   static validate_roots(const Roots*, spans);  // bounds-check headers
//   for_each_range(Key lo, f);                // ordered backends only
//
// Two backends are provided: HashBackend (one Harris list per bucket —
// the original store layout) and OrderedBackend (a lock-free skiplist,
// which additionally supports ordered range scans and range-partitioned
// sharding; see store.hpp). Both store values as Record* (shard.hpp) and
// lean on the same two invariants:
//
//   * persist-before-publish — a Record is fully persisted before the
//     structure ever points at it, so a record reachable from a persisted
//     link is always intact;
//   * unique retirement ownership — every record leaves the structure by
//     exactly one successful value-word CAS: an upsert superseding it
//     (the upsert's caller owns it) or a removal's claim (remove_get's
//     caller owns it), so exactly one operation retires each superseded
//     record through EBR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "ds/batch.hpp"
#include "ds/hash_table.hpp"
#include "ds/skiplist.hpp"
#include "kv/shard.hpp"
#include "pmem/pool.hpp"

namespace flit::kv {

/// Hash-partitioned shard backend: a FliT hash table (one Harris list per
/// bucket). `capacity_hint` is the bucket count. Unordered — no scans.
template <class Words, class Method>
class HashBackend {
 public:
  using Key = std::int64_t;
  using Table = ds::HashTable<Key, Record*, Words, Method>;
  using Node = typename Table::Node;
  using Roots = typename Table::Roots;

  static constexpr bool kOrdered = false;
  static constexpr bool kPersistent = Words::persistent;
  static constexpr const char* kLayoutName = "hashed";

  explicit HashBackend(std::size_t capacity_hint) : table_(capacity_hint) {}
  HashBackend(HashBackend&&) noexcept = default;

  static HashBackend recover(Roots* roots) {
    return HashBackend(Table::recover(roots));
  }

  Roots* roots() const noexcept { return table_.roots(); }
  std::optional<Record*> remove_get(Key k) { return table_.remove_get(k); }
  bool contains(Key k) const { return table_.contains(k); }
  void prepare(Key k) const noexcept { table_.prepare(k); }
  std::optional<Record*> find_batched(Key k) const {
    return table_.find_batched(k);
  }
  std::optional<Record*> upsert_batched(Key k, Record* r,
                                        ds::PublishBatch& batch) {
    return table_.upsert_batched(k, r, batch);
  }
  std::size_t count() const { return table_.size(); }
  void release() noexcept { table_.release(); }

  template <class F>
  void for_each_linked(F&& f) const {
    table_.for_each_linked(f);
  }

  std::uintptr_t roots_extent() const noexcept {
    return table_.roots_extent();
  }

  static std::size_t node_bytes(const Node&) noexcept {
    return sizeof(Node);
  }

  /// Bounds-check everything recovery dereferences on the way to the
  /// nodes: the root array (including its nbuckets-sized entries) and
  /// every bucket's head/tail sentinels. `spans(p, len)` must return true
  /// iff [p, p+len) lies inside the region. Throws IncompatibleStore on a
  /// torn or bit-rotted header. Interior node corruption (next pointers)
  /// has no integrity metadata to check against and is out of scope, like
  /// the rest of the library's recovery model.
  template <class Spans>
  static void validate_roots(const Roots* roots, std::size_t region_capacity,
                             Spans&& spans) {
    using Entry = typename Roots::Entry;
    if (!spans(roots, sizeof(Roots))) {
      throw IncompatibleStore("kv::Store: corrupt shard root");
    }
    const std::size_t nb = roots->nbuckets;
    if (nb == 0 || nb > region_capacity / sizeof(Entry) ||
        !spans(roots, sizeof(Roots) + (nb - 1) * sizeof(Entry))) {
      throw IncompatibleStore("kv::Store: corrupt shard root array");
    }
    for (std::size_t b = 0; b < nb; ++b) {
      if (!spans(roots->entries[b].head, sizeof(Node)) ||
          !spans(roots->entries[b].tail, sizeof(Node))) {
        throw IncompatibleStore("kv::Store: corrupt bucket sentinel");
      }
    }
  }

 private:
  explicit HashBackend(Table&& t) noexcept : table_(std::move(t)) {}

  Table table_;
};

/// Ordered shard backend: a lock-free skiplist. Supports everything
/// HashBackend does plus ordered iteration (for_each_range), which is what
/// Store::scan and the YCSB E workload build on. `capacity_hint` is
/// accepted for ctor symmetry but unused (a skiplist needs no sizing).
template <class Words, class Method>
class OrderedBackend {
 public:
  using Key = std::int64_t;
  using List = ds::SkipList<Key, Record*, Words, Method>;
  using Node = typename List::Node;

  static constexpr bool kOrdered = true;
  static constexpr bool kPersistent = Words::persistent;
  static constexpr const char* kLayoutName = "ordered-skiplist";

  /// Persistent recovery root: the skiplist's two sentinel towers fully
  /// determine the structure (recovery rebuilds the index levels from the
  /// durable bottom level — see SkipList::recover).
  struct Roots {
    Node* head;
    Node* tail;
  };

  explicit OrderedBackend(std::size_t /*capacity_hint*/) : list_() {
    roots_ = static_cast<Roots*>(pmem::Pool::instance().alloc(sizeof(Roots)));
    roots_->head = list_.head();
    roots_->tail = list_.tail();
    if constexpr (Words::persistent) {
      pmem::persist_range(roots_, sizeof(Roots));
    }
  }

  OrderedBackend(OrderedBackend&&) noexcept = default;

  static OrderedBackend recover(Roots* roots) {
    return OrderedBackend(List::recover(roots->head, roots->tail), roots);
  }

  Roots* roots() const noexcept { return roots_; }
  std::optional<Record*> remove_get(Key k) { return list_.remove_get(k); }
  bool contains(Key k) const { return list_.contains(k); }
  void prepare(Key k) const noexcept { list_.prepare(k); }
  std::optional<Record*> find_batched(Key k) const {
    return list_.find_batched(k);
  }
  std::optional<Record*> upsert_batched(Key k, Record* r,
                                        ds::PublishBatch& batch) {
    return list_.upsert_batched(k, r, batch);
  }
  std::size_t count() const { return list_.size(); }
  void release() noexcept { list_.release(); }

  template <class F>
  void for_each_linked(F&& f) const {
    list_.for_each_linked(f);
  }

  /// Ordered visit of every live (key, record) with key >= lo, ascending,
  /// until f returns false. See SkipList::for_each_range for the
  /// concurrency contract (not an atomic snapshot; stable keys are always
  /// visited).
  template <class F>
  void for_each_range(Key lo, F&& f) const {
    list_.for_each_range(lo, f);
  }

  std::uintptr_t roots_extent() const noexcept {
    return reinterpret_cast<std::uintptr_t>(roots_) + sizeof(Roots);
  }

  /// Skiplist nodes are tower-sized; a corrupt height would poison the
  /// recovery sweep's extent arithmetic, so reject it here (the sweep
  /// turns length_error into IncompatibleStore).
  static std::size_t node_bytes(const Node& n) {
    if (n.height < 1 || n.height > List::kMaxLevel) {
      throw std::length_error("kv: corrupt skiplist node height");
    }
    return Node::bytes_for(n.height);
  }

  template <class Spans>
  static void validate_roots(const Roots* roots,
                             std::size_t /*region_capacity*/, Spans&& spans) {
    if (!spans(roots, sizeof(Roots))) {
      throw IncompatibleStore("kv::Store: corrupt shard root");
    }
    for (const Node* s : {roots->head, roots->tail}) {
      // Two-step: the base Node must be in-region before its height can be
      // read, then the full tower must fit too.
      if (!spans(s, sizeof(Node))) {
        throw IncompatibleStore("kv::Store: corrupt skiplist sentinel");
      }
      if (s->height < 1 || s->height > List::kMaxLevel ||
          !spans(s, Node::bytes_for(s->height))) {
        throw IncompatibleStore("kv::Store: corrupt skiplist sentinel tower");
      }
    }
  }

 private:
  OrderedBackend(List&& l, Roots* roots) noexcept
      : list_(std::move(l)), roots_(roots) {}

  List list_;
  Roots* roots_ = nullptr;
};

}  // namespace flit::kv
