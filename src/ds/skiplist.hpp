// skiplist.hpp — lock-free skiplist (Fraser [2003] / Herlihy–Shavit style),
// written against the FliT instruction API.
//
// One of the four evaluated structures (§6). The set is defined by the
// bottom level (a Harris-style marked list); upper levels are an index.
// Deletion marks every level of the victim top-down (bottom level last —
// the linearization point) and then physically unlinks via a helping
// search. Nodes have geometric random height; towers make skiplist nodes
// the structure where the adjacent-counter placement overflows a cache
// line (paper §6.6).
//
// Pointer-valued lists additionally support atomic in-place value
// replacement (upsert) with the same value-word protocol as HarrisList:
// upsert CASes the value word old→new on a live node, a removal claims
// the final value by marking it (bit 0) after winning the bottom-level
// mark CAS, and readers treat a marked value as absence. See the
// harris_list.hpp file comment for the ownership argument.
#pragma once

#include <cassert>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "check/lincheck.hpp"
#include "core/modes.hpp"
#include "ds/batch.hpp"
#include "ds/tagged_ptr.hpp"
#include "pmem/persist_check.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace flit::ds {

template <class K, class V, class Words = HashedWords,
          class Method = Automatic>
class SkipList {
  static_assert(std::is_integral_v<K>, "sentinel keys require integral K");

  template <class T>
  using W = typename Words::template word<T>;

 public:
  static constexpr int kMaxLevel = 20;
  static constexpr K kMinKey = std::numeric_limits<K>::min();
  static constexpr K kMaxKey = std::numeric_limits<K>::max();

  struct Node {
    W<K> key;
    W<V> value;
    int height;        // immutable after construction
    W<Node*> next[1];  // tower, occupied [0, height); bit 0 = mark

    static std::size_t bytes_for(int h) noexcept {
      return sizeof(Node) + static_cast<std::size_t>(h - 1) * sizeof(W<Node*>);
    }
  };

  SkipList() {
    tail_ = alloc_node(kMaxKey, V{}, kMaxLevel);
    head_ = alloc_node(kMinKey, V{}, kMaxLevel);
    for (int i = 0; i < kMaxLevel; ++i) {
      head_->next[i].store_private(tail_, kVolatile);
      tail_->next[i].store_private(nullptr, kVolatile);
    }
    persist_node(tail_);
    persist_node(head_);
  }

  ~SkipList() {
    if (!owns_) return;
    Node* n = head_;
    while (n != nullptr) {
      Node* nxt = without_mark(n->next[0].load_private());
      free_node_now(n);
      n = nxt;
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;
  SkipList(SkipList&& o) noexcept
      : head_(o.head_), tail_(o.tail_), owns_(o.owns_) {
    o.owns_ = false;
    o.head_ = o.tail_ = nullptr;
  }

  bool insert(K k, V v) {
    recl::Ebr::Guard g;
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int height = random_height();
    for (;;) {
      if (find(k, preds, succs)) {
        Words::operation_completion();
        return false;
      }
      if (try_link(k, v, height, preds, succs)) {
        Words::operation_completion();
        return true;
      }
    }
  }

  /// Insert-or-replace. Returns the superseded value when k was present
  /// (the caller owns cleanup of whatever it referenced), nullopt when
  /// this call freshly inserted k. The replacement is one CAS on the
  /// node's value word — a concurrent find/scan observes the old or the
  /// new value, never absence. Pointer values only (the coordination with
  /// removal needs bit 0 of the word); see HarrisList::upsert_batched for
  /// the linearization argument, which carries over unchanged.
  ///
  /// The publish (value-word replace or the fresh tower's bottom-level
  /// link) is a deferred-fence CAS enlisted in `batch`, and no per-op
  /// completion fence is issued — the caller pays one pfence for the
  /// whole batch and then batch.complete_all() (see ds/batch.hpp and
  /// kv::Store's put core). Index-level linking is unchanged (it never
  /// decides set membership).
  std::optional<V> upsert_batched(K k, V v, PublishBatch& batch)
    requires std::is_pointer_v<V>
  {
    recl::Ebr::Guard g;
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    const int height = random_height();
    for (;;) {
      if (find(k, preds, succs)) {
        if (std::optional<V> old = replace_value_deferred(
                succs[0]->value, v, Method::critical_load,
                Method::critical_store, batch)) {
          return old;
        }
        continue;  // claimed by a removal: re-find (helps unlink), insert
      }
      if (try_link(k, v, height, preds, succs, &batch)) {
        return std::nullopt;
      }
    }
  }

  bool remove(K k) { return remove_get(k).has_value(); }

  /// Remove k, returning the removed value (nullopt if k is absent).
  /// Exactly one removal observes the returned value, which lets callers
  /// own cleanup of value-referenced storage (the KV record slab relies
  /// on this for EBR retirement of superseded records; see
  /// HarrisList::remove_get for the same contract). Pointer values are
  /// claimed with a marking CAS (ending the word's upsert chain);
  /// non-pointer values are immutable after publication and a plain read
  /// suffices.
  std::optional<V> remove_get(K k) {
    recl::Ebr::Guard g;
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(k, preds, succs)) {
      Words::operation_completion();
      return std::nullopt;
    }
    Node* victim = succs[0];
    // Mark index levels top-down (helping is idempotent).
    for (int level = victim->height - 1; level >= 1; --level) {
      Node* succ = victim->next[level].load(Method::critical_load);
      while (!is_marked(succ)) {
        Node* e = succ;
        victim->next[level].cas(e, with_mark(succ), Method::cleanup_store);
        succ = victim->next[level].load(Method::critical_load);
      }
    }
    // Bottom-level mark decides the winner (linearization point).
    Node* succ = victim->next[0].load(Method::critical_load);
    for (;;) {
      if (is_marked(succ)) {  // another remover won
        Words::operation_completion();
        return std::nullopt;
      }
      Node* e = succ;
      if (victim->next[0].cas(e, with_mark(succ), Method::critical_store)) {
        const V removed = claim_value(victim->value, Method::critical_load,
                                      Method::cleanup_store);
        // Physically unlink at every level, then reclaim.
        find(k, preds, succs);
        recl::Ebr::instance().retire(victim, &retire_deleter);
        Words::operation_completion();
        return removed;
      }
      succ = e;
    }
  }

  bool contains(K k) const {
    recl::Ebr::Guard g;
    Node* pred = head_;
    Node* curr = nullptr;
    for (int level = kMaxLevel - 1; level >= 0; --level) {
      curr = without_mark(pred->next[level].load(Method::traversal_load));
      for (;;) {
        Node* succ = curr->next[level].load(Method::traversal_load);
        while (is_marked(succ)) {  // skip logically deleted (wait-free read)
          curr = without_mark(succ);
          succ = curr->next[level].load(Method::traversal_load);
        }
        if (curr->key.load(Method::traversal_load) < k) {
          pred = curr;
          curr = without_mark(succ);
        } else {
          break;
        }
      }
    }
    bool found = curr->key.load(Method::transition_load) == k &&
                 !is_marked(curr->next[0].load(Method::transition_load));
    Words::operation_completion();
    return found;
  }

  /// Lookup returning the value. A claimed (marked) pointer value means
  /// the node's removal linearized before our read: absent.
  std::optional<V> find_value(K k) const {
    std::optional<V> out = find_batched(k);
    Words::operation_completion();
    return out;
  }

  /// find_value() minus the per-op completion fence: a batch of lookups
  /// shares one completion fence, issued by the caller after the last
  /// lookup.
  std::optional<V> find_batched(K k) const {
    recl::Ebr::Guard g;
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    std::optional<V> out;
    if (const_cast<SkipList*>(this)->find(k, preds, succs)) {
      const V v = succs[0]->value.load(Method::transition_load);
      if (!value_is_claimed(v)) out = v;
    }
    return out;
  }

  /// Prefetch the first probe targets of a later operation: the head
  /// tower's top-level link word (where every descent starts) and its
  /// successor node. Purely a memory hint — one relaxed pointer load, no
  /// dereference — safe with or without an EBR guard. Batched operations
  /// call this for key i+1 while key i's cache misses are outstanding.
  void prepare(K /*k*/) const noexcept {
    __builtin_prefetch(head_);
    __builtin_prefetch(&head_->next[kMaxLevel - 1]);
    __builtin_prefetch(without_mark(head_->next[kMaxLevel - 1].load_private()));
  }

  /// Reachable key count at the bottom level; single-threaded use only.
  std::size_t size() const {
    std::size_t n = 0;
    const Node* c = without_mark(head_->next[0].load_private());
    while (c != tail_) {
      if (c == nullptr) {
        throw std::length_error(
            "ds::SkipList: bottom level breaks before the tail sentinel");
      }
      if (!is_marked(c->next[0].load_private())) ++n;
      c = without_mark(c->next[0].load_private());
    }
    return n;
  }

  /// Ordered range visit: call f(key, value) for every unmarked node with
  /// key >= lo, in ascending key order, until f returns false or the tail
  /// sentinel is reached. Safe under concurrent inserts/removes (the walk
  /// skips marked nodes wait-free and never helps, like contains); the
  /// caller should hold an Ebr::Guard across any use it makes of
  /// value-referenced storage. The visit is not an atomic snapshot: each
  /// (key, value) read is individually consistent, but keys inserted or
  /// removed while the walk is in flight may or may not appear. Keys that
  /// are present for the walk's whole duration are always visited.
  template <class F>
  void for_each_range(K lo, F&& f) const {
    recl::Ebr::Guard g;
    // Descend to the bottom-level node preceding lo (read-only, no
    // helping — same wait-free skip of marked nodes as contains()).
    Node* pred = head_;
    for (int level = kMaxLevel - 1; level >= 0; --level) {
      Node* curr = without_mark(pred->next[level].load(Method::traversal_load));
      for (;;) {
        check::lc_deref(curr, "ds::SkipList::for_each_range");
        Node* succ = curr->next[level].load(Method::traversal_load);
        while (is_marked(succ)) {
          curr = without_mark(succ);
          check::lc_deref(curr, "ds::SkipList::for_each_range");
          succ = curr->next[level].load(Method::traversal_load);
        }
        if (curr->key.load(Method::traversal_load) < lo) {
          pred = curr;
          curr = without_mark(succ);
        } else {
          break;
        }
      }
    }
    // Walk the bottom level, yielding unmarked nodes. The mark check and
    // the value read use transition loads (flush-if-tagged) so every
    // emitted pair is durably readable before the operation completes.
    Node* curr = without_mark(pred->next[0].load(Method::traversal_load));
    while (curr != tail_) {
      check::lc_deref(curr, "ds::SkipList::for_each_range");
      Node* succ = curr->next[0].load(Method::transition_load);
      if (!is_marked(succ)) {
        const K k = curr->key.load(Method::transition_load);
        if (k >= lo) {
          // A value claimed between our mark check and this read means
          // the node's removal linearized mid-walk: skip it, exactly as
          // if the walk had read `succ` a moment later.
          const V v = curr->value.load(Method::transition_load);
          if (!value_is_claimed(v) && !f(k, v)) break;
        }
      }
      curr = without_mark(succ);
    }
    Words::operation_completion();
  }

  // --- crash recovery ------------------------------------------------------

  Node* head() const noexcept { return head_; }
  Node* tail() const noexcept { return tail_; }

  /// Disown the nodes: the destructor will no longer free them. Used when
  /// the structure's bytes outlive this handle (e.g. a file-backed region
  /// being closed while the persisted nodes stay on disk).
  void release() noexcept { owns_ = false; }

  /// Visit every bottom-level linked node — sentinels and marked nodes
  /// included — as f(node, is_marked). Single-threaded use only (recovery
  /// sweeps that rebuild allocator metadata must see every byte a
  /// traversal could reach; a *marked* node's value may reference
  /// already-reclaimed storage, which is why the flag is passed along).
  /// Every healthy bottom level terminates at the tail sentinel (the only
  /// tower whose next[0] is null); a walk ending anywhere else is a
  /// truncated/torn image and throws std::length_error rather than
  /// letting recovery half-succeed.
  template <class F>
  void for_each_linked(F&& f) const {
    const Node* c = head_;
    const Node* last = nullptr;
    while (c != nullptr) {
      const Node* succ = c->next[0].load_private();
      f(*c, is_marked(succ));
      last = c;
      c = without_mark(succ);
    }
    if (last != tail_) {
      throw std::length_error(
          "ds::SkipList: bottom level breaks before the tail sentinel");
    }
  }

  /// Post-crash recovery. The durable set is the bottom level (every
  /// insert/delete linearizes there with p-instructions); the index levels
  /// may be stale after a crash — under the Manual method the index is
  /// maintained entirely with v-instructions, so a node can even be marked
  /// at level 0 but look alive above. Like the durable skiplists in the
  /// literature, recovery therefore rebuilds the index from the bottom
  /// level (single-threaded, then re-persisted) instead of trusting it.
  static SkipList recover(Node* head, Node* tail) {
    SkipList s(head, tail);
    s.rebuild_index();
    return s;
  }

 private:
  SkipList(Node* head, Node* tail) noexcept
      : head_(head), tail_(tail), owns_(false) {}

  /// One insertion attempt against the (pred, succ) neighborhood `find`
  /// just computed: build the tower, link at the bottom level (the
  /// linearization point), then best-effort link the index levels
  /// (volatile under Manual — the set already contains k; any failure
  /// here only degrades the index). Returns false — node freed, nothing
  /// published — if the bottom-level CAS lost; the caller re-finds and
  /// retries. May itself call find() while fixing up index levels, so
  /// preds/succs are clobbered either way. With a non-null `batch` the
  /// bottom-level publish defers its trailing fence to the batch (the
  /// tower persist keeps its own fence: the node's bytes must be durable
  /// before the link can be observed).
  bool try_link(K k, V v, int height, Node** preds, Node** succs,
                PublishBatch* batch = nullptr) {
    Node* node = alloc_node(k, v, height);
    for (int i = 0; i < height; ++i) {
      node->next[i].store_private(succs[i], kVolatile);
    }
    if (Method::persist_node_init) persist_node(node);
    if constexpr (Words::persistent) {
      pmem::pc_publish(node, Node::bytes_for(height),
                       "ds::SkipList::try_link");
    }

    Node* expected = succs[0];
    bool linked;
    if (batch != nullptr) {
      linked =
          preds[0]->next[0].cas_deferred(expected, node,
                                         Method::critical_store);
      if (linked && Method::critical_store) {
        batch->enlist(preds[0]->next[0], node);
      }
    } else {
      linked = preds[0]->next[0].cas(expected, node, Method::critical_store);
    }
    if (!linked) {
      free_node_now(node);  // never published
      return false;
    }
    bool stop = false;
    for (int level = 1; level < height && !stop; ++level) {
      for (;;) {
        Node* mine = node->next[level].load(Method::critical_load);
        if (is_marked(mine)) {  // node is already being deleted
          stop = true;
          break;
        }
        Node* succ = succs[level];
        if (succ == node) break;  // a helper already linked this level
        if (mine != succ) {
          Node* e = mine;
          if (!node->next[level].cas(e, succ, Method::cleanup_store)) {
            continue;  // re-read our tower pointer and retry
          }
        }
        Node* e = succ;
        if (preds[level]->next[level].cas(e, node, Method::cleanup_store)) {
          break;
        }
        // Predecessor changed; recompute the neighborhood.
        const bool present = find(k, preds, succs);
        if (!present || succs[0] != node) {  // removed concurrently
          stop = true;
          break;
        }
      }
    }
    return true;
  }

  /// Single-threaded crash-recovery repair: walk the durable bottom level,
  /// splice out logically deleted (marked) nodes, rebuild every index
  /// level from scratch, and persist the repaired pointers so a subsequent
  /// crash recovers from a clean image.
  void rebuild_index() {
    // Per-level "last node seen with height > level" cursors.
    Node* prev_at[kMaxLevel];
    for (int i = 0; i < kMaxLevel; ++i) prev_at[i] = head_;

    Node* prev0 = head_;
    Node* c = without_mark(head_->next[0].load_private());
    while (c != tail_) {
      if (c == nullptr) {
        // The durable bottom level dead-ends before the tail sentinel: a
        // truncated/torn image. Abort before re-stitching (and durably
        // persisting) an index over the broken chain — the caller rejects
        // the whole store instead of half-recovering it.
        throw std::length_error(
            "ds::SkipList: bottom level breaks before the tail sentinel");
      }
      Node* nxt = c->next[0].load_private();
      if (is_marked(nxt)) {  // logically deleted: drop from every level
        c = without_mark(nxt);
        continue;
      }
      // Live node: stitch bottom level and its index levels.
      if (prev0->next[0].load_private() != c) {
        prev0->next[0].store_private(c, kVolatile);
      }
      prev0 = c;
      for (int lvl = 1; lvl < c->height && lvl < kMaxLevel; ++lvl) {
        prev_at[lvl]->next[lvl].store_private(c, kVolatile);
        prev_at[lvl] = c;
      }
      c = without_mark(nxt);
    }
    // Terminate every level at the tail.
    prev0->next[0].store_private(tail_, kVolatile);
    for (int lvl = 1; lvl < kMaxLevel; ++lvl) {
      prev_at[lvl]->next[lvl].store_private(tail_, kVolatile);
    }
    if constexpr (Words::persistent) {
      // Re-persist every repaired tower (head, tail, and all live nodes).
      persist_node(head_);
      persist_node(tail_);
      for (Node* n = without_mark(head_->next[0].load_private());
           n != tail_ && n != nullptr;
           n = without_mark(n->next[0].load_private())) {
        persist_node(n);
      }
      pmem::pfence();
    }
  }

  /// Fraser search with helping: fills preds/succs at every level; returns
  /// true iff an unmarked node with key k is present at the bottom level.
  bool find(K k, Node** preds, Node** succs) {
  retry:
    Node* pred = head_;
    for (int level = kMaxLevel - 1; level >= 0; --level) {
      Node* curr = without_mark(pred->next[level].load(Method::traversal_load));
      for (;;) {
        check::lc_deref(curr, "ds::SkipList::find");
        Node* succ = curr->next[level].load(Method::traversal_load);
        while (is_marked(succ)) {
          // curr is deleted at this level: unlink it.
          Node* expected = curr;
          if (!pred->next[level].cas(expected, without_mark(succ),
                                     Method::cleanup_store)) {
            goto retry;
          }
          curr = without_mark(succ);
          check::lc_deref(curr, "ds::SkipList::find");
          succ = curr->next[level].load(Method::traversal_load);
        }
        if (curr->key.load(Method::traversal_load) < k) {
          pred = curr;
          curr = without_mark(succ);
        } else {
          break;
        }
      }
      preds[level] = pred;
      succs[level] = curr;
    }
    // NVtraverse/manual transition: flush-if-tagged what the critical phase
    // will touch.
    if (Method::traversal_load != Method::transition_load) {
      preds[0]->next[0].load(Method::transition_load);
      succs[0]->next[0].load(Method::transition_load);
    }
    return succs[0]->key.load(Method::transition_load) == k;
  }

  static void persist_node(const Node* n) {
    if constexpr (Words::persistent) {
      pmem::persist_range(n, Node::bytes_for(n->height));
    }
  }

  static Node* alloc_node(K k, V v, int h) {
    void* mem = pmem::Pool::instance().alloc(Node::bytes_for(h));
    Node* n = static_cast<Node*>(mem);
    new (&n->key) W<K>(k);
    new (&n->value) W<V>(v);
    n->height = h;
    for (int i = 0; i < h; ++i) new (&n->next[i]) W<Node*>(nullptr);
    return n;
  }

  static void free_node_now(Node* n) noexcept {
    // W<> wrappers are trivially destructible; release the raw block.
    pmem::Pool::instance().dealloc(n, Node::bytes_for(n->height));
  }

  static void retire_deleter(void* p) {
    free_node_now(static_cast<Node*>(p));
  }

  static int random_height() noexcept {
    static thread_local std::uint64_t state = []() {
      const auto seed = reinterpret_cast<std::uintptr_t>(&state);
      return static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull | 1;
    }();
    // xorshift64*
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t r = state * 0x2545F4914F6CDD1Dull;
    int h = 1;
    // Geometric with p = 1/2, capped at kMaxLevel.
    while (h < kMaxLevel && (r >> h) & 1) ++h;
    return h;
  }

  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  bool owns_ = true;
};

}  // namespace flit::ds
