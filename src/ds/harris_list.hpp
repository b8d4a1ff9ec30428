// harris_list.hpp — Harris's lock-free linked list [DISC'01], written
// against the FliT instruction API.
//
// This is the paper's running example (§1: "a C++11 implementation of
// Harris's linked list can be made durably linearizable by changing just
// seven lines of code") and one of the four evaluated structures. Deletion
// is two-phase: a delete first *marks* the victim's next pointer (bit 0 —
// the linearization point) and then physically unlinks it; traversals help
// unlink marked nodes they encounter.
//
// Pointer-valued lists additionally support atomic in-place value
// replacement (upsert): the value word is CASed from the old pointer to
// the new one, and a removal *claims* the final value by CASing it to its
// bit-0-marked form after winning the next-pointer mark. The value word's
// successful CASes thus form one linear chain ending in a marked pointer,
// which gives every superseded value exactly one owner (the CAS winner
// that replaced it) — the retirement-uniqueness contract the KV record
// slab builds on. A marked value can only ever be observed on a node
// whose removal already linearized, so readers treat it as absence.
//
// Template parameters:
//   K, V    — integral key (numeric_limits min/max are reserved for the
//             sentinels) and trivially copyable value;
//   Words   — word-wrapper configuration (FliT policy, link-and-persist,
//             plain, or non-persistent; see core/modes.hpp);
//   Method  — durability method choosing pflags per call site (Automatic /
//             NVTraverse / Manual).
#pragma once

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
class HarrisList {
  static_assert(std::is_integral_v<K>, "sentinel keys require integral K");

  template <class T>
  using W = typename Words::template word<T>;

 public:
  struct Node {
    W<K> key;
    W<V> value;
    W<Node*> next;  // bit 0 = deletion mark
    Node(K k, V v, Node* n) noexcept : key(k), value(v), next(n) {}
  };

  static constexpr K kMinKey = std::numeric_limits<K>::min();
  static constexpr K kMaxKey = std::numeric_limits<K>::max();

  HarrisList() {
    tail_ = pmem::pnew<Node>(kMaxKey, V{}, nullptr);
    head_ = pmem::pnew<Node>(kMinKey, V{}, tail_);
    Words::persist_obj(tail_);
    Words::persist_obj(head_);
  }

  ~HarrisList() {
    if (!owns_) return;
    Node* n = head_;
    while (n != nullptr) {
      Node* nxt = without_mark(n->next.load_private());
      pmem::pdelete(n);
      n = nxt;
    }
  }

  HarrisList(const HarrisList&) = delete;
  HarrisList& operator=(const HarrisList&) = delete;

  HarrisList(HarrisList&& o) noexcept
      : head_(o.head_), tail_(o.tail_), owns_(o.owns_) {
    o.owns_ = false;
    o.head_ = o.tail_ = nullptr;
  }

  /// Insert (k, v). Returns false if k is already present.
  bool insert(K k, V v) {
    recl::Ebr::Guard g;
    for (;;) {
      auto [pred, curr] = search(k);
      if (curr->key.load(Method::critical_load) == k) {
        Words::operation_completion();
        return false;
      }
      if (try_link(k, v, pred, curr)) {
        Words::operation_completion();
        return true;
      }
    }
  }

  /// Insert-or-replace. Returns the superseded value when k was present
  /// (the caller owns cleanup of whatever it referenced — see the file
  /// comment), nullopt when this call freshly inserted k. The replacement
  /// is one CAS on the node's value word: a concurrent find observes the
  /// old or the new value, never absence. Pointer values only (the
  /// coordination with removal needs bit 0 of the word).
  ///
  /// The publish (value-word replace or fresh-node link) is a
  /// deferred-fence CAS enlisted in `batch`, and no per-op completion
  /// fence is issued — the caller pays one pfence for the whole batch and
  /// then batch.complete_all() (see ds/batch.hpp and kv::Store's put
  /// core). Precondition: everything `v` points at is already flushed,
  /// and the caller fences those flushes before the first publish of the
  /// batch.
  std::optional<V> upsert_batched(K k, V v, PublishBatch& batch)
    requires std::is_pointer_v<V>
  {
    recl::Ebr::Guard g;
    for (;;) {
      auto [pred, curr] = search(k);
      if (curr->key.load(Method::critical_load) == k) {
        // In-place replace. A marked value means the removal that won
        // this node's mark CAS already claimed it: the key is logically
        // absent, so fall through to a fresh search (which helps unlink)
        // and the insert path. Succeeding on a node whose *next* was
        // marked after our search is benign: the value was still
        // unclaimed, so the remover has not returned and the two
        // overlapping operations linearize as replace-then-remove (the
        // remover's claim captures — and owns — our value).
        if (std::optional<V> old = replace_value_deferred(
                curr->value, v, Method::critical_load,
                Method::critical_store, batch)) {
          return old;
        }
        continue;
      }
      if (try_link(k, v, pred, curr, &batch)) return std::nullopt;
    }
  }

  /// Remove k. Returns false if k is absent.
  bool remove(K k) { return remove_get(k).has_value(); }

  /// Remove k, returning the removed value (nullopt if k is absent).
  /// Exactly one removal observes the returned value, which lets callers
  /// own cleanup of value-referenced storage (the KV record slab relies
  /// on this for EBR retirement of superseded records). For pointer
  /// values the winner *claims* it by marking the value word — the CAS
  /// that ends the word's upsert chain; for other value types values are
  /// immutable after publication and a plain read suffices.
  std::optional<V> remove_get(K k) {
    recl::Ebr::Guard g;
    for (;;) {
      auto [pred, curr] = search(k);
      if (curr->key.load(Method::critical_load) != k) {
        Words::operation_completion();
        return std::nullopt;
      }
      Node* succ = curr->next.load(Method::critical_load);
      if (is_marked(succ)) continue;  // raced with another remover; re-find
      // Logical deletion: mark curr's next pointer (linearization point).
      Node* expected = succ;
      if (!curr->next.cas(expected, with_mark(succ),
                          Method::critical_store)) {
        continue;  // next changed (insert after curr, or competing mark)
      }
      const V removed = claim_value(curr->value, Method::critical_load,
                                    Method::cleanup_store);
      // Physical deletion: unlink; on failure, search() will help.
      Node* e = curr;
      if (pred->next.cas(e, succ, Method::cleanup_store)) {
        recl::Ebr::instance().retire_pmem(curr);
      } else {
        search(k);  // ensures curr is unlinked (and retired by the helper)
      }
      Words::operation_completion();
      return removed;
    }
  }

  /// Membership test.
  bool contains(K k) const {
    recl::Ebr::Guard g;
    auto [pred, curr] = const_cast<HarrisList*>(this)->search(k);
    (void)pred;
    const bool found = curr->key.load(Method::transition_load) == k;
    Words::operation_completion();
    return found;
  }

  /// Lookup returning the value. A claimed (marked) pointer value means
  /// the node's removal linearized before our read: absent.
  std::optional<V> find(K k) const {
    std::optional<V> out = find_batched(k);
    Words::operation_completion();
    return out;
  }

  /// find() minus the per-op completion fence: a batch of lookups shares
  /// one completion fence, issued by the caller after the last lookup
  /// (flush-if-tagged pwbs from the searches stay pending until then, so
  /// nothing the batch observed escapes to the outside unpersisted).
  std::optional<V> find_batched(K k) const {
    recl::Ebr::Guard g;
    auto [pred, curr] = const_cast<HarrisList*>(this)->search(k);
    (void)pred;
    std::optional<V> out;
    if (curr->key.load(Method::transition_load) == k) {
      const V v = curr->value.load(Method::transition_load);
      if (!value_is_claimed(v)) out = v;
    }
    return out;
  }

  /// Prefetch the first probe targets of a later operation on this list:
  /// the head sentinel's line and the first linked node. Purely a memory
  /// hint — it dereferences nothing beyond one relaxed pointer load, so it
  /// is safe with or without an EBR guard (a stale prefetch address is
  /// harmless). Batched operations call this for key i+1 while key i's
  /// cache misses are outstanding.
  void prepare(K /*k*/) const noexcept {
    __builtin_prefetch(head_);
    __builtin_prefetch(without_mark(head_->next.load_private()));
  }

  /// Number of reachable (unmarked) keys; single-threaded use only.
  /// Throws std::length_error on a chain that dead-ends before the tail
  /// sentinel — a healthy list always reaches it, so a premature null is
  /// a truncated/torn image (e.g. a node zeroed by file truncation), and
  /// walking past it would either miscount silently or dereference null.
  std::size_t size() const {
    std::size_t n = 0;
    const Node* c = without_mark(head_->next.load_private());
    while (c != tail_) {
      if (c == nullptr) {
        throw std::length_error(
            "ds::HarrisList: chain breaks before the tail sentinel");
      }
      if (!is_marked(c->next.load_private())) ++n;
      c = without_mark(c->next.load_private());
    }
    return n;
  }

  // --- crash recovery ------------------------------------------------------

  /// Address of the root pointer pair for persistence tests: the head
  /// sentinel (in the persistent pool) fully determines the structure.
  Node* head() const noexcept { return head_; }
  Node* tail() const noexcept { return tail_; }

  /// Rebuild a (non-owning) handle onto a structure whose nodes survived a
  /// crash in the persistent pool. Recovery is read-only, per the model.
  static HarrisList recover(Node* head, Node* tail) {
    return HarrisList(head, tail);
  }

  /// Disown the nodes: the destructor will no longer free them. Used when
  /// the structure's bytes outlive this handle (e.g. a file-backed region
  /// being closed while the persisted nodes stay on disk).
  void release() noexcept { owns_ = false; }

  /// Visit every linked node — sentinels and marked nodes included — as
  /// f(node, is_marked). Single-threaded use only (recovery sweeps that
  /// rebuild allocator metadata must see every byte a traversal could
  /// reach; note a *marked* node's value may reference already-reclaimed
  /// storage, which is why the flag is passed along). Every healthy chain
  /// terminates at the tail sentinel (the only node whose next is null);
  /// a walk ending anywhere else is a truncated/torn image and throws
  /// std::length_error rather than letting recovery half-succeed.
  template <class F>
  void for_each_linked(F&& f) const {
    const Node* c = head_;
    const Node* last = nullptr;
    while (c != nullptr) {
      const Node* succ = c->next.load_private();
      f(*c, is_marked(succ));
      last = c;
      c = without_mark(succ);
    }
    if (last != tail_) {
      throw std::length_error(
          "ds::HarrisList: chain breaks before the tail sentinel");
    }
  }

 private:
  HarrisList(Node* head, Node* tail) noexcept
      : head_(head), tail_(tail), owns_(false) {}

  /// One insertion attempt at the (pred, curr) position search() just
  /// computed: build the node, persist it, publish it with the critical
  /// CAS. False — node freed, nothing published — if the CAS lost; the
  /// caller re-searches and retries. Shared by insert and upsert_batched
  /// so the publish/durability sequence exists exactly once. With a
  /// non-null `batch` the publish CAS defers its trailing fence to the
  /// batch (the node-init persist keeps its own fence either way: the
  /// node's bytes must be durable before the link can be observed, and
  /// they were flushed after the batch's record fence).
  bool try_link(K k, V v, Node* pred, Node* curr,
                PublishBatch* batch = nullptr) {
    Node* node = pmem::pnew<Node>(k, v, curr);
    if (Method::persist_node_init) Words::persist_obj(node);
    if constexpr (Words::persistent) {
      pmem::pc_publish(node, sizeof(Node), "ds::HarrisList::try_link");
    }
    Node* expected = curr;
    if (batch != nullptr) {
      if (pred->next.cas_deferred(expected, node, Method::critical_store)) {
        if (Method::critical_store) batch->enlist(pred->next, node);
        return true;
      }
    } else if (pred->next.cas(expected, node, Method::critical_store)) {
      return true;
    }
    pmem::pdelete(node);  // never published; immediate free is safe
    return false;
  }

  /// Harris search: returns (pred, curr) where curr is the first unmarked
  /// node with key >= k and pred is its unmarked predecessor. Helps unlink
  /// marked nodes along the way.
  std::pair<Node*, Node*> search(K k) {
  retry:
    for (;;) {
      Node* pred = head_;
      Node* curr = without_mark(pred->next.load(Method::traversal_load));
      for (;;) {
        check::lc_deref(curr, "ds::HarrisList::search");
        Node* succ = curr->next.load(Method::traversal_load);
        while (is_marked(succ)) {
          // curr is logically deleted: unlink it before moving on.
          Node* expected = curr;
          if (!pred->next.cas(expected, without_mark(succ),
                              Method::cleanup_store)) {
            goto retry;
          }
          recl::Ebr::instance().retire_pmem(curr);
          curr = without_mark(succ);
          check::lc_deref(curr, "ds::HarrisList::search");
          succ = curr->next.load(Method::traversal_load);
        }
        if (curr->key.load(Method::traversal_load) >= k) {
          // NVtraverse/manual transition: flush-if-tagged the nodes the
          // critical phase depends on.
          if (Method::traversal_load != Method::transition_load) {
            pred->next.load(Method::transition_load);
            curr->next.load(Method::transition_load);
          }
          return {pred, curr};
        }
        pred = curr;
        curr = without_mark(succ);
      }
    }
  }

  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  bool owns_ = true;
};

}  // namespace flit::ds
