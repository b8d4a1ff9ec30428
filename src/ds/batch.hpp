// batch.hpp — deferred-fence publication batches for the multi-op KV path.
//
// A lone durable publish pays its own trailing pfence (Algorithm 4). A
// batch of publishes instead leaves every published word tagged (persist<>
// counter) or dirty (lap_word bit), issues ONE pfence covering all of the
// batch's pwbs, and only then clears the per-word state — concurrent
// p-loads flush-if-tagged in the meantime, so visibility before the shared
// fence never breaks durable linearizability. PublishBatch is the
// bookkeeping: the type-erased list of (word, desired) pairs whose
// complete_deferred() calls the batch owner owes after its fence.
//
// Single-owner, single-threaded object: one batch belongs to one in-flight
// multi-op on one thread (the words it points at are shared; the list is
// not).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "ds/tagged_ptr.hpp"
#include "pmem/persist_check.hpp"

namespace flit::ds {

class PublishBatch {
 public:
  /// Pre-size the pending list. A batch owner MUST reserve capacity for
  /// its worst-case publish count before the first enlist: enlist runs
  /// after a publish CAS has already succeeded, so an allocation failure
  /// inside it would strand a published-but-never-completed word (and
  /// wreck the owner's exception cleanup, which assumes un-enlisted
  /// elements were never published).
  void reserve(std::size_t n) { pending_.reserve(n); }

  /// Register a word whose cas_deferred just succeeded with `desired`.
  /// No-op for word types that need no completion (plain/volatile). The
  /// caller must eventually pfence and then complete_all().
  template <class W>
  void enlist(W& word, typename W::value_type desired) {
    using V = typename W::value_type;
    static_assert(std::is_pointer_v<V>,
                  "deferred publication batches carry pointer values");
    if constexpr (W::needs_completion) {
      pmem::pc_deferred_publish(word.raw_address(),
                                "ds::PublishBatch::enlist");
      pending_.push_back(
          {&word, word.raw_address(),
           reinterpret_cast<std::uintptr_t>(desired),
           [](void* w, std::uintptr_t d) {
             static_cast<W*>(w)->complete_deferred(reinterpret_cast<V>(d));
           }});
    }
  }

  /// Untag / clear-dirty every enlisted word. Only call after a pfence
  /// that covers all of the batch's publish pwbs (Condition 3: a word's
  /// value must be persistent before its tag drops).
  void complete_all() noexcept {
    for (const Pending& p : pending_) {
      pmem::pc_complete_deferred(p.addr);
      p.complete(p.word, p.desired);
    }
    pending_.clear();
  }

  bool empty() const noexcept { return pending_.empty(); }
  std::size_t size() const noexcept { return pending_.size(); }

 private:
  struct Pending {
    void* word;
    const void* addr;  ///< raw word address (PersistCheck identity)
    std::uintptr_t desired;
    void (*complete)(void*, std::uintptr_t);
  };
  std::vector<Pending> pending_;
};

/// The replace half of the value-claim protocol (the upsert in-place
/// overwrite, see tagged_ptr.hpp): CAS the word old→new until it succeeds
/// — returning the superseded value, uniquely owned by the caller (but
/// see kv::Shard::put_batched: retirement must wait for the batch fence)
/// — or the value is found claimed by a removal, returning nullopt: the
/// node is logically dead, and the caller should re-search (helping
/// unlink) and fall back to inserting a fresh node. `cas_pflag` should be
/// the Method's critical pflag — this CAS is the overwrite's durable
/// linearization point. The winning CAS leaves the word tagged/dirty and
/// enlists it in `batch`; the caller issues one pfence covering the whole
/// batch and then batch.complete_all().
template <class Word, class V = typename Word::value_type>
std::optional<V> replace_value_deferred(Word& word, V v, bool load_pflag,
                                        bool cas_pflag, PublishBatch& batch)
  requires std::is_pointer_v<V>
{
  V old = word.load(load_pflag);
  while (!is_marked(old)) {
    V expected = old;
    if (word.cas_deferred(expected, v, cas_pflag)) {
      if (cas_pflag) batch.enlist(word, v);
      return old;
    }
    old = expected;
  }
  return std::nullopt;
}

}  // namespace flit::ds
