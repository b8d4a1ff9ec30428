// persist.hpp — the FliT instruction wrapper (paper Figure 1 + Algorithm 4).
//
// `persist<T, Policy, Default>` wraps one shared memory word. Every access
// is a *flit-instruction*: the underlying atomic instruction plus the
// persistence protocol of Algorithm 4, parameterized by a counter-placement
// Policy (see counters.hpp) and a declaration-site default pflag.
//
// Shared p-store (Algorithm 4, shared-store):
//     pfence();                 // persist my dependencies (Condition 4)
//                               //   — only if a pwb of mine is outstanding
//     tag(X);                   // flit-counter(X)++
//     X.store(v);
//     pwb(X);
//     pfence();                 // value persisted before untag (Cond. 3)
//     untag(X);                 // flit-counter(X)--
//
// Shared p-load (Algorithm 4, shared-load):
//     v = X.load();
//     if (flit-counter(X) > 0) pwb(X);   // Flush if Tagged
//
// Private variants (paper §5, "private accesses") skip the counter and the
// leading fence; they are exposed as load_private/store_private for code
// that initializes nodes before publishing them.
//
// The same template also realizes the paper's baselines:
//   * PlainPolicy  — p-loads always pwb (no tagging), p-stores pwb+pfence.
//   * VolatilePolicy — every access is the bare atomic instruction.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include "core/counters.hpp"
#include "core/pv.hpp"
#include "pmem/backend.hpp"
#include "pmem/persist_check.hpp"

namespace flit {

namespace detail {

/// Storage for the adjacent-counter placement: pads the persist<> word to a
/// double word so value and counter share a cache line (paper §5.1,
/// "Adjacent Counter"). Empty (and occupying no space thanks to
/// [[no_unique_address]]) for every other policy.
template <bool Present>
struct CounterSlot {
  static constexpr bool present = false;
};

template <>
struct CounterSlot<true> {
  static constexpr bool present = true;
  std::atomic<std::uint8_t> ctr{0};
  std::uint8_t pad[7]{};
};

}  // namespace detail

template <class T, class Policy = HashedPolicy,
          flush_option Default = flush_option::persisted>
class persist {
  static_assert(std::is_trivially_copyable_v<T>,
                "persist<T> requires a trivially copyable T (it wraps "
                "std::atomic<T>)");

 public:
  using value_type = T;
  using policy_type = Policy;
  static constexpr bool default_pflag = (Default == flush_option::persisted);
  static constexpr CounterKind kind = Policy::kind;

  persist() noexcept : val_(T{}) {}
  /*implicit*/ persist(T v) noexcept : val_(v) {}

  persist(const persist&) = delete;
  persist& operator=(const persist&) = delete;

  // --- shared flit-instructions -----------------------------------------

  /// Shared load. With pflag: flush-if-tagged (p-load).
  T load(bool pflag = default_pflag) const noexcept {
    T v = val_.load(std::memory_order_acquire);
    if constexpr (kind == CounterKind::kVolatile) {
      (void)pflag;
    } else if constexpr (kind == CounterKind::kPlain) {
      if (pflag) pmem::pwb(&val_);
    } else {
      if (pflag && tagged()) pmem::pwb(&val_);
    }
    return v;
  }

  /// Shared store (write flit-instruction).
  void store(T v, bool pflag = default_pflag) noexcept {
    if constexpr (kind == CounterKind::kVolatile) {
      val_.store(v, std::memory_order_release);
      return;
    }
    pmem::pfence_if_pending();  // Condition 4: dependencies persist first
    if (pflag) {
      tag();
      val_.store(v, std::memory_order_release);
      pmem::pc_store(&val_, sizeof(val_));
      pmem::pwb(&val_);
      pmem::pfence();
      untag();
    } else {
      val_.store(v, std::memory_order_release);
      pmem::pc_store(&val_, sizeof(val_));
    }
  }

  /// Shared compare-and-swap. On failure `expected` is updated with the
  /// observed value (std::atomic semantics). Constrained to types without
  /// padding bits: std::atomic compares object representations, so a CAS
  /// on a padded aggregate can fail spuriously on indeterminate padding —
  /// reject that at compile time instead of at 3am.
  bool cas(T& expected, T desired, bool pflag = default_pflag) noexcept
    requires std::has_unique_object_representations_v<T>
  {
    if constexpr (kind == CounterKind::kVolatile) {
      return val_.compare_exchange_strong(expected, desired,
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire);
    }
    pmem::pfence_if_pending();  // Condition 4
    if (pflag) {
      tag();
      const bool ok = val_.compare_exchange_strong(
          expected, desired, std::memory_order_seq_cst,
          std::memory_order_acquire);
      if (ok) pmem::pc_store(&val_, sizeof(val_));
      pmem::pwb(&val_);
      pmem::pfence();
      untag();
      return ok;
    }
    const bool ok = val_.compare_exchange_strong(expected, desired,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_acquire);
    if (ok) pmem::pc_store(&val_, sizeof(val_));
    return ok;
  }

  /// Convenience CAS that does not report the witness value.
  bool compare_and_set(T expected, T desired,
                       bool pflag = default_pflag) noexcept
    requires std::has_unique_object_representations_v<T>
  {
    return cas(expected, desired, pflag);
  }

  // --- deferred-fence publication (batched operations) --------------------
  // The flit counter exists to decouple visibility from persistence: while
  // a location is tagged, every p-load flushes it, so a store may be
  // observed before its own fence without breaking durable linearizability.
  // A batch of publications stretches that window deliberately: each
  // publish tags, CASes and pwbs its word but leaves it TAGGED, the caller
  // issues ONE pfence covering the whole batch, and only then untags every
  // published word (Condition 3: value persisted before untag). The
  // leading per-store fence of Algorithm 4 is replaced by the batch-level
  // fence the caller issued over the publications' dependencies (the fully
  // flushed value records) before the first publish — see
  // kv::Store::multi_put for the end-to-end protocol and ARCHITECTURE.md
  // for the safety argument.

  /// True if a successful cas_deferred leaves per-word state that
  /// complete_deferred must clean up (tag-counter placements). Plain
  /// words need no completion (p-loads always flush) and volatile words
  /// have no persistence protocol at all.
  static constexpr bool needs_completion =
      kind == CounterKind::kAdjacent || kind == CounterKind::kExternal;

  /// Publication CAS with the trailing fence deferred to the caller: on
  /// success the word stays tagged (and flushed); the caller must issue a
  /// pfence covering this pwb and then call complete_deferred(). A failed
  /// CAS restores the counter and leaves nothing pending.
  bool cas_deferred(T& expected, T desired,
                    bool pflag = default_pflag) noexcept
    requires std::has_unique_object_representations_v<T>
  {
    if constexpr (kind == CounterKind::kVolatile) {
      return val_.compare_exchange_strong(expected, desired,
                                          std::memory_order_seq_cst,
                                          std::memory_order_acquire);
    }
    if (!pflag) {
      const bool ok = val_.compare_exchange_strong(expected, desired,
                                                   std::memory_order_seq_cst,
                                                   std::memory_order_acquire);
      if (ok) pmem::pc_store(&val_, sizeof(val_));
      return ok;
    }
    tag();
    const bool ok = val_.compare_exchange_strong(expected, desired,
                                                 std::memory_order_seq_cst,
                                                 std::memory_order_acquire);
    if (!ok) {
      untag();
      return false;
    }
    pmem::pc_store(&val_, sizeof(val_));
    pmem::pwb(&val_);
    return true;  // still tagged: readers flush until complete_deferred()
  }

  /// Second half of cas_deferred, called after the batch-covering pfence.
  /// `desired` is unused here (the tag counter needs no value); the
  /// parameter keeps the signature uniform with lap_word, whose dirty bit
  /// lives in the word itself.
  void complete_deferred(T /*desired*/) noexcept {
    if constexpr (needs_completion) untag();
  }

  /// Shared exchange (swap) flit-instruction.
  T exchange(T v, bool pflag = default_pflag) noexcept {
    if constexpr (kind == CounterKind::kVolatile) {
      return val_.exchange(v, std::memory_order_acq_rel);
    }
    pmem::pfence_if_pending();  // Condition 4
    if (pflag) {
      tag();
      T old = val_.exchange(v, std::memory_order_acq_rel);
      pmem::pc_store(&val_, sizeof(val_));
      pmem::pwb(&val_);
      pmem::pfence();
      untag();
      return old;
    }
    T old = val_.exchange(v, std::memory_order_acq_rel);
    pmem::pc_store(&val_, sizeof(val_));
    return old;
  }

  /// Shared fetch-and-add (integral T only) — the instruction that the
  /// bit-tagging alternative (link-and-persist) cannot support.
  T faa(T amount, bool pflag = default_pflag) noexcept
    requires std::integral<T>
  {
    if constexpr (kind == CounterKind::kVolatile) {
      return val_.fetch_add(amount, std::memory_order_acq_rel);
    }
    pmem::pfence_if_pending();  // Condition 4
    if (pflag) {
      tag();
      T old = val_.fetch_add(amount, std::memory_order_acq_rel);
      pmem::pc_store(&val_, sizeof(val_));
      pmem::pwb(&val_);
      pmem::pfence();
      untag();
      return old;
    }
    T old = val_.fetch_add(amount, std::memory_order_acq_rel);
    pmem::pc_store(&val_, sizeof(val_));
    return old;
  }

  // --- private flit-instructions (paper §5) ------------------------------
  // Legal only while no other process can access this location (e.g. a node
  // not yet published). No counter traffic, no leading fence.

  T load_private(bool /*pflag*/ = default_pflag) const noexcept {
    return val_.load(std::memory_order_relaxed);
  }

  void store_private(T v, bool pflag = default_pflag) noexcept {
    val_.store(v, std::memory_order_relaxed);
    if constexpr (kind != CounterKind::kVolatile) {
      pmem::pc_store(&val_, sizeof(val_));
      if (pflag) {
        pmem::pwb(&val_);
        pmem::pfence();
      }
    }
  }

  // --- operator sugar (default pflag only, paper §4) ----------------------

  /*implicit*/ operator T() const noexcept { return load(); }
  T operator=(T v) noexcept {
    store(v);
    return v;
  }
  T operator->() const noexcept
    requires std::is_pointer_v<T>
  {
    return load();
  }

  /// Called at the end of every data-structure operation (Figure 1 /
  /// Algorithm 4 completeOp): a single pfence persisting all dependencies
  /// — skipped when the operation left no pwb outstanding (a read that
  /// met no tagged word has nothing to complete).
  static void operation_completion() noexcept {
    if constexpr (kind != CounterKind::kVolatile) pmem::pfence_if_pending();
  }

  // --- introspection -------------------------------------------------------

  /// Address of the underlying word (what pwb flushes).
  const void* raw_address() const noexcept { return &val_; }

  /// True if this location currently has a pending p-store (test hook).
  bool tagged() const noexcept {
    if constexpr (kind == CounterKind::kAdjacent) {
      return slot_.ctr.load(std::memory_order_acquire) != 0;
    } else if constexpr (kind == CounterKind::kExternal) {
      return Policy::tagged(&val_);
    } else {
      return false;
    }
  }

 private:
  void tag() noexcept {
    if constexpr (kind == CounterKind::kAdjacent) {
      slot_.ctr.fetch_add(1, std::memory_order_acq_rel);
    } else if constexpr (kind == CounterKind::kExternal) {
      Policy::tag(&val_);
    }
  }
  void untag() noexcept {
    if constexpr (kind == CounterKind::kAdjacent) {
      slot_.ctr.fetch_sub(1, std::memory_order_acq_rel);
    } else if constexpr (kind == CounterKind::kExternal) {
      Policy::untag(&val_);
    }
  }

  std::atomic<T> val_;
  [[no_unique_address]] detail::CounterSlot<Policy::kind ==
                                            CounterKind::kAdjacent>
      slot_;
};

}  // namespace flit
