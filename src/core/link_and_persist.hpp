// link_and_persist.hpp — the bit-tagging alternative to FliT (paper §2,
// David et al. [14], also in [19, 35, 38]).
//
// Link-and-persist steals one bit of the memory word itself as the dirty
// flag: a store installs `value | DIRTY` with CAS, flushes, fences, then
// clears the flag with a second CAS; a reader that observes the flag up
// flushes the line. FliT's evaluation compares against this technique
// (flit-adjacent and link-and-persist behave almost identically, §6.6).
//
// Its two structural limitations — the reasons FliT exists — are enforced
// here at compile time:
//   * T must be a pointer type with bit 1 free (the Natarajan BST uses all
//     low pointer bits, so `lap_word` cannot serve it);
//   * shared stores must be CAS: there is no store()/faa()/exchange(),
//     because a blind RMW could clear a not-yet-persisted value's flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "core/pv.hpp"
#include "pmem/backend.hpp"
#include "pmem/persist_check.hpp"

namespace flit {

template <class T, flush_option Default = flush_option::persisted>
class lap_word {
  static_assert(std::is_pointer_v<T>,
                "link-and-persist needs spare bits: T must be a pointer");

 public:
  using value_type = T;
  static constexpr bool default_pflag = (Default == flush_option::persisted);
  /// Bit 1 is the dirty flag; bit 0 is left to the data structure (Harris
  /// marks). Allocations are >= 4-byte aligned so both bits are spare.
  static constexpr std::uintptr_t kDirty = 0x2;

  lap_word() noexcept : val_(0) {}
  /*implicit*/ lap_word(T v) noexcept : val_(bits(v)) {}

  lap_word(const lap_word&) = delete;
  lap_word& operator=(const lap_word&) = delete;

  /// Shared load: flush if the dirty flag is up; the flag is masked out of
  /// the returned value.
  T load(bool pflag = default_pflag) const noexcept {
    std::uintptr_t w = val_.load(std::memory_order_acquire);
    if (pflag && (w & kDirty)) pmem::pwb(&val_);
    return as_value(w);
  }

  /// Shared CAS — the only shared store form link-and-persist admits.
  /// `expected`/`desired` are logical (flag-free) values; on failure
  /// `expected` receives the observed logical value.
  bool cas(T& expected, T desired, bool pflag = default_pflag) noexcept {
    pmem::pfence_if_pending();  // Condition 4
    const std::uintptr_t exp = bits(expected);
    const std::uintptr_t des_clean = bits(desired);
    for (;;) {
      std::uintptr_t w = val_.load(std::memory_order_acquire);
      if (w & kDirty) {
        // Help persist and clear the pending store's flag so our CAS can't
        // fail (or spuriously succeed) on flag state.
        pmem::pwb(&val_);
        pmem::pfence();
        if (val_.compare_exchange_strong(w, w & ~kDirty,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          pmem::pc_store(&val_, sizeof(val_));
        }
        w &= ~kDirty;
      }
      if (w != exp) {
        expected = as_value(w);
        return false;
      }
      std::uintptr_t e = exp;
      const std::uintptr_t des = pflag ? (des_clean | kDirty) : des_clean;
      if (val_.compare_exchange_strong(e, des, std::memory_order_seq_cst,
                                       std::memory_order_acquire)) {
        pmem::pc_store(&val_, sizeof(val_));
        if (pflag) {
          pmem::pwb(&val_);
          pmem::pfence();
          std::uintptr_t d = des;
          // Clear our flag unless a newer store already replaced the word.
          if (val_.compare_exchange_strong(d, des_clean,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
            pmem::pc_store(&val_, sizeof(val_));
          }
        }
        return true;
      }
      if ((e & ~kDirty) != exp) {
        expected = as_value(e);
        return false;
      }
      // Lost a race on the flag bit only; renormalize and retry.
    }
  }

  bool compare_and_set(T expected, T desired,
                       bool pflag = default_pflag) noexcept {
    return cas(expected, desired, pflag);
  }

  // --- deferred-fence publication (batched operations) --------------------
  // Mirrors persist<>::cas_deferred: the publish installs `desired |
  // DIRTY`, flushes, and returns with the flag still up, so readers keep
  // flushing the line until the caller's single batch-covering pfence and
  // the complete_deferred() that clears the flag. The helping path for a
  // *foreign* dirty word is unchanged (it must fence — that pending store
  // is not part of our batch).

  static constexpr bool needs_completion = true;

  bool cas_deferred(T& expected, T desired,
                    bool pflag = default_pflag) noexcept {
    const std::uintptr_t exp = bits(expected);
    const std::uintptr_t des_clean = bits(desired);
    for (;;) {
      std::uintptr_t w = val_.load(std::memory_order_acquire);
      if (w & kDirty) {
        // Foreign pending store: help persist and clear it exactly as the
        // fully fenced cas() does.
        pmem::pwb(&val_);
        pmem::pfence();
        if (val_.compare_exchange_strong(w, w & ~kDirty,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          pmem::pc_store(&val_, sizeof(val_));
        }
        w &= ~kDirty;
      }
      if (w != exp) {
        expected = as_value(w);
        return false;
      }
      std::uintptr_t e = exp;
      const std::uintptr_t des = pflag ? (des_clean | kDirty) : des_clean;
      if (val_.compare_exchange_strong(e, des, std::memory_order_seq_cst,
                                       std::memory_order_acquire)) {
        pmem::pc_store(&val_, sizeof(val_));
        if (pflag) pmem::pwb(&val_);
        return true;  // dirty flag stays up until complete_deferred()
      }
      if ((e & ~kDirty) != exp) {
        expected = as_value(e);
        return false;
      }
      // Lost a race on the flag bit only; renormalize and retry.
    }
  }

  /// Clear our dirty flag after the batch-covering pfence — unless a newer
  /// store already replaced the word (its writer owns the flag now).
  void complete_deferred(T desired) noexcept {
    std::uintptr_t d = bits(desired) | kDirty;
    if (val_.compare_exchange_strong(d, bits(desired),
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      pmem::pc_store(&val_, sizeof(val_));
    }
  }

  // --- private accesses (unpublished nodes) -------------------------------

  T load_private(bool /*pflag*/ = default_pflag) const noexcept {
    return as_value(val_.load(std::memory_order_relaxed));
  }

  void store_private(T v, bool pflag = default_pflag) noexcept {
    val_.store(bits(v), std::memory_order_relaxed);
    pmem::pc_store(&val_, sizeof(val_));
    if (pflag) {
      pmem::pwb(&val_);
      pmem::pfence();
    }
  }

  /*implicit*/ operator T() const noexcept { return load(); }
  T operator->() const noexcept { return load(); }

  static void operation_completion() noexcept { pmem::pfence_if_pending(); }

  const void* raw_address() const noexcept { return &val_; }

  /// Test hook: is the dirty flag currently up?
  bool dirty() const noexcept {
    return (val_.load(std::memory_order_acquire) & kDirty) != 0;
  }

 private:
  static std::uintptr_t bits(T v) noexcept {
    return reinterpret_cast<std::uintptr_t>(v);
  }
  static T as_value(std::uintptr_t w) noexcept {
    return reinterpret_cast<T>(w & ~kDirty);
  }

  std::atomic<std::uintptr_t> val_;
};

}  // namespace flit
