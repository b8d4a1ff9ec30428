// lincheck.hpp — the LinCheck runtime: a low-overhead history recorder,
// the EBR lifetime analyzer, and the seeded-bug switchboard, plus the
// `lc_*` hook helpers the kv/ds/pmem layers call.
//
// Wiring mirrors PersistCheck (pmem/persist_check.hpp): the hook helpers
// are inline and compile to nothing unless the FLIT_LINCHECK CMake option
// defines FLIT_LINCHECK, so default builds carry zero overhead — no tick
// traffic, no registry, not even the value hashing (it happens inside the
// disabled helper). The classes themselves are compiled unconditionally
// so tests can drive the checker on hand-built histories in any build.
//
// Recorder: every hooked operation takes an invocation tick before it
// starts and a response tick after it returns, both from one global
// atomic counter, and appends one Event to a per-thread append-only log
// (owner-thread writes only; a light lock is taken only so the quiescent
// snapshot() is well-defined). The recorded interval therefore contains
// the operation's true linearization point, which is the only property
// the checker needs.
//
// Lifetime: pmem allocations, EBR retirements and frees, and ds-layer
// node dereferences are cross-checked against the 3-epoch EBR grace
// rule. A legitimate reader that can still hold a pointer to a node
// retired at epoch E has announced at most E+1 (its guard would have
// blocked the epoch from advancing further), so:
//   * freeing a node before global epoch >= E+2 (outside a quiescent
//     drain) is an early reclamation;
//   * dereferencing a retired node from a thread with no guard, or one
//     announcing >= E+2, is a protocol violation — no correct traversal
//     can still reach that node;
//   * dereferencing a node after it was freed is a use-after-free.
// Like PersistCheck, unacknowledged lifetime violations make the process
// exit nonzero at exit, so a stress test can't silently pass over them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "recl/ebr.hpp"

namespace flit::check {

#if defined(FLIT_LINCHECK)
inline constexpr bool kLinCheckEnabled = true;
#else
inline constexpr bool kLinCheckEnabled = false;
#endif

/// Sentinel returned by lc_begin() when recording is off.
inline constexpr std::uint64_t kNoTick = ~std::uint64_t{0};

/// Global history recorder. Disarmed by default even in lincheck builds:
/// tests arm() around the workload they want checked and snapshot() after
/// joining their workers.
class Recorder {
 public:
  static Recorder& instance();

  void arm() noexcept;
  void disarm() noexcept;
  bool armed() const noexcept;

  /// The next tick to be handed out — use as a durable-mode cut: every
  /// op with inv < now() was invoked before this point.
  std::uint64_t now() const noexcept;

  /// Take an invocation tick (kNoTick when disarmed — end() then drops
  /// the event, so an op spanning arm()/disarm() is never half-recorded).
  std::uint64_t begin() noexcept;

  void end(std::uint64_t inv, Op op, std::int64_t key, std::uint64_t value,
           bool flag);
  void end_scan(std::uint64_t inv, std::int64_t start, std::size_t limit,
                std::vector<std::pair<std::int64_t, std::uint64_t>> out);

  /// Copy out everything recorded so far. Call at quiescence (workers
  /// joined); concurrent appends make the copy a valid prefix per thread.
  History snapshot() const;

  /// Drop all recorded events and restart ticks from 1.
  void reset();

 private:
  Recorder() = default;
};

enum class LifetimeViolation : int {
  kEarlyReclaim = 0,  ///< freed before the 2-epoch grace period elapsed
  kUseAfterFree,      ///< dereferenced after its storage was freed
  kUnprotectedDeref,  ///< retired node dereferenced with no guard held
  kStaleDeref,        ///< retired node dereferenced from a post-grace epoch
};
inline constexpr int kLifetimeViolationKinds = 4;

const char* to_string(LifetimeViolation v) noexcept;

/// EBR lifetime registry + violation accounting. All entry points are
/// thread-safe; counters follow the PersistCheck acknowledgement idiom
/// (tests assert zero and reset; unacknowledged violations fail the
/// process at exit).
class Lifetime {
 public:
  static Lifetime& instance();

  /// A pool allocation: forget any retired/freed record the new block
  /// overlaps (the address is being legitimately recycled).
  void on_alloc(const void* p, std::size_t len);

  /// A node entered the limbo list at `epoch` from `site`.
  void on_retire(const void* p, std::uint64_t epoch, const char* site);

  /// A limbo node is about to be freed while the global epoch is `now`.
  /// `quiescent` exempts drain_all()-style frees from the grace check.
  void on_free(const void* p, std::uint64_t now, bool quiescent);

  /// A traversal dereferences node `p` while announcing `announce`
  /// (recl::Ebr::kIdleEpoch when no guard is held).
  void on_deref(const void* p, std::uint64_t announce, const char* site);

  std::uint64_t violations(LifetimeViolation v) const noexcept;
  std::uint64_t total_violations() const noexcept;
  /// Site string of the first violation since the last reset ("" if none).
  const char* first_violation_site() const noexcept;
  /// Acknowledge all violations (does not clear the registry).
  void reset_violations() noexcept;

  /// Drop the whole registry — the pool was torn down or remapped, so
  /// stale entries would alias fresh file-backed regions.
  void clear();

 private:
  Lifetime() = default;
};

// --- seeded bugs -----------------------------------------------------------
// Self-validation switchboard, mirroring FLIT_PERSIST_CHECK_UNSAFE and
// FLIT_CRASHTEST_UNSAFE_ACK: each mode plants one precise bug in the kv
// layer that the checker must catch with the right class and site.
//   stale_read   — a put (scalar or batched: the store has one put path)
//                  parks its application until the next put, so a get
//                  between them returns the superseded value (kStaleRead).
//   lost_update  — a put computes its return but never applies the
//                  write; a later get misses it (kLostUpdate).
//   early_retire — a superseded record is freed immediately instead of
//                  through EBR limbo (Lifetime kEarlyReclaim).

enum class UnsafeMode : int {
  kNone = 0,
  kStaleRead,
  kLostUpdate,
  kEarlyRetire,
};

/// The active seeded bug: first call reads FLIT_LINCHECK_UNSAFE
/// ("stale_read" | "lost_update" | "early_retire"), then cached;
/// set_unsafe_mode() overrides (tests use the API, CI uses the env).
UnsafeMode unsafe_mode() noexcept;
void set_unsafe_mode(UnsafeMode m) noexcept;

/// stale_read support: park a write's real application until the next
/// put applies pending work (or a test flushes it).
void unsafe_defer(std::function<void()> fn);
void unsafe_apply_pending();

// --- hook helpers ----------------------------------------------------------
// These are what the instrumented layers call. Each is a no-op (and the
// disabled branch folds away entirely) unless FLIT_LINCHECK is defined.

inline std::uint64_t lc_begin() noexcept {
  if constexpr (kLinCheckEnabled) return Recorder::instance().begin();
  return kNoTick;
}

/// Completed write-ish op (put/insert/remove): `payload` is hashed to a
/// value id for puts; pass empty for remove.
inline void lc_end_write(std::uint64_t inv, Op op, std::int64_t key,
                         std::string_view payload, bool flag) {
  if constexpr (kLinCheckEnabled) {
    if (inv == kNoTick) return;
    const std::uint64_t v = payload.empty() ? 0 : value_id(payload);
    Recorder::instance().end(inv, op, key, v, flag);
  } else {
    (void)inv; (void)op; (void)key; (void)payload; (void)flag;
  }
}

/// Completed get: `found` + the returned bytes (ignored when !found).
inline void lc_end_read(std::uint64_t inv, std::int64_t key, bool found,
                        std::string_view payload) {
  if constexpr (kLinCheckEnabled) {
    if (inv == kNoTick) return;
    const std::uint64_t v = found ? value_id(payload) : 0;
    Recorder::instance().end(inv, Op::kGet, key, v, found);
  } else {
    (void)inv; (void)key; (void)found; (void)payload;
  }
}

/// Completed contains.
inline void lc_end_contains(std::uint64_t inv, std::int64_t key, bool hit) {
  if constexpr (kLinCheckEnabled) {
    if (inv == kNoTick) return;
    Recorder::instance().end(inv, Op::kContains, key, 0, hit);
  } else {
    (void)inv; (void)key; (void)hit;
  }
}

/// Completed scan over (key, string-like value) pairs.
template <class Pairs>
inline void lc_end_scan(std::uint64_t inv, std::int64_t start,
                        std::size_t limit, const Pairs& pairs) {
  if constexpr (kLinCheckEnabled) {
    if (inv == kNoTick) return;
    std::vector<std::pair<std::int64_t, std::uint64_t>> out;
    out.reserve(pairs.size());
    for (const auto& p : pairs) {
      out.emplace_back(static_cast<std::int64_t>(p.first),
                       value_id(std::string_view(p.second)));
    }
    Recorder::instance().end_scan(inv, start, limit, std::move(out));
  } else {
    (void)inv; (void)start; (void)limit; (void)pairs;
  }
}

inline void lc_alloc(const void* p, std::size_t len) {
  if constexpr (kLinCheckEnabled) {
    Lifetime::instance().on_alloc(p, len);
  } else {
    (void)p; (void)len;
  }
}

inline void lc_retire(const void* p, std::uint64_t epoch, const char* site) {
  if constexpr (kLinCheckEnabled) {
    Lifetime::instance().on_retire(p, epoch, site);
  } else {
    (void)p; (void)epoch; (void)site;
  }
}

inline void lc_free(const void* p, std::uint64_t now, bool quiescent) {
  if constexpr (kLinCheckEnabled) {
    Lifetime::instance().on_free(p, now, quiescent);
  } else {
    (void)p; (void)now; (void)quiescent;
  }
}

inline void lc_deref(const void* p, const char* site) {
  if constexpr (kLinCheckEnabled) {
    if (p == nullptr) return;
    Lifetime::instance().on_deref(
        p, recl::Ebr::instance().current_announce(), site);
  } else {
    (void)p; (void)site;
  }
}

inline void lc_pool_reset() {
  if constexpr (kLinCheckEnabled) Lifetime::instance().clear();
}

}  // namespace flit::check
