// modes.hpp — word-wrapper configurations and durability-method traits.
//
// The evaluation grid of the paper (§6) is the cross product of
//
//   implementation  ∈ {plain, flit-adjacent, flit-HT, flit-perline,
//                      link-and-persist, non-persistent}
//   durability method ∈ {automatic, NVtraverse, manual}
//   data structure  ∈ {list, BST, skiplist, hash table}
//
// The data structures are written once. A `Words` configuration chooses the
// word wrapper (which implementation executes each flit-instruction), and a
// `Method` trait chooses the pflag at each call site (which instructions
// are p- and which are v-instructions).
#pragma once

#include <type_traits>

#include "core/counters.hpp"
#include "core/link_and_persist.hpp"
#include "core/persist.hpp"
#include "pmem/backend.hpp"

namespace flit {

// ---------------------------------------------------------------------------
// Words configurations
// ---------------------------------------------------------------------------

/// FliT (or plain / non-persistent) words under a counter policy.
template <class Policy>
struct FlitWords {
  template <class T>
  using word = persist<T, Policy, flush_option::persisted>;

  static constexpr bool persistent =
      Policy::kind != CounterKind::kVolatile;
  static constexpr const char* name = Policy::name;

  /// Persist a freshly initialized object before publishing it (one pwb per
  /// cache line + pfence); no-op in the non-persistent configuration.
  template <class Obj>
  static void persist_obj(const Obj* o) noexcept {
    if constexpr (persistent) pmem::persist_range(o, sizeof(Obj));
  }

  /// End-of-operation fence (Algorithm 4 completeOp), issued only when
  /// the operation left a pwb outstanding.
  static void operation_completion() noexcept {
    if constexpr (persistent) pmem::pfence_if_pending();
  }
};

using AdjacentWords = FlitWords<AdjacentPolicy>;
using HashedWords = FlitWords<HashedPolicy>;
using PerLineWords = FlitWords<PerLinePolicy>;
using PlainWords = FlitWords<PlainPolicy>;
using VolatileWords = FlitWords<VolatilePolicy>;

/// Link-and-persist words. Pointer fields use the bit-tagged word; scalar
/// fields (keys/values, which in our structures are immutable after the
/// node is published and persisted) are read without any flush — matching
/// how the technique is deployed in the literature, where only link words
/// carry the flag and immutable fields are covered by the publication
/// flush.
struct LapWords {
  template <class T>
  using word =
      std::conditional_t<std::is_pointer_v<T>,
                         lap_word<T, flush_option::persisted>,
                         persist<T, VolatilePolicy, flush_option::persisted>>;

  static constexpr bool persistent = true;
  static constexpr const char* name = "link-and-persist";

  template <class Obj>
  static void persist_obj(const Obj* o) noexcept {
    pmem::persist_range(o, sizeof(Obj));
  }

  static void operation_completion() noexcept { pmem::pfence_if_pending(); }
};

// ---------------------------------------------------------------------------
// Durability methods (paper §3.1 and §6.4)
// ---------------------------------------------------------------------------
// Call sites in the data structures are classified as:
//   * traversal loads   — read-only walk towards the target position;
//   * transition loads  — re-reads of the final position (pred/curr) at the
//                         boundary between traversal and the critical phase;
//   * critical stores   — the CAS that logically changes the set (insert
//                         link, delete mark);
//   * cleanup stores    — physical helping (unlink of marked nodes);
//   * node init         — publication flush of a freshly built node.

/// Automatic (Theorem 3.1): every load and store is a p-instruction.
/// Any linearizable structure becomes durably linearizable.
struct Automatic {
  static constexpr const char* name = "automatic";
  static constexpr bool traversal_load = kPersist;
  static constexpr bool transition_load = kPersist;
  static constexpr bool critical_load = kPersist;
  static constexpr bool critical_store = kPersist;
  static constexpr bool cleanup_store = kPersist;
  static constexpr bool persist_node_init = true;
};

/// NVtraverse (Friedman et al. [16]): traversal-phase loads are
/// v-instructions; at the transition the last nodes read are p-loaded
/// (flushing them if tagged); everything in the critical phase is a
/// p-instruction.
struct NVTraverse {
  static constexpr const char* name = "nvtraverse";
  static constexpr bool traversal_load = kVolatile;
  static constexpr bool transition_load = kPersist;
  static constexpr bool critical_load = kPersist;
  static constexpr bool critical_store = kPersist;
  static constexpr bool cleanup_store = kPersist;
  static constexpr bool persist_node_init = true;
};

/// Manual (hand-tuned after David et al. [14]): like NVtraverse, but
/// physical cleanup (unlinking already-marked nodes) is volatile too — a
/// marked node's removal is already durable through the mark, so the unlink
/// CAS adds no dependency.
struct Manual {
  static constexpr const char* name = "manual";
  static constexpr bool traversal_load = kVolatile;
  static constexpr bool transition_load = kPersist;
  static constexpr bool critical_load = kPersist;
  static constexpr bool critical_store = kPersist;
  static constexpr bool cleanup_store = kVolatile;
  static constexpr bool persist_node_init = true;
};

}  // namespace flit
