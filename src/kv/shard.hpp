// shard.hpp — one shard of the durable key-value store: a FliT set
// structure mapping int64 keys to variable-length persistent value
// records, generic over the backing structure (see backend.hpp).
//
// The paper's motivating use case is persistent in-memory indexes and KV
// stores (§1). The set structures in src/ds/ carry fixed-width trivially
// copyable values in their nodes; a KV store needs arbitrary byte-string
// values. A shard composes the two:
//
//   * values live in Records — variable-length blocks in the persistent
//     pool, fully written, flushed (one pwb per cache line) and fenced
//     *before* the structure ever points at them, so a record reachable
//     from a persisted link is always intact;
//   * the backend structure stores Record* and provides durable
//     linearizability of the key→record mapping via the Words×Method
//     grid, exactly like the paper's evaluated structures;
//   * a superseded or removed record is retired through EBR by whichever
//     operation uniquely superseded it, so concurrent readers copying
//     the record's bytes under an Ebr::Guard never see freed memory.
//
// Overwrite semantics: put over an existing key is a single durable CAS
// on the node's value word (the backend's upsert_batched), installing the
// new record in place of the old one. A concurrent get or scan observes the
// old or the new complete value — never absence, never a torn mix — and
// a crash recovers one of the two. Retirement stays unique because the
// value word's successful CASes form one linear chain: each record is
// superseded by exactly one upsert (whose put retires it, after the
// put's covering fence) or claimed by exactly one removal (whose remove
// retires it) — see the value-claim protocol in ds/harris_list.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/lincheck.hpp"
#include "ds/batch.hpp"
#include "ds/tagged_ptr.hpp"
#include "kv/errors.hpp"
#include "pmem/persist_check.hpp"
#include "pmem/pool.hpp"
#include "recl/ebr.hpp"

namespace flit::kv {

/// A persistent variable-length value record. Header plus `len` payload
/// bytes, allocated as one block from the persistent pool.
struct Record {
  std::uint32_t len;

  char* data() noexcept { return reinterpret_cast<char*>(this + 1); }
  const char* data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  std::string_view view() const noexcept { return {data(), len}; }

  static std::size_t bytes(std::size_t payload) noexcept {
    return sizeof(Record) + payload;
  }

  /// Allocate a record in the persistent pool and, when `persistent`,
  /// flush its bytes (one pwb per line). The pfence is the caller's: the
  /// store creates all of a call's records and fences ONCE before
  /// publishing any of them (see Store::apply_puts), so persist-before-
  /// publish holds per record while the fence cost stays O(1) per call.
  template <bool persistent>
  static Record* create(std::string_view value) {
    if (value.size() > kMaxValueBytes) {
      throw std::length_error("kv::Record: value too large");
    }
    auto* r = static_cast<Record*>(
        pmem::Pool::instance().alloc(bytes(value.size())));
    r->len = static_cast<std::uint32_t>(value.size());
    if (!value.empty()) std::memcpy(r->data(), value.data(), value.size());
    if constexpr (persistent) pmem::pwb_range(r, bytes(value.size()));
    return r;
  }

  /// Hand an unlinked record to EBR; freed once no reader can reach it.
  /// `persistent` matches the creating Backend::kPersistent: volatile
  /// configurations never flush records, so only persistent ones owe
  /// PersistCheck a fully-Clean range at retirement.
  template <bool persistent = true>
  static void retire(Record* r) {
    if (check::kLinCheckEnabled &&
        check::unsafe_mode() == check::UnsafeMode::kEarlyRetire) {
      // Seeded bug (FLIT_LINCHECK_UNSAFE=early_retire): free the record
      // immediately instead of through EBR limbo — no grace period, so
      // the lifetime analyzer must flag an early reclamation here.
      const std::uint64_t e = recl::Ebr::instance().epoch();
      check::lc_retire(r, e, "kv::Record::retire[early_retire]");
      check::lc_free(r, e, /*quiescent=*/false);
      recl::ebr_pmem_free(r, bytes(r->len));
      return;
    }
    if constexpr (persistent) {
      pmem::pc_retire(r, bytes(r->len), "kv::Record::retire");
    }
    recl::Ebr::instance().retire(r, [](void* p) {
      auto* rec = static_cast<Record*>(p);
      recl::ebr_pmem_free(rec, bytes(rec->len));
    });
  }

  static constexpr std::size_t kMaxValueBytes = std::size_t{1} << 26;
};

/// One shard of the store: a FliT set structure (the Backend — see
/// backend.hpp for the contract) over a value-record slab. Every
/// operation is thread-safe; the recovery members are single-threaded
/// (open/recover-time) only. Puts and gets are driven by Store's
/// operation cores, which own the fences (see put_batched/get_batched).
template <class Backend>
class Shard {
 public:
  using Key = std::int64_t;
  using Backend_ = Backend;
  using Node = typename Backend::Node;
  /// Persistent recovery root of a shard (stored in the Store superblock).
  using Roots = typename Backend::Roots;

  static constexpr bool kOrdered = Backend::kOrdered;

  /// Fresh shard. `capacity_hint` sizes the backend (bucket count for the
  /// hashed backend; ignored by the skiplist).
  explicit Shard(std::size_t capacity_hint) : backend_(capacity_hint) {}

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  Shard(Shard&& o) noexcept
      : backend_(std::move(o.backend_)),
        approx_size_(o.approx_size_.load(std::memory_order_relaxed)) {
    // The count moved with the backend; a populated counter left behind
    // would double-count the keys if the moved-from husk were ever
    // summed (Store::size walks every shard it still holds).
    o.approx_size_.store(0, std::memory_order_relaxed);
  }

  /// Keys the underlying structures reserve for their sentinel nodes.
  /// Store's put rejects them; lookups and removals treat them as always
  /// absent (they can never have been stored).
  static constexpr bool reserved_key(Key k) noexcept {
    return k == std::numeric_limits<Key>::min() ||
           k == std::numeric_limits<Key>::max();
  }

  /// Remove k. Returns true if it was present; the removal is durably
  /// linearized at the backend's mark CAS and the record is retired
  /// through EBR by this (unique) winner.
  bool remove(Key k) {
    if (reserved_key(k)) return false;
    if (std::optional<Record*> old = backend_.remove_get(k)) {
      approx_size_.fetch_sub(1, std::memory_order_relaxed);
      Record::retire<Backend::kPersistent>(*old);
      return true;
    }
    return false;
  }

  bool contains(Key k) const {
    return !reserved_key(k) && backend_.contains(k);
  }

  // --- the store's operation cores (Store::get_core / apply_puts) ---------

  /// Prefetch the backend's probe entry for an upcoming operation on k —
  /// called for key i+1 while key i's cache misses are outstanding.
  void prepare(Key k) const noexcept {
    if (!reserved_key(k)) backend_.prepare(k);
  }

  /// Copy out the value for k (nullopt if absent), without a completion
  /// fence (the caller fences once per call) and under the *caller's*
  /// Ebr::Guard, which must span the call — the returned string is copied
  /// from the record under that guard, so it can never be freed mid-copy.
  std::optional<std::string> get_batched(Key k) const {
    if (reserved_key(k)) return std::nullopt;
    const std::optional<Record*> rec = backend_.find_batched(k);
    if (!rec) return std::nullopt;
    check::lc_deref(*rec, "kv::Shard::get_batched");
    return std::string((*rec)->view());
  }

  /// Insert-or-overwrite of a record the caller has already flushed and
  /// fenced (Record::create + the call's record pfence). The publish is a
  /// deferred-fence CAS enlisted in `batch`; a superseded record is
  /// appended to `superseded` instead of retired here — the caller may
  /// retire it only AFTER the batch's covering pfence, because until the
  /// new link is durable, recycling the old record's bytes could leave a
  /// crash image whose (still old) link points at clobbered storage.
  /// Returns true on a fresh insert.
  bool put_batched(Key k, Record* rec, ds::PublishBatch& batch,
                   std::vector<Record*>& superseded) {
    if constexpr (Backend::kPersistent) {
      pmem::pc_publish(rec, Record::bytes(rec->len),
                       "kv::Shard::put_batched");
    }
    if (std::optional<Record*> old =
            backend_.upsert_batched(k, rec, batch)) {
      superseded.push_back(*old);
      return false;
    }
    approx_size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate key count, O(1): a relaxed counter bumped at each
  /// linearized insert/remove. Exact whenever the shard is quiescent
  /// (every linearized operation is counted exactly once); under
  /// concurrency it may transiently deviate by the number of in-flight
  /// inserts/removes. Overwrites never touch it (an in-place upsert
  /// changes no key's presence), so a store under pure overwrite churn
  /// reads exactly. Rebuilt by an O(data) sweep on recovery. See
  /// ARCHITECTURE.md for the accuracy contract.
  std::size_t size() const noexcept {
    const auto n = approx_size_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  /// Ordered backends only: append up to `limit` live pairs with key >=
  /// lo to `out`, in ascending key order; returns how many were added.
  /// One Ebr::Guard spans the whole walk, so every copied record is safe
  /// from reclamation. Not an atomic snapshot: concurrent inserts/removes
  /// may or may not appear, but keys present for the whole call are
  /// always returned, and returned pairs are individually consistent
  /// (payload matches key, per the record immutability argument of get).
  std::size_t scan(Key lo, std::size_t limit,
                   std::vector<std::pair<Key, std::string>>& out) const
    requires(Backend::kOrdered)
  {
    if (limit == 0) return 0;
    recl::Ebr::Guard g;
    std::size_t added = 0;
    backend_.for_each_range(lo, [&](Key k, Record* r) {
      check::lc_deref(r, "kv::Shard::scan");
      out.emplace_back(k, std::string(r->view()));
      return ++added < limit;
    });
    return added;
  }

  // --- crash recovery ------------------------------------------------------

  Roots* roots() const noexcept { return backend_.roots(); }

  /// Rebuild a non-owning shard handle from its persisted roots and
  /// re-count the reachable keys (the O(1) size counter is volatile).
  /// Single-threaded; the caller (Store) has already bounds-checked the
  /// roots via Backend::validate_roots.
  static Shard recover(Roots* roots) {
    Shard s(Backend::recover(roots));
    s.approx_size_.store(
        static_cast<std::ptrdiff_t>(s.backend_.count()),
        std::memory_order_relaxed);
    return s;
  }

  /// Disown the persisted nodes (file-backed stores closing the region).
  void release() noexcept { backend_.release(); }

  /// One past the highest byte reachable from this shard: roots, every
  /// linked node, and every *live* record. A marked node's record was
  /// already retired (possibly reclaimed and reused before the crash), so
  /// its pointer may dangle — exactly why traversals never read marked
  /// values — and it is excluded here the same way. Live record pointers
  /// and lengths are validated against [lo, limit) before the first
  /// dereference (std::length_error on bit rot); node pointer corruption
  /// has no integrity metadata and stays out of scope. Single-threaded
  /// recovery use only.
  std::uintptr_t max_extent(std::uintptr_t lo, std::uintptr_t limit) const {
    std::uintptr_t hi = backend_.roots_extent();
    backend_.for_each_linked([&hi, lo, limit](const Node& n, bool marked) {
      const auto na = reinterpret_cast<std::uintptr_t>(&n);
      // Address first, then layout: node_bytes reads the node (a skiplist
      // tower's height), so an out-of-region link must be rejected before
      // the first field access, not diagnosed by the SIGSEGV it causes.
      if (na < lo || na >= limit || sizeof(Node) > limit - na) {
        throw std::length_error("kv: node pointer outside the region");
      }
      const std::size_t nb = Backend::node_bytes(n);  // validates layout
      if (nb > limit - na) {
        throw std::length_error("kv: node extends past the region");
      }
      if (na + nb > hi) hi = na + nb;
      const Record* r = n.value.load_private();
      // Sentinel, or a retired value: a marked node's record was claimed
      // by its removal (and a claimed — bit-0-marked — value pointer only
      // ever appears on a marked node; checked here anyway so a violated
      // invariant surfaces as a skip, not a wild dereference).
      if (marked || r == nullptr || ds::is_marked(r)) return;
      const auto ra = reinterpret_cast<std::uintptr_t>(r);
      if (ra < lo || ra + sizeof(Record) > limit) {
        throw std::length_error("kv: record pointer outside the region");
      }
      if (r->len > Record::kMaxValueBytes) {
        // A live record's length is bounded at creation; anything larger
        // is bit rot, and trusting it would poison the rebuilt allocator
        // mark.
        throw std::length_error("kv: corrupt record length");
      }
      const auto rec_end = ra + Record::bytes(r->len);
      if (rec_end > hi) hi = rec_end;
    });
    return hi;
  }

 private:
  explicit Shard(Backend&& b) noexcept : backend_(std::move(b)) {}

  Backend backend_;
  /// Linearized inserts minus removes; see size(). Cache-line aligned:
  /// shards live contiguously in Store's vector, and without the
  /// alignment two neighboring shards' hot counters (or a counter and the
  /// neighbor's backend state) can share a line — the same false-sharing
  /// collapse the paper demonstrates in §6 for flit counters packed into
  /// one cache line.
  // persist-lint: allow(volatile statistic; recomputed by recovery scan)
  alignas(64) std::atomic<std::ptrdiff_t> approx_size_{0};
};

}  // namespace flit::kv
