// store.hpp — the sharded durable key-value store.
//
// N kv::Shards (each a FliT set structure + value-record slab, see
// shard.hpp / backend.hpp) behind one get/put/remove API. The store is
// generic over the backing structure via the backend concept:
//
//   * Store<Words, Method>                  — hash-partitioned shards over
//     FliT hash tables (HashBackend); keys route by a splitmix64 hash.
//   * OrderedStore<Words, Method>           — range-partitioned shards
//     over lock-free skiplists (OrderedBackend); keys route by position
//     in a persisted key range, which keeps shard ranges disjoint and
//     ordered, so Store::scan(start, n) can merge an ordered range scan
//     across shard boundaries by simple concatenation.
//
// Everything recovery needs hangs off one persistent *superblock*:
//
//   Superblock { magic, version, nshards, generation,
//                words_tag, layout_tag, node_bytes,
//                key_lo, key_hi, shard_roots[] }
//
// allocated in the persistent pool and persisted before use. The
// layout_tag (a hash of the backend's layout name) is what rejects a
// cross-layout open: a file written by an ordered store cannot be
// misread by a hashed one, and vice versa. The store runs in two
// placements:
//
//   * pool-backed  — Store(nshards, buckets): superblock and all data live
//     in the process-global Pool. Used by benchmarks and by the simulated-
//     crash tests, which recover with Store::recover(superblock()).
//   * file-backed  — Store::open(path, ...): the Pool adopts a FileRegion
//     and the superblock is wired to the region's root slot 0, so a later
//     open() of the same file transparently recovers every shard and the
//     generation stamp survives process restarts. Allocator metadata is
//     not crash-consistent (the libvmmalloc model), so open() rebuilds
//     the pool's high-water mark by sweeping the recovered shards —
//     a dirty shutdown (no close()) cannot cause recovered records to be
//     handed back out by the allocator. On DRAM+disk machines the
//     mmap'd bytes themselves are only msync-durable: checkpoint()/
//     close() bound that exposure; on DAX the pwb/pfence backend
//     applies as-is.
//
// The generation stamp counts sessions: 1 on creation, +1 (persisted) on
// every successful recovery — restart-count telemetry that doubles as a
// recovery proof in the tests.
//
// Consistency contract: get/put/remove on a single key are atomic and
// durably linearizable per the Words×Method configuration — including
// put over an *existing* key, which is a single durable CAS installing
// the new value record in place of the old one (the backend's
// upsert_batched; see shard.hpp). A concurrent get or scan observes the
// old or the new complete value, never absence and never a torn mix, and
// a crash mid-overwrite recovers exactly one of the two. No *returned*
// operation is ever lost. scan() is ordered but not an atomic snapshot
// (see the method comment); size() is an O(1) approximate counter, exact
// at quiescence and untouched by overwrites (see Shard::size and
// ARCHITECTURE.md).
//
// Lifetime contract: a Store handle is volatile; the persistent bytes are
// not owned by it. Destroying a pool-backed store releases the handles and
// leaves the bytes to Pool::reset/reinit (arena semantics, like the
// paper's libvmmalloc model). close() on a file-backed store quiesces
// reclamation, persists the allocator high-water mark, syncs and unmaps —
// after which the global Pool still targets the unmapped region, so call
// Pool::reinit (or exit) before allocating persistently again.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "check/lincheck.hpp"
#include "kv/backend.hpp"
#include "kv/errors.hpp"
#include "kv/shard.hpp"
#include "pmem/file_region.hpp"
#include "pmem/pool.hpp"

namespace flit::kv {

/// Half-open key interval [lo, hi) an ordered store partitions across its
/// shards. Persisted in the superblock (routing must be stable across
/// sessions). Keys outside the range still work — routing clamps them to
/// the first/last shard, which keeps the per-shard ranges monotone and
/// scans globally sorted — but a range matching the workload's keyspace
/// spreads load evenly. Ignored by hashed stores.
struct KeyRange {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

/// When the store msyncs on its own (file-backed stores only — the modes
/// bound the DRAM+disk exposure window that checkpoint() closes by hand;
/// pool-backed stores have no backing file and every mode is a no-op).
/// The loss window is what a machine crash (not a process crash — the
/// page cache survives those) can take back:
///
///   * kNever   — only explicit checkpoint()/close() msync. Loss window:
///     everything since the last checkpoint. Fastest; the recovery sweep
///     still repairs the allocator mark, so committed-and-synced data is
///     never resurrected wrong, but recent writes may vanish wholesale.
///   * kEverySec — a background flusher checkpoints every interval
///     (default 1 s, the classic redis/pomaicache "everysec"). Loss
///     window: at most ~one interval of acknowledged writes.
///   * kAlways  — callers invoke note_write_commit() after each write
///     batch (the network server does this once per readiness event, so
///     one msync covers a whole pipelined burst); acknowledged then means
///     msync-durable. Loss window: nothing acknowledged.
enum class DurabilityMode { kNever, kEverySec, kAlways };

inline const char* to_string(DurabilityMode m) noexcept {
  switch (m) {
    case DurabilityMode::kAlways:
      return "always";
    case DurabilityMode::kEverySec:
      return "everysec";
    default:
      return "never";
  }
}

inline std::optional<DurabilityMode> parse_durability_mode(
    std::string_view s) noexcept {
  if (s == "never") return DurabilityMode::kNever;
  if (s == "everysec") return DurabilityMode::kEverySec;
  if (s == "always") return DurabilityMode::kAlways;
  return std::nullopt;
}

template <class Words = HashedWords, class Method = Automatic,
          template <class, class> class BackendT = HashBackend>
class Store {
 public:
  using Key = std::int64_t;
  using Backend_ = BackendT<Words, Method>;
  using Shard_ = Shard<Backend_>;

  /// True for OrderedStore: range-partitioned shards with scan() support.
  static constexpr bool kOrdered = Backend_::kOrdered;

  static constexpr std::uint64_t kMagic = 0xF117'4B56'0000'0001ull;
  /// Bumped when the superblock layout changes; v2 added the backend
  /// layout tag and the ordered partition bounds.
  static constexpr std::uint32_t kVersion = 2;
  /// FileRegion root slot holding the superblock.
  static constexpr std::size_t kSuperblockSlot = 0;
  /// Root slot doubling as a clean-shutdown flag: non-null only between a
  /// quiesced close() and the next open(). While it is set, the header's
  /// bump mark is authoritative and open() can skip the O(data) recovery
  /// sweep; a dirty shutdown leaves it null. (checkpoint() deliberately
  /// does NOT set it: post-checkpoint allocations would sit above the
  /// checkpointed mark.)
  static constexpr std::size_t kCleanShutdownSlot = 1;
  /// msync attempts per checkpoint before the store latches degraded
  /// read-only (1 initial try + retries, backoff 1→2→4 ms capped at 8).
  static constexpr int kMsyncRetryLimit = 4;

  /// Persistent recovery root: everything Store::recover needs.
  struct Superblock {
    std::uint64_t magic;
    std::uint32_t version;
    std::uint32_t nshards;
    std::uint64_t generation;  ///< sessions: 1 at creation, +1 per recovery
    std::uint32_t words_tag;   ///< hash of Words::name (layout guard)
    std::uint32_t layout_tag;  ///< hash of Backend::kLayoutName (ditto)
    std::uint32_t node_bytes;  ///< sizeof(Backend::Node) (layout guard)
    std::uint32_t reserved;    ///< alignment; zero
    std::int64_t key_lo;       ///< ordered partition bounds [key_lo,
    std::int64_t key_hi;       ///<   key_hi); full range when hashed
    typename Shard_::Roots* shard_roots[1];  // flexible-array idiom

    static std::size_t bytes(std::uint32_t nshards) noexcept {
      return sizeof(Superblock) +
             (nshards - 1) * sizeof(typename Shard_::Roots*);
    }
  };

  /// FNV-1a of a configuration name; different Words change the persisted
  /// node layout (e.g. adjacent counters pad every word) and different
  /// backends change the node type entirely, so a file must be reopened
  /// with the configuration that wrote it.
  static constexpr std::uint32_t fnv1a(const char* s) noexcept {
    std::uint32_t h = 2166136261u;
    for (const char* p = s; *p != '\0'; ++p) {
      h = (h ^ static_cast<unsigned char>(*p)) * 16777619u;
    }
    return h;
  }
  static constexpr std::uint32_t words_tag() noexcept {
    return fnv1a(Words::name);
  }
  static constexpr std::uint32_t layout_tag() noexcept {
    return fnv1a(Backend_::kLayoutName);
  }

  /// Pool-backed store: build `nshards` fresh shards and a persisted
  /// superblock in the process-global Pool. `capacity_per_shard` sizes
  /// each backend (buckets for hashed shards; ignored by ordered ones).
  /// `range` sets an ordered store's persisted partition bounds (see
  /// KeyRange); hashed stores ignore it.
  Store(std::uint32_t nshards, std::size_t capacity_per_shard,
        KeyRange range = {}) {
    if (nshards == 0) throw std::invalid_argument("kv::Store: 0 shards");
    if (capacity_per_shard == 0) {
      throw std::invalid_argument("kv::Store: 0 capacity per shard");
    }
    if (range.lo >= range.hi) {
      throw std::invalid_argument("kv::Store: empty key range");
    }
    shards_.reserve(nshards);
    for (std::uint32_t i = 0; i < nshards; ++i) {
      shards_.emplace_back(capacity_per_shard);
    }
    sb_ = static_cast<Superblock*>(
        pmem::Pool::instance().alloc(Superblock::bytes(nshards)));
    sb_->magic = kMagic;
    sb_->version = kVersion;
    sb_->nshards = nshards;
    sb_->generation = 1;
    sb_->words_tag = words_tag();
    sb_->layout_tag = layout_tag();
    sb_->node_bytes = static_cast<std::uint32_t>(sizeof(typename Shard_::Node));
    sb_->reserved = 0;
    sb_->key_lo = range.lo;
    sb_->key_hi = range.hi;
    for (std::uint32_t i = 0; i < nshards; ++i) {
      sb_->shard_roots[i] = shards_[i].roots();
    }
    if constexpr (Words::persistent) {
      pmem::persist_range(sb_, Superblock::bytes(nshards));
    }
    init_routing();
  }

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  Store(Store&& o) noexcept
      : shards_(std::move(o.shards_)),
        sb_(std::exchange(o.sb_, nullptr)),
        region_(std::move(o.region_)),
        file_backed_(std::exchange(o.file_backed_, false)),
        range_chunk_(o.range_chunk_),
        durability_(o.durability_.load(std::memory_order_relaxed)),
        checkpoints_(o.checkpoints_.load(std::memory_order_relaxed)),
        health_(o.health_.load(std::memory_order_relaxed)),
        checkpoint_pre_(std::move(o.checkpoint_pre_)),
        checkpoint_post_(std::move(o.checkpoint_post_)),
        durability_ctl_(std::move(o.durability_ctl_)) {
    if (durability_ctl_) {
      // The flusher thread targets the store through the control block;
      // retarget it under the block's mutex so a concurrently running
      // flush sees either the old (still-valid) or the new handle.
      std::lock_guard<std::mutex> lk(durability_ctl_->mu);
      durability_ctl_->store = this;
    }
  }

  ~Store() {
    // close() can throw (msync failure on the backing file); a destructor
    // must not — swallow and rely on FileRegion::close()'s best-effort
    // final sync. Callers who need the error call close() explicitly.
    try {
      close();
    } catch (...) {
    }
  }

  /// Throw IncompatibleStore unless `sb` is a superblock this Store
  /// instantiation can recover: right magic/version, same backend layout
  /// (hashed vs ordered — the layout tag), same Words configuration (node
  /// byte layout), sane shard count and partition bounds.
  static void validate_superblock(const Superblock* sb) {
    if (sb == nullptr || sb->magic != kMagic) {
      throw IncompatibleStore("kv::Store: superblock magic mismatch");
    }
    if (sb->version != kVersion) {
      throw IncompatibleStore("kv::Store: superblock version mismatch");
    }
    if (sb->nshards == 0) {
      throw IncompatibleStore("kv::Store: corrupt superblock (0 shards)");
    }
    if (sb->layout_tag != layout_tag()) {
      throw IncompatibleStore(
          "kv::Store: file was written by a different backend layout "
          "(hashed vs ordered); reopen with the store type that created "
          "it");
    }
    if (sb->words_tag != words_tag() ||
        sb->node_bytes != sizeof(typename Shard_::Node)) {
      throw IncompatibleStore(
          "kv::Store: file was written by a different Words configuration "
          "(node layout mismatch); reopen with the configuration that "
          "created it");
    }
    if (sb->key_lo >= sb->key_hi) {
      throw IncompatibleStore("kv::Store: corrupt partition bounds");
    }
  }

  /// Rebuild a store from a persisted superblock (simulated-crash path, or
  /// the recovered half of open()). Bumps the generation stamp durably.
  /// Ordered shards additionally repair their skiplist index levels from
  /// the durable bottom level (see SkipList::recover), and every shard
  /// re-counts its keys for the O(1) size counter.
  static Store recover(Superblock* sb) {
    Store s = recover_handles(sb);
    bump_generation(sb);
    return s;
  }

  /// Open (or create) a file-backed store: the Pool adopts the region and
  /// the store recovers from (or installs) the superblock in root slot 0.
  /// An existing file's shard count and partition bounds win over the
  /// `nshards`/`range` arguments. Throws IncompatibleStore when the file
  /// exists but was written by a different store configuration or has a
  /// corrupt header — in that case (and on any other throw) the global
  /// Pool is left usable.
  static Store open(const std::string& path, std::size_t capacity,
                    std::uint32_t nshards, std::size_t capacity_per_shard,
                    KeyRange range = {}) {
    pmem::FileRegion region = pmem::FileRegion::open(path, capacity);
    // The allocator mark is header data too: a bit-rotted value past the
    // region would poison Pool::adopt's chunk round-up (possibly wrapping
    // to 0 and overwriting committed records). Checked for *any* existing
    // region — even one whose superblock root was never set takes the
    // mark into adopt(). Too-small marks are repaired by the recovery
    // sweep; too-large ones are corruption.
    if (region.recovered() && region.bump() > region.usable_capacity()) {
      throw IncompatibleStore("kv::Store: corrupt allocator bump mark");
    }
    void* root = region.recovered() ? region.root(kSuperblockSlot) : nullptr;
    // Validate before the Pool adopts the region: a reject (foreign file,
    // newer version, corrupt header) must unwind with the global allocator
    // untouched, not leave it pointing into a mapping this frame is about
    // to drop. The root offset and everything reached through it are
    // bounds-checked before the first dereference — a torn or bit-rotted
    // header must produce the clean throw, not a SIGSEGV.
    if (root != nullptr) {
      if (!region_spans(region, root, sizeof(Superblock))) {
        throw IncompatibleStore("kv::Store: corrupt superblock offset");
      }
      auto* sb = static_cast<Superblock*>(root);
      validate_superblock(sb);
      validate_region_layout(region, sb);
    }
    // Once the Pool has adopted the region, an exception unwinding this
    // frame would unmap the region under the adopted pool — every later
    // allocation in the process would fault. Catch, restore a fresh
    // anonymous pool at the pre-adopt capacity (its contents were already
    // discarded by the adoption), rethrow. Before adoption (the recovery
    // handles and the sweep run first — no allocation) the existing pool
    // is healthy and must be left alone.
    const std::size_t prev_capacity = pmem::Pool::instance().capacity();
    bool adopted = false;
    try {
      if (root != nullptr) {
        // Recover the handles first (no allocation; ordered shards repair
        // their index levels in place). After a *dirty* shutdown the
        // header's bump mark can sit below durably committed records (it
        // is only written at checkpoint()/close(); allocator metadata is
        // not crash-consistent, the libvmmalloc model) — resuming from it
        // verbatim would hand their bytes right back out, so rebuild the
        // high-water mark by sweeping what the shards actually reach. A
        // clean shutdown left the flag slot set, making the mark
        // authoritative and the O(data) sweep skippable.
        //
        // Handle recovery itself walks every chain (the size re-count, the
        // ordered index rebuild); a truncated or torn image surfaces there
        // as std::length_error — a broken chain, an impossible node — and
        // must reject the open, not escape as a generic runtime error or
        // worse, yield a silently half-recovered store.
        Store s = [&] {
          try {
            return recover_handles(static_cast<Superblock*>(root));
          } catch (const std::length_error& e) {
            throw IncompatibleStore(e.what());
          }
        }();
        std::size_t resume = region.bump();
        if (region.root(kCleanShutdownSlot) == nullptr) {
          const auto base =
              reinterpret_cast<std::uintptr_t>(region.usable_base());
          const std::uintptr_t limit = base + region.usable_capacity();
          std::uintptr_t hi = 0;
          try {
            hi = s.max_extent(base, limit);
          } catch (const std::length_error& e) {
            throw IncompatibleStore(e.what());  // corrupt record length
          }
          if (hi > limit) {
            // A reachable object appearing past the region is bit rot in
            // a length or pointer field; clamping would only defer the
            // damage to an inexplicably full allocator.
            throw IncompatibleStore(
                "kv::Store: recovered data extends past the region");
          }
          const std::size_t swept = hi > base ? hi - base : 0;
          resume = std::max(resume, swept);
        }
        pmem::Pool::instance().adopt(region.usable_base(),
                                     region.usable_capacity(), resume);
        adopted = true;
        s.attach(std::move(region));
        // Everything that could reject this open has passed; only now
        // consume a recovery in the durable session stamp.
        bump_generation(s.sb_);
        s.region_.set_root(kCleanShutdownSlot, nullptr);  // in use: dirty
        s.region_.set_bump(pmem::Pool::instance().bump_used());
        s.region_.sync();  // generation stamp + repaired bump, durable now
        return s;
      }
      // Fresh file (or a region that died before its first superblock
      // sync — nothing was ever committed, so initializing from scratch
      // is safe).
      pmem::Pool::instance().adopt(region.usable_base(),
                                   region.usable_capacity(), region.bump());
      adopted = true;
      Store s(nshards, capacity_per_shard, range);
      s.attach(std::move(region));
      s.region_.set_root(kSuperblockSlot, s.sb_);
      s.region_.set_bump(pmem::Pool::instance().bump_used());
      s.region_.sync();
      return s;
    } catch (...) {
      if (adopted) {
        pmem::Pool::instance().reinit(prev_capacity != 0
                                          ? prev_capacity
                                          : pmem::Pool::kDefaultCapacity);
      }
      throw;
    }
  }

  // --- the KV API ----------------------------------------------------------
  // Every operation kind has ONE implementation, a private core over a
  // span of elements (put_core / get_core / remove_core below). The
  // scalar calls hand it a one-element span; the multi-ops hand it the
  // caller's batch. Real serving traffic arrives in batches (RPC
  // multi-get, pipelined writes), and the cores exploit that three ways:
  // (1) ops are grouped by destination shard, so consecutive probes share
  // shard-local state; (2) lookups are pipelined — while key i's cache
  // miss is outstanding, key i+1's probe entry is software-prefetched;
  // (3) writes coalesce their persistence: all of a call's records are
  // flushed and fenced ONCE before any is published, the publish CASes
  // defer their trailing fences to one shared pfence, and only then are
  // the published words untagged. Per-element durability-before-
  // publication is preserved — see ARCHITECTURE.md ("Batched multi-op
  // path") for the full argument. A one-element put pays the same two
  // fences (plus a fresh node's own persist fence), which is also the
  // least a durable put can pay: one to make the record durable before
  // its link, one to make the link durable before the call returns. The
  // cores allocate nothing of their own (per-thread scratch) and skip the
  // grouping sort for one element, so a scalar call carries no batching
  // overhead worth a separate code path.

  /// Insert or overwrite. Returns true if k was absent (fresh insert).
  /// Durably linearizable per Words×Method; an overwrite is one atomic
  /// in-place value CAS — concurrent reads see the old or new value,
  /// never absence (see the consistency contract above). Throws
  /// std::invalid_argument on the reserved sentinel keys
  /// (INT64_MIN/INT64_MAX), std::length_error past Record::kMaxValueBytes,
  /// kv::OutOfSpace on a full pool (nothing applied, nothing leaked —
  /// the unpublished record is freed before the throw escapes),
  /// kv::StoreReadOnly when the store is latched degraded (see health()).
  bool put(Key k, std::string_view value) {
    const std::pair<Key, std::string_view> kv{k, value};
    bool fresh = false;
    put_core({&kv, 1}, &fresh);
    return fresh;
  }

  /// Copy out the value for k (nullopt if absent). The returned string is
  /// a private copy taken under an EBR guard — always intact, never torn,
  /// even against concurrent overwrites of k.
  std::optional<std::string> get(Key k) const {
    std::optional<std::string> out;
    get_core({&k, 1}, &out);
    return out;
  }

  /// Remove k. Returns true if it was present. The removal is durable
  /// before the call returns (per Words×Method). Throws
  /// kv::StoreReadOnly when latched degraded (a removal is a mutation:
  /// acknowledging it un-durably would lie exactly like a put).
  bool remove(Key k) {
    bool present = false;
    remove_core({&k, 1}, &present);
    return present;
  }

  bool contains(Key k) const {
    const std::uint64_t inv = check::lc_begin();
    const bool hit = shard_for(k).contains(k);
    check::lc_end_contains(inv, k, hit);
    return hit;
  }

  /// Batched get: out[i] corresponds to keys[i] (nullopt if absent; a
  /// reserved sentinel key is simply absent, as in get()). Duplicate keys
  /// are looked up independently. Each returned value is a private,
  /// never-torn copy; at most one completion fence covers the whole
  /// batch (none unless a lookup flushed a tagged word).
  std::vector<std::optional<std::string>> multi_get(
      std::span<const Key> keys) const {
    std::vector<std::optional<std::string>> out(keys.size());
    get_core(keys, out.data());
    return out;
  }

  /// Batched insert-or-overwrite: out[i] is the fresh-insert flag of
  /// kvs[i] (exactly put()'s return). Elements are applied in batch order
  /// — with duplicate keys in one batch, every occurrence is applied and
  /// the LAST one's value wins (each earlier record is superseded and
  /// retired exactly once).
  ///
  /// Durability: every record in the batch is flushed and covered by a
  /// single pfence before the first element is published; each publish
  /// leaves its word tagged/dirty until one final pfence covers them all,
  /// so a concurrent reader that observes an element before that fence
  /// flushes the word itself (flit-if-tagged). A crash recovers each
  /// element independently as fully applied or not at all — never torn.
  ///
  /// Errors: a reserved sentinel key or an oversized value throws
  /// (std::invalid_argument / std::length_error) before ANY element is
  /// applied. kv::OutOfSpace on a full pool can leave a prefix of the
  /// batch applied (each applied element is complete and durable per the
  /// phase protocol; the rest are not applied at all — nothing torn,
  /// nothing leaked). kv::StoreReadOnly when latched degraded.
  std::vector<bool> multi_put(
      std::span<const std::pair<Key, std::string_view>> kvs) {
    std::vector<bool> fresh(kvs.size(), false);
    put_core(kvs, fresh.begin());
    return fresh;
  }

  /// Batched remove: out[i] is remove()'s return for keys[i] (reserved
  /// sentinel keys report false). Elements are applied in batch order;
  /// grouping and prefetching amortize the probes, but each removal keeps
  /// its own durable mark CAS — fence coalescing targets the put path,
  /// where records dominate the persistence bill. Throws
  /// kv::StoreReadOnly when latched degraded.
  std::vector<bool> multi_remove(std::span<const Key> keys) {
    std::vector<bool> out(keys.size(), false);
    remove_core(keys, out.begin());
    return out;
  }

  /// Ordered stores only: up to `n` pairs with key >= start, in ascending
  /// key order, merged across shard boundaries (range partitioning keeps
  /// shard ranges disjoint and ordered, so the merge is concatenation).
  /// Each returned pair is individually consistent (the payload is the
  /// full value some put committed for that key), but the scan as a whole
  /// is not an atomic snapshot: keys inserted or removed concurrently may
  /// or may not appear. Keys present for the whole call are always
  /// returned. After recovery, a scan observes every committed key in
  /// order. The reserved sentinel keys are safe starts: scan(INT64_MIN,
  /// n) returns the n smallest keys and scan(INT64_MAX, n) is empty
  /// (neither sentinel is storable, and the structures' sentinel nodes
  /// are never emitted) — audited in kv_ordered_test.
  std::vector<std::pair<Key, std::string>> scan(Key start, std::size_t n)
      const
    requires(kOrdered)
  {
    std::vector<std::pair<Key, std::string>> out;
    scan(start, n, out);
    return out;
  }

  /// Allocation-friendly overload: append up to `n` pairs to `out`
  /// (cleared first); returns how many were appended.
  std::size_t scan(Key start, std::size_t n,
                   std::vector<std::pair<Key, std::string>>& out) const
    requires(kOrdered)
  {
    out.clear();
    if (n == 0) return 0;
    const std::uint64_t lc_inv = check::lc_begin();
    std::size_t got = 0;
    const std::size_t first = shard_index(start);
    for (std::size_t i = first; i < shards_.size() && got < n; ++i) {
      // Later shards hold strictly larger keys; scan them from the start.
      const Key lo = i == first ? start : std::numeric_limits<Key>::min();
      got += shards_[i].scan(lo, n - got, out);
    }
    check::lc_end_scan(lc_inv, start, n, out);
    return got;
  }

  /// Approximate total key count, O(nshards): sums the per-shard
  /// counters. Exact at quiescence; under concurrency it may transiently
  /// deviate by the number of in-flight operations (see Shard::size and
  /// ARCHITECTURE.md for the accuracy contract).
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Shard_& s : shards_) n += s.size();
    return n;
  }

  // --- introspection / recovery handles ------------------------------------

  std::uint32_t nshards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint64_t generation() const noexcept { return sb_->generation; }
  Superblock* superblock() const noexcept { return sb_; }
  bool file_backed() const noexcept { return file_backed_; }
  const Shard_& shard(std::size_t i) const { return shards_[i]; }
  /// Ordered stores: the persisted partition bounds.
  KeyRange key_range() const noexcept {
    return {sb_->key_lo, sb_->key_hi};
  }

  /// Which shard serves key k (stable across sessions: hashed routing
  /// depends only on nshards, ordered routing only on the persisted
  /// partition bounds).
  std::size_t shard_index(Key k) const noexcept {
    if constexpr (kOrdered) {
      // Range partition: shard i owns the i-th chunk of [key_lo, key_hi);
      // out-of-range keys clamp to the edge shards. The mapping is
      // monotone in k, which is what keeps cross-shard scans sorted.
      if (k < sb_->key_lo) return 0;
      if (k >= sb_->key_hi) return shards_.size() - 1;
      const auto off =
          static_cast<std::uint64_t>(k) - static_cast<std::uint64_t>(sb_->key_lo);
      return static_cast<std::size_t>(off / range_chunk_);
    } else {
      // Full splitmix64 mix, deliberately distinct from the table's bucket
      // hash so shard choice and bucket choice stay uncorrelated.
      auto x = static_cast<std::uint64_t>(k);
      x += 0x9E3779B97F4A7C15ull;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      x ^= x >> 31;
      return static_cast<std::size_t>(x % shards_.size());
    }
  }

  /// Persist the allocator high-water mark and sync the backing file so
  /// everything committed so far is on stable storage (msync-durable
  /// even on DRAM+disk machines, where pwb/pfence alone reach only the
  /// page cache). Stop-the-world; file-backed stores only. open()'s
  /// recovery sweep protects committed records from a dirty shutdown
  /// regardless, but periodic checkpoints bound the sweep's work and the
  /// msync exposure window.
  void checkpoint() {
    if (durability_ctl_) {
      std::lock_guard<std::mutex> lk(durability_ctl_->mu);
      checkpoint_impl();
    } else {
      checkpoint_impl();
    }
  }

  // --- durability modes ------------------------------------------------------

  /// Select how aggressively the store msyncs on its own (see
  /// DurabilityMode for the loss windows). `every` is the kEverySec
  /// flusher interval (exposed for tests; production uses the default).
  /// Stops any previous flusher first; safe to call repeatedly. On a
  /// pool-backed store the mode is recorded but every flush is a no-op.
  void set_durability_mode(
      DurabilityMode m,
      std::chrono::milliseconds every = std::chrono::milliseconds(1000)) {
    stop_flusher();
    durability_.store(m, std::memory_order_relaxed);
    if (m == DurabilityMode::kNever) return;
    // kAlways needs the control block too: note_write_commit() arrives
    // from many server workers at once and the block's mutex serializes
    // the header write + msync.
    durability_ctl_ = std::make_unique<DurabilityCtl>();
    durability_ctl_->store = this;
    durability_ctl_->every = every;
    if (m == DurabilityMode::kEverySec && file_backed_) {
      durability_ctl_->th =
          std::thread(&Store::flusher_main, durability_ctl_.get());
    }
  }

  DurabilityMode durability_mode() const noexcept {
    return durability_.load(std::memory_order_relaxed);
  }

  /// Checkpoints executed so far (explicit, flusher, or kAlways hook) —
  /// telemetry for tests and the server's STATS.
  std::uint64_t checkpoints() const noexcept {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Degradation state (see kv::Health and the ladder in errors.hpp).
  /// kDegradedReadOnly latches when a checkpoint msync fails past its
  /// retry budget, or when the process-wide pmem durability latch fired
  /// (a close-path msync was swallowed somewhere a throw could not
  /// reach). Once degraded, every mutation throws kv::StoreReadOnly;
  /// reads keep serving. The latch clears only by reopening the store in
  /// a healthy process — trusting dirty pages again after the kernel
  /// rejected a writeback is the fsyncgate bug.
  Health health() const noexcept {
    if (health_.load(std::memory_order_acquire) != Health::kOk) {
      return Health::kDegradedReadOnly;
    }
    if (file_backed_ && pmem::durability_degraded()) {
      return Health::kDegradedReadOnly;
    }
    return Health::kOk;
  }

  /// kAlways hook: callers (the network server, once per readiness
  /// event's writes) invoke this after a write batch commits; under
  /// kAlways it checkpoints before the caller acknowledges, making
  /// "acknowledged" mean "msync-durable". Other modes: no-op.
  void note_write_commit() {
    if (durability_mode() == DurabilityMode::kAlways) checkpoint();
  }

  /// Observe each checkpoint's durability point: `pre` runs immediately
  /// before the msync (snapshot what is about to become durable), `post`
  /// immediately after it returns (everything snapshotted IS durable).
  /// Both run on whichever thread checkpoints — an explicit checkpoint()
  /// caller, the kEverySec flusher, or a kAlways note_write_commit() —
  /// and are serialized with the checkpoint itself (callers hold the
  /// durability control mutex when one exists), so a pre/post pair never
  /// interleaves with another checkpoint's. This is the ack-point surface
  /// the crash-test harness builds its acknowledgement stream on; either
  /// hook may be empty. Not thread-safe against concurrent checkpoints:
  /// install hooks before the store starts taking traffic.
  void set_checkpoint_hooks(std::function<void()> pre,
                            std::function<void()> post) {
    checkpoint_pre_ = std::move(pre);
    checkpoint_post_ = std::move(post);
  }

  /// Quiesce and detach. File-backed: drain reclamation, persist the
  /// allocator high-water mark, sync and unmap (see the lifetime contract
  /// above). Pool-backed: just release the volatile handles. Stop-the-
  /// world; the store is unusable afterwards. Idempotent.
  void close() {
    stop_flusher();
    if (sb_ == nullptr) return;
    for (Shard_& s : shards_) s.release();
    shards_.clear();
    // Drain unconditionally: retired Records queued in EBR limbo hold
    // deleters that would otherwise run later — against pool memory a
    // reset()/reinit() may have recycled by then.
    recl::Ebr::instance().drain_all();
    if (file_backed_) {
      // Two-phase: the bump mark must be durable *before* the clean flag
      // declares it authoritative — flag-set with a stale mark would make
      // the next open() skip the repair sweep and recycle committed
      // records. (Both live in the header line; independent 8-byte
      // persists could otherwise land in either order.)
      region_.set_bump(pmem::Pool::instance().bump_used());
      region_.sync();
      region_.set_root(kCleanShutdownSlot, sb_);  // quiesced: mark clean
      region_.sync();
      region_.close();
      file_backed_ = false;
    }
    sb_ = nullptr;
  }

 private:
  struct RecoverTag {};
  explicit Store(RecoverTag) noexcept {}

  /// Heap-allocated so the kEverySec flusher thread can hold a stable
  /// pointer while the Store handle itself moves (open() returns by
  /// value); the move ctor retargets `store` under `mu`.
  struct DurabilityCtl {
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    Store* store = nullptr;
    std::chrono::milliseconds every{1000};
    std::thread th;  ///< joinable only in kEverySec mode
  };

  static void flusher_main(DurabilityCtl* c) {
    std::unique_lock<std::mutex> lk(c->mu);
    while (!c->stop) {
      if (c->cv.wait_for(lk, c->every, [c] { return c->stop; })) break;
      // Still holding mu: the store pointer is stable and no concurrent
      // checkpoint() can interleave its header write with ours. A
      // failure must not terminate the process from a background thread.
      try {
        if (c->store != nullptr) c->store->checkpoint_impl();
      } catch (const StoreReadOnly&) {
        // The retry budget inside checkpoint_impl is spent and the store
        // latched degraded read-only: every further periodic flush would
        // fail identically, so stop the loop. Mutations are already
        // rejected at the API; the latch shows in health()/STATS.
        break;
      } catch (...) {
        // Transient (not latch-worthy — e.g. a pre/post hook threw):
        // retry on the next interval.
      }
    }
  }

  /// The actual checkpoint body; callers hold durability_ctl_->mu when
  /// the control block exists. An msync failure is retried with capped
  /// backoff (the kernel may be under transient pressure); past the
  /// budget the store latches degraded read-only and throws — after a
  /// rejected writeback the dirty pages can no longer be trusted as
  /// durable, so no later "successful" msync may acknowledge them (the
  /// fsyncgate lesson). The post hook (the ack surface) runs only on
  /// success: a failed checkpoint acknowledges nothing.
  void checkpoint_impl() {
    if (!file_backed_) return;
    if (health_.load(std::memory_order_acquire) != Health::kOk) {
      throw StoreReadOnly();
    }
    if (checkpoint_pre_) checkpoint_pre_();
    region_.set_bump(pmem::Pool::instance().bump_used());
    std::chrono::milliseconds backoff(1);
    for (int attempt = 1;; ++attempt) {
      try {
        region_.sync();
        break;
      } catch (const std::exception& e) {
        if (attempt >= kMsyncRetryLimit) {
          health_.store(Health::kDegradedReadOnly,
                        std::memory_order_release);
          std::fprintf(stderr,
                       "flit: kv: checkpoint sync failed %d times (%s); "
                       "latching degraded read-only\n",
                       attempt, e.what());
          throw StoreReadOnly();
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, std::chrono::milliseconds(8));
      }
    }
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    if (checkpoint_post_) checkpoint_post_();
  }

  /// Mutation gate: reject writes while degraded (see health()).
  void ensure_writable() const {
    if (health() != Health::kOk) throw StoreReadOnly();
  }

  void stop_flusher() noexcept {
    if (!durability_ctl_) return;
    {
      std::lock_guard<std::mutex> lk(durability_ctl_->mu);
      durability_ctl_->stop = true;
    }
    durability_ctl_->cv.notify_all();
    if (durability_ctl_->th.joinable()) durability_ctl_->th.join();
    durability_ctl_.reset();
  }

  void attach(pmem::FileRegion&& region) {
    region_ = std::move(region);
    file_backed_ = true;
  }

  /// Precompute the ordered-routing chunk width. off/chunk stays < n for
  /// every in-range offset because chunk = ceil-ish(span / n): with
  /// chunk = span/n + 1, (span-1)/chunk <= n-1.
  void init_routing() noexcept {
    if constexpr (kOrdered) {
      const std::uint64_t span = static_cast<std::uint64_t>(sb_->key_hi) -
                                 static_cast<std::uint64_t>(sb_->key_lo);
      range_chunk_ = span / shards_.size() + 1;
    }
  }

  /// True if [p, p+len) lies inside the usable part of the region.
  static bool region_spans(const pmem::FileRegion& region, const void* p,
                           std::size_t len) noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const auto lo = reinterpret_cast<std::uintptr_t>(region.usable_base());
    const auto hi = lo + region.usable_capacity();
    // The a <= hi guard keeps hi - a from wrapping for pointers past the
    // region (a corrupt offset must fail here, not at the dereference).
    return a >= lo && a <= hi && len <= hi - a;
  }

  /// Bounds-check everything recovery dereferences on the way to the
  /// nodes: the superblock extent, then each shard's roots via the
  /// backend's own validator (root arrays + bucket sentinels for hashed
  /// shards, sentinel towers for ordered ones). This catches torn or
  /// bit-rotted headers; interior node corruption (next pointers) has no
  /// integrity metadata to check against and is out of scope, like the
  /// rest of the library's recovery model.
  static void validate_region_layout(const pmem::FileRegion& region,
                                     const Superblock* sb) {
    if (!region_spans(region, sb, Superblock::bytes(sb->nshards))) {
      throw IncompatibleStore("kv::Store: superblock exceeds the region");
    }
    const auto spans = [&region](const void* p, std::size_t len) {
      return region_spans(region, p, len);
    };
    for (std::uint32_t i = 0; i < sb->nshards; ++i) {
      Backend_::validate_roots(sb->shard_roots[i], region.usable_capacity(),
                               spans);
    }
  }

  /// Validation + volatile-handle reconstruction, with no persistent
  /// allocation (ordered shards do repair their skiplist index levels in
  /// place; recovery otherwise only reads).
  static Store recover_handles(Superblock* sb) {
    validate_superblock(sb);
    Store s{RecoverTag{}};
    s.sb_ = sb;
    s.shards_.reserve(sb->nshards);
    for (std::uint32_t i = 0; i < sb->nshards; ++i) {
      s.shards_.push_back(Shard_::recover(sb->shard_roots[i]));
    }
    s.init_routing();
    return s;
  }

  /// Count this recovery in the session stamp, durably.
  static void bump_generation(Superblock* sb) {
    sb->generation += 1;
    if constexpr (Words::persistent) {
      pmem::pc_store(&sb->generation, sizeof(sb->generation));
      pmem::persist_range(&sb->generation, sizeof(sb->generation));
    }
  }

  /// One past the highest byte reachable from the superblock: the
  /// recovery sweep that repairs the allocator bump mark after a dirty
  /// shutdown. Record pointers/lengths are validated against [lo, limit).
  /// Single-threaded (open-time) use only.
  std::uintptr_t max_extent(std::uintptr_t lo, std::uintptr_t limit) const {
    auto hi = reinterpret_cast<std::uintptr_t>(sb_) +
              Superblock::bytes(sb_->nshards);
    for (const Shard_& s : shards_) {
      hi = std::max(hi, s.max_extent(lo, limit));
    }
    return hi;
  }

  Shard_& shard_for(Key k) noexcept { return shards_[shard_index(k)]; }
  const Shard_& shard_for(Key k) const noexcept {
    return shards_[shard_index(k)];
  }

  /// Per-thread working memory of the operation cores. Reused across
  /// calls, so once a thread's buffers have grown to its largest batch a
  /// call allocates nothing of its own. A core takes it once per call and
  /// nothing a core runs re-enters another core on the same thread (the
  /// seeded stale_read bug replays its parked batch before taking it).
  struct Scratch {
    std::vector<std::uint32_t> sidx, order, offset;
    std::vector<Record*> recs, superseded;
    ds::PublishBatch batch;
  };
  static Scratch& scratch() noexcept {
    thread_local Scratch s;
    return s;
  }

  /// Stable counting sort of a batch by destination shard: s.sidx[i] is
  /// element i's shard, s.order[] lists element indices shard-major with
  /// batch order preserved within each shard (duplicate keys apply in
  /// submission order — the documented last-wins semantics depend on this
  /// stability). A single element needs no sort.
  template <class KeyOf>
  void group_by_shard(std::size_t n, KeyOf key_of, Scratch& s) const {
    s.sidx.resize(n);
    s.order.resize(n);
    if (n == 1) {
      s.sidx[0] = static_cast<std::uint32_t>(shard_index(key_of(0)));
      s.order[0] = 0;
      return;
    }
    s.offset.assign(shards_.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      s.sidx[i] = static_cast<std::uint32_t>(shard_index(key_of(i)));
      ++s.offset[s.sidx[i]];
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& o : s.offset) {
      const std::uint32_t c = o;
      o = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      s.order[s.offset[s.sidx[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  /// Lookups of keys[0, n) into out[0, n), shard-grouped and prefetched
  /// under one EBR guard, then one dependency (completion) fence for the
  /// whole call.
  void get_core(std::span<const Key> keys,
                std::optional<std::string>* out) const {
    const std::size_t n = keys.size();
    if (n == 0) return;
    const std::uint64_t lc_inv = check::lc_begin();
    Scratch& s = scratch();
    group_by_shard(n, [&](std::size_t i) { return keys[i]; }, s);
    {
      recl::Ebr::Guard g;  // spans every lookup + record copy
      for (std::size_t pos = 0; pos < n; ++pos) {
        if (pos + 1 < n) {
          const std::uint32_t j = s.order[pos + 1];
          shards_[s.sidx[j]].prepare(keys[j]);
        }
        const std::uint32_t i = s.order[pos];
        out[i] = shards_[s.sidx[i]].get_batched(keys[i]);
      }
    }
    Words::operation_completion();
    if constexpr (check::kLinCheckEnabled) {
      // Every element shares the call's inv tick (its lookup could have
      // linearized any time after the call began); resp ticks are per
      // element, taken now, after all lookups completed.
      for (std::size_t i = 0; i < n; ++i) {
        check::lc_end_read(lc_inv, keys[i], out[i].has_value(),
                           out[i] ? *out[i] : std::string_view{});
      }
    }
  }

  /// Insert-or-overwrite of kvs[0, n); fresh[i] receives element i's
  /// fresh-insert flag. `Out` is any random-access output (bool* for
  /// put, a vector<bool> iterator for multi_put). Validates every key
  /// before anything is applied and widens allocation failures to
  /// kv::OutOfSpace; apply_puts runs the phase protocol.
  template <class Out>
  void put_core(std::span<const std::pair<Key, std::string_view>> kvs,
                Out fresh) {
    ensure_writable();
    const std::size_t n = kvs.size();
    if (n == 0) return;
    for (const auto& kv : kvs) {
      if (Shard_::reserved_key(kv.first)) {
        throw std::invalid_argument("kv: INT64_MIN/INT64_MAX are reserved");
      }
    }
    const std::uint64_t lc_inv = check::lc_begin();
    if (!seeded_put_bug(kvs, fresh)) {
      try {
        apply_puts(kvs, fresh);
      } catch (const OutOfSpace&) {
        throw;
      } catch (const std::bad_alloc&) {
        // The cleanup already ran inside apply_puts (records freed,
        // partial publishes committed durable); only the type is widened.
        throw OutOfSpace();
      }
    }
    if constexpr (check::kLinCheckEnabled) {
      // Recorded only on full success: an exception path leaves a prefix
      // applied but unrecorded, which the checker cannot distinguish from
      // crashes — acceptable, since the recorder is test-scoped and the
      // stress drivers never overcommit the pool.
      for (std::size_t i = 0; i < n; ++i) {
        check::lc_end_write(lc_inv, check::Op::kPut, kvs[i].first,
                            kvs[i].second, fresh[i]);
      }
    }
  }

  /// The put phase protocol over validated elements.
  template <class Out>
  void apply_puts(std::span<const std::pair<Key, std::string_view>> kvs,
                  Out fresh) {
    const std::size_t n = kvs.size();
    Scratch& s = scratch();
    group_by_shard(n, [&](std::size_t i) { return kvs[i].first; }, s);
    // Sized before the first record exists, so a volatile allocation
    // failure here has nothing to undo — and enlist, which runs after a
    // publish CAS already succeeded, must not allocate.
    s.recs.resize(n);
    s.superseded.clear();
    s.superseded.reserve(n);
    s.batch.reserve(n);

    // Phase 1: create + flush every record, then ONE fence. Nothing is
    // published yet, so any throw here just frees the private records.
    std::size_t created = 0;
    try {
      for (; created < n; ++created) {
        s.recs[created] =
            Record::create<Backend_::kPersistent>(kvs[created].second);
      }
    } catch (...) {
      for (std::size_t i = 0; i < created; ++i) free_unpublished(s.recs[i]);
      throw;
    }
    if constexpr (Backend_::kPersistent) pmem::pfence();

    // Phase 2: publish shard by shard with deferred fences, prefetching
    // the next element's probe entry while the current one is in flight.
    // Superseded records are collected, NOT retired yet: until the final
    // fence lands, a crash image can still hold the old link, and retired
    // storage could be recycled under it.
    std::size_t done = 0;
    try {
      recl::Ebr::Guard g;
      for (std::size_t pos = 0; pos < n; ++pos) {
        if (pos + 1 < n) {
          const std::uint32_t j = s.order[pos + 1];
          shards_[s.sidx[j]].prepare(kvs[j].first);
        }
        const std::uint32_t i = s.order[pos];
        fresh[i] = shards_[s.sidx[i]].put_batched(kvs[i].first, s.recs[i],
                                                  s.batch, s.superseded);
        ++done;
      }
    } catch (...) {
      // Publishes so far must still become durable and untagged; the
      // failing element's record (and any never-reached ones) were never
      // published and are freed in place.
      commit_publishes(s.batch, s.superseded);
      for (std::size_t pos = done; pos < n; ++pos) {
        free_unpublished(s.recs[s.order[pos]]);
      }
      throw;
    }

    // Phase 3: one fence covers every publish pwb, then untag/clear and
    // retire the superseded records.
    commit_publishes(s.batch, s.superseded);
  }

  static void free_unpublished(Record* r) noexcept {
    pmem::Pool::instance().dealloc(r, Record::bytes(r->len));
  }

  /// Seeded LinCheck bugs on the put path (FLIT_LINCHECK_UNSAFE; always
  /// false in other builds). Returns true when a bug took the call over,
  /// with `fresh` filled in as a correct put would have reported it.
  ///   lost_update — report the flags, never apply the write: a later get
  ///     misses the update.
  ///   stale_read  — park the real application until the next put. A get
  ///     in between observes the superseded value. The parked batch
  ///     replays through apply_puts, so it runs here, before this call
  ///     takes the scratch.
  template <class Out>
  bool seeded_put_bug(
      [[maybe_unused]] std::span<const std::pair<Key, std::string_view>> kvs,
      [[maybe_unused]] Out fresh) {
    if constexpr (check::kLinCheckEnabled) {
      const check::UnsafeMode m = check::unsafe_mode();
      if (m != check::UnsafeMode::kLostUpdate &&
          m != check::UnsafeMode::kStaleRead) {
        return false;
      }
      if (m == check::UnsafeMode::kStaleRead) check::unsafe_apply_pending();
      for (std::size_t i = 0; i < kvs.size(); ++i) {
        fresh[i] = !shard_for(kvs[i].first).contains(kvs[i].first);
      }
      if (m == check::UnsafeMode::kStaleRead) {
        std::vector<std::pair<Key, std::string>> parked(kvs.begin(),
                                                        kvs.end());
        check::unsafe_defer([this, parked = std::move(parked)] {
          const std::vector<std::pair<Key, std::string_view>> view(
              parked.begin(), parked.end());
          std::vector<bool> ignored(view.size());
          apply_puts(view, ignored.begin());
        });
      }
      return true;
    }
    return false;
  }

  /// Removals of keys[0, n), shard-grouped and prefetched; each removal
  /// is its own durable mark CAS (see multi_remove).
  template <class Out>
  void remove_core(std::span<const Key> keys, Out out) {
    ensure_writable();
    const std::size_t n = keys.size();
    if (n == 0) return;
    const std::uint64_t lc_inv = check::lc_begin();
    Scratch& s = scratch();
    group_by_shard(n, [&](std::size_t i) { return keys[i]; }, s);
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (pos + 1 < n) {
        const std::uint32_t j = s.order[pos + 1];
        shards_[s.sidx[j]].prepare(keys[j]);
      }
      const std::uint32_t i = s.order[pos];
      out[i] = shards_[s.sidx[i]].remove(keys[i]);
    }
    if constexpr (check::kLinCheckEnabled) {
      for (std::size_t i = 0; i < n; ++i) {
        check::lc_end_write(lc_inv, check::Op::kRemove, keys[i], {},
                            out[i]);
      }
    }
  }

  /// The put protocol's closing sequence: one pfence covering every
  /// deferred publish pwb, THEN untag/clear the published words
  /// (Condition 3), and only then retire the superseded records —
  /// retiring before the fence could let the old records' storage be
  /// recycled while a crash image still holds links to them. The fence
  /// is a dependency fence: when a later fence of this thread already
  /// completed the publish pwbs (a fresh skiplist tower's upper-level
  /// link CASes fence after the level-0 publish), nothing is outstanding
  /// and the covering fence has nothing left to cover.
  static void commit_publishes(ds::PublishBatch& batch,
                               std::vector<Record*>& superseded) {
    if constexpr (Backend_::kPersistent) pmem::pfence_if_pending();
    batch.complete_all();
    for (Record* r : superseded) Record::retire<Backend_::kPersistent>(r);
    superseded.clear();
  }

  std::vector<Shard_> shards_;
  Superblock* sb_ = nullptr;
  pmem::FileRegion region_;
  bool file_backed_ = false;
  std::uint64_t range_chunk_ = 1;  ///< ordered routing chunk width
  // persist-lint: allow(volatile control state in the Store handle)
  // The durability mode, checkpoint counter and health latch are not
  // pool-resident: recovery re-selects the mode and restarts them — a
  // reopened store starts healthy by design (new process, new page-cache
  // state; the operator reopened deliberately).
  std::atomic<DurabilityMode> durability_{DurabilityMode::kNever};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<Health> health_{Health::kOk};
  std::function<void()> checkpoint_pre_, checkpoint_post_;
  std::unique_ptr<DurabilityCtl> durability_ctl_;
};

/// Range-partitioned ordered store over skiplist shards: everything Store
/// offers plus scan(start, n) — the YCSB E workload class. Pass a
/// KeyRange matching the workload's keyspace for even shard load.
template <class Words = HashedWords, class Method = Automatic>
using OrderedStore = Store<Words, Method, OrderedBackend>;

}  // namespace flit::kv
