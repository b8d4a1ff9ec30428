// Crash-durability tests: the paper's headline correctness claim
// (Theorem 3.1 — FliT's automatic mode makes any linearizable structure
// durably linearizable; §3.1 — NVtraverse and manual annotations preserve
// it), executed against the SimCrash backend.
//
// Protocol per test: build the structure with the crash simulator active,
// run operations (single- or multi-threaded), quiesce, simulate a power
// failure, recover from the persistent roots, and verify the recovered
// contents are exactly the completed operations' effects.
//
// A negative control (non-persistent words) shows the harness detects
// lost updates — i.e., these tests have teeth.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "ds/harris_list.hpp"
#include "ds/hash_table.hpp"
#include "ds/natarajan_bst.hpp"
#include "ds/skiplist.hpp"
#include "pmem/persist_check.hpp"
#include "support/test_common.hpp"

namespace flit::ds {
namespace {

using flit::test::PmemTest;
using K = std::int64_t;

// --- recovery adapters ------------------------------------------------------

template <class Set>
struct Adapter;

template <class W, class M>
struct Adapter<HarrisList<K, K, W, M>> {
  using Set = HarrisList<K, K, W, M>;
  using Handle = std::pair<typename Set::Node*, typename Set::Node*>;
  static Set make() { return Set(); }
  static Handle save(const Set& s) { return {s.head(), s.tail()}; }
  static Set recover(Handle h) { return Set::recover(h.first, h.second); }
};

template <class W, class M>
struct Adapter<SkipList<K, K, W, M>> {
  using Set = SkipList<K, K, W, M>;
  using Handle = std::pair<typename Set::Node*, typename Set::Node*>;
  static Set make() { return Set(); }
  static Handle save(const Set& s) { return {s.head(), s.tail()}; }
  static Set recover(Handle h) { return Set::recover(h.first, h.second); }
};

template <class W, class M>
struct Adapter<NatarajanBst<K, K, W, M>> {
  using Set = NatarajanBst<K, K, W, M>;
  using Handle = std::pair<typename Set::Node*, typename Set::Node*>;
  static Set make() { return Set(); }
  static Handle save(const Set& s) { return {s.root(), s.sentinel()}; }
  static Set recover(Handle h) { return Set::recover(h.first, h.second); }
};

template <class W, class M>
struct Adapter<HashTable<K, K, W, M>> {
  using Set = HashTable<K, K, W, M>;
  using Handle = typename Set::Roots*;
  static Set make() { return Set(64); }
  static Handle save(const Set& s) { return s.roots(); }
  static Set recover(Handle h) { return Set::recover(h); }
};

template <class Set>
std::set<K> sweep(const Set& s, K range) {
  std::set<K> out;
  for (K k = 0; k < range; ++k) {
    if (s.contains(k)) out.insert(k);
  }
  return out;
}

// --- fixture ----------------------------------------------------------------

template <class SetT>
class CrashDurabilityTest : public PmemTest {
 protected:
  void SetUp() override {
    PmemTest::SetUp();
    recl::Ebr::instance().set_reclaim(false);  // no reuse across a crash
    pmem::Pool::instance().register_with_sim();
    pmem::set_backend(pmem::Backend::kSimCrash);
  }
  void TearDown() override {
    recl::Ebr::instance().set_reclaim(true);
    PmemTest::TearDown();
  }
};

template <class W, class M>
using ListOf = HarrisList<K, K, W, M>;
template <class W, class M>
using BstOf = NatarajanBst<K, K, W, M>;
template <class W, class M>
using SkipOf = SkipList<K, K, W, M>;
template <class W, class M>
using TableOf = HashTable<K, K, W, M>;

using DurableConfigs = ::testing::Types<
    ListOf<HashedWords, Automatic>, ListOf<HashedWords, NVTraverse>,
    ListOf<HashedWords, Manual>, ListOf<AdjacentWords, Automatic>,
    ListOf<LapWords, Automatic>,
    BstOf<HashedWords, Automatic>, BstOf<HashedWords, NVTraverse>,
    BstOf<HashedWords, Manual>, BstOf<AdjacentWords, Automatic>,
    BstOf<PlainWords, Automatic>,
    SkipOf<HashedWords, Automatic>, SkipOf<HashedWords, NVTraverse>,
    SkipOf<HashedWords, Manual>, SkipOf<LapWords, Automatic>,
    TableOf<HashedWords, Automatic>, TableOf<HashedWords, NVTraverse>,
    TableOf<HashedWords, Manual>, TableOf<AdjacentWords, Manual>,
    TableOf<PerLineWords, Automatic>>;

TYPED_TEST_SUITE(CrashDurabilityTest, DurableConfigs);

TYPED_TEST(CrashDurabilityTest, CompletedOpsSurviveCrash) {
  using A = Adapter<TypeParam>;
  constexpr K kRange = 64;
  auto set = A::make();
  auto handle = A::save(set);

  std::mt19937_64 rng(42);
  std::set<K> oracle;
  for (int i = 0; i < 800; ++i) {
    const K k = static_cast<K>(rng() % kRange);
    if (rng() % 2 == 0) {
      oracle.insert(k);
      set.insert(k, k);
    } else {
      oracle.erase(k);
      set.remove(k);
    }
  }
  pmem::SimMemory::instance().crash();
  auto recovered = A::recover(handle);
  EXPECT_EQ(sweep(recovered, kRange), oracle)
      << "every completed operation's effect must survive the crash";
}

TYPED_TEST(CrashDurabilityTest, SurvivesRepeatedCrashes) {
  using A = Adapter<TypeParam>;
  using Set = TypeParam;
  constexpr K kRange = 48;
  auto owner = A::make();  // owns the nodes; views below are non-owning
  auto handle = A::save(owner);
  std::vector<Set> views;
  views.reserve(5);
  Set* cur = &owner;
  std::mt19937_64 rng(7);
  std::set<K> oracle;

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 200; ++i) {
      const K k = static_cast<K>(rng() % kRange);
      if (rng() % 2 == 0) {
        oracle.insert(k);
        cur->insert(k, k);
      } else {
        oracle.erase(k);
        cur->remove(k);
      }
    }
    pmem::SimMemory::instance().crash();
    views.push_back(A::recover(handle));
    cur = &views.back();
    ASSERT_EQ(sweep(*cur, kRange), oracle) << "round " << round;
    // Keep operating on the recovered structure (new epoch of ops).
  }
}

TYPED_TEST(CrashDurabilityTest, ConcurrentOpsThenCrash) {
  using A = Adapter<TypeParam>;
  constexpr K kRange = 128;
  constexpr int kThreads = 4;
  auto set = A::make();
  auto handle = A::save(set);

  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&set, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 101 + 11);
      for (int i = 0; i < 1'500; ++i) {
        const K k = static_cast<K>(rng() % kRange);
        switch (rng() % 3) {
          case 0:
            set.insert(k, k);
            break;
          case 1:
            set.remove(k);
            break;
          default:
            set.contains(k);
        }
      }
    });
  }
  for (auto& th : ts) th.join();  // quiesce: all ops completed

  const std::set<K> before = sweep(set, kRange);
  pmem::SimMemory::instance().crash();
  auto recovered = A::recover(handle);
  EXPECT_EQ(sweep(recovered, kRange), before)
      << "with all operations completed, the recovered state must equal "
         "the pre-crash state exactly";
}

// --- negative control -------------------------------------------------------

class CrashNegativeTest : public CrashDurabilityTest<int> {};

TEST_F(CrashNegativeTest, NonPersistentWordsLoseUpdates) {
  // Sanity check that the harness can detect loss: with VolatileWords no
  // pwb/pfence is ever issued, so inserted keys must vanish on crash.
  using Set = HarrisList<K, K, VolatileWords, Automatic>;
  Set set;
  auto* head = set.head();
  auto* tail = set.tail();
  // Checkpoint the empty structure so the sentinels themselves survive
  // (the point under test is the *updates*, not the constructor).
  pmem::SimMemory::instance().persist_all();
  for (K k = 0; k < 32; ++k) set.insert(k, k);
  pmem::SimMemory::instance().crash();
  Set recovered = Set::recover(head, tail);
  EXPECT_EQ(recovered.size(), 0u)
      << "non-persistent baseline must lose everything (otherwise the "
         "crash simulator is vacuous)";
}

// A deliberately broken durability method: traversal/critical stores all
// v-instructions. (Namespace scope: local classes cannot have static data
// members.)
struct BrokenMethod {
  static constexpr const char* name = "broken";
  static constexpr bool traversal_load = kVolatile;
  static constexpr bool transition_load = kVolatile;
  static constexpr bool critical_load = kVolatile;
  static constexpr bool critical_store = kVolatile;
  static constexpr bool cleanup_store = kVolatile;
  static constexpr bool persist_node_init = false;
};

TEST_F(CrashNegativeTest, VolatileCriticalStoresLoseUpdates) {
  // Completed inserts may be lost — and with the all-volatile annotation on
  // the Harris list they must be, since nothing flushes the link CAS.
  using Set = HarrisList<K, K, HashedWords, BrokenMethod>;
  Set set;
  auto* head = set.head();
  auto* tail = set.tail();
  pmem::SimMemory::instance().persist_all();
  for (K k = 0; k < 32; ++k) set.insert(k, k);
  pmem::SimMemory::instance().crash();
  Set recovered = Set::recover(head, tail);
  EXPECT_LT(recovered.size(), 32u)
      << "v-only annotation must not be durable — the checker has teeth";
  if constexpr (pmem::kPersistCheckEnabled) {
    // Every insert linked a node it never persisted; PersistCheck must
    // have flagged them. Acknowledge them, or the process fails at exit.
    EXPECT_GT(pmem::PersistCheck::instance().violations(
                  pmem::PersistViolation::kPublishUnpersisted),
              0u);
    pmem::PersistCheck::instance().reset_violations();
  }
}

}  // namespace
}  // namespace flit::ds
