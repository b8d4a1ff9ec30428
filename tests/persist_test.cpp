// Unit + property tests for persist<T> — the FliT flit-instructions
// (Algorithm 4) across every counter-placement policy.
#include "core/persist.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/modes.hpp"
#include "support/test_common.hpp"

namespace flit {
namespace {

using flit::test::PmemTest;

template <class Policy>
class PersistTypedTest : public PmemTest {};

using AllPolicies =
    ::testing::Types<AdjacentPolicy, HashedPolicy, PerLinePolicy, PlainPolicy,
                     VolatilePolicy>;
TYPED_TEST_SUITE(PersistTypedTest, AllPolicies);

TYPED_TEST(PersistTypedTest, LoadReturnsMostRecentStore) {
  persist<int, TypeParam> x(5);
  EXPECT_EQ(x.load(), 5);
  x.store(7, kPersist);
  EXPECT_EQ(x.load(kPersist), 7);
  x.store(9, kVolatile);
  EXPECT_EQ(x.load(kVolatile), 9);
}

TYPED_TEST(PersistTypedTest, CasSemanticsMatchStdAtomic) {
  persist<int, TypeParam> x(1);
  int expected = 1;
  EXPECT_TRUE(x.cas(expected, 2, kPersist));
  EXPECT_EQ(x.load(), 2);
  expected = 1;  // stale
  EXPECT_FALSE(x.cas(expected, 3, kPersist));
  EXPECT_EQ(expected, 2) << "failed CAS reports the witness value";
  EXPECT_EQ(x.load(), 2);
  EXPECT_TRUE(x.compare_and_set(2, 4, kVolatile));
  EXPECT_EQ(x.load(), 4);
}

TYPED_TEST(PersistTypedTest, ExchangeReturnsOldValue) {
  persist<int, TypeParam> x(10);
  EXPECT_EQ(x.exchange(20, kPersist), 10);
  EXPECT_EQ(x.exchange(30, kVolatile), 20);
  EXPECT_EQ(x.load(), 30);
}

TYPED_TEST(PersistTypedTest, FaaReturnsOldAndAccumulates) {
  persist<std::int64_t, TypeParam> x(0);
  EXPECT_EQ(x.faa(5, kPersist), 0);
  EXPECT_EQ(x.faa(-2, kPersist), 5);
  EXPECT_EQ(x.faa(1, kVolatile), 3);
  EXPECT_EQ(x.load(), 4);
}

TYPED_TEST(PersistTypedTest, OperatorSugarUsesDefaultFlag) {
  persist<int, TypeParam> x(0);
  x = 42;
  const int v = x;
  EXPECT_EQ(v, 42);

  struct Obj {
    int field;
  };
  Obj o{17};
  persist<Obj*, TypeParam> p(&o);
  EXPECT_EQ(p->field, 17);
}

TYPED_TEST(PersistTypedTest, PrivateAccessRoundTrip) {
  persist<int, TypeParam> x(0);
  x.store_private(99, kPersist);
  EXPECT_EQ(x.load_private(), 99);
  x.store_private(100, kVolatile);
  EXPECT_EQ(x.load_private(), 100);
}

TYPED_TEST(PersistTypedTest, UntaggedAfterStoreCompletes) {
  persist<int, TypeParam> x(0);
  x.store(1, kPersist);
  // Lemma 5.1: counter balance is zero after every p-store terminates.
  EXPECT_FALSE(x.tagged());
}

TYPED_TEST(PersistTypedTest, ConcurrentFaaIsLinearizable) {
  persist<std::int64_t, TypeParam> x(0);
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&x] {
      for (int i = 0; i < kIters; ++i) x.faa(1, kPersist);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(x.load(), kThreads * kIters);
  EXPECT_FALSE(x.tagged());
}

TYPED_TEST(PersistTypedTest, ConcurrentCasElectsOneWinnerPerRound) {
  persist<int, TypeParam> x(0);
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&x, &winners] {
      int expected = 0;
      if (x.cas(expected, 1, kPersist)) winners.fetch_add(1);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(x.load(), 1);
}

// --- pwb-count behaviour (the point of the FliT algorithm) -----------------

class PersistCountsTest : public PmemTest {
 protected:
  // A known start: no pwb of this thread outstanding, whatever an earlier
  // test left behind. Fence counts below depend on it, because the leading
  // Condition-4 fence is issued only when a pwb is outstanding.
  void SetUp() override {
    PmemTest::SetUp();
    pmem::pfence();
  }
};

TEST_F(PersistCountsTest, PLoadOnUntaggedLocationSkipsPwb) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(3);
  const auto before = pmem::stats_snapshot();
  for (int i = 0; i < 100; ++i) (void)x.load(kPersist);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 0u) << "flush-if-tagged: clean reads must not flush";
}

TEST_F(PersistCountsTest, PlainPLoadAlwaysFlushes) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, PlainPolicy> x(3);
  const auto before = pmem::stats_snapshot();
  for (int i = 0; i < 100; ++i) (void)x.load(kPersist);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 100u) << "the plain baseline flushes on every p-load";
}

TEST_F(PersistCountsTest, VLoadNeverFlushesEvenWhenTagged) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(3);
  HashedPolicy::tag(x.raw_address());
  const auto before = pmem::stats_snapshot();
  (void)x.load(kVolatile);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 0u);
  HashedPolicy::untag(x.raw_address());
}

TEST_F(PersistCountsTest, PLoadOnTaggedLocationFlushes) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(3);
  HashedPolicy::tag(x.raw_address());
  const auto before = pmem::stats_snapshot();
  (void)x.load(kPersist);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 1u);
  HashedPolicy::untag(x.raw_address());
}

TEST_F(PersistCountsTest, PStoreWithNothingOutstandingIssuesOneFence) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(0);
  const auto before = pmem::stats_snapshot();
  x.store(1, kPersist);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 1u);
  EXPECT_EQ(d.pfences, 1u)
      << "no dependency outstanding: only the fence before untag";
}

TEST_F(PersistCountsTest, PStoreAfterAnOutstandingPwbIssuesTwoFences) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(0);
  int dep = 0;
  pmem::pwb(&dep);  // a dependency this thread flushed but did not fence
  const auto before = pmem::stats_snapshot();
  x.store(1, kPersist);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 1u);
  EXPECT_EQ(d.pfences, 2u) << "Algorithm 4: fence before store + before untag";
}

TEST_F(PersistCountsTest, VStoreWithNothingOutstandingIssuesNoFence) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(0);
  const auto before = pmem::stats_snapshot();
  x.store(1, kVolatile);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 0u);
  EXPECT_EQ(d.pfences, 0u) << "a Condition-4 fence with nothing to complete";
}

TEST_F(PersistCountsTest, VStoreFencesAnOutstandingPwb) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(0);
  int dep = 0;
  pmem::pwb(&dep);
  const auto before = pmem::stats_snapshot();
  x.store(1, kVolatile);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 0u);
  EXPECT_EQ(d.pfences, 1u) << "Condition 4 still fences before shared stores";
}

TEST_F(PersistCountsTest, VolatilePolicyIssuesNothing) {
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, VolatilePolicy> x(0);
  const auto before = pmem::stats_snapshot();
  x.store(1, kPersist);
  (void)x.load(kPersist);
  x.faa(1, kPersist);
  (void)x.exchange(9, kPersist);
  persist<int, VolatilePolicy>::operation_completion();
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 0u);
  EXPECT_EQ(d.pfences, 0u);
}

TEST_F(PersistCountsTest, ReaderFlushesWhileStoreIsPending) {
  // Simulate the §5 race: a reader observes the new value between the
  // writer's store and its untag, and must flush it.
  pmem::BackendScope scope(pmem::Backend::kNoOp);
  persist<int, HashedPolicy> x(0);
  HashedPolicy::tag(x.raw_address());  // writer's increment happened
  const auto before = pmem::stats_snapshot();
  (void)x.load(kPersist);
  (void)x.load(kPersist);
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 2u) << "every p-load during the window must flush";
  HashedPolicy::untag(x.raw_address());
}

// --- layout ---------------------------------------------------------------

TEST(PersistLayout, AdjacentDoublesTheWord) {
  EXPECT_EQ(sizeof(persist<std::int64_t, HashedPolicy>), 8u);
  EXPECT_EQ(sizeof(persist<std::int64_t, AdjacentPolicy>), 16u)
      << "adjacent placement pads value+counter to a double word (§5.1)";
  EXPECT_EQ(sizeof(persist<void*, VolatilePolicy>), 8u);
}

// --- crash semantics through the full stack ---------------------------------

class PersistCrashTest : public PmemTest {};

TEST_F(PersistCrashTest, PStoreSurvivesCrashVStoreMayNot) {
  using P = persist<std::uint64_t, HashedPolicy>;
  pmem::Pool::instance().register_with_sim();
  auto* px = pmem::pnew<P>(std::uint64_t{0});
  auto* py = pmem::pnew<P>(std::uint64_t{0});
  pmem::SimMemory::instance().persist_all();

  pmem::BackendScope scope(pmem::Backend::kSimCrash);
  px->store(11, kPersist);
  py->store(22, kVolatile);
  pmem::SimMemory::instance().crash();
  EXPECT_EQ(px->load_private(), 11u) << "p-store must be durable";
  // The v-store went to the same pool but was never flushed. Its line may
  // coincidentally persist if it shares a line with a flushed word, so we
  // only check it did not corrupt px.
}

TEST_F(PersistCrashTest, ReaderCompletionPersistsTheTaggedWordItFlushed) {
  // The dependency-fence rule on the read side: a p-load that meets a
  // tagged word pwbs it, so the reader's completion fence is NOT skipped
  // and the value it observed reaches the persisted image.
  using P = persist<std::uint64_t, HashedPolicy>;
  using Words = FlitWords<HashedPolicy>;
  pmem::Pool::instance().register_with_sim();
  auto* px = pmem::pnew<P>(std::uint64_t{0});
  pmem::SimMemory::instance().persist_all();

  pmem::BackendScope scope(pmem::Backend::kSimCrash);
  pmem::pfence();  // nothing of this thread outstanding
  // A writer stored 42 and is between its store and its own fence: the
  // value is visible, tagged, and not yet persisted.
  HashedPolicy::tag(px->raw_address());
  px->store_private(42, kVolatile);
  const auto shadow_word = [&] {
    // The pool is the only registered region (index 0).
    const std::vector<std::byte> img =
        pmem::SimMemory::instance().clone_shadow(0);
    const auto off = reinterpret_cast<std::uintptr_t>(px->raw_address()) -
                     reinterpret_cast<std::uintptr_t>(
                         pmem::Pool::instance().base());
    std::uint64_t w = ~std::uint64_t{0};
    if (off + sizeof(w) <= img.size()) {
      std::memcpy(&w, img.data() + off, sizeof(w));
    }
    return w;
  };
  ASSERT_EQ(shadow_word(), 0u);

  const auto before = pmem::stats_snapshot();
  EXPECT_EQ(px->load(kPersist), 42u);
  Words::operation_completion();
  const auto d = pmem::stats_snapshot() - before;
  EXPECT_EQ(d.pwbs, 1u);
  EXPECT_EQ(d.pfences, 1u);
  EXPECT_EQ(shadow_word(), 42u)
      << "the reader's completion must persist what it observed";
  HashedPolicy::untag(px->raw_address());
}

TEST_F(PersistCrashTest, AllRmwFormsAreDurable) {
  using P = persist<std::int64_t, AdjacentPolicy>;
  pmem::Pool::instance().register_with_sim();
  auto* a = pmem::pnew<P>(std::int64_t{0});
  auto* b = pmem::pnew<P>(std::int64_t{5});
  auto* c = pmem::pnew<P>(std::int64_t{1});
  pmem::SimMemory::instance().persist_all();

  pmem::BackendScope scope(pmem::Backend::kSimCrash);
  a->faa(4, kPersist);
  (void)b->exchange(50, kPersist);
  std::int64_t expected = 1;
  ASSERT_TRUE(c->cas(expected, 9, kPersist));
  pmem::SimMemory::instance().crash();
  EXPECT_EQ(a->load_private(), 4);
  EXPECT_EQ(b->load_private(), 50);
  EXPECT_EQ(c->load_private(), 9);
}

}  // namespace
}  // namespace flit
