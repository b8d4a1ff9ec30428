// Tests for PersistCheck (src/pmem/persist_check.hpp): clean workloads
// report zero violations, and each seeded protocol bug produces exactly
// one diagnostic of the right class, attributed to the right site.
//
// The seeded-bug tests are the checker's teeth: they break the persistence
// protocol in one precise place (a suppressed pwb, a retirement hoisted
// above its covering fence, a deferred tag completed without a fence) and
// assert the checker names that exact failure — a checker that stays
// silent here would also stay silent on a real regression.
#include "pmem/persist_check.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ds/batch.hpp"
#include "kv/store.hpp"
#include "pmem/backend.hpp"
#include "pmem/pool.hpp"
#include "pmem/stats.hpp"
#include "support/shard_ops.hpp"
#include "support/test_common.hpp"

namespace flit::pmem {
namespace {

using flit::test::PmemTest;
using flit::test::shard_put;
using kv::HashBackend;
using kv::Record;
using kv::Shard;

class PersistCheckTest : public PmemTest {
 protected:
  void SetUp() override {
    PmemTest::SetUp();
    PersistCheck::instance().reset_violations();
  }

  void TearDown() override {
    // A diagnostic a test forgot to assert-and-acknowledge must fail that
    // test here, not the whole binary at exit.
    EXPECT_EQ(PersistCheck::instance().total_violations(), 0u);
    PersistCheck::instance().reset_violations();
    PmemTest::TearDown();
  }

  /// Arm the checker: simulate crashes on the pool (registration hooks
  /// PersistCheck in FLIT_PERSIST_CHECK builds).
  static void arm() { Pool::instance().register_with_sim(); }
};

using HashedShard = Shard<HashBackend<HashedWords, Automatic>>;

std::uint64_t count(PersistViolation v) {
  return PersistCheck::instance().violations(v);
}

TEST_F(PersistCheckTest, DisarmedWithoutRegions) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  EXPECT_FALSE(PersistCheck::instance().armed());
  // Unregistered memory: every hook is a no-op, even on "dirty" data.
  Record* r = Record::create<false>("never flushed");
  Record::retire<true>(r);
  EXPECT_EQ(PersistCheck::instance().total_violations(), 0u);
}

TEST_F(PersistCheckTest, CleanScalarWorkloadHasZeroViolations) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();
  ASSERT_TRUE(PersistCheck::instance().armed());
  {
    kv::Store<HashedWords, Automatic> store(2, 64);
    for (std::int64_t k = 0; k < 200; ++k) {
      store.put(k, std::string(1 + static_cast<std::size_t>(k % 60), 'v'));
    }
    for (std::int64_t k = 0; k < 200; k += 2) {
      store.put(k, "overwritten");  // upsert + retire of the old record
    }
    for (std::int64_t k = 0; k < 200; k += 3) store.remove(k);
    EXPECT_EQ(store.get(1), std::string(2, 'v'));
  }
  EXPECT_EQ(PersistCheck::instance().total_violations(), 0u);
}

TEST_F(PersistCheckTest, CleanBatchedWorkloadHasZeroViolations) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();
  {
    kv::OrderedStore<HashedWords, Automatic> store(2, 64,
                                                   kv::KeyRange{0, 1'000});
    std::vector<std::pair<std::int64_t, std::string_view>> batch;
    for (std::int64_t k = 0; k < 100; ++k) batch.emplace_back(k, "first");
    store.multi_put(batch);
    // Second round is pure overwrites: every element supersedes (and
    // after the batch fence, retires) a record through the deferred path.
    for (auto& [k, v] : batch) v = "second";
    store.multi_put(batch);
    const std::vector<std::int64_t> keys{1, 50, 99};
    for (const auto& g : store.multi_get(keys)) EXPECT_EQ(g, "second");
  }
  EXPECT_EQ(PersistCheck::instance().total_violations(), 0u);
}

TEST_F(PersistCheckTest, SuppressedPwbFiresPublishUnpersisted) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();
  kv::Store<HashedWords, Automatic> store(1, 64);
  ASSERT_EQ(PersistCheck::instance().total_violations(), 0u);

  // Seeded bug: the next pwb — the flush of the new record's line inside
  // Record::create — never happens. The record is published while Dirty.
  PersistCheck::instance().suppress_pwbs(1);
  store.put(1, "hello");

  EXPECT_EQ(count(PersistViolation::kPublishUnpersisted), 1u);
  EXPECT_EQ(PersistCheck::instance().total_violations(), 1u);
  EXPECT_STREQ(PersistCheck::instance().first_violation_site(),
               "kv::Shard::put_batched");
  // Exactly one diagnostic: the range was force-cleaned after the report,
  // so the store keeps working and later checks don't cascade.
  EXPECT_EQ(store.get(1), "hello");
  PersistCheck::instance().reset_violations();
}

TEST_F(PersistCheckTest, UnpersistedRetireFiresMissingFlushLeak) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();

  // Seeded bug: a record built with the no-persist path (volatile
  // configurations use it legitimately) handed to *persistent* retirement
  // — it was reachable without ever being flushed.
  Record* r = Record::create<false>("never flushed");
  Record::retire<true>(r);

  EXPECT_EQ(count(PersistViolation::kMissingFlushLeak), 1u);
  EXPECT_EQ(PersistCheck::instance().total_violations(), 1u);
  EXPECT_STREQ(PersistCheck::instance().first_violation_site(),
               "kv::Record::retire");
  PersistCheck::instance().reset_violations();
}

TEST_F(PersistCheckTest, RetireBeforeBatchFenceFiresPrematureRetire) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();
  HashedShard shard(64);
  shard_put(shard, 1, "old");
  ASSERT_EQ(PersistCheck::instance().total_violations(), 0u);

  // Deferred-fence overwrite, exactly as Store::multi_put drives it...
  ds::PublishBatch batch;
  batch.reserve(1);
  std::vector<Record*> superseded;
  Record* rec = Record::create<true>("new");
  pfence();  // the batch's record fence (phase 1)
  shard.put_batched(1, rec, batch, superseded);
  ASSERT_EQ(superseded.size(), 1u);

  // ...but with the retirement hoisted above the batch's covering pfence:
  // the link to "new" is not durable yet, so recycling "old" could leave
  // a crash image whose still-old link points at clobbered storage.
  Record::retire<true>(superseded[0]);

  EXPECT_EQ(count(PersistViolation::kPrematureRetire), 1u);
  EXPECT_EQ(PersistCheck::instance().total_violations(), 1u);
  EXPECT_STREQ(PersistCheck::instance().first_violation_site(),
               "kv::Record::retire");

  // Finish the protocol correctly; no further diagnostics may appear.
  pfence();
  batch.complete_all();
  superseded.clear();
  EXPECT_EQ(PersistCheck::instance().total_violations(), 1u);
  PersistCheck::instance().reset_violations();
}

TEST_F(PersistCheckTest, CompleteWithoutFenceFiresDeferredDangling) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();
  HashedShard shard(64);
  shard_put(shard, 1, "old");
  ASSERT_EQ(PersistCheck::instance().total_violations(), 0u);

  ds::PublishBatch batch;
  batch.reserve(1);
  std::vector<Record*> superseded;
  Record* rec = Record::create<true>("new");
  pfence();
  shard.put_batched(1, rec, batch, superseded);
  ASSERT_EQ(superseded.size(), 1u);

  // Seeded bug: untag the published word with NO covering pfence — readers
  // stop flush-on-read while the publish pwb is still unfenced (the exact
  // Condition-3 violation the deferred protocol must not commit).
  batch.complete_all();

  EXPECT_EQ(count(PersistViolation::kDeferredDangling), 1u);
  EXPECT_EQ(PersistCheck::instance().total_violations(), 1u);
  EXPECT_STREQ(PersistCheck::instance().first_violation_site(),
               "ds::PublishBatch::enlist");

  // Clean completion of the rest of the protocol adds nothing.
  pfence();
  Record::retire<true>(superseded[0]);
  superseded.clear();
  EXPECT_EQ(PersistCheck::instance().total_violations(), 1u);
  PersistCheck::instance().reset_violations();
}

TEST_F(PersistCheckTest, RedundantPwbLintCountsCleanLineFlushes) {
  if (!kPersistCheckEnabled) GTEST_SKIP() << "FLIT_PERSIST_CHECK is off";
  BackendScope scope(Backend::kSimCrash);
  arm();
  void* p = Pool::instance().alloc(64);
  std::memset(p, 0x5a, 64);
  persist_range(p, 64);  // line now fully persisted

  const StatsSnapshot before = stats_snapshot();
  pwb(p);  // nothing on the line needs writing back
  pwb(p);
  pfence();
  const StatsSnapshot d = stats_snapshot() - before;
  EXPECT_EQ(d.redundant_pwbs, 2u);
  EXPECT_EQ(PersistCheck::instance().total_violations(), 0u);
}

// The empty-pfence counter is always on (it powers the bench columns in
// every build), so this test runs without the checker too.
TEST_F(PersistCheckTest, EmptyPfenceCounterIsAlwaysOn) {
  void* p = Pool::instance().alloc(64);
  pwb(p);
  pfence();  // has a preceding pwb: not empty
  const StatsSnapshot before = stats_snapshot();
  pfence();  // no pwb since the last fence: empty
  pwb(p);
  pfence();  // not empty again
  const StatsSnapshot d = stats_snapshot() - before;
  EXPECT_EQ(d.pfences, 2u);
  EXPECT_EQ(d.empty_pfences, 1u);
}

}  // namespace
}  // namespace flit::pmem
