// Unit tests for the benchmark workload generator and throughput driver.
#include "bench_util/runner.hpp"
#include "bench_util/table.hpp"
#include "bench_util/workload.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ds/hash_table.hpp"
#include "support/test_common.hpp"

namespace flit::bench {
namespace {

using flit::test::PmemTest;

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
  Rng a2(123);
  (void)c.next();
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, BoundsRespected) {
  Rng r(5);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.next_below(100), 100u);
    const double u = r.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng r(9);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[r.next_below(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets / 5)
        << "bucket " << b;
  }
}

TEST(OpMix, RatiosMatchConfiguration) {
  for (double pct : {0.0, 5.0, 50.0, 100.0}) {
    OpMix mix(pct);
    Rng rng(static_cast<std::uint64_t>(pct) + 1);
    int updates = 0, inserts = 0, removes = 0;
    constexpr int kN = 200'000;
    for (int i = 0; i < kN; ++i) {
      switch (mix.pick(rng)) {
        case OpKind::kInsert:
          ++updates;
          ++inserts;
          break;
        case OpKind::kRemove:
          ++updates;
          ++removes;
          break;
        case OpKind::kContains:
          break;
      }
    }
    EXPECT_NEAR(static_cast<double>(updates) / kN, pct / 100.0, 0.01)
        << pct << "% updates";
    if (pct > 0) {
      EXPECT_NEAR(static_cast<double>(inserts),
                  static_cast<double>(removes),
                  0.1 * static_cast<double>(updates) + 100)
          << "updates must split ~50/50 insert/delete";
    }
  }
}

class RunnerTest : public PmemTest {};

TEST_F(RunnerTest, PrefillReachesTargetSize) {
  ds::HashTable<std::int64_t, std::int64_t, VolatileWords, Automatic> t(256);
  WorkloadConfig cfg;
  cfg.key_range = 2'000;
  cfg.prefill = 1'000;
  prefill(t, cfg);
  EXPECT_EQ(t.size(), 1'000u);
}

TEST_F(RunnerTest, RunWorkloadProducesOpsAndKeepsSizeStable) {
  ds::HashTable<std::int64_t, std::int64_t, HashedWords, Automatic> t(256);
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.update_pct = 50;
  cfg.key_range = 512;
  cfg.prefill = 256;
  cfg.duration_s = 0.2;
  prefill(t, cfg);
  const RunResult r = run_workload(t, cfg);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.mops(), 0.0);
  EXPECT_GT(r.seconds, 0.15);
  // Uniform keys + 50/50 insert/delete keep the size near the target.
  EXPECT_GT(t.size(), 100u);
  EXPECT_LT(t.size(), 450u);
}

TEST_F(RunnerTest, ZeroUpdateWorkloadIssuesNoPwbsWithFlit) {
  ds::HashTable<std::int64_t, std::int64_t, HashedWords, Automatic> t(256);
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.update_pct = 0;
  cfg.key_range = 256;
  cfg.prefill = 128;
  cfg.duration_s = 0.1;
  prefill(t, cfg);
  const RunResult r = run_workload(t, cfg);
  // §6.5: at 0% updates FliT loads never flush (no location is ever
  // tagged), so no completion fence has a pwb to complete: a read-only
  // FliT workload issues neither pwbs nor fences.
  EXPECT_EQ(r.persistence.pwbs, 0u);
  EXPECT_EQ(r.persistence.pfences, 0u);
}

TEST(TableOutput, FormatsAndCsv) {
  Table t({"impl", "mops"});
  t.add_row({"flit-HT", Table::fmt(12.345, 2)});
  t.add_row({"plain", Table::fmt(1.0, 2)});
  t.print("demo");      // smoke: must not crash
  t.print_csv("demo");  // smoke
  EXPECT_EQ(Table::fmt(1.5, 1), "1.5");
  EXPECT_EQ(Table::fmt_u(42), "42");
}

TEST(BenchArgs, ParsesFlags) {
  const char* argv[] = {"bin", "--full", "--threads=8", "--seconds=2.5"};
  BenchArgs a = BenchArgs::parse(4, const_cast<char**>(argv));
  EXPECT_TRUE(a.full);
  EXPECT_EQ(a.threads, 8);
  EXPECT_DOUBLE_EQ(a.seconds, 2.5);
  BenchArgs d = BenchArgs::parse(1, const_cast<char**>(argv));
  EXPECT_FALSE(d.full);
  EXPECT_EQ(d.threads, 0);
}

}  // namespace
}  // namespace flit::bench
