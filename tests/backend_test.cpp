// Unit tests for the pwb/pfence backend dispatch and CPU feature detection.
#include "pmem/backend.hpp"

#include <gtest/gtest.h>

#include "pmem/cpu_features.hpp"
#include "support/test_common.hpp"

namespace flit::pmem {
namespace {

class BackendTest : public flit::test::PmemTest {};

TEST_F(BackendTest, SetAndGetBackend) {
  for (Backend b : {Backend::kNoOp, Backend::kHardware, Backend::kSimLatency,
                    Backend::kSimCrash}) {
    set_backend(b);
    EXPECT_EQ(backend(), b);
  }
}

TEST_F(BackendTest, BackendScopeRestores) {
  set_backend(Backend::kNoOp);
  {
    BackendScope scope(Backend::kSimCrash);
    EXPECT_EQ(backend(), Backend::kSimCrash);
    {
      BackendScope inner(Backend::kHardware);
      EXPECT_EQ(backend(), Backend::kHardware);
    }
    EXPECT_EQ(backend(), Backend::kSimCrash);
  }
  EXPECT_EQ(backend(), Backend::kNoOp);
}

TEST_F(BackendTest, EveryBackendCountsInstructions) {
  int x = 0;
  for (Backend b : {Backend::kNoOp, Backend::kHardware, Backend::kSimLatency,
                    Backend::kSimCrash}) {
    BackendScope scope(b);
    const StatsSnapshot before = stats_snapshot();
    pwb(&x);
    pwb(&x);
    pfence();
    const StatsSnapshot delta = stats_snapshot() - before;
    EXPECT_EQ(delta.pwbs, 2u) << to_string(b);
    EXPECT_EQ(delta.pfences, 1u) << to_string(b);
  }
}

// pfence_if_pending() is the dependency fence behind Algorithm 4's
// Condition-4 and completion fences. It may skip a fence only when no pwb
// of this thread is outstanding; these pin that it never skips one that
// is, on every backend.
TEST_F(BackendTest, DependencyFenceIssuesExactlyWhenAPwbIsOutstanding) {
  int x = 0;
  for (Backend b : {Backend::kNoOp, Backend::kHardware, Backend::kSimLatency,
                    Backend::kSimCrash}) {
    BackendScope scope(b);
    const auto fences_of = [](const auto& op) {
      const StatsSnapshot before = stats_snapshot();
      op();
      return (stats_snapshot() - before).pfences;
    };
    pfence();
    EXPECT_EQ(fences_of([] { pfence_if_pending(); }), 0u)
        << to_string(b) << ": nothing outstanding";
    pwb(&x);
    EXPECT_EQ(fences_of([] { pfence_if_pending(); }), 1u)
        << to_string(b) << ": a pwb is outstanding";
    EXPECT_EQ(fences_of([] { pfence_if_pending(); }), 0u)
        << to_string(b) << ": the dependency fence completed it";
    pwb(&x);
    pwb(&x);
    pfence();
    EXPECT_EQ(fences_of([] { pfence_if_pending(); }), 0u)
        << to_string(b) << ": a plain pfence completed both";
  }
}

TEST_F(BackendTest, DependencyFenceSurvivesAStatsReset) {
  // stats_reset() zeroes the instruction counters between benchmark
  // phases; the outstanding-pwb state must not live in them, or a reset
  // would silently drop a needed fence.
  int x = 0;
  for (Backend b : {Backend::kNoOp, Backend::kHardware, Backend::kSimLatency,
                    Backend::kSimCrash}) {
    BackendScope scope(b);
    pfence();
    pwb(&x);
    stats_reset();
    pfence_if_pending();
    EXPECT_EQ(stats_snapshot().pfences, 1u) << to_string(b);
  }
}

TEST_F(BackendTest, HardwareBackendExecutesWithoutFaulting) {
  // Whatever instruction CPUID picked (possibly none) must be callable.
  BackendScope scope(Backend::kHardware);
  alignas(64) std::uint64_t buf[16] = {};
  for (auto& w : buf) {
    w = 1;
    pwb(&w);
  }
  pfence();
  SUCCEED();
}

TEST_F(BackendTest, SimCrashBackendRoutesToSimMemory) {
  alignas(64) static std::uint64_t region[8] = {};
  region[0] = 0;
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);

  region[0] = 77;
  pwb(&region[0]);
  pfence();
  SimMemory::instance().crash();
  EXPECT_EQ(region[0], 77u);
}

TEST_F(BackendTest, PersistRangeCoversAllSpannedLines) {
  alignas(64) static std::byte region[512];
  for (auto& b : region) b = std::byte{0};
  SimMemory::instance().register_region(region, sizeof(region));
  BackendScope scope(Backend::kSimCrash);

  // Dirty a 200-byte range starting mid-line; persist_range must catch the
  // partially covered first and last lines too.
  for (int i = 30; i < 230; ++i) region[i] = std::byte{0xEE};
  persist_range(&region[30], 200);
  SimMemory::instance().crash();
  for (int i = 30; i < 230; ++i) {
    ASSERT_EQ(region[i], std::byte{0xEE}) << "offset " << i;
  }
}

TEST_F(BackendTest, SimLatencyDelaysAreConfigurable) {
  BackendScope scope(Backend::kSimLatency);
  set_sim_latency(0, 0);
  int x = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) pwb(&x);
  const auto fast = std::chrono::steady_clock::now() - t0;

  set_sim_latency(2000, 0);  // 2us per pwb
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) pwb(&x);
  const auto slow = std::chrono::steady_clock::now() - t1;
  EXPECT_GT(slow, fast) << "configured pwb delay must be observable";
  EXPECT_GT(std::chrono::duration<double>(slow).count(), 0.001);
  set_sim_latency(0, 0);
}

TEST(CpuFeatures, DetectionIsStableAndNamed) {
  const FlushInstruction a = detect_flush_instruction();
  const FlushInstruction b = detect_flush_instruction();
  EXPECT_EQ(a, b);
  EXPECT_STRNE(to_string(a), "unknown");
}

TEST(BackendNames, AllNamed) {
  EXPECT_STREQ(to_string(Backend::kNoOp), "noop");
  EXPECT_STREQ(to_string(Backend::kHardware), "hardware");
  EXPECT_STREQ(to_string(Backend::kSimLatency), "sim-latency");
  EXPECT_STREQ(to_string(Backend::kSimCrash), "sim-crash");
}

}  // namespace
}  // namespace flit::pmem
