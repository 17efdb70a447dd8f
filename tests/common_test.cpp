// Unit tests for src/common: RNG determinism and distributions,
// fixed-point arithmetic, tables, statistics and the fork-join helper.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fixed_point.hpp"
#include "common/fork_join.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace sparsenn {
namespace {

TEST(Check, ExpectsThrowsInvalidArgument) {
  EXPECT_NO_THROW(expects(true));
  EXPECT_THROW(expects(false, "boom"), std::invalid_argument);
}

TEST(Check, EnsuresThrowsInvariantError) {
  EXPECT_NO_THROW(ensures(true));
  EXPECT_THROW(ensures(false, "boom"), InvariantError);
}

TEST(Rng, DeterministicForSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng{7};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i)
      EXPECT_LT(rng.uniform_index(bound), bound);
  }
}

TEST(Rng, UniformIndexCoversAllResidues) {
  Rng rng{3};
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.uniform_index(10)];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, NormalMoments) {
  Rng rng{11};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{13};
  int heads = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{17};
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent{19};
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_LT(same, 2);
}

TEST(FixedPoint, FormatDerivedQuantities) {
  const FixedPointFormat fmt{.frac_bits = 9};
  EXPECT_EQ(fmt.int_bits(), 6);
  EXPECT_DOUBLE_EQ(fmt.scale(), 512.0);
  EXPECT_NEAR(fmt.max_value(), 63.998, 0.001);
  EXPECT_NEAR(fmt.min_value(), -64.0, 0.001);
}

TEST(FixedPoint, RoundTripWithinResolution) {
  const FixedPointFormat fmt{.frac_bits = 9};
  Rng rng{23};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-60.0, 60.0);
    const Fixed16 q(x, fmt);
    EXPECT_NEAR(q.to_double(), x, fmt.resolution() / 2.0 + 1e-9);
  }
}

TEST(FixedPoint, SaturatesAtRangeEnds) {
  const FixedPointFormat fmt{.frac_bits = 9};
  EXPECT_EQ(Fixed16(1e9, fmt).raw(), 32767);
  EXPECT_EQ(Fixed16(-1e9, fmt).raw(), -32768);
}

TEST(FixedPoint, ChooseFormatCoversRange) {
  const std::vector<float> small{0.1f, -0.2f, 0.3f};
  const FixedPointFormat f1 = choose_format(small);
  EXPECT_GT(f1.max_value(), 0.3);

  const std::vector<float> large{100.0f, -250.0f};
  const FixedPointFormat f2 = choose_format(large);
  EXPECT_GT(f2.max_value(), 250.0);
  EXPECT_LT(f2.frac_bits, f1.frac_bits);
}

// format_for_max_abs is choose_format's last step: a span's format is
// the one its max|v| gets.
TEST(FixedPoint, FormatForMaxAbsMatchesChooseFormat) {
  for (const float max_abs :
       {0.0f, 1e-6f, 0.24f, 0.25f, 0.5f, 1.0f, 3.9f, 100.0f, 16383.0f,
        16384.0f, 1e30f}) {
    const std::vector<float> span{0.5f * max_abs, -max_abs};
    EXPECT_EQ(format_for_max_abs(max_abs), choose_format(span)) << max_abs;
  }
}

TEST(FixedPoint, QuantizationSnrReasonable) {
  Rng rng{31};
  std::vector<float> values(4096);
  for (float& v : values) v = static_cast<float>(rng.normal(0.0, 1.0));
  const FixedPointFormat fmt = choose_format(values);
  EXPECT_GT(quantization_snr_db(values, fmt), 50.0);
}

TEST(FixedPoint, QuantizeDequantizeVectors) {
  const FixedPointFormat fmt{.frac_bits = 12};
  const std::vector<float> x{0.5f, -1.25f, 3.0f, 0.0f};
  const auto raw = quantize(x, fmt);
  const auto back = dequantize(raw, fmt);
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(back[i], x[i], fmt.resolution());
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng{37};
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, SparsityFraction) {
  const std::vector<float> x{0.0f, 1.0f, 0.0f, 2.0f};
  EXPECT_DOUBLE_EQ(sparsity_fraction(x), 0.5);
  EXPECT_DOUBLE_EQ(sparsity_fraction(std::vector<float>{}), 0.0);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", 1});
  t.add_row({Cell{"beta"}, Cell{2.5, 1}});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.add_row({"x,y", "q\"t"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"q\"\"t\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

/// Per-task run counters driven through fork_join.
struct CountedTasks {
  std::vector<std::atomic<int>> runs;
  std::thread::id task0_thread;

  explicit CountedTasks(std::size_t tasks) : runs(tasks) {}

  /// Every task counts its run; task `thrower` then throws.
  void run(std::size_t threads, std::size_t thrower = ~std::size_t{0}) {
    fork_join(runs.size(), threads, [&](std::size_t i) {
      runs[i].fetch_add(1);
      if (i == 0) task0_thread = std::this_thread::get_id();
      if (i == thrower) throw std::runtime_error("task failed");
    });
  }

  bool each_ran_once() const {
    return std::all_of(runs.begin(), runs.end(),
                       [](const std::atomic<int>& r) { return r == 1; });
  }
};

TEST(ForkJoin, RunsEveryTaskOnceWithTaskZeroOnTheCaller) {
  for (const std::size_t threads : {0u, 1u, 2u, 4u, 16u}) {
    for (const std::size_t tasks : {1u, 2u, 7u, 64u}) {
      CountedTasks counted(tasks);
      counted.run(threads);
      EXPECT_TRUE(counted.each_ran_once())
          << tasks << " tasks, " << threads << " threads";
      EXPECT_EQ(counted.task0_thread, std::this_thread::get_id());
    }
  }
  bool called = false;
  fork_join(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ForkJoin, StartsNoThreadForOneTaskOrOneThread) {
  for (const auto& [tasks, threads] :
       {std::pair<std::size_t, std::size_t>{1, 8}, {5, 1}, {5, 0}}) {
    std::vector<std::thread::id> ran_on(tasks);
    fork_join(tasks, threads,
              [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::vector<std::thread::id>(
                          tasks, std::this_thread::get_id()));
  }
}

// One task throws: every other task still runs exactly once, every
// helper is joined (a joinable std::thread would terminate the test),
// and the caller receives the exception, whether the caller's own
// task 0 or a helper's task threw it.
TEST(ForkJoin, ThrowingTaskStillRunsEveryOtherAndRethrowsOnTheCaller) {
  for (const std::size_t threads : {1u, 3u, 8u}) {
    for (const std::size_t thrower : {0u, 5u, 11u}) {
      CountedTasks counted(12);
      try {
        counted.run(threads, thrower);
        ADD_FAILURE() << "no exception, thrower " << thrower;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task failed");
      }
      EXPECT_TRUE(counted.each_ran_once())
          << "thrower " << thrower << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace sparsenn
