// Achilles reproduction -- tests.
//
// Support-library tests: deterministic RNG, stats registry, timers,
// strict command-line number parsing.

#include <gtest/gtest.h>

#include <thread>

#include "support/parse.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/timer.h"

namespace achilles {
namespace {

TEST(RngTest, DeterministicFromSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a.Next();
        EXPECT_EQ(va, b.Next());
        (void)c.Next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.Below(10), 10u);
        const uint64_t r = rng.Range(5, 9);
        EXPECT_GE(r, 5u);
        EXPECT_LE(r, 9u);
    }
}

TEST(RngTest, BelowIsRoughlyUniform)
{
    Rng rng(99);
    int buckets[8] = {0};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.Below(8)];
    for (int b = 0; b < 8; ++b) {
        EXPECT_GT(buckets[b], n / 8 - n / 40);
        EXPECT_LT(buckets[b], n / 8 + n / 40);
    }
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.Chance(0.0));
        EXPECT_TRUE(rng.Chance(1.0));
    }
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.NextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(StatsTest, BumpSetGetMerge)
{
    StatsRegistry a;
    a.Bump("x");
    a.Bump("x", 4);
    a.Set("y", 10);
    EXPECT_EQ(a.Get("x"), 5);
    EXPECT_EQ(a.Get("y"), 10);
    EXPECT_EQ(a.Get("missing"), 0);

    StatsRegistry b;
    b.Bump("x", 2);
    b.Bump("z", 3);
    a.Merge(b);
    EXPECT_EQ(a.Get("x"), 7);
    EXPECT_EQ(a.Get("z"), 3);
}

TEST(StatsTest, DumpFormatsSorted)
{
    StatsRegistry s;
    s.Set("b.two", 2);
    s.Set("a.one", 1);
    std::ostringstream os;
    s.Dump(os, "  ");
    EXPECT_EQ(os.str(), "  a.one = 1\n  b.two = 2\n");
}

TEST(TimerTest, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    EXPECT_GE(t.Millis(), 10.0);
    t.Reset();
    EXPECT_LT(t.Millis(), 10.0);
}

TEST(ParseTest, CountAcceptsOnlyPlainDigits)
{
    size_t v = 0;
    EXPECT_TRUE(ParseCount("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(ParseCount("256", &v));
    EXPECT_EQ(v, 256u);
    size_t untouched = 7;
    for (const char *bad : {"", "-1", "+4", " 4", "4x", "4 ", "abc", "0x10",
                            "1.5", "99999999999999999999999"}) {
        EXPECT_FALSE(ParseCount(bad, &untouched)) << "'" << bad << "'";
        EXPECT_EQ(untouched, 7u) << "'" << bad << "'";
    }
}

TEST(ParseTest, SecondsAcceptsFiniteUnsignedDecimals)
{
    double v = 0;
    EXPECT_TRUE(ParseSeconds("0.5", &v));
    EXPECT_EQ(v, 0.5);
    EXPECT_TRUE(ParseSeconds(".25", &v));
    EXPECT_EQ(v, 0.25);
    for (const char *bad : {"", "-1", "nan", "inf", "1s", "1e999"})
        EXPECT_FALSE(ParseSeconds(bad, &v)) << "'" << bad << "'";
}

TEST(ParseTest, CountFlagReturnsValuesInRange)
{
    EXPECT_EQ(CountFlagOrExit("prog", "--workers", "1", 1, kMaxWorkers),
              1u);
    EXPECT_EQ(CountFlagOrExit("prog", "--workers", "256", 1, kMaxWorkers),
              kMaxWorkers);
    EXPECT_EQ(CountFlagOrExit("prog", "--limit", "0", 0), 0u);
    EXPECT_EQ(ProgressSecsOrExit("prog", "--progress", "86400"),
              kMaxProgressSecs);
}

TEST(ParseDeathTest, CountFlagExitsTwoOnBadValues)
{
    // Negative, suffixed and over-cap values are rejected by the
    // parser itself; nothing here starts a worker.
    const auto exits_two = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(CountFlagOrExit("prog", "--workers", "-1", 1, kMaxWorkers),
                exits_two, "--workers must be a whole number from 1 to 256");
    EXPECT_EXIT(CountFlagOrExit("prog", "--workers", "257", 1, kMaxWorkers),
                exits_two, "got '257'");
    EXPECT_EXIT(CountFlagOrExit("prog", "--workers", "4x", 1, kMaxWorkers),
                exits_two, "got '4x'");
    EXPECT_EXIT(CountFlagOrExit("prog", "--clients", "0", 1), exits_two,
                "--clients must be a whole number of at least 1");
    EXPECT_EXIT(CountFlagOrExit("prog", "--clients", "abc", 1), exits_two,
                "got 'abc'");
    EXPECT_EXIT(ProgressSecsOrExit("prog", "--progress", "0"), exits_two,
                "--progress must be a number of seconds");
    EXPECT_EXIT(ProgressSecsOrExit("prog", "--progress", "86401"),
                exits_two, "at most 86400");
}

}  // namespace
}  // namespace achilles
