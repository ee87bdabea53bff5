// Tests of the benchmark's own code: order statistics, /proc parsing and
// the seeded inputs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <vector>

#include "procfs.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(StatsTest, TailRuleKeepsTenSamplesBeyondThePercentile) {
  // p99 needs n >= 1000; below that the highest supported percentile.
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(100000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(SupportedQuantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(SupportedQuantile(10, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(SupportedQuantile(0, 0.5), 0.0);
  // A median never needs the fallback once n > 20.
  EXPECT_DOUBLE_EQ(SupportedQuantile(21, 0.5), 0.5);
}

TEST(StatsTest, TailOfLeavesTenSamplesAbove) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(201 - i);  // unsorted
  Tail t = TailOf(v, 0.99);
  EXPECT_EQ(t.samples, 200u);
  EXPECT_DOUBLE_EQ(t.quantile, 0.95);
  EXPECT_DOUBLE_EQ(t.value, 190.0);
  size_t above = 0;
  for (double x : v) above += x > t.value;
  EXPECT_EQ(above, kTailSamples);

  std::vector<double> big;
  for (int i = 1; i <= 1000; ++i) big.push_back(i);
  Tail p99 = TailOf(big, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  Tail p50 = TailOf(big, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 500.0);
}

TEST(StatsTest, TinySamplesFallBackToTheMedian) {
  std::vector<double> v = {3, 1, 2};
  Tail t = TailOf(v, 0.99);
  EXPECT_DOUBLE_EQ(t.quantile, 0.5);
  EXPECT_DOUBLE_EQ(t.value, 2.0);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(TailOf(none, 0.99).value, 0.0);
}

TEST(StatsTest, Median) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(values, n=4).
  Quartiles a = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  Quartiles b = QuartilesOf({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(b.q1, 1.5);
  EXPECT_DOUBLE_EQ(b.q2, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.5);
  // Two values: Python extrapolates past both ends.
  Quartiles c = QuartilesOf({3.5, 1.25});
  EXPECT_DOUBLE_EQ(c.q1, 0.6875);
  EXPECT_DOUBLE_EQ(c.q2, 2.375);
  EXPECT_DOUBLE_EQ(c.q3, 4.0625);
  EXPECT_THROW(QuartilesOf({1.0}), std::invalid_argument);
}

TEST(StatsTest, WindowsSplitByStartTime) {
  // Two 1 s windows from t=10 s; ops sent before/after the span are out.
  const uint64_t s = 1'000'000'000;
  std::vector<Sample> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back({10 * s + i * (s / 100), 100.0 + i, i % 2 == 0});
  }
  for (int i = 0; i < 50; ++i) {
    samples.push_back({11 * s + i * (s / 50), 500.0, false});
  }
  samples.push_back({9 * s, 1e9, false});
  samples.push_back({12 * s, 1e9, false});
  auto w = SummariseWindows(samples, 10 * s, 12 * s, 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0].ops_per_s, 100.0);
  EXPECT_DOUBLE_EQ(w[1].ops_per_s, 50.0);
  EXPECT_EQ(w[0].read_p50.samples, 50u);
  EXPECT_EQ(w[0].write_p50.samples, 50u);
  EXPECT_DOUBLE_EQ(w[0].write_p50.value, 148.0);  // writes are 100, 102, ...
  EXPECT_EQ(w[1].read_p99.samples, 50u);
  EXPECT_DOUBLE_EQ(w[1].read_p99.value, 500.0);
  EXPECT_EQ(w[1].write_p50.samples, 0u);
  EXPECT_TRUE(SummariseWindows(samples, 10 * s, 10 * s, 2).empty());
}

TEST(ProcfsTest, ParsesStatWithAwkwardCommandName) {
  const char* stat =
      "4242 (reo server) x) S 1 4242 4242 0 -1 4194304 394 711 0 0 "
      "1234 567 0 0 20 0 3 0 198517 4173824 745 18446744073709551615\n";
  auto cpu = ParseProcStat(stat);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(cpu->utime_ticks, 1234u);
  EXPECT_EQ(cpu->stime_ticks, 567u);
  EXPECT_FALSE(ParseProcStat("no parenthesis here").has_value());
  EXPECT_FALSE(ParseProcStat("1 (x) S 1 2 3").has_value());
}

TEST(ProcfsTest, ParsesStatus) {
  const char* status =
      "Name:\treo_server\n"
      "VmPeak:\t  300000 kB\n"
      "VmHWM:\t    81234 kB\n"
      "VmRSS:\t    80000 kB\n"
      "Threads:\t3\n"
      "voluntary_ctxt_switches:\t1500\n"
      "nonvoluntary_ctxt_switches:\t42\n";
  auto s = ParseProcStatus(status);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->vm_hwm_kib, 81234u);
  EXPECT_EQ(s->voluntary_ctxt_switches, 1500u);
  EXPECT_EQ(s->nonvoluntary_ctxt_switches, 42u);
  EXPECT_FALSE(ParseProcStatus("Name:\tx\nVmHWM:\t1 kB\n").has_value());
}

TEST(ProcfsTest, ParsesStealFromTheAggregateLine) {
  auto steal = ParseStealTicks(
      "cpu  483829 0 233738 1810075 50647 0 89860 39239 0 0\n"
      "cpu0 1 2 3 4 5 6 7 8 9 10\n");
  ASSERT_TRUE(steal.has_value());
  EXPECT_EQ(*steal, 39239u);
  EXPECT_FALSE(ParseStealTicks("cpu  1 2 3\n").has_value());
  EXPECT_FALSE(ParseStealTicks("intr 1 2 3 4 5 6 7 8\n").has_value());
  EXPECT_TRUE(ReadStealTicks().has_value());
}

TEST(ProcfsTest, ReadsThisProcess) {
  auto cpu = ReadProcCpu(getpid());
  auto status = ReadProcStatus(getpid());
  auto ctx = ReadContextSwitches(getpid());
  ASSERT_TRUE(cpu.has_value());
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(ctx.has_value());
  EXPECT_GT(status->vm_hwm_kib, 0u);
  EXPECT_FALSE(ReadProcCpu(-1).has_value());
}

TEST(WorkloadTest, SameSeedSameStream) {
  for (const std::string& name : WorkloadNames()) {
    WorkloadSpec spec = *FindWorkload(name);
    EXPECT_EQ(GenerateOps(spec, 7, 0, 5000), GenerateOps(spec, 7, 0, 5000));
    EXPECT_EQ(GeneratePayloads(spec, 7), GeneratePayloads(spec, 7));
  }
}

TEST(WorkloadTest, DifferentSeedsAndConnectionsDiffer) {
  WorkloadSpec spec = *FindWorkload("class_mix");
  auto base = GenerateOps(spec, 7, 0, 5000);
  EXPECT_NE(base, GenerateOps(spec, 8, 0, 5000));
  EXPECT_NE(base, GenerateOps(spec, 7, 1, 5000));
  EXPECT_NE(GeneratePayloads(spec, 7), GeneratePayloads(spec, 8));
}

TEST(WorkloadTest, StreamFollowsTheWorkloadMix) {
  WorkloadSpec spec = *FindWorkload("class_mix");
  auto ops = GenerateOps(spec, 3, 2, 20000);
  size_t writes = 0, rank0 = 0;
  for (const Op& op : ops) {
    ASSERT_LT(op.rank, spec.objects);
    writes += op.write;
    rank0 += op.rank == 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / ops.size(), 0.5, 0.02);
  // Zipf 0.9 over 300 objects: the hottest object draws ~16 % of ops.
  EXPECT_GT(rank0, ops.size() / 10);
}

TEST(WorkloadTest, StampedPayloadsVerifyAndTellWritesApart) {
  WorkloadSpec spec = *FindWorkload("hot_read");
  auto payloads = GeneratePayloads(spec, 1);
  std::vector<uint8_t> buf;
  Stamp s{5, 2, 99};
  StampPayload(payloads[5], s, &buf);
  auto got = CheckPayload(payloads[5], 5, buf);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, s);
  EXPECT_FALSE(CheckPayload(payloads[5], 6, buf).has_value());
  buf.back() ^= 1;
  EXPECT_FALSE(CheckPayload(payloads[5], 5, buf).has_value());
  buf.back() ^= 1;
  buf.push_back(0);  // server-side padding past the logical size is fine
  EXPECT_TRUE(CheckPayload(payloads[5], 5, buf).has_value());
  buf.resize(100);
  EXPECT_FALSE(CheckPayload(payloads[5], 5, buf).has_value());
}

}  // namespace
}  // namespace perfbench
