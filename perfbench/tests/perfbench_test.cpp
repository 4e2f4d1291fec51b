// Tests of the benchmark itself: its arithmetic (percentile rule, span
// self time, ratio bases) and the parity of its composed jobs with the
// user path, runSimJob(), on the same specs.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "jobs.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "trace/trace_format.hpp"
#include "workload/multiproc.hpp"
#include "workloads.hpp"

using namespace vbr;
using namespace vbr::perfbench;

namespace
{

// --- arithmetic --------------------------------------------------------

TEST(Metrics, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Metrics, TailPercentileLeavesTenSamplesBeyond)
{
    std::vector<double> xs;
    for (int i = 1; i <= 137; ++i)
        xs.push_back(i);
    TailPercentile t = tailPercentile(xs);
    EXPECT_EQ(t.samples, 137u);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.value, 127.0); // samples 128..137 lie beyond it
    EXPECT_NEAR(t.percentile, 100.0 * 127 / 137, 1e-9);

    std::size_t above = 0;
    for (double x : xs)
        above += x > t.value ? 1 : 0;
    EXPECT_EQ(above, 10u);
}

TEST(Metrics, TailPercentileIsHighestWithTenBeyond)
{
    // With 100 samples p90 has 10 beyond it and p91 only 9.
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i)
        xs.push_back(i);
    TailPercentile t = tailPercentile(xs);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Metrics, TailPercentileNeedsMoreThanTenSamples)
{
    TailPercentile t = tailPercentile({5, 1, 9, 2});
    EXPECT_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.value, 9.0);
    EXPECT_EQ(t.beyond, 0u);

    t = tailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Metrics, FailRatioCountsFailuresAgainstAllAttempted)
{
    // 3 failed out of 12 attempted (9 ok): the base is attempted, not ok.
    EXPECT_DOUBLE_EQ(failRatio(3, 12), 0.25);
    EXPECT_EQ(failRatio(0, 12), 0.0);
    EXPECT_EQ(failRatio(0, 0), 0.0);
}

TEST(Metrics, UtilizationIsBusyOverWorkerCapacity)
{
    // Two workers for 2 s offer 4 worker-seconds; 3 were spent in jobs.
    EXPECT_DOUBLE_EQ(utilization(3.0, 2, 2.0), 0.75);
    EXPECT_DOUBLE_EQ(utilization(4.0, 2, 2.0), 1.0);
    EXPECT_EQ(utilization(1.0, 2, 0.0), 0.0);
}

Span
span(std::uint64_t id, std::uint64_t parent, const char *name,
     std::int64_t start, std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    return s;
}

TEST(Metrics, SelfTimeSubtractsTheUnionOfOverlappingChildren)
{
    // A sweep [0,100] with two workers' jobs overlapping: [10,40] and
    // [30,60] cover [10,60]; [80,120] is clipped to [80,100]. Covered:
    // 50 + 20, so the sweep's self time is 30, not 100 - 30 - 30 - 40.
    std::vector<Span> spans = {
        span(2, 1, "job", 10, 40),   span(3, 1, "job", 30, 60),
        span(4, 1, "job", 80, 120),  span(5, 2, "sys.run", 15, 35),
        span(1, 0, "sweep", 0, 100),
    };
    std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[4], 30);
    // A grandchild counts against its parent only.
    EXPECT_EQ(self[0], 30 - 20);
    EXPECT_EQ(self[1], 30);
    EXPECT_EQ(self[3], 20);
}

TEST(Metrics, SelfTimeOfNestedAndDisjointChildren)
{
    std::vector<Span> spans = {
        span(1, 0, "job", 0, 100),
        span(2, 1, "sys.setup", 0, 20),
        span(3, 1, "sys.run", 20, 90),
        span(4, 1, "check.check", 50, 60), // inside sys.run's interval
    };
    std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 10);
}

TEST(Metrics, RootNamesFollowParents)
{
    std::vector<Span> spans = {
        span(3, 2, "sys.run", 1, 2),
        span(2, 1, "job", 0, 3),
        span(1, 0, "sweep", 0, 4),
        span(4, 0, "setup", 0, 1),
    };
    std::vector<std::string> roots = rootNames(spans);
    EXPECT_EQ(roots, (std::vector<std::string>{"sweep", "sweep", "sweep",
                                               "setup"}));
}

TEST(Spans, DisabledRecorderRecordsNothing)
{
    SpanRecorder off(false);
    {
        ScopedSpan s(&off, "job", 0, ScopedSpan::kOwnJob);
        EXPECT_EQ(s.id(), 0u);
    }
    EXPECT_TRUE(off.spans().empty());

    SpanRecorder on(true);
    std::uint64_t jobId = 0;
    {
        ScopedSpan job(&on, "job", 7, ScopedSpan::kOwnJob);
        jobId = job.id();
        SpanContext ctx{&on, job.id(), job.id()};
        auto child = ctx.open("sys.run");
    }
    std::vector<Span> spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "sys.run");
    EXPECT_EQ(spans[0].parent, jobId);
    EXPECT_EQ(spans[0].job, jobId);
    EXPECT_EQ(spans[1].job, jobId); // a job span is its own job
    EXPECT_EQ(spans[1].parent, 7u);
    EXPECT_LE(spans[0].startNs, spans[0].endNs);
}

// --- workloads -----------------------------------------------------------

// Far below the benchmark's own scale: parity does not depend on size.
constexpr double kTinyScale = 0.05;

TEST(Workloads, MpProgramsMirrorTheSuite)
{
    // multiprocessorSuite() seeds MpParams with its default; with the
    // same seed the benchmark's table must yield the same programs.
    auto suite = multiprocessorSuite(kMpCores, 0.1);
    auto mine = mpPrograms(kMpCores, 0.1, MpParams{}.seed);
    ASSERT_EQ(suite.size(), mine.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, mine[i].first);
        EXPECT_EQ(programDigest(suite[i].prog),
                  programDigest(mine[i].second));
    }
}

TEST(Workloads, SeedDeterminesThePrograms)
{
    SweepRunner runner(1);
    auto digests = [&](std::uint64_t seed) {
        Workload w = buildWorkload("uni-compute", seed, "", runner, {},
                                   kTinyScale);
        std::vector<std::uint64_t> d;
        for (const BenchJob &j : w.jobs)
            d.push_back(programDigest(*j.spec.program));
        return d;
    };
    EXPECT_EQ(digests(5), digests(5));
    EXPECT_NE(digests(5), digests(6));
}

// --- parity with runSimJob ---------------------------------------------

class Parity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::absolute(".perfbench_out/test-parity")
                   .string();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

void
expectSameBytes(const SimJobResult &mine, const SimJobSpec &spec)
{
    EXPECT_EQ(canonicalResultBytes(mine),
              canonicalResultBytes(runSimJob(spec, /*guarded=*/true)));
}

TEST_F(Parity, FullTierJobsMatchRunSimJob)
{
    SweepRunner runner(1);
    for (const char *name : {"uni-compute", "uni-memory", "mp-4core"}) {
        SCOPED_TRACE(name);
        Workload w = buildWorkload(name, kDefaultSeed, "", runner, {},
                                   kTinyScale);
        ASSERT_FALSE(w.jobs.empty());
        // One program under all five machines.
        for (std::size_t i = 0; i < 5; ++i) {
            const SimJobSpec &spec = w.jobs[i].spec;
            SCOPED_TRACE(spec.system.jobName);
            JobOutput out = runFullJob(spec, {});
            expectSameBytes(out.result, spec);
            EXPECT_EQ(out.counts.instructions,
                      out.result.stats.instructions);
            EXPECT_GT(out.counts.auditChecks, 0u);
            if (spec.attachScChecker) {
                EXPECT_GT(out.counts.checkNodes, 0u);
            }
        }
    }
}

TEST_F(Parity, CaptureWritesTheBytesRunSimJobWrites)
{
    SweepRunner runner(1);
    Workload w = buildWorkload("mp-4core", kDefaultSeed, "", runner, {},
                               kTinyScale);
    SimJobSpec spec = w.jobs[1].spec; // replay-all
    spec.attachScChecker = false;
    std::string mine = dir_ + "/mine.vbrtrace";
    CaptureOutput c = captureTrace(spec, mine, {});

    spec.system.traceDir = dir_ + "/user";
    runSimJob(spec, /*guarded=*/true);
    std::string a, b;
    ASSERT_TRUE(readFileToString(mine, a));
    ASSERT_TRUE(readFileToString(traceFilePath(spec), b));
    EXPECT_EQ(a, b);
    EXPECT_EQ(c.bytes, a.size());
    EXPECT_EQ(c.traceDigest, traceFileDigest(mine));
}

TEST_F(Parity, ReplayJobsMatchRunSimJob)
{
    SweepRunner runner(2);
    Workload w = buildWorkload("trace-replay", kDefaultSeed, dir_, runner,
                               {}, kTinyScale);
    EXPECT_EQ(w.traceCount, 25u);
    ASSERT_EQ(w.jobs.size(), 100u);
    // The first uni trace and the first MP trace (index 18), each
    // through all four replay configurations.
    for (std::size_t first : {std::size_t{0}, std::size_t{18 * 4}}) {
        for (std::size_t i = first; i < first + 4; ++i) {
            const BenchJob &j = w.jobs[i];
            SCOPED_TRACE(j.spec.system.jobName);
            JobOutput out = runReplayJob(j.spec, j.producerConfig, {});
            expectSameBytes(out.result, j.spec);
            EXPECT_GT(out.counts.replayFrames, 0u);
            EXPECT_GT(out.counts.checkNodes, 0u);
        }
    }
}

} // namespace
