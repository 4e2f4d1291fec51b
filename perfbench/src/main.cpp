/**
 * @file
 * Command-line entry point of the vbr host-performance benchmark.
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *             [--out DIR]
 *
 * Load shape: a closed-loop batch sweep. Set-up generates the
 * workload's programs from the seed (and captures traces for
 * trace-replay). After one untimed warm-up pass, the timed phase runs
 * passes — one SweepRunner::runGuarded call over all of the workload's
 * jobs on kWorkers workers, each worker taking the next job only when
 * its last one finished — until the next pass would overrun --seconds.
 * Failed jobs are quarantined and counted, never fatal.
 *
 * Set-up is timed several times per run. The repeats are spread evenly
 * between the passes rather than run back to back, so that setup_s,
 * like wall_s, is a median over the whole run: the host's speed drifts
 * by tens of percent over tens of seconds, and a burst of repeats at
 * the start would sample one moment of it.
 *
 * Every pass must reproduce the first pass's result digest and counts,
 * and on the default seed the digest must equal the workload's golden.
 * With --trace 1, passes alternate untraced and traced; the traced
 * ones record a span around every layer call and give the per-layer
 * metrics, and their wall time against the untraced ones' is the
 * tracing overhead. Spans are written once, at exit, to
 * <out>/spans-<workload>-<seed>.jsonl.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics (end-to-end with --trace 0, per-layer with
 * --trace 1). Exit status is 0 only when the output is correct.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "jobs.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace vbr;
using namespace vbr::perfbench;

namespace
{

/** Set-up repeats per run: enough to spend about kSetupSeconds, at
 * least kSetupMinRepeats and at most kSetupMaxRepeats. setup_s is
 * their median. */
constexpr unsigned kSetupMinRepeats = 3;
constexpr unsigned kSetupMaxRepeats = 2000;
constexpr double kSetupSeconds = 0.5;

/** Fewest passes a run measures (with --trace 1: of each kind). */
constexpr unsigned kMinPasses = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".perfbench_out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("bad --seed " + v);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("bad --seconds " + v);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (flag == "--out") {
            a.outDir = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    bool known = false;
    for (const std::string &n : workloadNames())
        known = known || n == a.workload;
    if (!known)
        usage("unknown --workload '" + a.workload + "'");
    return a;
}

/** One timed pass over the workload's jobs. */
struct Pass
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<double> jobMs; ///< ok jobs, submission order
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0; ///< over ok results, submission order
    JobCounts counts;         ///< summed over ok jobs
    std::vector<std::string> errors;
};

Pass
runPass(const Workload &w, const SweepRunner &runner,
        SpanRecorder *rec, const GuardOptions &guard)
{
    Pass p;
    p.traced = rec != nullptr;
    std::int64_t t0 = nowNs();
    SweepOutcome<JobOutput> out;
    {
        ScopedSpan sweep(rec, "sweep", 0, 0);
        std::vector<GuardedJob<JobOutput>> jobs;
        jobs.reserve(w.jobs.size());
        for (const BenchJob &j : w.jobs)
            jobs.push_back({j.spec.system.jobName,
                            [&j, rec, parent = sweep.id()] {
                                std::int64_t start = nowNs();
                                JobOutput o;
                                {
                                    ScopedSpan job(rec, "job", parent,
                                                   ScopedSpan::kOwnJob);
                                    SpanContext c{rec, job.id(), job.id()};
                                    o = j.spec.mode == SimJobMode::Full
                                            ? runFullJob(j.spec, c)
                                            : runReplayJob(
                                                  j.spec, j.producerConfig,
                                                  c);
                                }
                                o.hostMs = (nowNs() - start) / 1e6;
                                return o;
                            }});
        out = runner.runGuarded(std::move(jobs), guard);
    }
    p.wallS = (nowNs() - t0) / 1e9;
    p.digest = 14695981039346656037ULL;
    p.attempted = w.jobs.size();
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        if (!out.ok[i])
            continue;
        const JobOutput &o = out.results[i];
        p.jobMs.push_back(o.hostMs);
        p.digest = resultDigest(o.result, p.digest);
        p.counts += o.counts;
    }
    p.failed = out.quarantined.size();
    for (const SweepFailure &f : out.quarantined)
        p.errors.push_back(f.name + ": " + f.error);
    return p;
}

/** A metric value with its unit, in output order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-(phase, span name) totals over recorded spans. */
struct LayerTotals
{
    std::map<std::pair<std::string, std::string>, double> selfMs;
    std::map<std::pair<std::string, std::string>, double> durMs;
    std::map<std::pair<std::string, std::string>, std::uint64_t> calls;

    explicit LayerTotals(const std::vector<Span> &spans)
    {
        std::vector<std::int64_t> self = selfTimesNs(spans);
        std::vector<std::string> roots = rootNames(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            auto key = std::make_pair(roots[i], spans[i].name);
            selfMs[key] += self[i] / 1e6;
            durMs[key] += (spans[i].endNs - spans[i].startNs) / 1e6;
            calls[key] += 1;
        }
    }

    double
    self(const char *phase, const char *name) const
    {
        auto it = selfMs.find({phase, name});
        return it == selfMs.end() ? 0.0 : it->second;
    }

    double
    dur(const char *phase, const char *name) const
    {
        auto it = durMs.find({phase, name});
        return it == durMs.end() ? 0.0 : it->second;
    }

    /** Mean self time per call (0 when the layer was never called). */
    double
    perCall(const char *phase, const char *name) const
    {
        auto it = calls.find({phase, name});
        return it == calls.end() ? 0.0
                                 : self(phase, name) /
                                       static_cast<double>(it->second);
    }
};

std::vector<Metric>
layerMetrics(const Workload &w, const std::vector<Pass> &passes,
             const SpanRecorder &rec, double setups)
{
    std::vector<double> tracedWall, plainWall, busyS, util;
    double tracedPasses = 0;
    for (const Pass &p : passes) {
        (p.traced ? tracedWall : plainWall).push_back(p.wallS);
        if (!p.traced)
            continue;
        tracedPasses += 1;
        double busy = 0.0;
        for (double ms : p.jobMs)
            busy += ms / 1000.0;
        busyS.push_back(busy);
        util.push_back(utilization(busy, kWorkers, p.wallS));
    }
    const JobCounts &c = passes.front().counts;
    LayerTotals t(rec.spans());
    auto perPass = [&](double total) { return ratio(total, tracedPasses); };
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"workload.build_ms",
         t.self("setup", "workload.build") / setups, "ms"},
        {"setup.self_ms", t.self("setup", "setup") / setups, "ms"},
        {"sys.setup_ms", t.perCall("sweep", "sys.setup"), "ms"},
        {"sys.setup_share",
         ratio(t.self("sweep", "sys.setup"), t.dur("sweep", "job")),
         "ratio"},
        {"sys.run_ms", t.perCall("sweep", "sys.run"), "ms"},
        {"sys.run_ns_per_inst",
         ratio(perPass(t.self("sweep", "sys.run")) * 1e6,
               u(c.instructions)),
         "ns"},
        {"sys.run_ns_per_ticked_cycle",
         ratio(perPass(t.self("sweep", "sys.run")) * 1e6,
               u(c.tickedCycles)),
         "ns"},
        {"job.self_ms", t.perCall("sweep", "job"), "ms"},
        {"core.instructions", u(c.instructions), "count"},
        {"core.cycles", u(c.cycles), "count"},
        {"core.ticked_cycles", u(c.tickedCycles), "count"},
        {"core.skip_ratio",
         ratio(u(c.skippedCycles), u(c.skippedCycles + c.tickedCycles)),
         "ratio"},
        {"core.squashes", u(c.squashes), "count"},
        {"ordering.replays", u(c.replays), "count"},
        {"ordering.replays_filtered", u(c.replaysFiltered), "count"},
        {"ordering.filter_ratio",
         ratio(u(c.replaysFiltered), u(c.committedLoads)), "ratio"},
        {"ordering.lq_searches", u(c.lqSearches), "count"},
        {"mem.l1d_accesses", u(c.l1dAccesses), "count"},
        {"verify.audit_checks", u(c.auditChecks), "count"},
        {"verify.audit_checks_per_kinst",
         ratio(u(c.auditChecks), u(c.instructions) / 1000.0), "1/kinst"},
        {"verify.audit_violations", u(c.auditViolations), "count"},
        {"check.check_ms", t.perCall("sweep", "check.check"), "ms"},
        {"check.nodes", u(c.checkNodes), "count"},
        {"check.edges", u(c.checkEdges), "count"},
        {"trace.digest_ms", t.perCall("setup", "trace.digest"), "ms"},
        {"trace.finalize_ms", t.perCall("setup", "trace.finalize"), "ms"},
        {"trace.frames", u(w.traceFrames), "count"},
        {"trace.bytes", u(w.traceBytes), "bytes"},
        {"trace.read_ms", t.perCall("sweep", "trace.read"), "ms"},
        {"trace.replay_ms", t.perCall("sweep", "trace.replay"), "ms"},
        {"trace.policy_mismatches", u(c.producerPolicyMismatches), "count"},
        {"trace.replay_ns_per_frame",
         ratio(perPass(t.self("sweep", "trace.replay")) * 1e6,
               u(c.replayFrames)),
         "ns"},
        {"sweep.self_ms", perPass(t.self("sweep", "sweep")), "ms"},
        {"sweep.busy_s", median(busyS), "s"},
        {"sweep.utilization", median(util), "ratio"},
        {"tracing.overhead", ratio(median(tracedWall), median(plainWall)),
         "ratio"},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes,
                const std::vector<double> &setupS, TailPercentile &tail)
{
    std::vector<double> wall, jobMs;
    for (const Pass &p : passes) {
        if (p.traced)
            continue;
        wall.push_back(p.wallS);
        jobMs.insert(jobMs.end(), p.jobMs.begin(), p.jobMs.end());
    }
    tail = tailPercentile(jobMs);
    double wallS = median(wall);
    double kinst = static_cast<double>(passes.front().counts.instructions) /
                   1000.0;
    return {
        {"setup_s", median(setupS), "s"},
        {"wall_s", wallS, "s"},
        {"sim_kips", ratio(kinst, wallS), "kinst/s"},
        {"job_ms_p50", median(jobMs), "ms"},
        {"job_ms_tail", tail.value, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const std::string runDir =
        args.outDir + "/" + args.workload + "-" + std::to_string(args.seed);
    std::error_code ec;
    std::filesystem::remove_all(runDir, ec);
    std::filesystem::create_directories(runDir);

    SpanRecorder rec(args.trace);
    SweepRunner runner(kWorkers);
    GuardOptions guard = benchGuardOptions(runDir + "/fail");

    try {
        std::printf("perfbench: workload=%s seed=%" PRIu64
                    " seconds=%g trace=%d workers=%u\n",
                    args.workload.c_str(), args.seed, args.seconds,
                    args.trace ? 1 : 0, kWorkers);

        // --- set-up ---------------------------------------------------
        Workload w;
        std::vector<double> setupS;
        auto setupOnce = [&] {
            std::int64_t t0 = nowNs();
            ScopedSpan setup(&rec, "setup", 0, 0);
            w = buildWorkload(args.workload, args.seed, runDir + "/traces",
                              runner, {&rec, setup.id(), 0});
            setupS.push_back((nowNs() - t0) / 1e9);
        };
        setupOnce();
        const double setupTarget = std::clamp(
            std::ceil(kSetupSeconds / std::max(setupS[0], 1e-9)),
            double{kSetupMinRepeats}, double{kSetupMaxRepeats});

        // --- timed passes --------------------------------------------
        // An untimed warm-up pass first: the first pass of a process
        // runs measurably slower (allocator and page-cache warm-up),
        // which no later pass pays.
        Pass warmup = runPass(w, runner, nullptr, guard);
        std::vector<Pass> passes;
        std::int64_t start = nowNs();
        std::vector<double> walls;
        for (;;) {
            bool traced = args.trace && passes.size() % 2 == 1;
            passes.push_back(
                runPass(w, runner, traced ? &rec : nullptr, guard));
            walls.push_back(passes.back().wallS);
            double elapsed = (nowNs() - start) / 1e9;
            while (setupS.size() <
                   setupTarget * std::min(1.0, elapsed / args.seconds))
                setupOnce();
            elapsed = (nowNs() - start) / 1e9;
            unsigned kinds = args.trace ? 2 : 1;
            if (passes.size() >= kMinPasses * kinds &&
                elapsed + median(walls) > args.seconds)
                break;
        }
        while (setupS.size() < setupTarget)
            setupOnce();

        // --- correctness ---------------------------------------------
        // Every pass, traced or not, must repeat the warm-up's results
        // and exact counts.
        std::vector<std::string> problems;
        std::uint64_t attempted = 0, failed = 0;
        std::vector<const Pass *> all{&warmup};
        for (const Pass &p : passes)
            all.push_back(&p);
        for (const Pass *p : all) {
            attempted += p->attempted;
            failed += p->failed;
            for (const std::string &e : p->errors)
                problems.push_back("job failed: " + e);
            if (p->failed == 0 && warmup.failed == 0 &&
                (p->digest != warmup.digest ||
                 !(p->counts == warmup.counts)))
                problems.push_back("a pass diverged from the warm-up pass");
        }
        std::uint64_t golden = goldenDigest(args.workload);
        std::printf("result digest %016" PRIx64 " (golden %016" PRIx64
                    " on seed %" PRIu64 ")\n",
                    warmup.digest, golden, kDefaultSeed);
        if (args.seed == kDefaultSeed && failed == 0 &&
            warmup.digest != golden)
            problems.push_back("result digest differs from the golden");
        if (std::uint64_t n = warmup.counts.producerPolicyMismatches)
            std::printf("known defect: %" PRIu64 " policy mismatches "
                        "replaying traces through their capturing "
                        "configuration (rule-3 suppressed loads are "
                        "recorded as filtered)\n",
                        n);
        bool correct = problems.empty();
        for (const std::string &p : problems)
            std::fprintf(stderr, "perfbench: %s\n", p.c_str());

        // --- report ---------------------------------------------------
        TailPercentile tail;
        std::vector<Metric> e2e = endToEndMetrics(passes, setupS, tail);
        std::printf("passes=%zu jobs_per_pass=%zu job_samples=%zu\n",
                    passes.size(), w.jobs.size(), tail.samples);
        std::printf("pass wall_s:");
        for (const Pass &p : passes)
            std::printf(" %.3f%s", p.wallS, p.traced ? "(traced)" : "");
        std::printf("\n");
        for (const Metric &m : e2e)
            std::printf("%-16s %s %s\n", m.name.c_str(),
                        formatValue(m.value).c_str(), m.unit.c_str());
        std::printf("job_ms_tail is p%.2f: %zu of %zu jobs beyond it\n",
                    tail.percentile, tail.beyond, tail.samples);
        std::printf("fail_ratio       %s (%" PRIu64 " failed / %" PRIu64
                    " attempted)\n",
                    formatValue(failRatio(failed, attempted)).c_str(),
                    failed, attempted);

        std::vector<Metric> shown = e2e;
        if (args.trace) {
            shown = layerMetrics(w, passes, rec,
                                 static_cast<double>(setupS.size()));
            for (const Metric &m : shown)
                std::printf("%-30s %s %s\n", m.name.c_str(),
                            formatValue(m.value).c_str(), m.unit.c_str());
            std::string spanPath = args.outDir + "/spans-" + args.workload +
                                   "-" + std::to_string(args.seed) +
                                   ".jsonl";
            if (!rec.writeJsonLines(spanPath))
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             spanPath.c_str());
        }
        std::filesystem::remove_all(runDir + "/traces", ec);
        std::filesystem::remove(runDir, ec); // kept when it holds artifacts

        std::string json = "{\"correct\": ";
        json += correct ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted);
        json += ", \"failed\": " + std::to_string(failed);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < shown.size(); ++i) {
            json += (i ? ", " : "") + std::string("\"") + shown[i].name +
                    "\": {\"value\": " + formatValue(shown[i].value) +
                    ", \"unit\": \"" + shown[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
