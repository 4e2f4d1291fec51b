#include "workloads.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "harness.hpp"
#include "workload/multiproc.hpp"
#include "workload/synthetic.hpp"

namespace vbr::perfbench
{

namespace
{

// Job sizes, as multipliers of the suites' own iteration counts. They
// set how much simulation one job does; a pass over a workload's jobs
// is its unit of measurement (see main.cpp).
constexpr double kUniScale = 0.06;
constexpr double kMpScale = 0.2;
constexpr double kCaptureScale = 0.1; ///< trace-replay's captured runs

/** Cache-resident uniprocessor profiles (uni-compute). */
const std::vector<std::string> kComputeProfiles = {
    "gzip", "vpr",    "gcc",   "crafty", "parser", "eon",     "perlbmk",
    "gap",  "vortex", "bzip2", "twolf",  "tpc-b",  "specjbb",
};

/** Miss-bound uniprocessor profiles (uni-memory). */
const std::vector<std::string> kMemoryProfiles = {
    "mcf", "apsi", "art", "wupwise", "tpc-h",
};

/** Salt of the MP suite's seed ("mp"); uniprocessor profiles salt
 * with their suite seed instead. */
constexpr std::uint64_t kMpSeedSalt = 0x6d70;

/** The machine trace-replay captures with, and replays through first. */
const char *const kCaptureConfig = "replay-all";

std::vector<bench::MachineConfig>
fig5Machines()
{
    std::vector<bench::MachineConfig> m{bench::baselineConfig()};
    for (auto &c : bench::replayConfigs())
        m.push_back(std::move(c));
    return m;
}

/** A 64-bit generator seed mixed from the benchmark seed and a
 * per-program salt (splitmix64). */
std::uint64_t
deriveSeed(std::uint64_t bench_seed, std::uint64_t salt)
{
    std::uint64_t z = bench_seed * 0x9e3779b97f4a7c15ULL + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

using ProgramPtr = std::shared_ptr<const Program>;

struct NamedProgram
{
    std::string name;
    ProgramPtr program;
    unsigned cores = 1;
};

std::vector<NamedProgram>
uniPrograms(const std::vector<std::string> &profiles, double scale,
            std::uint64_t seed, const SpanContext &ctx)
{
    std::vector<NamedProgram> out;
    for (const std::string &name : profiles) {
        WorkloadSpec w = uniprocessorWorkload(name, scale);
        w.params.seed = deriveSeed(seed, w.params.seed);
        auto span = ctx.open("workload.build");
        out.push_back(
            {name, std::make_shared<Program>(makeSynthetic(w.params)), 1});
    }
    return out;
}

std::vector<NamedProgram>
mpNamedPrograms(double scale, std::uint64_t seed, const SpanContext &ctx)
{
    std::vector<NamedProgram> out;
    for (auto &[name, prog] :
         mpPrograms(kMpCores, scale, deriveSeed(seed, kMpSeedSalt), ctx))
        out.push_back({name, std::make_shared<Program>(std::move(prog)),
                       kMpCores});
    return out;
}

SimJobSpec
fullSpec(const NamedProgram &p, const bench::MachineConfig &m)
{
    SimJobSpec spec;
    spec.workload = p.name;
    spec.config = m.name;
    spec.system.cores = p.cores;
    spec.system.core = m.core;
    spec.system.jobName = p.name + "-" + m.name;
    spec.program = p.program;
    return spec;
}

void
addFullJobs(Workload &w, const std::vector<NamedProgram> &progs,
            bool checked)
{
    const auto machines = fig5Machines();
    for (const NamedProgram &p : progs)
        for (const auto &m : machines) {
            BenchJob j;
            j.spec = fullSpec(p, m);
            j.spec.system.trackVersions = checked;
            j.spec.attachScChecker = checked;
            w.jobs.push_back(std::move(j));
        }
}

void
buildTraceReplay(Workload &w, std::uint64_t seed, double scale_factor,
                 const std::string &trace_dir, const SweepRunner &runner,
                 const SpanContext &ctx)
{
    std::vector<std::string> profiles = kComputeProfiles;
    profiles.insert(profiles.end(), kMemoryProfiles.begin(),
                    kMemoryProfiles.end());
    std::vector<NamedProgram> progs =
        uniPrograms(profiles, kCaptureScale * scale_factor, seed, ctx);
    for (auto &p : mpNamedPrograms(kCaptureScale * scale_factor, seed,
                                   ctx))
        progs.push_back(std::move(p));

    const auto machines = fig5Machines();
    const bench::MachineConfig *producer = nullptr;
    for (const auto &m : machines)
        if (m.name == kCaptureConfig)
            producer = &m;

    std::filesystem::create_directories(trace_dir);
    std::vector<SimJobSpec> captures;
    std::vector<std::string> paths;
    std::vector<GuardedJob<CaptureOutput>> jobs;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        SimJobSpec spec = fullSpec(progs[i], *producer);
        spec.system.trackVersions = true;
        captures.push_back(spec);
        paths.push_back(trace_dir + "/" + std::to_string(i) + "-" +
                        progs[i].name + ".vbrtrace");
    }
    for (std::size_t i = 0; i < captures.size(); ++i)
        jobs.push_back({captures[i].system.jobName, [&, i] {
                            ScopedSpan job(ctx.rec, "job", ctx.parent,
                                           ScopedSpan::kOwnJob);
                            return captureTrace(
                                captures[i], paths[i],
                                {ctx.rec, job.id(), job.id()});
                        }});
    SweepOutcome<CaptureOutput> done = runner.runGuarded(
        std::move(jobs), benchGuardOptions(trace_dir + "/fail"));
    if (!done.allOk())
        throw std::runtime_error("trace capture failed: " +
                                 done.quarantined.front().error);

    for (std::size_t i = 0; i < captures.size(); ++i) {
        const CaptureOutput &c = done.results[i];
        w.traceCount += 1;
        w.traceFrames += c.frames;
        w.traceBytes += c.bytes;
        for (const auto &m : machines) {
            if (m.core.scheme != OrderingScheme::ValueReplay)
                continue;
            BenchJob j;
            j.spec = captures[i];
            j.spec.config = m.name;
            j.spec.system.core = m.core;
            j.spec.system.jobName = progs[i].name + "-" + m.name +
                                    "-replay";
            j.spec.mode = SimJobMode::TraceReplay;
            j.spec.tracePath = paths[i];
            j.spec.traceDigest = c.traceDigest;
            j.spec.attachScChecker = true;
            j.producerConfig = m.name == kCaptureConfig;
            w.jobs.push_back(std::move(j));
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "uni-compute", "uni-memory", "mp-4core", "trace-replay"};
    return kNames;
}

std::vector<std::pair<std::string, Program>>
mpPrograms(unsigned cores, double scale, std::uint64_t mp_seed,
           const SpanContext &ctx)
{
    // The paper's MP suite as multiprocessorSuite() maps it onto the
    // kernels, with the benchmark's seed in MpParams.
    struct Entry
    {
        const char *name;
        Program (*build)(const MpParams &);
        unsigned iterations;
    };
    static const Entry kSuite[] = {
        {"barnes", makeReadMostly, 400},
        {"ocean", makeBarrierSweep, 40},
        {"radiosity", makeWorkQueue, 250},
        {"raytrace", makeReadMostly, 500},
        {"specjbb-mp", makeLockCounter, 250},
        {"specweb", makeReadMostly, 600},
        {"tpc-h-mp", makeBarrierSweep, 60},
    };
    std::vector<std::pair<std::string, Program>> out;
    for (const Entry &e : kSuite) {
        MpParams p;
        p.threads = cores;
        p.iterations = std::max(
            1u, static_cast<unsigned>(e.iterations * scale));
        p.seed = mp_seed;
        auto span = ctx.open("workload.build");
        out.emplace_back(e.name, e.build(p));
    }
    return out;
}

Workload
buildWorkload(const std::string &name, std::uint64_t seed,
              const std::string &trace_dir, const SweepRunner &runner,
              const SpanContext &ctx, double scale_factor)
{
    Workload w;
    w.name = name;
    if (name == "uni-compute")
        addFullJobs(w,
                    uniPrograms(kComputeProfiles,
                                kUniScale * scale_factor, seed,
                                ctx),
                    false);
    else if (name == "uni-memory")
        addFullJobs(w,
                    uniPrograms(kMemoryProfiles,
                                kUniScale * scale_factor, seed,
                                ctx),
                    false);
    else if (name == "mp-4core")
        addFullJobs(w, mpNamedPrograms(kMpScale * scale_factor, seed, ctx),
                    true);
    else if (name == "trace-replay")
        buildTraceReplay(w, seed, scale_factor, trace_dir, runner, ctx);
    else
        throw std::runtime_error("unknown workload: " + name);
    return w;
}

std::uint64_t
goldenDigest(const std::string &name)
{
    // canonicalResultBytes of every job of one pass, in submission
    // order, at kDefaultSeed and the scales above; runSimJob() on the
    // same specs gives the same digests. Any change to a scale, a
    // profile list or the simulator's results moves these.
    static const std::pair<const char *, std::uint64_t> kGolden[] = {
        {"uni-compute", 0xc4ebe76da446bb74ULL},
        {"uni-memory", 0x6af10b7baf856f24ULL},
        {"mp-4core", 0x7fcb2013be62b3e6ULL},
        {"trace-replay", 0x237bb62c2553c28bULL},
    };
    for (const auto &[n, digest] : kGolden)
        if (name == n)
            return digest;
    return 0;
}

GuardOptions
benchGuardOptions(const std::string &artifact_dir)
{
    GuardOptions g;
    g.artifactDir = artifact_dir;
    g.retries = 0;
    g.timeoutMs = 60'000;
    g.backoffBaseMs = 0;
    return g;
}

} // namespace vbr::perfbench
