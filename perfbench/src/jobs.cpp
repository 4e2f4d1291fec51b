#include "jobs.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "check/constraint_graph.hpp"
#include "common/atomic_file.hpp"
#include "sys/run_stats.hpp"
#include "sys/system.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_replay.hpp"
#include "trace/trace_writer.hpp"

namespace vbr::perfbench
{

JobCounts &
JobCounts::operator+=(const JobCounts &o)
{
    instructions += o.instructions;
    cycles += o.cycles;
    tickedCycles += o.tickedCycles;
    skippedCycles += o.skippedCycles;
    squashes += o.squashes;
    replays += o.replays;
    replaysFiltered += o.replaysFiltered;
    committedLoads += o.committedLoads;
    lqSearches += o.lqSearches;
    l1dAccesses += o.l1dAccesses;
    auditChecks += o.auditChecks;
    auditViolations += o.auditViolations;
    checkNodes += o.checkNodes;
    checkEdges += o.checkEdges;
    replayFrames += o.replayFrames;
    producerPolicyMismatches += o.producerPolicyMismatches;
    return *this;
}

bool
JobCounts::operator==(const JobCounts &o) const
{
    return instructions == o.instructions && cycles == o.cycles &&
           tickedCycles == o.tickedCycles &&
           skippedCycles == o.skippedCycles && squashes == o.squashes &&
           replays == o.replays && replaysFiltered == o.replaysFiltered &&
           committedLoads == o.committedLoads &&
           lqSearches == o.lqSearches && l1dAccesses == o.l1dAccesses &&
           auditChecks == o.auditChecks &&
           auditViolations == o.auditViolations &&
           checkNodes == o.checkNodes && checkEdges == o.checkEdges &&
           replayFrames == o.replayFrames &&
           producerPolicyMismatches == o.producerPolicyMismatches;
}

namespace
{

std::string
jobLabel(const SimJobSpec &spec)
{
    return spec.workload + "/" + spec.config;
}

/** The failure checks runSimJob applies after System::run. */
void
requireHalted(const RunResult &r, const SimJobSpec &spec)
{
    if (r.hostCancelled)
        throw std::runtime_error(jobLabel(spec) +
                                 " exceeded its host time budget");
    if (r.deadlocked)
        throw std::runtime_error(jobLabel(spec) + " deadlocked");
    if (!r.allHalted)
        throw std::runtime_error(jobLabel(spec) +
                                 " exhausted its cycle budget");
}

JobCounts
countsOf(const RunStats &s)
{
    JobCounts c;
    c.instructions = s.instructions;
    c.cycles = s.cycles;
    c.tickedCycles = s.tickedCycles;
    c.skippedCycles = s.skippedCycles;
    c.squashes = s.squashLqRaw + s.squashLqSnoop + s.squashReplay;
    c.replays = s.replaysUnresolved + s.replaysConsistency;
    c.replaysFiltered = s.replaysFiltered;
    c.committedLoads = s.committedLoads;
    c.lqSearches = s.lqSearches;
    c.l1dAccesses = s.l1dTotal();
    return c;
}

} // namespace

JobOutput
runFullJob(const SimJobSpec &spec, const SpanContext &ctx)
{
    if (spec.mode != SimJobMode::Full || !spec.system.traceDir.empty())
        throw std::runtime_error("runFullJob takes untraced Full specs");
    std::unique_ptr<System> sys;
    {
        auto span = ctx.open("sys.setup");
        sys = std::make_unique<System>(spec.system, *spec.program);
    }
    if (sys->faultInjector() != nullptr)
        throw std::runtime_error("fault injection is not benchmarked");
    std::unique_ptr<ScChecker> checker;
    if (spec.attachScChecker) {
        checker = std::make_unique<ScChecker>();
        sys->setObserver(checker.get());
    }
    RunResult r;
    {
        auto span = ctx.open("sys.run");
        r = sys->run();
    }
    requireHalted(r, spec);

    JobOutput out;
    out.result.stats =
        collectRunStats(*sys, r, spec.workload, spec.config);
    for (const std::string &name : spec.harvestStats)
        out.result.extras.emplace_back("stat:" + name,
                                       sys->totalStat(name));
    out.counts = countsOf(out.result.stats);
    if (const InvariantAuditor *a = sys->auditor()) {
        out.counts.auditChecks = a->checksPerformed();
        out.counts.auditViolations = a->violationCount();
    }
    if (r.auditViolations != 0 || out.counts.auditViolations != 0)
        throw std::runtime_error(jobLabel(spec) +
                                 " violated a simulator invariant");
    if (checker) {
        CheckResult cr;
        {
            auto span = ctx.open("check.check");
            cr = checker->check();
        }
        out.result.extras.emplace_back("checker:consistent",
                                       cr.consistent ? 1 : 0);
        out.result.extras.emplace_back("checker:errors",
                                       cr.errors.size());
        out.counts.checkNodes = cr.nodes;
        out.counts.checkEdges = cr.edges;
        if (!cr.consistent)
            throw std::runtime_error(jobLabel(spec) +
                                     " checker verdict: " + cr.summary());
    }
    return out;
}

JobOutput
runReplayJob(const SimJobSpec &spec, bool producer_config,
             const SpanContext &ctx)
{
    if (spec.mode != SimJobMode::TraceReplay)
        throw std::runtime_error("runReplayJob takes TraceReplay specs");
    std::vector<std::uint8_t> bytes;
    {
        auto span = ctx.open("trace.read");
        std::string contents;
        if (!readFileToString(spec.tracePath, contents))
            throw std::runtime_error("cannot read trace " +
                                     spec.tracePath);
        bytes.assign(contents.begin(), contents.end());
    }
    TraceReplaySpec rs;
    rs.program = spec.program.get();
    rs.programDigest = programDigest(*spec.program);
    rs.scheme = spec.system.core.scheme;
    rs.filters = spec.system.core.filters;
    rs.attachScChecker = spec.attachScChecker;
    TraceReplayResult r;
    {
        auto span = ctx.open("trace.replay");
        r = replayTrace(bytes, rs);
    }
    const std::string label = jobLabel(spec);
    if (spec.traceDigest != 0 && r.trailer.fileDigest != spec.traceDigest)
        throw std::runtime_error(label + ": trace digest mismatch");
    if (!r.memDigestMatch)
        throw std::runtime_error(label + ": final memory digest mismatch");
    if (r.versionMismatches != 0)
        throw std::runtime_error(label + ": word versions diverge");
    if (r.checkerRan && !r.checker.consistent)
        throw std::runtime_error(label + " checker verdict: " +
                                 r.checker.summary());

    // The result runSimJob builds in TraceReplay mode, field by field.
    JobOutput out;
    RunStats &s = out.result.stats;
    s.workload = spec.workload;
    s.config = spec.config;
    s.instructions = r.trailer.instructions;
    s.cycles = r.trailer.cycles;
    s.ipc = s.cycles == 0 ? 0.0
                          : static_cast<double>(s.instructions) /
                                static_cast<double>(s.cycles);
    s.replaysUnresolved = r.replaysUnresolved;
    s.replaysConsistency = r.replaysConsistency;
    s.replaysFiltered = r.replaysFiltered;
    s.committedLoads = r.committedLoads;
    s.squashLqRaw = r.squashLqRaw;
    s.squashLqRawUnnec = r.squashLqRawUnnec;
    s.squashLqSnoop = r.squashLqSnoop;
    s.squashLqSnoopUnnec = r.squashLqSnoopUnnec;
    s.squashReplay = r.squashReplay;
    auto &x = out.result.extras;
    x.emplace_back("trace:commit_frames", r.commitFrames);
    x.emplace_back("trace:ordering_frames", r.orderingFrames);
    x.emplace_back("trace:final_mem_digest", r.finalMemDigest);
    if (rs.scheme == OrderingScheme::ValueReplay) {
        x.emplace_back("policy:filtered", r.policyFiltered);
        x.emplace_back("policy:unresolved", r.policyUnresolved);
        x.emplace_back("policy:consistency", r.policyConsistency);
        x.emplace_back("policy:mismatches", r.policyMismatches);
    }
    if (r.checkerRan) {
        x.emplace_back("checker:consistent", r.checker.consistent ? 1 : 0);
        x.emplace_back("checker:errors", r.checker.errors.size());
    }

    out.counts = countsOf(s);
    if (r.checkerRan) {
        out.counts.checkNodes = r.checker.nodes;
        out.counts.checkEdges = r.checker.edges;
    }
    out.counts.replayFrames = r.commitFrames + r.orderingFrames;
    if (producer_config)
        out.counts.producerPolicyMismatches = r.policyMismatches;
    return out;
}

CaptureOutput
captureTrace(const SimJobSpec &spec, const std::string &path,
             const SpanContext &ctx)
{
    TraceHeader th;
    th.cores = spec.system.cores;
    th.memorySize = spec.program->memorySize();
    th.versionsTracked = spec.system.trackVersions;
    th.producerScheme = static_cast<unsigned>(spec.system.core.scheme);
    th.programDigest = programDigest(*spec.program);
    th.label = spec.system.jobName;

    std::unique_ptr<System> sys;
    {
        auto span = ctx.open("sys.setup");
        sys = std::make_unique<System>(spec.system, *spec.program);
    }
    TraceWriter writer(path, th);
    sys->setTraceCapture(&writer, &writer);
    RunResult r;
    {
        auto span = ctx.open("sys.run");
        r = sys->run();
    }
    requireHalted(r, spec);
    std::uint64_t memDigest = 0;
    {
        auto span = ctx.open("trace.digest");
        memDigest = memoryImageDigest(sys->memory());
    }
    bool written = false;
    {
        auto span = ctx.open("trace.finalize");
        written = writer.finalize(r.cycles, r.instructions, memDigest);
    }
    if (!written)
        throw std::runtime_error("cannot write trace " + path);

    CaptureOutput out;
    out.traceDigest = writer.digest();
    out.frames = writer.frames();
    out.bytes = std::filesystem::file_size(path);
    return out;
}

std::uint64_t
resultDigest(const SimJobResult &r, std::uint64_t basis)
{
    std::string bytes = canonicalResultBytes(r);
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                   bytes.size(), basis);
}

} // namespace vbr::perfbench
