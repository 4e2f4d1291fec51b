/**
 * @file
 * The benchmark's composed jobs. Each one makes, in order, the same
 * public calls runSimJob() makes for the same spec — System, run,
 * collectRunStats, with the checker and trace attached as the spec
 * says — so its result bytes equal runSimJob()'s (perfbench_test pins
 * this), while each layer call gets its own span and the layers'
 * exact counters are read on the way out.
 */

#ifndef VBR_PERFBENCH_JOBS_HPP
#define VBR_PERFBENCH_JOBS_HPP

#include <cstdint>
#include <string>

#include "spans.hpp"
#include "sys/job_key.hpp"

namespace vbr::perfbench
{

/** Exact counters of one job, read from the layers after the run.
 * Simulated counts: they repeat bit for bit for the same inputs. */
struct JobCounts
{
    // core (RunStats)
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t tickedCycles = 0;
    std::uint64_t skippedCycles = 0;
    std::uint64_t squashes = 0; ///< lq-raw + lq-snoop + replay squashes
    // ordering (RunStats)
    std::uint64_t replays = 0; ///< unresolved + consistency replays
    std::uint64_t replaysFiltered = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t lqSearches = 0;
    // mem (RunStats)
    std::uint64_t l1dAccesses = 0;
    // verify (InvariantAuditor)
    std::uint64_t auditChecks = 0;
    std::uint64_t auditViolations = 0;
    // check (ScChecker::check)
    std::uint64_t checkNodes = 0;
    std::uint64_t checkEdges = 0;
    // trace (replayTrace)
    std::uint64_t replayFrames = 0; ///< commit + ordering frames
    /** Policy mismatches of replays through the capturing
     * configuration (see runReplayJob). */
    std::uint64_t producerPolicyMismatches = 0;

    JobCounts &operator+=(const JobCounts &o);
    bool operator==(const JobCounts &o) const;
};

/** What one composed job returns. */
struct JobOutput
{
    SimJobResult result;
    JobCounts counts;
    double hostMs = 0.0; ///< job latency, set by the sweep layer
};

/**
 * Full-tier job: System::System, System::run, collectRunStats and,
 * when spec.attachScChecker, ScChecker::check. Throws
 * std::runtime_error when the job fails: no halt (deadlock, cycle
 * budget, host cancel), an audit violation, or an inconsistent
 * checker verdict.
 */
JobOutput runFullJob(const SimJobSpec &spec, const SpanContext &ctx);

/**
 * Trace-tier job: read spec.tracePath, replayTrace on the in-memory
 * bytes, and build the result runSimJob() builds in TraceReplay mode.
 * Throws std::runtime_error on a verdict mismatch: a trace digest or
 * final-memory mismatch, diverging word versions, or an inconsistent
 * checker verdict.
 *
 * When @p producer_config says the spec replays the trace through the
 * configuration that captured it, the policy projection should agree
 * with every recorded decision, but it does not: a load whose replay
 * rule 3 suppressed is recorded as filtered while the projection
 * classifies it as a replay. Until the trace tier tells the two apart,
 * such mismatches are counted in producerPolicyMismatches (and pinned
 * by the result digest, which holds policy:mismatches) instead of
 * failing the job.
 */
JobOutput runReplayJob(const SimJobSpec &spec, bool producer_config,
                       const SpanContext &ctx);

/** What a capture leaves behind. */
struct CaptureOutput
{
    std::uint64_t traceDigest = 0; ///< the trailer's file digest
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
};

/**
 * Capture @p spec's trace to @p path: run the spec with a TraceWriter
 * attached, then memoryImageDigest and TraceWriter::finalize, as
 * runSimJob() does when spec.system.traceDir is set. Throws
 * std::runtime_error when the run does not halt or the write fails.
 */
CaptureOutput captureTrace(const SimJobSpec &spec, const std::string &path,
                           const SpanContext &ctx);

/** FNV-1a-64 of canonicalResultBytes(@p r), folded into @p basis. */
std::uint64_t resultDigest(const SimJobResult &r, std::uint64_t basis);

} // namespace vbr::perfbench

#endif // VBR_PERFBENCH_JOBS_HPP
