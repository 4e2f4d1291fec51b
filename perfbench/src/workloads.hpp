/**
 * @file
 * The benchmark's four workloads, generated from one seed. Every
 * program comes from the public generators (makeSynthetic and the MP
 * kernel generators); the simulator sees only the generated programs.
 *
 *  - uni-compute: the 13 cache-resident uniprocessor profiles x the 5
 *    Figure 5 machines. Core pipeline and ordering-unit bound.
 *  - uni-memory: the 5 miss-bound profiles x 5 machines. Long skipped
 *    stretches, heavy audit, large memory images.
 *  - mp-4core: the 7 MP kernels on 4 cores x 5 machines, versions
 *    tracked and the SC checker attached. Coherence and the checker.
 *    The MP kernel generators take MpParams::seed but do not use it, so
 *    these programs are the same on every seed.
 *  - trace-replay: set-up captures one replay-all trace per uni and MP
 *    program (25); the timed jobs replay each through the 4 value-
 *    replay filter configurations with the checker attached (100).
 *    Ordering-only tier: core, mem and verify are bypassed.
 */

#ifndef VBR_PERFBENCH_WORKLOADS_HPP
#define VBR_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "spans.hpp"
#include "sys/sweep_runner.hpp"

namespace vbr::perfbench
{

/** The pinned default seed; the result goldens hold for it. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Sweep workers: half of the 4-CPU host, as the benchmark's load. */
inline constexpr unsigned kWorkers = 2;

/** Simulated cores of the multiprocessor workloads. */
inline constexpr unsigned kMpCores = 4;

/** One timed job of a workload. */
struct BenchJob
{
    SimJobSpec spec;
    /** Trace-tier job replaying through the capturing configuration;
     * its policy mismatches are counted (see runReplayJob). */
    bool producerConfig = false;
};

/** Set-up output of a workload. */
struct Workload
{
    std::string name;
    std::vector<BenchJob> jobs; ///< timed jobs, in submission order
    std::uint64_t traceCount = 0; ///< traces captured in set-up
    std::uint64_t traceFrames = 0;
    std::uint64_t traceBytes = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Programs of the MP suite on @p cores at @p scale, built from
 * MpParams seeded with @p mp_seed (one workload.build span each). */
std::vector<std::pair<std::string, Program>>
mpPrograms(unsigned cores, double scale, std::uint64_t mp_seed,
           const SpanContext &ctx = {});

/**
 * Generate workload @p name from @p seed: build its programs (one
 * workload.build span each) and, for trace-replay, capture its traces
 * into @p trace_dir on @p runner (one job span per capture). Job sizes
 * are the workload's own scale times @p scale_factor (1 in the
 * benchmark; smaller in tests). Throws std::runtime_error on an
 * unknown name or a failed capture.
 */
Workload buildWorkload(const std::string &name, std::uint64_t seed,
                       const std::string &trace_dir,
                       const SweepRunner &runner, const SpanContext &ctx,
                       double scale_factor = 1.0);

/** FNV-1a digest of one pass's results on the default seed (0 for an
 * unknown workload): the output-correctness golden. */
std::uint64_t goldenDigest(const std::string &name);

/** Guard options of every sweep the benchmark runs: no retry (a job
 * is deterministic, so a retry repeats its failure), a watchdog so a
 * wedged job is quarantined, artifacts under @p artifact_dir. */
GuardOptions benchGuardOptions(const std::string &artifact_dir);

} // namespace vbr::perfbench

#endif // VBR_PERFBENCH_WORKLOADS_HPP
