/**
 * @file
 * The benchmark's own arithmetic: medians, the tail-percentile rule,
 * span self time, and the bases of the ratio metrics. Kept apart from
 * the simulator calls so perfbench_test can pin every rule.
 */

#ifndef VBR_PERFBENCH_METRICS_HPP
#define VBR_PERFBENCH_METRICS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbr::perfbench
{

/** Median of @p xs (mean of the two middle values when even);
 * 0 for an empty list. */
double median(std::vector<double> xs);

/** A percentile chosen by the tail rule, with its evidence. */
struct TailPercentile
{
    double percentile = 0.0; ///< e.g. 92.0 for p92
    double value = 0.0;      ///< the sample at that rank
    std::size_t samples = 0; ///< population size
    std::size_t beyond = 0;  ///< samples strictly above the rank
};

/**
 * The highest percentile that still has at least @p min_beyond samples
 * beyond it. With n samples sorted ascending, rank k (1-based) is the
 * p = 100*k/n percentile and has n-k samples beyond it, so the rule
 * picks k = n - min_beyond. Needs n > min_beyond; with fewer samples
 * no percentile qualifies and the maximum is returned with
 * percentile 100 and beyond 0.
 */
TailPercentile tailPercentile(std::vector<double> samples,
                              std::size_t min_beyond = 10);

/** Failed jobs over jobs attempted. Every submitted job counts as
 * attempted, failed or not; 0 when nothing was attempted. */
double failRatio(std::uint64_t failed, std::uint64_t attempted);

/** Share of the workers' capacity spent inside jobs: summed job time
 * over workers x the sweep's wall time. 1 - utilization is the share
 * workers sat idle. */
double utilization(double busy_s, unsigned workers, double wall_s);

/** One recorded span (times in steady-clock nanoseconds). */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t job = 0;    ///< id of the enclosing job span, 0 = none
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its children. Children may overlap each other (jobs of a
 * parallel sweep), so the covered part is the union of the children's
 * intervals, clipped to the parent. Returned in the order of @p spans.
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Name of the root ancestor of each span, in the order of @p spans
 * (a root span is its own root). */
std::vector<std::string> rootNames(const std::vector<Span> &spans);

} // namespace vbr::perfbench

#endif // VBR_PERFBENCH_METRICS_HPP
