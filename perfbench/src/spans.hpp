/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded from
 * the benchmark's own code around its calls into each simulator layer;
 * nothing inside the simulator is instrumented. A disabled recorder
 * records nothing and costs one branch per span.
 */

#ifndef VBR_PERFBENCH_SPANS_HPP
#define VBR_PERFBENCH_SPANS_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace vbr::perfbench
{

/** Steady-clock nanoseconds. */
std::int64_t nowNs();

/** Thread-safe collector of finished spans. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** A fresh span id (never 0). */
    std::uint64_t nextId() { return nextId_.fetch_add(1) + 1; }

    void record(Span span);

    /** Every span recorded so far, in completion order. */
    std::vector<Span> spans() const;

    /** Write all spans as JSON lines to @p path; false on I/O error. */
    bool writeJsonLines(const std::string &path) const;

  private:
    bool enabled_;
    std::atomic<std::uint64_t> nextId_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/**
 * RAII span: starts on construction, records on destruction. With a
 * null or disabled recorder it records nothing and its id is 0.
 */
class ScopedSpan
{
  public:
    /** Pass as @p job to open a job span, whose own id is its job id. */
    static constexpr std::uint64_t kOwnJob = ~std::uint64_t{0};

    ScopedSpan(SpanRecorder *rec, const char *name, std::uint64_t parent,
               std::uint64_t job);

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

  private:
    SpanRecorder *rec_ = nullptr;
    Span span_;
};

/** Where a layer call's span hangs: recorder, parent span, job. */
struct SpanContext
{
    SpanRecorder *rec = nullptr;
    std::uint64_t parent = 0;
    std::uint64_t job = 0;

    ScopedSpan
    open(const char *name) const
    {
        return ScopedSpan(rec, name, parent, job);
    }
};

} // namespace vbr::perfbench

#endif // VBR_PERFBENCH_SPANS_HPP
