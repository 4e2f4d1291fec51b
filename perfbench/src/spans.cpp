#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

namespace vbr::perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanRecorder::record(Span span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanRecorder::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &s : spans())
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"job\":%llu,"
                     "\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.job),
                     s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name,
                       std::uint64_t parent, std::uint64_t job)
{
    if (rec == nullptr || !rec->enabled())
        return;
    rec_ = rec;
    span_.id = rec->nextId();
    span_.parent = parent;
    span_.job = job == kOwnJob ? span_.id : job;
    span_.name = name;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (rec_ == nullptr)
        return;
    span_.endNs = nowNs();
    rec_->record(std::move(span_));
}

} // namespace vbr::perfbench
