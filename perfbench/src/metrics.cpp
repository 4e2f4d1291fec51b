#include "metrics.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace vbr::perfbench
{

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

TailPercentile
tailPercentile(std::vector<double> samples, std::size_t min_beyond)
{
    TailPercentile t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    if (n <= min_beyond) {
        t.percentile = 100.0;
        t.value = samples.back();
        return t;
    }
    std::size_t k = n - min_beyond; // 1-based rank
    t.percentile = 100.0 * static_cast<double>(k) /
                   static_cast<double>(n);
    t.value = samples[k - 1];
    t.beyond = n - k;
    return t;
}

double
failRatio(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
}

double
utilization(double busy_s, unsigned workers, double wall_s)
{
    if (workers == 0 || wall_s <= 0.0)
        return 0.0;
    return busy_s / (static_cast<double>(workers) * wall_s);
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.startNs, s.endNs);
    }

    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t runStart = 0, runEnd = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, p.startNs);
            b = std::min(b, p.endNs);
            if (b <= a)
                continue;
            if (open && a <= runEnd) {
                runEnd = std::max(runEnd, b);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = a;
            runEnd = b;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

std::vector<std::string>
rootNames(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::string> roots(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t at = i;
        // The hop bound keeps a malformed parent cycle from looping.
        for (std::size_t hops = 0; hops < spans.size(); ++hops) {
            auto it = index.find(spans[at].parent);
            if (spans[at].parent == 0 || it == index.end())
                break;
            at = it->second;
        }
        roots[i] = spans[at].name;
    }
    return roots;
}

} // namespace vbr::perfbench
