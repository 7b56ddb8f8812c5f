#include "metrics.hh"

#include <algorithm>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld < 2)
        return {};
    // statistics.quantiles, method='exclusive': m = len + 1, cut i
    // sits at i*m/4 (1-based), linearly interpolated in integer
    // quarters so the arithmetic matches Python's exactly.
    const long n = 4, m = ld + 1;
    double cut[3];
    for (long i = 1; i < n; i++) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        const long delta = i * m - j * n;
        cut[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                      v[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    return {cut[0], cut[1], cut[2]};
}

Percentile
nearestRank(std::vector<double> v, unsigned num, unsigned den)
{
    Percentile p;
    if (v.empty() || den == 0)
        return p;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // ceil(num * n / den) in integers, clamped to [1, n].
    std::size_t rank = (num * n + den - 1) / den;
    rank = std::clamp<std::size_t>(rank, 1, n);
    p.value = v[rank - 1];
    p.rank = rank;
    p.beyond = n - rank;
    return p;
}

double
unionLength(std::vector<Interval> spans, Interval within)
{
    for (Interval &s : spans) {
        s.start = std::max(s.start, within.start);
        s.end = std::min(s.end, within.end);
    }
    std::sort(spans.begin(), spans.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    double covered = 0.0;
    double cur_start = 0.0, cur_end = 0.0;
    bool open = false;
    for (const Interval &s : spans) {
        if (s.end <= s.start)
            continue;
        if (open && s.start <= cur_end) {
            cur_end = std::max(cur_end, s.end);
            continue;
        }
        if (open)
            covered += cur_end - cur_start;
        cur_start = s.start;
        cur_end = s.end;
        open = true;
    }
    if (open)
        covered += cur_end - cur_start;
    return covered;
}

double
selfTime(Interval parent, const std::vector<Interval> &children)
{
    return (parent.end - parent.start) - unionLength(children, parent);
}

double
poolBusyFrac(double summed_spans, int workers, double makespan)
{
    if (workers <= 0 || makespan <= 0.0)
        return 0.0;
    return summed_spans / (static_cast<double>(workers) * makespan);
}

double
concurrencySlowdown(double summed_at_n, double summed_at_1)
{
    return summed_at_1 > 0.0 ? summed_at_n / summed_at_1 : 0.0;
}

} // namespace perfbench
