#include "bench.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

int
Spans::open(const char *name)
{
    spans.push_back({name, hostNow(), 0.0, current});
    current = int(spans.size()) - 1;
    return current;
}

void
Spans::close(int id)
{
    spans[std::size_t(id)].end = hostNow();
    current = spans[std::size_t(id)].parent;
}

std::map<std::string, double>
Spans::selfTimes() const
{
    std::vector<double> childTime(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childTime[std::size_t(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] += spans[i].end - spans[i].start - childTime[i];
    return self;
}

void
Spans::writeJsonLines(std::FILE *f, int pass) const
{
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"pass\": %d, \"id\": %zu, \"parent\": %d, "
                     "\"name\": \"%s\", \"start_s\": %.9f, "
                     "\"end_s\": %.9f}\n",
                     pass, i, s.parent, s.name, s.start, s.end);
    }
}

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / double(v.size()));
}

} // namespace perfbench
