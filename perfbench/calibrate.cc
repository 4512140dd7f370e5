#include "bench.hh"

#include <cstdio>
#include <map>
#include <queue>
#include <string>
#include <vector>

namespace perfbench
{

double
calibrationSeconds()
{
    // A fixed mix of what the simulator's hot paths do — ordered-map
    // churn, a binary heap, small-string formatting — written here so
    // that no change to the program can change it.
    double t0 = hostNow();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::map<std::uint64_t, std::uint64_t> live;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::string text;
    char buf[64];
    std::uint64_t sink = 0;
    for (int i = 0; i < 60000; ++i) {
        std::uint64_t v = next();
        live.emplace(v & 0xffffff, v);
        if (live.size() > 2048) {
            auto it = live.lower_bound(next() & 0xffffff);
            live.erase(it == live.end() ? live.begin() : it);
        }
        heap.push(v);
        if (heap.size() > 1024) {
            sink += heap.top();
            heap.pop();
        }
        if (i % 8 == 0) {
            std::snprintf(buf, sizeof(buf), "op %d at %llu", i,
                          (unsigned long long)(v >> 40));
            text = buf;
            sink += text.size();
        }
    }
    double t1 = hostNow();
    if (sink == 42)
        std::printf("%llu\n", (unsigned long long)sink);
    return t1 - t0;
}

} // namespace perfbench
