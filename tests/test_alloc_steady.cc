/**
 * @file
 * Steady-state allocation counts on the per-op hot path.
 *
 * This suite links heap_count.cc, which replaces the global operator
 * new with a counting one: after warm-up, the memory pool and the
 * pinned host allocator must serve a random workload without touching
 * the heap, and one steady-state training iteration must allocate a
 * fixed handful of times however many ops the network compiles to.
 */

#include "heap_count.hh"

#include "core/planner.hh"
#include "core/training_session.hh"
#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"
#include "net/builders.hh"

#include "common/random.hh"
#include "common/units.hh"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace vdnn;
using namespace vdnn::literals;

namespace
{

/**
 * One seeded allocate/release workload: small, medium and large-class
 * requests against a fixed arena, releases in random order. Run twice
 * on the same pool, the second pass must find every container it
 * touches already sized.
 */
template <typename Handle, typename Alloc, typename Release>
void
randomWorkload(Alloc &&alloc, Release &&release, std::vector<Handle> &live,
               std::uint64_t seed, Bytes large, Bytes capacity)
{
    SplitMix64 rng(seed);
    for (int step = 0; step < 4000; ++step) {
        if (live.empty() || rng.nextDouble() < 0.55) {
            double cls = rng.nextDouble();
            Bytes size = cls < 0.6   ? rng.nextRange(1, 256 * kKiB)
                         : cls < 0.8 ? rng.nextRange(256 * kKiB, large - 1)
                                     : rng.nextRange(large, capacity / 3);
            if (auto h = alloc(size))
                live.push_back(*h);
        } else {
            std::size_t idx = std::size_t(
                rng.nextRange(0, std::int64_t(live.size()) - 1));
            release(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    while (!live.empty()) {
        release(live.back());
        live.pop_back();
    }
}

} // namespace

TEST(AllocSteady, MemoryPoolRandomWorkloadAllocatesNothingAfterWarmup)
{
    const Bytes capacity = 16_MiB;
    mem::MemoryPool pool(capacity);
    std::vector<mem::Allocation> live;
    live.reserve(4096);
    auto alloc = [&](Bytes size) { return pool.tryAllocate(size); };
    auto release = [&](const mem::Allocation &a) { pool.release(a); };
    const Bytes large = capacity / mem::MemoryPool::kLargeFraction;
    randomWorkload(alloc, release, live, 7, large, capacity);
    std::uint64_t n = heapAllocationsDuring([&] {
        randomWorkload(alloc, release, live, 7, large, capacity);
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(AllocSteady, PinnedHostRandomWorkloadAllocatesNothingAfterWarmup)
{
    const Bytes capacity = 16_MiB;
    mem::PinnedHostAllocator host(capacity);
    std::vector<mem::HostAllocation> live;
    live.reserve(4096);
    auto alloc = [&](Bytes size) { return host.tryAllocate(size); };
    auto release = [&](const mem::HostAllocation &a) { host.release(a); };
    randomWorkload(alloc, release, live, 11, capacity / 6,
                   capacity);
    std::uint64_t n = heapAllocationsDuring([&] {
        randomWorkload(alloc, release, live, 11, capacity / 6,
                       capacity);
    });
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(host.usedBytes(), 0);
    EXPECT_EQ(host.liveAllocations(), 0u);
}

namespace
{

/** operator new calls of one steady-state vDNN_all (m) iteration on
 *  the Titan X, after two warm-up iterations. */
std::uint64_t
steadyIterationNewCalls(const net::Network &network)
{
    core::SessionConfig cfg;
    cfg.planner = std::make_shared<core::OffloadAllPlanner>(
        core::AlgoPreference::MemoryOptimal);
    core::Session session(network, cfg);
    EXPECT_TRUE(session.setup()) << session.failReason();
    for (int i = 0; i < 2; ++i)
        EXPECT_TRUE(session.runIteration().ok);
    bool ok = false;
    std::uint64_t n =
        heapAllocationsDuring([&] { ok = session.runIteration().ok; });
    EXPECT_TRUE(ok);
    session.teardown();
    return n;
}

} // namespace

TEST(AllocSteady, SteadyIterationAllocationsDoNotScaleWithOps)
{
    auto alexnet = net::buildAlexNet(128);
    auto vgg = net::buildVgg16(64);
    std::uint64_t a = steadyIterationNewCalls(*alexnet);
    std::uint64_t v = steadyIterationNewCalls(*vgg);
    // VGG-16 compiles to about twice AlexNet's ops: any per-op
    // allocation would separate the two counts.
    EXPECT_EQ(a, v);
    EXPECT_LE(a, 8u);
}
