/**
 * @file
 * Unit and property tests for the cnmem-style memory pool and the
 * pinned host allocator.
 */

#include "mem/memory_pool.hh"
#include "mem/pinned_host.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

using namespace vdnn;
using namespace vdnn::mem;
using namespace vdnn::literals;

TEST(MemoryPool, FreshPoolIsEmpty)
{
    MemoryPool pool(1_MiB);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.freeBytes(), 1_MiB);
    EXPECT_EQ(pool.largestFreeBlock(), 1_MiB);
    EXPECT_EQ(pool.liveAllocations(), 0u);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPool, AllocateRoundsUpToAlignment)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(1, "tiny");
    EXPECT_EQ(a.size, MemoryPool::kAlignment);
    EXPECT_EQ(a.offset % MemoryPool::kAlignment, 0);
    EXPECT_EQ(pool.usedBytes(), MemoryPool::kAlignment);
}

TEST(MemoryPool, ZeroByteAllocationTakesOneGranule)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(0, "empty");
    EXPECT_EQ(a.size, MemoryPool::kAlignment);
    pool.release(a);
    EXPECT_EQ(pool.usedBytes(), 0);
}

TEST(MemoryPool, ReleaseRestoresCapacity)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(100_KiB);
    auto b = pool.allocate(200_KiB);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.largestFreeBlock(), 1_MiB);
    EXPECT_EQ(pool.freeBlockCount(), 1u);
}

TEST(MemoryPool, CoalescesAdjacentBlocksInAnyReleaseOrder)
{
    // Three adjacent allocations, all six release permutations must end
    // with a single maximal free block.
    std::vector<std::vector<int>> perms = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    for (const auto &perm : perms) {
        MemoryPool pool(1_MiB);
        std::vector<Allocation> allocs;
        for (int i = 0; i < 3; ++i)
            allocs.push_back(pool.allocate(64_KiB));
        for (int idx : perm)
            pool.release(allocs[size_t(idx)]);
        EXPECT_EQ(pool.freeBlockCount(), 1u);
        EXPECT_EQ(pool.largestFreeBlock(), 1_MiB);
        EXPECT_TRUE(pool.checkInvariants());
    }
}

TEST(MemoryPool, BestFitPrefersSmallestSufficientHole)
{
    MemoryPool pool(1_MiB);
    // Layout: [A 128K][B 64K][C 256K][D rest]; free A and C to create a
    // 128K hole and a 256K hole.
    auto a = pool.allocate(128_KiB);
    auto b = pool.allocate(64_KiB);
    auto c = pool.allocate(256_KiB);
    auto d = pool.allocate(pool.freeBytes());
    pool.release(a);
    pool.release(c);
    // A 100K request fits both holes; best-fit must take the 128K one.
    auto e = pool.allocate(100_KiB);
    EXPECT_EQ(e.offset, 0); // A's hole starts at offset 0
    pool.release(b);
    pool.release(d);
    pool.release(e);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPool, OutOfMemoryReportsDetails)
{
    MemoryPool pool(1_MiB, "gpu");
    auto a = pool.allocate(512_KiB, "x");
    auto r = pool.tryAllocate(768_KiB, "y");
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(pool.lastOom().requested, 768_KiB);
    EXPECT_EQ(pool.lastOom().tag, "y");
    EXPECT_EQ(pool.lastOom().totalFree, 1_MiB - 512_KiB);
    pool.release(a);
}

TEST(MemoryPool, AllocateThrowsFatalOnOom)
{
    MemoryPool pool(1_MiB);
    pool.allocate(1_MiB);
    EXPECT_THROW(pool.allocate(1_KiB), FatalError);
}

TEST(MemoryPool, FragmentationCanFailLargeRequestDespiteEnoughTotal)
{
    MemoryPool pool(1_MiB);
    // Fill with alternating small blocks and free every other one; no
    // contiguous block of half the pool remains even though half is free.
    std::vector<Allocation> allocs;
    for (int i = 0; i < 16; ++i)
        allocs.push_back(pool.allocate(64_KiB));
    for (size_t i = 0; i < allocs.size(); i += 2)
        pool.release(allocs[i]);
    EXPECT_EQ(pool.freeBytes(), 512_KiB);
    EXPECT_FALSE(pool.tryAllocate(128_KiB).has_value());
    EXPECT_EQ(pool.largestFreeBlock(), 64_KiB);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPool, PeakTracksHighWaterMark)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(300_KiB);
    auto b = pool.allocate(300_KiB);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.peakUsage(), 600_KiB);
    EXPECT_EQ(pool.usedBytes(), 0);
}

TEST(MemoryPool, ReleaseAllResets)
{
    MemoryPool pool(1_MiB);
    pool.allocate(100_KiB);
    pool.allocate(100_KiB);
    pool.releaseAll();
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.liveAllocations(), 0u);
    EXPECT_EQ(pool.freeBlockCount(), 1u);
    EXPECT_TRUE(pool.checkInvariants());
}

TEST(MemoryPoolDeath, DoubleReleasePanics)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(64_KiB);
    pool.release(a);
    EXPECT_DEATH(pool.release(a), "unknown allocation");
}

TEST(MemoryPoolDeath, StaleHandleAfterSlotReusePanics)
{
    MemoryPool pool(1_MiB);
    auto a = pool.allocate(64_KiB);
    pool.release(a);
    auto b = pool.allocate(64_KiB); // reuses a's live-table slot
    EXPECT_NE(a.id, b.id);
    EXPECT_DEATH(pool.release(a), "unknown allocation");
}

TEST(MemoryPool, TrackerSeesEveryChange)
{
    TimeNs fake_now = 0;
    UsageTracker tracker([&] { return fake_now; }, true);
    MemoryPool pool(1_MiB);
    pool.setTracker(&tracker);

    fake_now = 10;
    auto a = pool.allocate(128_KiB);
    fake_now = 20;
    auto b = pool.allocate(128_KiB);
    fake_now = 30;
    pool.release(a);
    fake_now = 40;
    pool.release(b);
    tracker.finish();

    EXPECT_EQ(tracker.peakBytes(), 256_KiB);
    // 0 for 10ns, 128K for 10ns, 256K for 10ns, 128K for 10ns -> 128K avg
    EXPECT_EQ(tracker.averageBytes(), 128_KiB);
}

namespace
{

/**
 * Reference placement for the property test: the pool's original
 * linear two-tier scan over an offset-ordered free list (small
 * requests first look for the smallest sufficient block below the
 * large threshold, then anything sufficient; ties to the lowest
 * offset), with the same high/low-end carving and coalescing. The pool
 * must make exactly its decisions.
 */
class ReferencePool
{
  public:
    explicit ReferencePool(Bytes capacity)
        : large(capacity / MemoryPool::kLargeFraction)
    {
        freeBlocks.emplace(0, capacity);
    }

    std::optional<Bytes> allocate(Bytes size)
    {
        const Bytes g = MemoryPool::kAlignment;
        Bytes need = std::max<Bytes>((size + g - 1) / g * g, g);
        auto best = freeBlocks.end();
        if (need < large) {
            for (auto it = freeBlocks.begin(); it != freeBlocks.end();
                 ++it) {
                if (it->second < need || it->second >= large)
                    continue;
                if (best == freeBlocks.end() || it->second < best->second)
                    best = it;
            }
        }
        if (best == freeBlocks.end()) {
            for (auto it = freeBlocks.begin(); it != freeBlocks.end();
                 ++it) {
                if (it->second < need)
                    continue;
                if (best == freeBlocks.end() || it->second < best->second)
                    best = it;
            }
        }
        if (best == freeBlocks.end())
            return std::nullopt;
        Bytes off = best->first;
        Bytes len = best->second;
        freeBlocks.erase(best);
        if (need >= large) {
            if (len > need)
                freeBlocks.emplace(off, len - need);
            return off + len - need;
        }
        if (len > need)
            freeBlocks.emplace(off + need, len - need);
        return off;
    }

    void release(Bytes offset, Bytes size)
    {
        auto ins = freeBlocks.emplace(offset, size).first;
        auto next = std::next(ins);
        if (next != freeBlocks.end() &&
            ins->first + ins->second == next->first) {
            ins->second += next->second;
            freeBlocks.erase(next);
        }
        if (ins != freeBlocks.begin()) {
            auto prev = std::prev(ins);
            if (prev->first + prev->second == ins->first) {
                prev->second += ins->second;
                freeBlocks.erase(ins);
            }
        }
    }

    Bytes largestFree() const
    {
        Bytes largest = 0;
        for (const auto &[off, size] : freeBlocks)
            largest = std::max(largest, size);
        return largest;
    }

  private:
    Bytes large;
    std::map<Bytes, Bytes> freeBlocks;
};

} // namespace

/**
 * Property test: a randomized allocate/release workload — small,
 * medium and large-class requests, the latter carved from the high end
 * — must place every block exactly where the reference two-tier scan
 * does, report the same largest free block on every failure, keep the
 * pool's internal invariants (disjoint coalesced free list mirrored by
 * the size index, used-bytes bookkeeping) at every step, and end
 * balanced.
 */
class MemoryPoolPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MemoryPoolPropertyTest, RandomWorkloadKeepsInvariants)
{
    SplitMix64 rng(GetParam());
    const Bytes capacity = 16_MiB;
    const Bytes large = capacity / MemoryPool::kLargeFraction;
    MemoryPool pool(capacity);
    ReferencePool ref(capacity);
    std::vector<Allocation> live;
    int large_placed = 0;
    int failures = 0;
    for (int step = 0; step < 2000; ++step) {
        bool do_alloc = live.empty() || rng.nextDouble() < 0.55;
        if (do_alloc) {
            double cls = rng.nextDouble();
            Bytes size = cls < 0.6   ? rng.nextRange(1, 256 * kKiB)
                         : cls < 0.8 ? rng.nextRange(256 * kKiB, large - 1)
                                     : rng.nextRange(large, capacity / 3);
            auto a = pool.tryAllocate(size, "prop");
            std::optional<Bytes> want = ref.allocate(size);
            ASSERT_EQ(a.has_value(), want.has_value()) << "at step " << step;
            if (a) {
                ASSERT_EQ(a->offset, *want) << "at step " << step;
                large_placed += a->size >= large;
                live.push_back(*a);
            } else {
                ++failures;
                ASSERT_EQ(pool.lastOom().largestFree, ref.largestFree())
                    << "at step " << step;
            }
        } else {
            size_t idx = size_t(rng.nextRange(0, std::int64_t(live.size()) - 1));
            pool.release(live[idx]);
            ref.release(live[idx].offset, live[idx].size);
            live.erase(live.begin() + std::ptrdiff_t(idx));
        }
        ASSERT_EQ(pool.largestFreeBlock(), ref.largestFree())
            << "at step " << step;
        if (step % 64 == 0) {
            ASSERT_TRUE(pool.checkInvariants()) << "at step " << step;
        }
    }
    // The workload must reach both the large class and the OOM path.
    EXPECT_GT(large_placed, 0);
    EXPECT_GT(failures, 0);
    for (const auto &a : live)
        pool.release(a);
    EXPECT_EQ(pool.usedBytes(), 0);
    EXPECT_EQ(pool.freeBlockCount(), 1u);
    EXPECT_TRUE(pool.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPoolPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// --- PinnedHostAllocator ------------------------------------------------------

TEST(PinnedHost, TracksUsedAndPeak)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(100_MiB, "x1");
    auto b = host.allocate(200_MiB, "x2");
    EXPECT_EQ(host.usedBytes(), 300_MiB);
    host.release(a);
    EXPECT_EQ(host.usedBytes(), 200_MiB);
    EXPECT_EQ(host.peakUsage(), 300_MiB);
    host.release(b);
    EXPECT_EQ(host.liveAllocations(), 0u);
}

TEST(PinnedHost, CumulativeTotalNeverDecreases)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(100_MiB);
    host.release(a);
    auto b = host.allocate(50_MiB);
    host.release(b);
    EXPECT_EQ(host.totalAllocated(), 150_MiB);
}

TEST(PinnedHost, FailsWhenHostMemoryExhausted)
{
    PinnedHostAllocator host(256_MiB);
    auto a = host.tryAllocate(200_MiB);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(host.tryAllocate(100_MiB).has_value());
    EXPECT_THROW(host.allocate(100_MiB), FatalError);
    host.release(*a);
    EXPECT_TRUE(host.tryAllocate(100_MiB).has_value());
}

TEST(PinnedHostDeath, StaleHandleAfterSlotReusePanics)
{
    PinnedHostAllocator host(1_GiB);
    auto a = host.allocate(64_MiB);
    host.release(a);
    auto b = host.allocate(64_MiB); // reuses a's live-table slot
    EXPECT_NE(a.id, b.id);
    EXPECT_DEATH(host.release(a), "unknown host allocation");
}
