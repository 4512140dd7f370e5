#include "mem/memory_pool.hh"

#include "common/logging.hh"
#include "common/units.hh"

#include <algorithm>

namespace vdnn::mem
{

namespace
{

Bytes
alignUp(Bytes v, Bytes alignment)
{
    return (v + alignment - 1) / alignment * alignment;
}

/** Generations wrap below 2^31 so every handle id stays non-negative. */
constexpr std::uint32_t kGenerationMask = 0x7fffffffu;

} // namespace

MemoryPool::MemoryPool(Bytes capacity, std::string name)
    : cap(alignUp(capacity, kAlignment)),
      largeThreshold(cap / kLargeFraction), poolName(std::move(name))
{
    VDNN_ASSERT(capacity > 0, "pool capacity must be positive");
    addFree(0, cap);
}

void
MemoryPool::setTracker(UsageTracker *tracker)
{
    usageTracker = tracker;
    notify();
}

void
MemoryPool::notify()
{
    if (usageTracker)
        usageTracker->onUsage(used);
}

void
MemoryPool::addFree(Bytes offset, Bytes size)
{
    freeBlocks.emplace(offset, size);
    bySize.emplace(size, offset);
}

std::map<Bytes, Bytes>::iterator
MemoryPool::eraseFree(std::map<Bytes, Bytes>::iterator it)
{
    bySize.erase({it->second, it->first});
    return freeBlocks.erase(it);
}

std::optional<Allocation>
MemoryPool::tryAllocate(Bytes size, const std::string &tag, int client)
{
    VDNN_ASSERT(size >= 0, "negative allocation size");
    Bytes need = std::max<Bytes>(alignUp(size, kAlignment), kAlignment);

    // Best fit: the smallest sufficient block, ties to the lowest
    // offset for deterministic layouts.
    auto fit = bySize.lower_bound({need, 0});
    if (fit == bySize.end()) {
        oom.requested = need;
        oom.totalFree = freeBytes();
        oom.largestFree = largestFreeBlock();
        oom.tag = tag;
        return std::nullopt;
    }

    auto [block_size, block_offset] = *fit;
    bySize.erase(fit);
    freeBlocks.erase(block_offset);
    Bytes offset;
    if (need >= largeThreshold) {
        // Large: carve from the high end of the block.
        offset = block_offset + block_size - need;
        if (block_size > need)
            addFree(block_offset, block_size - need);
    } else {
        // Small: carve from the low end.
        offset = block_offset;
        if (block_size > need)
            addFree(block_offset + need, block_size - need);
    }

    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = std::uint32_t(slots.size());
        slots.emplace_back();
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
    }
    LiveBlock &blk = slots[slot];
    blk.offset = offset;
    blk.size = need;
    blk.client = client;
    blk.live = true;
    ++liveCount;

    Allocation a;
    a.id = std::int64_t(blk.generation) << 32 | slot;
    a.offset = offset;
    a.size = need;
    used += need;
    peak = std::max(peak, used);
    ClientUsage &cu = clients[client];
    cu.used += need;
    cu.peak = std::max(cu.peak, cu.used);
    notify();
    return a;
}

Allocation
MemoryPool::allocate(Bytes size, const std::string &tag, int client)
{
    auto a = tryAllocate(size, tag, client);
    if (!a) {
        fatal("%s: out of memory allocating %s for '%s' "
              "(free %s, largest block %s)",
              poolName.c_str(), formatBytes(size).c_str(), tag.c_str(),
              formatBytes(oom.totalFree).c_str(),
              formatBytes(oom.largestFree).c_str());
    }
    return *a;
}

void
MemoryPool::release(const Allocation &alloc)
{
    std::uint64_t slot = std::uint64_t(alloc.id) & 0xffffffffu;
    VDNN_ASSERT(alloc.id >= 0 && slot < slots.size() &&
                    slots[slot].live &&
                    slots[slot].generation ==
                        std::uint32_t(std::uint64_t(alloc.id) >> 32),
                "releasing unknown allocation id %lld",
                (long long)alloc.id);
    LiveBlock &blk = slots[slot];
    Bytes offset = blk.offset;
    Bytes size = blk.size;
    int client = blk.client;
    blk.live = false;
    blk.generation = (blk.generation + 1) & kGenerationMask;
    freeSlots.push_back(std::uint32_t(slot));
    --liveCount;
    used -= size;
    auto cit = clients.find(client);
    VDNN_ASSERT(cit != clients.end() && cit->second.used >= size,
                "client %d accounting underflow", client);
    cit->second.used -= size;

    // Coalesce with the successor, then the predecessor.
    auto next = freeBlocks.lower_bound(offset);
    VDNN_ASSERT(next == freeBlocks.end() || next->first != offset,
                "double free at offset %lld", (long long)offset);
    if (next != freeBlocks.end() && offset + size == next->first) {
        size += next->second;
        next = eraseFree(next);
    }
    if (next != freeBlocks.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == offset) {
            offset = prev->first;
            size += prev->second;
            eraseFree(prev);
        }
    }
    addFree(offset, size);
    notify();
}

void
MemoryPool::releaseAll()
{
    freeSlots.clear();
    for (std::uint32_t slot = 0; slot < slots.size(); ++slot) {
        if (slots[slot].live) {
            slots[slot].live = false;
            slots[slot].generation =
                (slots[slot].generation + 1) & kGenerationMask;
        }
        freeSlots.push_back(slot);
    }
    liveCount = 0;
    freeBlocks.clear();
    bySize.clear();
    addFree(0, cap);
    used = 0;
    for (auto &[client, cu] : clients)
        cu.used = 0;
    notify();
}

Bytes
MemoryPool::usedByClient(int client) const
{
    auto it = clients.find(client);
    return it == clients.end() ? 0 : it->second.used;
}

Bytes
MemoryPool::peakByClient(int client) const
{
    auto it = clients.find(client);
    return it == clients.end() ? 0 : it->second.peak;
}

std::size_t
MemoryPool::activeClients() const
{
    std::size_t n = 0;
    for (const auto &[client, cu] : clients)
        n += cu.used > 0 ? 1 : 0;
    return n;
}

bool
MemoryPool::checkInvariants() const
{
    // Free blocks are disjoint, sorted, non-adjacent and inside the arena.
    Bytes total_free = 0;
    Bytes prev_end = -1;
    for (const auto &[off, size] : freeBlocks) {
        if (size <= 0 || off < 0 || off + size > cap)
            return false;
        if (prev_end >= 0 && off <= prev_end)
            return false; // overlapping or uncoalesced adjacency
        prev_end = off + size;
        total_free += size;
        if (!bySize.count({size, off}))
            return false;
    }
    if (bySize.size() != freeBlocks.size())
        return false;
    Bytes total_live = 0;
    std::size_t live_blocks = 0;
    for (const LiveBlock &blk : slots) {
        if (blk.live) {
            total_live += blk.size;
            ++live_blocks;
        }
    }
    Bytes total_client = 0;
    for (const auto &[client, cu] : clients)
        total_client += cu.used;
    return total_free + total_live == cap && total_live == used &&
           total_client == used && live_blocks == liveCount &&
           live_blocks + freeSlots.size() == slots.size();
}

} // namespace vdnn::mem
