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

} // namespace

MemoryPool::MemoryPool(Bytes capacity, std::string name)
    : cap(alignUp(capacity, kAlignment)),
      largeThreshold(cap / kLargeFraction), poolName(std::move(name))
{
    VDNN_ASSERT(capacity > 0, "pool capacity must be positive");
    freeList.push_back({0, cap});
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

std::optional<Allocation>
MemoryPool::tryAllocate(Bytes size, const std::string &tag, int client)
{
    VDNN_ASSERT(size >= 0, "negative allocation size");
    Bytes need = std::max<Bytes>(alignUp(size, kAlignment), kAlignment);

    // Best fit: the smallest sufficient block, ties to the lowest
    // offset (strict < over an offset-ordered scan) for deterministic
    // layouts. An exact fit cannot be beaten, so it ends the scan.
    std::size_t best = freeList.size();
    for (std::size_t i = 0; i < freeList.size(); ++i) {
        Bytes len = freeList[i].size;
        if (len < need)
            continue;
        if (best == freeList.size() || len < freeList[best].size) {
            best = i;
            if (len == need)
                break;
        }
    }
    if (best == freeList.size()) {
        oom.requested = need;
        oom.totalFree = freeBytes();
        oom.largestFree = largestFreeBlock();
        oom.tag = tag;
        return std::nullopt;
    }

    // Carve in place: what remains of the block keeps its place in
    // the offset order.
    FreeBlock &hole = freeList[best];
    Bytes offset;
    if (need >= largeThreshold) {
        // Large: carve from the high end of the block.
        offset = hole.offset + hole.size - need;
    } else {
        // Small: carve from the low end.
        offset = hole.offset;
        hole.offset += need;
    }
    hole.size -= need;
    if (hole.size == 0)
        freeList.erase(freeList.begin() + std::ptrdiff_t(best));

    Allocation a;
    a.id = live.insert({offset, need, client});
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
    const LiveBlock *blk = live.find(alloc.id);
    VDNN_ASSERT(blk, "releasing unknown allocation id %lld",
                (long long)alloc.id);
    Bytes offset = blk->offset;
    Bytes size = blk->size;
    int client = blk->client;
    live.erase(alloc.id);
    used -= size;
    auto cit = clients.find(client);
    VDNN_ASSERT(cit != clients.end() && cit->second.used >= size,
                "client %d accounting underflow", client);
    cit->second.used -= size;

    // Coalesce in place with the predecessor and the successor.
    auto next = std::lower_bound(
        freeList.begin(), freeList.end(), offset,
        [](const FreeBlock &f, Bytes off) { return f.offset < off; });
    VDNN_ASSERT(next == freeList.end() || next->offset != offset,
                "double free at offset %lld", (long long)offset);
    bool join_next =
        next != freeList.end() && offset + size == next->offset;
    bool join_prev = next != freeList.begin() &&
                     std::prev(next)->offset + std::prev(next)->size ==
                         offset;
    if (join_prev) {
        std::prev(next)->size += size;
        if (join_next) {
            std::prev(next)->size += next->size;
            freeList.erase(next);
        }
    } else if (join_next) {
        next->offset = offset;
        next->size += size;
    } else {
        freeList.insert(next, {offset, size});
    }
    notify();
}

void
MemoryPool::releaseAll()
{
    live.clear();
    freeList.clear();
    freeList.push_back({0, cap});
    used = 0;
    for (auto &[client, cu] : clients)
        cu.used = 0;
    notify();
}

Bytes
MemoryPool::largestFreeBlock() const
{
    Bytes largest = 0;
    for (const FreeBlock &f : freeList)
        largest = std::max(largest, f.size);
    return largest;
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
    for (const FreeBlock &f : freeList) {
        if (f.size <= 0 || f.offset < 0 || f.offset + f.size > cap)
            return false;
        if (prev_end >= 0 && f.offset <= prev_end)
            return false; // unsorted, overlapping or uncoalesced
        prev_end = f.offset + f.size;
        total_free += f.size;
    }
    Bytes total_live = 0;
    live.forEach([&](const LiveBlock &blk) { total_live += blk.size; });
    Bytes total_client = 0;
    for (const auto &[client, cu] : clients)
        total_client += cu.used;
    return total_free + total_live == cap && total_live == used &&
           total_client == used && live.consistent();
}

} // namespace vdnn::mem
