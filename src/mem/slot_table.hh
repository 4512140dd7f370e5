/**
 * @file
 * Flat table of live allocation records behind generation-checked
 * handles.
 *
 * Both allocators hand out integer handles for their live blocks. A
 * handle is `generation << 32 | slot`: the slot indexes a flat vector
 * whose freed entries are reused, and the slot's generation bumps on
 * every release, so a handle that outlived its block (double release,
 * or a release after the slot was reused) no longer matches and is
 * caught. Once the table has grown to its working size, insert and
 * erase never touch the heap.
 */

#ifndef VDNN_MEM_SLOT_TABLE_HH
#define VDNN_MEM_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vdnn::mem
{

template <typename T>
class SlotTable
{
  public:
    /** Store @p value; @return its handle (never negative). */
    std::int64_t insert(const T &value)
    {
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = std::uint32_t(slots.size());
            slots.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        Slot &s = slots[slot];
        s.value = value;
        s.live = true;
        ++liveCount;
        return std::int64_t(s.generation) << 32 | slot;
    }

    /** The live record behind @p id; nullptr for a stale or unknown
     *  handle. */
    T *find(std::int64_t id)
    {
        std::uint64_t slot = std::uint64_t(id) & 0xffffffffu;
        if (id < 0 || slot >= slots.size())
            return nullptr;
        Slot &s = slots[slot];
        if (!s.live ||
            s.generation != std::uint32_t(std::uint64_t(id) >> 32))
            return nullptr;
        return &s.value;
    }

    /** Release the record behind @p id, which find() must accept. */
    void erase(std::int64_t id)
    {
        std::uint32_t slot = std::uint32_t(std::uint64_t(id) & 0xffffffffu);
        retire(slots[slot]);
        freeSlots.push_back(slot);
        --liveCount;
    }

    /** Release every record; every outstanding handle goes stale. */
    void clear()
    {
        freeSlots.clear();
        for (std::uint32_t slot = 0; slot < slots.size(); ++slot) {
            if (slots[slot].live)
                retire(slots[slot]);
            freeSlots.push_back(slot);
        }
        liveCount = 0;
    }

    /** Number of live records. */
    std::size_t size() const { return liveCount; }

    /** Call @p fn on every live record (slot order). */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Slot &s : slots) {
            if (s.live)
                fn(s.value);
        }
    }

    /** Every slot is either live or on the free stack, never both. */
    bool consistent() const
    {
        std::size_t live = 0;
        for (const Slot &s : slots)
            live += s.live ? 1 : 0;
        return live == liveCount &&
               live + freeSlots.size() == slots.size();
    }

  private:
    struct Slot
    {
        T value{};
        std::uint32_t generation = 0;
        bool live = false;
    };

    /** Generations wrap below 2^31 so every handle stays non-negative. */
    static constexpr std::uint32_t kGenerationMask = 0x7fffffffu;

    static void retire(Slot &s)
    {
        s.live = false;
        s.generation = (s.generation + 1) & kGenerationMask;
    }

    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    std::size_t liveCount = 0;
};

} // namespace vdnn::mem

#endif // VDNN_MEM_SLOT_TABLE_HH
