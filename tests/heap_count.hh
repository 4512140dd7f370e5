/**
 * @file
 * Heap-allocation counting for allocation tests and gates.
 *
 * heap_count.cc replaces every form of the global operator new with
 * one that counts its calls. Compile it into a program (not into a
 * library: it replaces the allocator of the whole program) to read
 * how many C++ heap allocations a stretch of code makes.
 */

#ifndef VDNN_TESTS_HEAP_COUNT_HH
#define VDNN_TESTS_HEAP_COUNT_HH

#include <cstdint>

namespace vdnn
{

/** operator new calls so far in this program. */
std::uint64_t heapAllocations();

/** operator new calls made while @p fn runs. */
template <typename Fn>
std::uint64_t
heapAllocationsDuring(Fn &&fn)
{
    std::uint64_t before = heapAllocations();
    fn();
    return heapAllocations() - before;
}

} // namespace vdnn

#endif // VDNN_TESTS_HEAP_COUNT_HH
