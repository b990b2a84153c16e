/**
 * @file
 * Heap-allocation counting for the benchmark binary: alloc_hook.cc
 * replaces the global operator new/delete family (this binary only),
 * so every C++ allocation any tier makes is counted.
 */

#ifndef SVCBENCH_ALLOC_HOOK_H
#define SVCBENCH_ALLOC_HOOK_H

#include <cstdint>

namespace svcbench {

/** Running totals since process start. */
struct AllocCounts
{
    uint64_t allocs = 0;
    uint64_t bytes = 0; //!< Requested bytes, not allocator footprint.
};

/** Sum over every thread (relaxed: call after a quiescent point). */
AllocCounts allocCounts();

} // namespace svcbench

#endif // SVCBENCH_ALLOC_HOOK_H
