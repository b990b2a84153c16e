/**
 * @file
 * Counting replacements of the global operator new/delete. Counts go
 * to cache-line-padded shards picked once per thread, so the hook adds
 * one uncontended relaxed increment pair per allocation.
 */

#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace svcbench {
namespace {

constexpr uint32_t kShards = 128;

struct alignas(64) Shard
{
    std::atomic<uint64_t> allocs{0};
    std::atomic<uint64_t> bytes{0};
};

Shard shards[kShards];
std::atomic<uint32_t> nextShard{0};
// Constant-initialized: safe to touch from inside operator new.
thread_local uint32_t threadShard = kShards;

void
count(size_t bytes)
{
    if (threadShard == kShards) {
        threadShard =
            nextShard.fetch_add(1, std::memory_order_relaxed) % kShards;
    }
    Shard &shard = shards[threadShard];
    shard.allocs.fetch_add(1, std::memory_order_relaxed);
    shard.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void *
allocate(size_t bytes)
{
    count(bytes);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(size_t bytes, std::align_val_t align)
{
    count(bytes);
    const size_t alignment = size_t(align);
    const size_t rounded =
        ((bytes ? bytes : 1) + alignment - 1) / alignment * alignment;
    if (void *p = std::aligned_alloc(alignment, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

AllocCounts
allocCounts()
{
    AllocCounts total;
    for (const Shard &shard : shards) {
        total.allocs += shard.allocs.load(std::memory_order_relaxed);
        total.bytes += shard.bytes.load(std::memory_order_relaxed);
    }
    return total;
}

} // namespace svcbench

using svcbench::allocate;
using svcbench::allocateAligned;

void *operator new(size_t n) { return allocate(n); }
void *operator new[](size_t n) { return allocate(n); }

void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](size_t n, const std::nothrow_t &) noexcept
{
    try {
        return allocate(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}

void *
operator new[](size_t n, std::align_val_t a)
{
    return allocateAligned(n, a);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
