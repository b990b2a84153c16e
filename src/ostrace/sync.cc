/**
 * @file
 * Implementation of the traced mutex/condvar.
 */

#include "ostrace/sync.h"

#include "base/time_util.h"
#include "ostrace/ostrace.h"
#include "ostrace/syscalls.h"

namespace musuite {

ContentionStats &
contentionStats()
{
    static ContentionStats stats;
    return stats;
}

void
resetContentionStats()
{
    auto &stats = contentionStats();
    stats.lockContended.store(0, std::memory_order_relaxed);
    stats.futexWaits.store(0, std::memory_order_relaxed);
    stats.futexWakes.store(0, std::memory_order_relaxed);
    stats.condvarWakeups.store(0, std::memory_order_relaxed);
}

void
TracedMutex::lock()
{
    syncdbg::checkAcquire(this, debugRank, debugName);
    if (inner.try_lock()) {
        syncdbg::recordAcquired(this, debugRank, debugName);
        return;
    }
    // Contended: the lock word bounces between cores (HITM) and the
    // sleeping acquisition is a futex(FUTEX_WAIT).
    auto &stats = contentionStats();
    stats.lockContended.fetch_add(1, std::memory_order_relaxed);
    stats.futexWaits.fetch_add(1, std::memory_order_relaxed);
    countSyscall(Sys::Futex);
    // mulint: allow(raw-sync): contended-path acquisition of the wrapped raw mutex
    inner.lock();
    syncdbg::recordAcquired(this, debugRank, debugName);
}

bool
TracedMutex::try_lock()
{
    if (!inner.try_lock())
        return false;
    syncdbg::recordAcquired(this, debugRank, debugName);
    return true;
}

void
TracedCondVar::waitImpl(std::unique_lock<TracedMutex> &lock, void *)
{
    syncdbg::assertNoHeldWriteFrames("TracedCondVar::wait");
    auto &stats = contentionStats();
    stats.futexWaits.fetch_add(1, std::memory_order_relaxed);
    countSyscall(Sys::Futex);

    const int64_t block_start = nowNanos();
    waiters.fetch_add(1, std::memory_order_relaxed);
    inner.wait(lock);
    waiters.fetch_sub(1, std::memory_order_relaxed);
    const int64_t resumed = nowNanos();

    stats.condvarWakeups.fetch_add(1, std::memory_order_relaxed);
    recordOs(OsCategory::Block, resumed - block_start);
    const int64_t notify_ns = lastNotifyNs.load(std::memory_order_acquire);
    if (notify_ns >= block_start && resumed >= notify_ns) {
        // Wakeup (runqueue) latency: notify to actually running again.
        recordOs(OsCategory::ActiveExe, resumed - notify_ns);
    }
}

void
TracedCondVar::notify_one()
{
    if (waiters.load(std::memory_order_relaxed) > 0) {
        // Waking a sleeping thread is a futex(FUTEX_WAKE).
        contentionStats().futexWakes.fetch_add(1,
                                               std::memory_order_relaxed);
        countSyscall(Sys::Futex);
        lastNotifyNs.store(nowNanos(), std::memory_order_release);
    }
    inner.notify_one();
}

void
TracedCondVar::notify_all()
{
    const uint32_t sleeping = waiters.load(std::memory_order_relaxed);
    if (sleeping > 0) {
        contentionStats().futexWakes.fetch_add(sleeping,
                                               std::memory_order_relaxed);
        countSyscall(Sys::Futex, sleeping);
        lastNotifyNs.store(nowNanos(), std::memory_order_release);
    }
    inner.notify_all();
}

} // namespace musuite
