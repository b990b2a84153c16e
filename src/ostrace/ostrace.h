/**
 * @file
 * Per-category OS-overhead latency recording.
 *
 * The paper measures eight request-path OS overheads with eBPF
 * (hardirqs/softirqs/runqlat): hard-interrupt handling, NET_TX and
 * NET_RX softirqs, BLOCK and SCHED softirqs, RCU, the active→executing
 * ("runqueue") wakeup latency, and the net mid-tier latency. This
 * module provides the same eight-category recorder for userspace
 * analogues (and for simkernel, which models the in-kernel ones):
 *
 *   - ActiveExe is measured at every instrumented condvar wakeup as
 *     (time waiter resumes) − (time of the releasing notify), the
 *     userspace-visible equivalent of runqlat.
 *   - Block is the full blocked interval of a waiter.
 *   - NetTx / NetRx are the synchronous time spent inside socket
 *     send/receive syscalls at the transport layer.
 *   - Sched is recorded around yield points / dispatch hops.
 *   - Hardirq and RCU are invisible to userspace; real-mode benches
 *     leave them empty and simkernel fills them from its IRQ model.
 *   - Net is the net mid-tier residence time of a request.
 *
 * Recording is wait-free on the hot path: each thread owns a local set
 * of histograms registered with the global recorder and merged at
 * collection time. A thread's set is retired when the thread exits:
 * its samples fold into one retained set that the next collect()
 * merges, so the registry holds live threads only.
 */

#ifndef MUSUITE_OSTRACE_OSTRACE_H
#define MUSUITE_OSTRACE_OSTRACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/threading.h"
#include "stats/histogram.h"

namespace musuite {

/** The eight categories of Figs. 15-18. */
enum class OsCategory : uint8_t {
    Hardirq = 0,
    NetTx,
    NetRx,
    Block,
    Sched,
    Rcu,
    ActiveExe,
    Net,
};

constexpr size_t numOsCategories = 8;

/** Display name matching the paper's x-axis labels. */
const char *osCategoryName(OsCategory category);

/** All categories in display order. */
std::array<OsCategory, numOsCategories> allOsCategories();

/**
 * Global recorder of per-category latency distributions. One instance
 * serves the whole process; windows are delimited by collect(), which
 * merges and then clears every thread's local histograms. A recorder
 * must outlive every thread that records into it.
 */
class OsTraceRecorder
{
  public:
    OsTraceRecorder();
    ~OsTraceRecorder();

    /** Record one latency sample into a category (wait-free). */
    void record(OsCategory category, int64_t latency_ns);

    /**
     * Merge all thread-local histograms and return a copy per
     * category, then reset for the next window.
     */
    std::array<Histogram, numOsCategories> collect();

    /** Drop all recorded samples. */
    void reset();

    /** Globally enable/disable recording (cheap relaxed load). */
    void setEnabled(bool enabled);
    bool isEnabled() const;

    /** Threads whose local histograms are registered (live ones). */
    size_t registeredThreads();

  private:
    struct LocalRecorder;
    struct ThreadSlot;

    LocalRecorder &localRecorder();

    /** Fold an exiting thread's samples into `retired`; unregister. */
    void retire(const std::shared_ptr<LocalRecorder> &local);

    Mutex registryMutex{LockRank::osTraceRegistry, "ostrace.registry"};
    std::vector<std::shared_ptr<LocalRecorder>> locals
        GUARDED_BY(registryMutex);
    /** Samples of exited threads not yet collected. */
    std::array<std::optional<Histogram>, numOsCategories> retired
        GUARDED_BY(registryMutex);
    std::atomic<bool> enabled{true};
};

/** The process-wide recorder. */
OsTraceRecorder &osTrace();

/** Convenience: record into the global recorder. */
inline void
recordOs(OsCategory category, int64_t latency_ns)
{
    osTrace().record(category, latency_ns);
}

} // namespace musuite

#endif // MUSUITE_OSTRACE_OSTRACE_H
