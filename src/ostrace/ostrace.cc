/**
 * @file
 * Implementation of the per-category OS-overhead recorder.
 */

#include "ostrace/ostrace.h"

#include <algorithm>
#include <atomic>

namespace musuite {

const char *
osCategoryName(OsCategory category)
{
    switch (category) {
      case OsCategory::Hardirq:   return "Hardirq";
      case OsCategory::NetTx:     return "Net_tx";
      case OsCategory::NetRx:     return "Net_rx";
      case OsCategory::Block:     return "Block";
      case OsCategory::Sched:     return "Sched";
      case OsCategory::Rcu:       return "RCU";
      case OsCategory::ActiveExe: return "Active-Exe";
      case OsCategory::Net:       return "Net";
    }
    return "?";
}

std::array<OsCategory, numOsCategories>
allOsCategories()
{
    return {OsCategory::Hardirq, OsCategory::NetTx, OsCategory::NetRx,
            OsCategory::Block, OsCategory::Sched, OsCategory::Rcu,
            OsCategory::ActiveExe, OsCategory::Net};
}

struct OsTraceRecorder::LocalRecorder
{
    LocalRecorder()
    {
        for (auto &hist : histograms)
            hist.emplace(4); // Coarser precision keeps locals small.
    }

    Mutex mutex{LockRank::osTraceLocal,
                "ostrace.local"}; // Only contended against collect().
    // Optional-wrapped so construction picks the precision.
    std::array<std::optional<Histogram>, numOsCategories> histograms
        GUARDED_BY(mutex);
};

/** The calling thread's recorder, retired into its owner at exit. */
struct OsTraceRecorder::ThreadSlot
{
    OsTraceRecorder *owner = nullptr;
    std::shared_ptr<LocalRecorder> local;

    ~ThreadSlot()
    {
        if (owner)
            owner->retire(local);
    }
};

OsTraceRecorder::OsTraceRecorder()
{
    MutexLock guard(registryMutex);
    for (auto &hist : retired)
        hist.emplace(4);
}

OsTraceRecorder::~OsTraceRecorder() = default;

OsTraceRecorder::LocalRecorder &
OsTraceRecorder::localRecorder()
{
    thread_local ThreadSlot slot;
    if (!slot.local) {
        slot.local = std::make_shared<LocalRecorder>();
        slot.owner = this;
        MutexLock guard(registryMutex);
        locals.push_back(slot.local);
    }
    return *slot.local;
}

void
OsTraceRecorder::retire(const std::shared_ptr<LocalRecorder> &local)
{
    MutexLock registry_guard(registryMutex);
    {
        MutexLock guard(local->mutex);
        for (size_t c = 0; c < numOsCategories; ++c)
            retired[c]->merge(*local->histograms[c]);
    }
    locals.erase(std::find(locals.begin(), locals.end(), local));
}

size_t
OsTraceRecorder::registeredThreads()
{
    MutexLock guard(registryMutex);
    return locals.size();
}

void
OsTraceRecorder::record(OsCategory category, int64_t latency_ns)
{
    if (!enabled.load(std::memory_order_relaxed))
        return;
    LocalRecorder &local = localRecorder();
    MutexLock guard(local.mutex);
    local.histograms[size_t(category)]->record(latency_ns);
}

std::array<Histogram, numOsCategories>
OsTraceRecorder::collect()
{
    std::array<Histogram, numOsCategories> merged{
        Histogram(4), Histogram(4), Histogram(4), Histogram(4),
        Histogram(4), Histogram(4), Histogram(4), Histogram(4)};
    MutexLock registry_guard(registryMutex);
    for (size_t c = 0; c < numOsCategories; ++c) {
        merged[c].merge(*retired[c]);
        retired[c]->reset();
    }
    for (auto &local : locals) {
        MutexLock guard(local->mutex);
        for (size_t c = 0; c < numOsCategories; ++c) {
            merged[c].merge(*local->histograms[c]);
            local->histograms[c]->reset();
        }
    }
    return merged;
}

void
OsTraceRecorder::reset()
{
    (void)collect();
}

void
OsTraceRecorder::setEnabled(bool on)
{
    enabled.store(on, std::memory_order_relaxed);
}

bool
OsTraceRecorder::isEnabled() const
{
    return enabled.load(std::memory_order_relaxed);
}

OsTraceRecorder &
osTrace()
{
    // Never destroyed: threads owned by other statics (the shared
    // timer thread) retire their recorders during static destruction.
    static OsTraceRecorder *recorder = new OsTraceRecorder();
    return *recorder;
}

} // namespace musuite
