/**
 * @file
 * Multi-host sim topologies: instantiate a whole N-tier deployment
 * from a declarative GraphScenario in one call.
 *
 * Before this helper, every sim test wired its servers, channels, and
 * fault injectors by hand (see tests/sim_replay_test's fan-out
 * scenario). buildTopology() turns a GraphScenario — tiers of fan-out
 * widths, compute models, link latency *distributions*, and fault
 * shapes — into a tree of unstarted rpc::Servers hosting GraphNodes,
 * wired parent-to-child through SimChannels on one SimClock. The
 * returned Topology owns everything; driveRootLoad() drives open-loop
 * traffic through `root` (a client-side SimChannel to the root node)
 * and pumps the clock.
 *
 * Determinism: all per-entity randomness (link jitter samplers, node
 * cache RNGs, fault injectors) derives from scenario.seed mixed with
 * the entity's tier/index, so (spec, seed) fully determines a replay.
 */

#ifndef MUSUITE_SIMKERNEL_TOPOLOGY_H
#define MUSUITE_SIMKERNEL_TOPOLOGY_H

#include <functional>
#include <memory>
#include <vector>

#include "base/status.h"
#include "loadgen/scenario.h"
#include "rpc/fault.h"
#include "rpc/health.h"
#include "services/graph/node.h"
#include "services/graph/proto.h"
#include "services/graph/scenario.h"
#include "simkernel/sim_transport.h"
#include "simkernel/simclock.h"

namespace musuite {
namespace sim {

/** One simulated host: an unstarted server running one graph node. */
struct SimHost
{
    std::unique_ptr<rpc::Server> server;
    std::unique_ptr<graph::GraphNode> node;
};

/** One parent->child link in the built tree, addressable by where it
 *  sits in the scenario: `parentTier` is the parent's depth (so the
 *  link belongs to stage `parentTier` of the scenario), `childOffset`
 *  the child's index inside that parent's fan-out group. The chaos
 *  campaign (simkernel/chaos.h) targets links through this registry
 *  to install fault injectors or cut the link mid-run. */
struct LinkRef
{
    size_t parentTier = 0;
    size_t parentIndex = 0;
    uint32_t childOffset = 0;
    size_t childIndex = 0;
    SimChannel *channel = nullptr;
};

struct Topology
{
    /** tiers[0] holds the single root host; tiers[d] the hosts at
     *  depth d. Hosts own their nodes; nodes own child channels. */
    std::vector<std::vector<std::unique_ptr<SimHost>>> tiers;
    /** Fault injectors installed on faulted links (inspection). */
    std::vector<std::shared_ptr<rpc::FaultInjector>> injectors;
    /** Every parent->child link, in construction order. The channels
     *  are owned by the parent nodes; refs stay valid for the
     *  Topology's lifetime. */
    std::vector<LinkRef> links;
    /** Outlier-ejection policies, one per parent of a stage with
     *  ejectOutliers set (construction order) — inspect for
     *  ejections()/lastEjectAtNs() in benches and tests. */
    std::vector<std::shared_ptr<rpc::EjectionPolicy>> ejectionPolicies;
    /** Client-side channel into the root node. */
    std::shared_ptr<rpc::Channel> root;

    size_t
    nodeCount() const
    {
        size_t total = 0;
        for (const auto &tier : tiers)
            total += tier.size();
        return total;
    }

    graph::GraphNode &
    rootNode() const
    {
        return *tiers.front().front()->node;
    }
};

/**
 * Build the scenario's tree on `clock`. `root_link` shapes the
 * client->root link (constant 50us each way by default). All servers
 * are constructed under a ScopedClock binding `clock`, per the
 * SimChannel contract.
 */
Topology buildTopology(SimClock &clock,
                       const graph::GraphScenario &scenario,
                       SimLink root_link = {});

/** One root request's outcome, as handed to a driveRootLoad()
 *  observer. */
struct RootCompletion
{
    size_t index = 0;         //!< Position in the arrival schedule.
    int64_t startNs = 0;      //!< Scheduled send instant.
    int64_t doneNs = 0;       //!< When the root's answer arrived.
    Status status;
    graph::GraphReply reply;  //!< Decoded when status is OK.
};

/** What driveRootLoad() saw besides the completions themselves. */
struct RootLoadTotals
{
    size_t offered = 0;         //!< Arrivals in the schedule.
    size_t lostCompletions = 0; //!< Arrivals that never completed.
    size_t leakedTimers = 0;    //!< Timers still armed once idle.
};

/**
 * Drive `topo` with open-loop root load and pump `clock` until idle.
 *
 * Arrivals are arrivalSchedule(shape, duration_ns, seed * 131 + 7),
 * as offsets from the clock's current instant, so coordinated
 * omission cannot hide a stall. Each arrival issues one graph::kProcess
 * call through `topo.root` with the shared root CallOptions: a
 * `root_deadline_ns` total budget, 2 attempts, 2ms backoff with 20%
 * jitter seeded seed * 977 + 11 + index. Every completion is handed to
 * `observe`, in virtual-time order, before this returns.
 */
RootLoadTotals driveRootLoad(
    SimClock &clock, const Topology &topo,
    const loadgen::LoadShape &shape, int64_t duration_ns,
    int64_t root_deadline_ns, uint64_t seed,
    const std::function<void(const RootCompletion &)> &observe);

} // namespace sim
} // namespace musuite

#endif // MUSUITE_SIMKERNEL_TOPOLOGY_H
