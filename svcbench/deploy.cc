/**
 * @file
 * Untraced and traced deployments. The traced wiring mirrors
 * harness/deployment.cc service by service; trace.overhead_frac is
 * where a drift between the two would show.
 */

#include "deploy.h"

#include <functional>
#include <string>
#include <vector>

#include "base/logging.h"
#include "services/router/leaf.h"
#include "services/router/proto.h"
#include "services/setalgebra/leaf.h"
#include "services/setalgebra/midtier.h"
#include "services/setalgebra/proto.h"
#include "trace.h"

namespace svcbench {

using namespace musuite;

DeploymentOptions
benchOptions()
{
    DeploymentOptions options;
    options.leafShards = 4;
    options.corpus.numDocuments = 6000;
    options.ratings.users = 160;
    options.ratings.items = 120;
    options.kv.numKeys = 20000;
    options.prepopulateKeys = 4000;
    return options;
}

namespace {

class Shipping final : public Running
{
  public:
    explicit Shipping(std::unique_ptr<ServiceDeployment> deployment)
        : deployment(std::move(deployment))
    {}
    uint16_t port() const override { return deployment->midTierPort(); }

  private:
    std::unique_ptr<ServiceDeployment> deployment;
};

/** A started server whose handlers are shims over an unstarted one. */
struct ShimmedServer
{
    std::unique_ptr<rpc::Server> inner;
    std::unique_ptr<rpc::Server> outer;
};

/**
 * Traced deployment: every server is a ShimmedServer, every
 * mid-tier→leaf channel a TimedChannel. Service objects are kept in
 * `parts` (type-erased) and destroyed after all threads have stopped.
 */
class Traced final : public Running
{
  public:
    ~Traced() override
    {
        if (mid.outer)
            mid.outer->stop();
        for (ShimmedServer &leaf : leaves)
            leaf.outer->stop();
        channels.clear();
        parts.clear(); // Mid-tier logic holds the last channel refs.
    }

    uint16_t port() const override { return mid.outer->port(); }

    /** Start `count` leaves; `make(i, server)` registers leaf i. */
    void
    addLeaves(const DeploymentOptions &options, uint32_t count,
              uint32_t method, Tier tier,
              const std::function<void(uint32_t, rpc::Server &)> &make)
    {
        for (uint32_t i = 0; i < count; ++i) {
            rpc::ServerOptions server_options = options.leafServer;
            server_options.name = "leaf" + std::to_string(i);
            leaves.push_back(shimmed(server_options, method, tier,
                                     [&](rpc::Server &server) {
                                         make(i, server);
                                     }));
            rpc::ClientOptions client_options = options.midToLeafClient;
            client_options.name = "m2l" + std::to_string(i);
            channels.push_back(std::make_shared<TimedChannel>(
                std::make_shared<rpc::RpcClient>(
                    leaves.back().outer->port(), client_options)));
        }
    }

    /** Start the mid-tier; `make(server)` registers its logic. */
    void
    addMidTier(const DeploymentOptions &options, uint32_t method,
               const std::function<void(rpc::Server &)> &make)
    {
        rpc::ServerOptions server_options = options.midTierServer;
        if (server_options.name == "mid")
            server_options.name = "midtier";
        mid = shimmed(server_options, method, Tier::Mid, make);
    }

    template <typename T, typename... Args>
    T &
    own(Args &&...args)
    {
        auto part = std::make_shared<T>(std::forward<Args>(args)...);
        parts.push_back(part);
        return *part;
    }

    std::vector<std::shared_ptr<rpc::Channel>> channels;

  private:
    static ShimmedServer
    shimmed(const rpc::ServerOptions &server_options, uint32_t method,
            Tier tier, const std::function<void(rpc::Server &)> &make)
    {
        ShimmedServer server;
        server.inner = std::make_unique<rpc::Server>(server_options);
        make(*server.inner);
        server.outer = std::make_unique<rpc::Server>(server_options);
        installShims(*server.outer, *server.inner, {method}, tier);
        server.outer->start();
        return server;
    }

    std::vector<std::shared_ptr<void>> parts;
    std::vector<ShimmedServer> leaves;
    ShimmedServer mid;
};

std::unique_ptr<Running>
tracedRouter(const DeploymentOptions &options)
{
    auto traced = std::make_unique<Traced>();
    const uint32_t shards =
        options.routerDefaultShards ? 16 : options.leafShards;
    std::vector<router::Leaf *> leaves;
    traced->addLeaves(options, shards, router::kLeafOp, Tier::KvLeaf,
                      [&](uint32_t, rpc::Server &server) {
                          leaves.push_back(&traced->own<router::Leaf>());
                          leaves.back()->registerWith(server);
                      });
    router::MidTierOptions router_options = options.routerMidTier;
    if (router_options.fanout.leg.plain() &&
        router_options.fanout.quorumFraction >= 1.0) {
        router_options.fanout = options.midTierFanout;
    }
    auto &logic =
        traced->own<router::MidTier>(traced->channels, router_options);
    traced->addMidTier(options, router::kRoute, [&](rpc::Server &server) {
        logic.registerWith(server);
    });

    // Prepopulate exactly as the shipping deployment does.
    const KvWorkload workload(options.kv);
    const size_t count =
        std::min<size_t>(options.prepopulateKeys, workload.keyCount());
    for (size_t i = 0; i < count; ++i) {
        const std::string key = workload.keyAt(i);
        const std::string value = workload.valueFor(key);
        for (uint32_t leaf : logic.replicaPool(key))
            leaves[leaf]->cache().set(key, value);
    }
    return traced;
}

std::unique_ptr<Running>
tracedSetAlgebra(const DeploymentOptions &options)
{
    auto traced = std::make_unique<Traced>();
    const TextCorpus corpus(options.corpus);
    const uint32_t shards = options.leafShards;
    std::vector<std::vector<std::vector<uint32_t>>> shard_docs(shards);
    std::vector<std::vector<uint32_t>> shard_ids(shards);
    const auto &docs = corpus.documents();
    for (uint32_t d = 0; d < docs.size(); ++d) {
        shard_docs[d % shards].push_back(docs[d]);
        shard_ids[d % shards].push_back(d);
    }
    traced->addLeaves(
        options, shards, setalgebra::kIntersect, Tier::Leaf,
        [&](uint32_t i, rpc::Server &server) {
            traced
                ->own<setalgebra::Leaf>(std::make_unique<InvertedIndex>(
                    shard_docs[i], shard_ids[i], options.stopTerms))
                .registerWith(server);
        });
    auto &logic = traced->own<setalgebra::MidTier>(traced->channels,
                                                   options.midTierFanout);
    traced->addMidTier(options, setalgebra::kSearch,
                       [&](rpc::Server &server) {
                           logic.registerWith(server);
                       });
    return traced;
}

} // namespace

std::unique_ptr<Running>
deploy(ServiceKind kind, const DeploymentOptions &options, bool traced)
{
    if (!traced) {
        return std::make_unique<Shipping>(
            ServiceDeployment::create(kind, options));
    }
    switch (kind) {
      case ServiceKind::Router:     return tracedRouter(options);
      case ServiceKind::SetAlgebra: return tracedSetAlgebra(options);
      case ServiceKind::HdSearch:
      case ServiceKind::Recommend:  break;
    }
    MUSUITE_PANIC() << "no traced deployment for " << serviceName(kind);
    return nullptr;
}

} // namespace svcbench
