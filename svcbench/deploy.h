/**
 * @file
 * The deployments a run drives. The untraced run uses the shipping
 * musuite::ServiceDeployment; the traced run rebuilds the same service
 * from its public parts with the same DeploymentOptions, putting the
 * trace.h shims around every server handler and mid-tier→leaf channel.
 */

#ifndef SVCBENCH_DEPLOY_H
#define SVCBENCH_DEPLOY_H

#include <cstdint>
#include <memory>

#include "harness/deployment.h"

namespace svcbench {

/**
 * Real-mode scale of the figure benches (their realModeOptions()
 * defaults): 4 leaves, 6000 documents, 20000 keys with 4000
 * prepopulated; Router keeps its 16 leaves × 3 replicas.
 */
musuite::DeploymentOptions benchOptions();

/** A running service the front end dials. */
class Running
{
  public:
    virtual ~Running() = default;
    virtual uint16_t port() const = 0;
};

/** Bring up a service: the shipping deployment, or the traced one. */
std::unique_ptr<Running> deploy(musuite::ServiceKind kind,
                                const musuite::DeploymentOptions &options,
                                bool traced);

} // namespace svcbench

#endif // SVCBENCH_DEPLOY_H
