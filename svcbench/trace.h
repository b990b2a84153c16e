/**
 * @file
 * Timing shims for the traced run. Nothing here changes the service
 * code: the traced deployment (deploy.h) wraps the public seams.
 *
 *  - installShims() registers, on a started outer rpc::Server, one
 *    handler per method that forwards to the real handler registered
 *    on an *unstarted* inner rpc::Server through invokeLocal. The shim
 *    reads ServerCall::arrivalNanos() for queue wait, times the
 *    handler, and wraps the responder to time the response.
 *  - TimedChannel decorates every mid-tier→leaf rpc::Channel and times
 *    each leg from transportCall to its completion callback.
 *
 * A mid-tier shim publishes the front-end request id in a thread-local
 * while the real handler runs; fan-out legs are issued on that worker
 * thread, so each leg records the request it belongs to. Spans go into
 * per-thread buffers and are collected once the traced deployment has
 * been torn down (its threads joined).
 */

#ifndef SVCBENCH_TRACE_H
#define SVCBENCH_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rpc/channel.h"
#include "rpc/server.h"

namespace svcbench {

/** Mid-tier request as seen at handler entry/return (monotonic ns). */
struct MidStart
{
    uint64_t id = 0;      //!< Front-end wire request id.
    int64_t arrival = 0;  //!< Request frame parsed by the poller.
    int64_t start = 0;    //!< Real handler entered (worker thread).
    int64_t ret = 0;      //!< Real handler returned.
};

/** Mid-tier response handed to the wire responder. */
struct MidEnd
{
    uint64_t id = 0;
    int64_t respond = 0;
};

/** One mid-tier→leaf leg. */
struct LegSpan
{
    uint64_t parent = 0; //!< MidStart::id; 0 = issued off-handler.
    int64_t start = 0;   //!< transportCall entered.
    int64_t end = 0;     //!< Completion callback entered.
    bool ok = false;
};

/** One leaf request. */
struct LeafSpan
{
    int64_t arrival = 0;
    int64_t start = 0;
    int64_t end = 0;   //!< Response handed to the wire responder.
    int8_t kvOp = -1;  //!< Router leaves: 0 get, 1 set; else -1.
};

/** Every span recorded so far, merged across threads. */
struct SpanSet
{
    std::vector<MidStart> midStarts;
    std::vector<MidEnd> midEnds;
    std::vector<LegSpan> legs;
    std::vector<LeafSpan> leaves;
};

/**
 * Move out all spans recorded so far. Call only once every recording
 * thread has been joined (the traced deployment destroyed).
 */
SpanSet collectSpans();

/** What a shimmed server is, which decides the spans it records. */
enum class Tier
{
    Mid,    //!< MidStart/MidEnd + thread-local parent id for legs.
    Leaf,   //!< LeafSpan.
    KvLeaf, //!< LeafSpan tagged with the router get/set op.
};

/**
 * Register on `outer` a timing shim per method that forwards to the
 * handler `inner` holds for it. `inner` must stay unstarted and
 * outlive `outer`'s traffic.
 */
void installShims(musuite::rpc::Server &outer,
                  musuite::rpc::Server &inner,
                  const std::vector<uint32_t> &methods, Tier tier);

/** Channel decorator timing every attempt as a LegSpan. */
class TimedChannel final : public musuite::rpc::Channel
{
  public:
    explicit TimedChannel(std::shared_ptr<musuite::rpc::Channel> inner)
        : inner(std::move(inner))
    {}

    bool isHealthy() const override { return inner->isHealthy(); }
    void corkWrites() override { inner->corkWrites(); }
    void uncorkWrites() override { inner->uncorkWrites(); }

  protected:
    void transportCall(uint32_t method, std::string body,
                       Callback callback) override;
    void transportCall(uint32_t method, std::string body,
                       int64_t budget_ns, Callback callback) override;

  private:
    std::shared_ptr<musuite::rpc::Channel> inner;
};

} // namespace svcbench

#endif // SVCBENCH_TRACE_H
