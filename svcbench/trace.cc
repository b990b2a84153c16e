/**
 * @file
 * Implementation of the span buffers and timing shims.
 */

#include "trace.h"

#include <mutex>

#include "base/time_util.h"

namespace svcbench {

using musuite::nowNanos;
using musuite::StatusCode;
using musuite::rpc::Server;
using musuite::rpc::ServerCall;
using musuite::rpc::ServerCallPtr;

namespace {

/** Owns every thread's buffer so spans outlive their threads. */
struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<SpanSet>> buffers;
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

SpanSet &
localSpans()
{
    thread_local SpanSet *local = nullptr;
    if (!local) {
        auto owned = std::make_unique<SpanSet>();
        local = owned.get();
        std::lock_guard<std::mutex> guard(registry().mutex);
        registry().buffers.push_back(std::move(owned));
    }
    return *local;
}

/** Front-end request id of the mid-tier handler running here. */
thread_local uint64_t currentParent = 0;

template <typename T>
void
appendAll(std::vector<T> &into, std::vector<T> &from)
{
    into.insert(into.end(), from.begin(), from.end());
    from.clear();
}

int8_t
kvOpOf(const std::string &body)
{
    // router::KvRequest leads with its op as a one-byte varint.
    return body.empty() ? -1 : int8_t(body[0]);
}

} // namespace

SpanSet
collectSpans()
{
    SpanSet all;
    std::lock_guard<std::mutex> guard(registry().mutex);
    for (auto &buffer : registry().buffers) {
        appendAll(all.midStarts, buffer->midStarts);
        appendAll(all.midEnds, buffer->midEnds);
        appendAll(all.legs, buffer->legs);
        appendAll(all.leaves, buffer->leaves);
    }
    return all;
}

void
installShims(Server &outer, Server &inner,
             const std::vector<uint32_t> &methods, Tier tier)
{
    for (uint32_t method : methods) {
        outer.registerHandler(method, [&inner, method,
                                       tier](ServerCallPtr call) {
            const int64_t start = nowNanos();
            const int64_t arrival = call->arrivalNanos();
            const int64_t budget = call->remainingBudgetNs();
            if (tier == Tier::Mid) {
                const uint64_t id = call->requestId();
                ServerCall::Responder responder =
                    [call, id](StatusCode code, std::string_view payload,
                               int64_t retry_after_ns) {
                        localSpans().midEnds.push_back({id, nowNanos()});
                        call->respond(code, payload, retry_after_ns);
                    };
                currentParent = id;
                inner.invokeLocal(method, call->body(), budget,
                                  std::move(responder));
                currentParent = 0;
                localSpans().midStarts.push_back(
                    {id, arrival, start, nowNanos()});
                return;
            }
            const int8_t op =
                tier == Tier::KvLeaf ? kvOpOf(call->body()) : -1;
            ServerCall::Responder responder =
                [call, arrival, start, op](StatusCode code,
                                           std::string_view payload,
                                           int64_t retry_after_ns) {
                    localSpans().leaves.push_back(
                        {arrival, start, nowNanos(), op});
                    call->respond(code, payload, retry_after_ns);
                };
            inner.invokeLocal(method, call->body(), budget,
                              std::move(responder));
        });
    }
}

void
TimedChannel::transportCall(uint32_t method, std::string body,
                            Callback callback)
{
    transportCall(method, std::move(body), 0, std::move(callback));
}

void
TimedChannel::transportCall(uint32_t method, std::string body,
                            int64_t budget_ns, Callback callback)
{
    const uint64_t parent = currentParent;
    const int64_t start = nowNanos();
    inner->attemptCall(
        method, std::move(body), budget_ns,
        [parent, start, callback = std::move(callback)](
            const musuite::Status &status, std::string_view payload) {
            localSpans().legs.push_back(
                {parent, start, nowNanos(), status.isOk()});
            callback(status, payload);
        });
}

} // namespace svcbench
