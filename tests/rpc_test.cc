/**
 * @file
 * Integration and unit tests for the murpc layer: framing, header
 * codec, echo round-trips over real loopback TCP, asynchronous
 * completion, dispatch vs inline execution, multi-client concurrency,
 * error propagation, connection-failure handling, and the per-round
 * write batch on servers and clients.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "base/threading.h"
#include "base/time_util.h"
#include "net/frame.h"
#include "net/socket.h"
#include "ostrace/syscalls.h"
#include "rpc/client.h"
#include "rpc/local_channel.h"
#include "rpc/message.h"
#include "rpc/overload.h"
#include "rpc/server.h"

namespace musuite {
namespace rpc {
namespace {

constexpr uint32_t kEcho = 1;
constexpr uint32_t kReverse = 2;
constexpr uint32_t kFail = 3;
constexpr uint32_t kAsyncEcho = 4;

/** Server preconfigured with a few toy methods. */
class RpcTest : public ::testing::Test
{
  protected:
    void
    startServer(ServerOptions options = {})
    {
        server = std::make_unique<Server>(options);
        server->registerHandler(kEcho, [](ServerCallPtr call) {
            call->respondOk(call->body());
        });
        server->registerHandler(kReverse, [](ServerCallPtr call) {
            std::string reversed(call->body().rbegin(),
                                 call->body().rend());
            call->respondOk(reversed);
        });
        server->registerHandler(kFail, [](ServerCallPtr call) {
            call->respond(StatusCode::NotFound, "nope");
        });
        server->registerHandler(kAsyncEcho, [this](ServerCallPtr call) {
            // Complete from a different thread, as mid-tiers do. The
            // handler runs on a server worker, so the fixture vector
            // needs a lock against TearDown and concurrent handlers.
            MutexLock lock(asyncMutex);
            asyncWorkers.emplace_back("async-reply", [call] {
                call->respondOk(call->body());
            });
        });
        server->start();
    }

    void
    TearDown() override
    {
        {
            MutexLock lock(asyncMutex);
            asyncWorkers.clear(); // Joins the reply threads.
        }
        server.reset();
    }

    std::unique_ptr<Server> server;
    Mutex asyncMutex;
    std::vector<ScopedThread> asyncWorkers GUARDED_BY(asyncMutex);
};

TEST(MessageHeaderTest, RoundTrip)
{
    MessageHeader header;
    header.kind = MessageKind::Response;
    header.status = StatusCode::DeadlineExceeded;
    header.method = 0xDEADBEEF;
    header.requestId = 0x0123456789ABCDEFull;
    const std::string frame = encodeFrame(header, "payload");

    MessageHeader parsed;
    std::string_view payload;
    ASSERT_TRUE(decodeFrame(frame, parsed, payload));
    EXPECT_EQ(parsed.kind, MessageKind::Response);
    EXPECT_EQ(parsed.status, StatusCode::DeadlineExceeded);
    EXPECT_EQ(parsed.method, 0xDEADBEEFu);
    EXPECT_EQ(parsed.requestId, 0x0123456789ABCDEFull);
    EXPECT_EQ(payload, "payload");
}

TEST(MessageHeaderTest, RejectsTruncatedFrames)
{
    MessageHeader parsed;
    std::string_view payload;
    EXPECT_FALSE(decodeFrame("short", parsed, payload));
    EXPECT_FALSE(decodeFrame("", parsed, payload));
}

TEST(MessageHeaderTest, RejectsGarbageKind)
{
    std::string frame(MessageHeader::wireSize, '\xFF');
    MessageHeader parsed;
    std::string_view payload;
    EXPECT_FALSE(decodeFrame(frame, parsed, payload));
}

TEST_F(RpcTest, SyncEchoOverTcp)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "hello microservices");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value(), "hello microservices");
}

TEST_F(RpcTest, ReverseHandler)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kReverse, "abcdef");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "fedcba");
}

TEST_F(RpcTest, EmptyPayload)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "");
}

TEST_F(RpcTest, LargePayloadRoundTrip)
{
    startServer();
    RpcClient client(server->port());
    std::string big(3 * 1024 * 1024, 'x');
    for (size_t i = 0; i < big.size(); i += 4096)
        big[i] = char('a' + (i / 4096) % 26);
    auto result = client.callSync(kEcho, big);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), big);
}

TEST_F(RpcTest, ErrorStatusPropagates)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kFail, "q");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

TEST_F(RpcTest, UnknownMethodIsUnimplemented)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(999, "q");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unimplemented);
}

TEST_F(RpcTest, AsynchronousCompletionFromOtherThread)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kAsyncEcho, "deferred");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "deferred");
}

TEST_F(RpcTest, ManyConcurrentCallsMultiplexed)
{
    startServer();
    RpcClient client(server->port());

    constexpr int calls = 200;
    std::atomic<int> completed{0};
    std::atomic<int> mismatched{0};
    CountdownLatch latch(calls);
    for (int i = 0; i < calls; ++i) {
        std::string body = "msg-" + std::to_string(i);
        client.call(kEcho, body,
                    [&, expect = body](const Status &status,
                                       std::string_view payload) {
                        if (status.isOk() && payload == expect)
                            completed.fetch_add(1);
                        else
                            mismatched.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(completed.load(), calls);
    EXPECT_EQ(mismatched.load(), 0);
}

TEST_F(RpcTest, InlineExecutionMode)
{
    ServerOptions options;
    options.dispatchToWorkers = false;
    options.workerThreads = 0;
    startServer(options);
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "inline");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "inline");
}

TEST_F(RpcTest, MultiplePollerAndWorkerThreads)
{
    ServerOptions options;
    options.pollerThreads = 2;
    options.workerThreads = 4;
    startServer(options);

    ClientOptions client_options;
    client_options.connections = 4;
    client_options.completionThreads = 2;
    RpcClient client(server->port(), client_options);

    constexpr int calls = 300;
    std::atomic<int> completed{0};
    CountdownLatch latch(calls);
    for (int i = 0; i < calls; ++i) {
        client.call(kReverse, "abc",
                    [&](const Status &status, std::string_view payload) {
                        if (status.isOk() && payload == "cba")
                            completed.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(completed.load(), calls);
}

TEST_F(RpcTest, MultipleClientsShareServer)
{
    startServer();
    std::vector<std::unique_ptr<RpcClient>> clients;
    for (int i = 0; i < 4; ++i)
        clients.push_back(std::make_unique<RpcClient>(server->port()));
    for (int round = 0; round < 5; ++round) {
        for (auto &client : clients) {
            auto result = client->callSync(kEcho, "ping");
            ASSERT_TRUE(result.isOk());
            EXPECT_EQ(result.value(), "ping");
        }
    }
    EXPECT_GE(server->requestsServed(), 20u);
}

TEST_F(RpcTest, ConnectToClosedPortIsUnavailable)
{
    // Grab a port by binding a listener, then close it.
    uint16_t dead_port;
    {
        TcpListener listener;
        dead_port = listener.port();
    }
    RpcClient client(dead_port);
    EXPECT_FALSE(client.isHealthy());
    auto result = client.callSync(kEcho, "void");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
}

TEST_F(RpcTest, ServerRestartAllowsReconnect)
{
    startServer();
    const uint16_t old_port = server->port();
    {
        RpcClient client(old_port);
        ASSERT_TRUE(client.callSync(kEcho, "x").isOk());
    }
    server.reset();
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "after-restart");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "after-restart");
}

TEST_F(RpcTest, LocalChannelBypassesTransport)
{
    startServer();
    LocalChannel channel(*server);
    auto result = channel.callSync(kReverse, "0123");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "3210");
}

TEST_F(RpcTest, LocalChannelErrorPropagates)
{
    startServer();
    LocalChannel channel(*server);
    auto result = channel.callSync(kFail, "");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

/** Parameterized sweep over server threading configurations. */
struct ThreadingParam
{
    int pollers;
    int workers;
    bool dispatch;
};

class RpcThreadingTest : public ::testing::TestWithParam<ThreadingParam>
{};

TEST_P(RpcThreadingTest, EchoUnderEveryThreadingModel)
{
    const ThreadingParam param = GetParam();
    ServerOptions options;
    options.pollerThreads = param.pollers;
    options.workerThreads = param.workers;
    options.dispatchToWorkers = param.dispatch;

    Server server(options);
    server.registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server.start();

    RpcClient client(server.port());
    constexpr int calls = 64;
    std::atomic<int> completed{0};
    CountdownLatch latch(calls);
    for (int i = 0; i < calls; ++i) {
        client.call(kEcho, std::to_string(i),
                    [&, expect = std::to_string(i)](
                        const Status &status, std::string_view payload) {
                        if (status.isOk() && payload == expect)
                            completed.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(completed.load(), calls);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadingModels, RpcThreadingTest,
    ::testing::Values(ThreadingParam{1, 1, true},
                      ThreadingParam{1, 4, true},
                      ThreadingParam{2, 2, true},
                      ThreadingParam{4, 8, true},
                      ThreadingParam{1, 0, false},
                      ThreadingParam{2, 0, false}),
    [](const ::testing::TestParamInfo<ThreadingParam> &info) {
        const auto &p = info.param;
        return "p" + std::to_string(p.pollers) + "_w" +
               std::to_string(p.workers) +
               (p.dispatch ? "_dispatch" : "_inline");
    });

TEST_F(RpcTest, PipelinedBatchSyscallBudget)
{
    // Locks in the coalescing win: a batched burst of pipelined calls
    // must cost a small constant number of sendmsg syscalls, not one
    // per request per side (the pre-batching cost: 2/request, so 32
    // for this batch). Inline mode keeps the response path
    // deterministic — all responses flush from the poller event.
    ServerOptions server_options;
    server_options.dispatchToWorkers = false;
    startServer(server_options);
    RpcClient client(server->port());
    ASSERT_TRUE(client.callSync(kEcho, "warm").isOk());

    constexpr int depth = 16;
    const std::string body(64, 'x');
    std::atomic<int> completed{0};
    CountdownLatch latch(depth);
    const auto before = snapshotSyscalls();
    {
        ScopedWriteBatch batch;
        for (int i = 0; i < depth; ++i) {
            client.call(kEcho, body,
                        [&](const Status &status, std::string_view) {
                            if (status.isOk())
                                completed.fetch_add(1);
                            latch.countDown();
                        });
        }
    }
    latch.wait();
    const auto after = snapshotSyscalls();
    EXPECT_EQ(completed.load(), depth);

    const uint64_t sendmsgs =
        diffSyscalls(before, after)[size_t(Sys::Sendmsg)];
    EXPECT_GE(sendmsgs, 1u);
    EXPECT_LE(sendmsgs, 8u) << "coalescing regressed: " << sendmsgs
                            << " sendmsg for a " << depth
                            << "-deep pipelined batch";
}

TEST_F(RpcTest, DialBackoffPersistsAcrossFlappingDial)
{
    // Regression: the backoff used to reset the moment connect(2)
    // succeeded, so a flapping server — accepts, then drops the
    // connection before ever answering — saw a full-rate connect
    // storm. The slate may only be wiped by a real response.
    TcpListener listener;
    std::atomic<bool> stop{false};
    ScopedThread flapper("flapper", [&] {
        while (!stop.load()) {
            TcpSocket sock = listener.accept();
            if (sock.valid())
                sock.close(); // Accept-and-die.
            else
                sleepForNanos(200'000);
        }
    });

    ClientOptions client_options;
    client_options.reconnectBackoffNs = 50'000'000; // 50 ms.
    client_options.reconnectBackoffMaxNs = 1'000'000'000;
    RpcClient client(listener.port(), client_options);
    for (int i = 0; i < 100; ++i) {
        client.call(kEcho, "x",
                    [](const Status &, std::string_view) {});
        sleepForNanos(2'000'000);
    }
    stop.store(true);
    flapper.join();

    // 100 calls over >= 200 ms against 50 ms-doubling backoff: a
    // handful of dials. The broken reset-on-connect behaviour dialed
    // on nearly every call.
    EXPECT_GE(client.connectAttempts(), 1u);
    EXPECT_LE(client.connectAttempts(), 12u)
        << "connect storm: " << client.connectAttempts() << " dials";
}

TEST_F(RpcTest, OversizedPayloadFailsCallNotProcess)
{
    // Regression: an oversized outbound frame used to abort the
    // process. It must fail just that call and leave the connection
    // (and everything else) working.
    startServer();
    RpcClient client(server->port());
    std::string huge(size_t(FramedConnection::maxFrameBytes) + 64,
                     'x');
    auto result = client.callSync(kEcho, std::move(huge));
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);

    auto ok = client.callSync(kEcho, "after oversize");
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();
    EXPECT_EQ(ok.value(), "after oversize");
}

// ---- per-round write batch ------------------------------------------

/** Poll `done` for up to five seconds. */
bool
waitUntil(const std::function<bool()> &done)
{
    const int64_t deadline = nowNanos() + 5'000'000'000;
    while (!done()) {
        if (nowNanos() >= deadline)
            return false;
        sleepForNanos(1'000'000);
    }
    return true;
}

/** Admits everything and counts what it admitted. */
class CountingAdmission : public AdmissionController
{
  public:
    bool
    admit(size_t) override
    {
        admitted.fetch_add(1);
        return true;
    }

    std::atomic<int> admitted{0};
};

/** Holds calls unanswered until the test answers them. */
class HeldCalls
{
  public:
    void
    hold(ServerCallPtr call)
    {
        MutexLock lock(mutex);
        calls.push_back(std::move(call));
        count.fetch_add(1);
    }

    void
    answerAll()
    {
        std::vector<ServerCallPtr> taken;
        {
            MutexLock lock(mutex);
            taken.swap(calls);
        }
        for (const ServerCallPtr &call : taken)
            call->respondOk(call->body());
    }

    std::atomic<int> count{0};

  private:
    Mutex mutex;
    std::vector<ServerCallPtr> calls GUARDED_BY(mutex);
};

TEST(RoundBatchTest, WorkerRoundSendsLegsToOneLeafInOneSendmsg)
{
    // Requests drained in one worker round that each call the same
    // leaf share the round's batch: their legs reach the leaf in one
    // sendmsg, not one per request.
    constexpr uint32_t kGate = 10;
    constexpr uint32_t kHold = 11;
    constexpr uint32_t kForward = 12;
    constexpr int forwards = 8;

    HeldCalls leaf_calls;
    Server leaf;
    leaf.registerHandler(kEcho, [&](ServerCallPtr call) {
        leaf_calls.hold(std::move(call));
    });
    leaf.start();
    RpcClient to_leaf(leaf.port());

    auto admission = std::make_shared<CountingAdmission>();
    ServerOptions mid_options;
    mid_options.workerThreads = 1;
    mid_options.admission = admission;
    HeldCalls mid_calls;
    CountdownLatch gate_entered(1);
    CountdownLatch gate_open(1);
    Server mid(mid_options);
    mid.registerHandler(kGate, [&](ServerCallPtr call) {
        // Occupies the only worker while the forwards queue up.
        gate_entered.countDown();
        gate_open.wait();
        mid_calls.hold(std::move(call));
    });
    mid.registerHandler(kHold, [&](ServerCallPtr call) {
        mid_calls.hold(std::move(call));
    });
    mid.registerHandler(kForward, [&](ServerCallPtr call) {
        to_leaf.call(kEcho, call->body(),
                     [call](const Status &status, std::string_view body) {
                         call->respond(status.code(), body);
                     });
    });
    mid.start();

    RpcClient client(mid.port());
    std::atomic<int> answered{0};
    const auto count_answer = [&](const Status &status, std::string_view) {
        EXPECT_TRUE(status.isOk()) << status.toString();
        answered.fetch_add(1);
    };
    client.call(kGate, "gate", count_answer);
    gate_entered.wait();
    {
        ScopedWriteBatch burst;
        for (int i = 0; i < forwards; ++i)
            client.call(kForward, "leg-" + std::to_string(i), count_answer);
    }
    // EXPECT, not ASSERT, until the gate opens: returning with the
    // worker parked in the gate would hang the server's shutdown.
    EXPECT_TRUE(waitUntil(
        [&] { return admission->admitted == 1 + forwards; }));
    // The poller handles events in order and queues each event's
    // requests before the next: once this later request is admitted,
    // every forward is queued behind the gate.
    client.call(kHold, "sentinel", count_answer);
    EXPECT_TRUE(waitUntil(
        [&] { return admission->admitted == 2 + forwards; }));

    const auto before = snapshotSyscalls();
    gate_open.countDown();
    ASSERT_TRUE(waitUntil([&] { return leaf_calls.count == forwards; }));
    const auto after = snapshotSyscalls();
    EXPECT_EQ(diffSyscalls(before, after)[size_t(Sys::Sendmsg)], 1u)
        << "legs of one worker round left in separate syscalls";

    leaf_calls.answerAll();
    ASSERT_TRUE(waitUntil([&] { return answered == forwards; }));
    mid_calls.answerAll();
    ASSERT_TRUE(waitUntil([&] { return answered == forwards + 2; }));
}

TEST(RoundBatchTest, CallSyncInsideARoundDoesNotDeadlock)
{
    // callSync from a handler sends its request out of the thread's
    // batch before blocking: under both threading models the mid-tier
    // answers instead of waiting on a request it still holds.
    for (const bool dispatch : {true, false}) {
        SCOPED_TRACE(dispatch ? "worker" : "inline poller");
        Server leaf;
        leaf.registerHandler(kEcho, [](ServerCallPtr call) {
            call->respondOk(call->body());
        });
        leaf.start();
        RpcClient to_leaf(leaf.port());

        ServerOptions mid_options;
        mid_options.dispatchToWorkers = dispatch;
        mid_options.workerThreads = 1;
        Server mid(mid_options);
        mid.registerHandler(kEcho, [&](ServerCallPtr call) {
            auto result = to_leaf.callSync(kEcho, call->body());
            if (result.isOk())
                call->respondOk(result.value());
            else
                call->respond(result.status().code(), "");
        });
        mid.start();

        RpcClient client(mid.port());
        constexpr int requests = 4;
        std::atomic<int> ok{0};
        {
            // One burst, so several handlers share a round.
            ScopedWriteBatch burst;
            for (int i = 0; i < requests; ++i) {
                client.call(kEcho, "sync-" + std::to_string(i),
                            [&](const Status &status, std::string_view) {
                                if (status.isOk())
                                    ok.fetch_add(1);
                            });
            }
        }
        EXPECT_TRUE(waitUntil([&] { return ok == requests; }));
    }
}

TEST_F(RpcTest, ConnectionKilledWhileRoundHoldsFramesFailsCallsOnce)
{
    startServer();
    RpcClient client(server->port());
    ASSERT_TRUE(client.callSync(kEcho, "warm").isOk());

    constexpr int calls = 6;
    std::atomic<int> fired{0};
    std::atomic<int> unavailable{0};
    {
        ScopedWriteBatch round;
        for (int i = 0; i < calls; ++i) {
            client.call(kEcho, "held",
                        [&](const Status &status, std::string_view) {
                            fired.fetch_add(1);
                            if (status.code() == StatusCode::Unavailable)
                                unavailable.fetch_add(1);
                        });
        }
        EXPECT_EQ(ScopedWriteBatch::heldFrames(), size_t(calls));
        client.killConnections();
    }
    ASSERT_TRUE(waitUntil([&] { return fired == calls; }));
    sleepForNanos(50'000'000); // Room for a second completion to show.
    EXPECT_EQ(fired.load(), calls);
    EXPECT_EQ(unavailable.load(), calls);
    EXPECT_TRUE(client.callSync(kEcho, "after").isOk());
}

TEST(RoundBatchTest, PeerResetWhileRoundHoldsFramesFailsCallsOnce)
{
    // The peer resets the connection while the calls' frames are
    // still held. Whichever notices first — the completion thread
    // reading the reset, or the flush failing at scope close — the
    // pending table fails every call exactly once.
    TcpListener listener;
    RpcClient client(listener.port());
    TcpSocket peer;
    ASSERT_TRUE(waitUntil([&] {
        peer = listener.accept();
        return peer.valid();
    }));

    constexpr int calls = 6;
    std::atomic<int> fired{0};
    std::atomic<int> unavailable{0};
    {
        ScopedWriteBatch round;
        for (int i = 0; i < calls; ++i) {
            client.call(kEcho, "held",
                        [&](const Status &status, std::string_view) {
                            fired.fetch_add(1);
                            if (status.code() == StatusCode::Unavailable)
                                unavailable.fetch_add(1);
                        });
        }
        const linger reset{1, 0};
        ASSERT_EQ(::setsockopt(peer.fd(), SOL_SOCKET, SO_LINGER, &reset,
                               sizeof(reset)),
                  0);
        peer.close();
    }
    ASSERT_TRUE(waitUntil([&] { return fired == calls; }));
    sleepForNanos(50'000'000);
    EXPECT_EQ(fired.load(), calls);
    EXPECT_EQ(unavailable.load(), calls);
}

} // namespace
} // namespace rpc
} // namespace musuite
