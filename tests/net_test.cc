/**
 * @file
 * Tests for the net substrate: fd ownership, listener/connect
 * round-trips, non-blocking IO status codes, the epoll poller
 * (readiness, wakeups, write-interest), and length-prefixed framing
 * (partial arrival, batched frames, oversized-frame rejection,
 * concurrent senders), and the thread-scoped write batch.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "base/threading.h"
#include "base/time_util.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "ostrace/sync.h"
#include "ostrace/syscalls.h"

namespace musuite {
namespace {

TEST(FdTest, ClosesOnDestruction)
{
    int raw = -1;
    {
        Fd fd(::open("/dev/null", O_RDONLY));
        ASSERT_TRUE(fd.valid());
        raw = fd.get();
    }
    // The descriptor must be closed now: fcntl fails with EBADF.
    EXPECT_EQ(fcntl(raw, F_GETFD), -1);
}

TEST(FdTest, MoveTransfersOwnership)
{
    Fd a(::open("/dev/null", O_RDONLY));
    const int raw = a.get();
    Fd b(std::move(a));
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(b.get(), raw);
}

TEST(FdTest, ReleaseDisowns)
{
    int raw;
    {
        Fd fd(::open("/dev/null", O_RDONLY));
        raw = fd.release();
    }
    EXPECT_EQ(fcntl(raw, F_GETFD), 0); // Still open.
    ::close(raw);
}

/** Listener + connected pair for socket-level tests. */
struct SocketPair
{
    TcpListener listener;
    TcpSocket client;
    TcpSocket server;

    SocketPair()
    {
        client = TcpSocket::connectLoopback(listener.port());
        // Accept may need a beat on a loaded box.
        for (int i = 0; i < 100 && !server.valid(); ++i) {
            server = listener.accept();
            if (!server.valid())
                sleepForNanos(1'000'000);
        }
    }
};

TEST(TcpSocketTest, ConnectSendReceive)
{
    SocketPair pair;
    ASSERT_TRUE(pair.client.valid());
    ASSERT_TRUE(pair.server.valid());

    size_t sent = 0;
    ASSERT_EQ(pair.client.send("ping", 4, sent), IoStatus::Ok);
    ASSERT_EQ(sent, 4u);

    char buf[16];
    size_t received = 0;
    IoStatus status = IoStatus::WouldBlock;
    for (int i = 0; i < 100 && status == IoStatus::WouldBlock; ++i) {
        status = pair.server.receive(buf, sizeof(buf), received);
        if (status == IoStatus::WouldBlock)
            sleepForNanos(1'000'000);
    }
    ASSERT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(std::string(buf, received), "ping");
}

TEST(TcpSocketTest, ReceiveOnEmptySocketWouldBlock)
{
    SocketPair pair;
    char buf[16];
    size_t received = 0;
    EXPECT_EQ(pair.server.receive(buf, sizeof(buf), received),
              IoStatus::WouldBlock);
}

TEST(TcpSocketTest, PeerCloseIsEof)
{
    SocketPair pair;
    pair.client.close();
    char buf[16];
    size_t received = 0;
    IoStatus status = IoStatus::WouldBlock;
    for (int i = 0; i < 100 && status == IoStatus::WouldBlock; ++i) {
        status = pair.server.receive(buf, sizeof(buf), received);
        if (status == IoStatus::WouldBlock)
            sleepForNanos(1'000'000);
    }
    EXPECT_EQ(status, IoStatus::Eof);
}

TEST(TcpSocketTest, ConnectToDeadPortFails)
{
    uint16_t dead_port;
    {
        TcpListener listener;
        dead_port = listener.port();
    }
    TcpSocket socket = TcpSocket::connectLoopback(dead_port);
    EXPECT_FALSE(socket.valid());
}

TEST(PollerTest, ReportsReadReadiness)
{
    SocketPair pair;
    Poller poller;
    char cookie;
    poller.add(pair.server.fd(), &cookie, false);

    size_t sent;
    pair.client.send("x", 1, sent);

    auto events = poller.wait(1000);
    ASSERT_FALSE(events.empty());
    bool found = false;
    for (const PollEvent &event : events) {
        if (event.data == &cookie && event.readable)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(PollerTest, WakeInterruptsBlockedWait)
{
    Poller poller;
    std::atomic<bool> woke{false};
    ScopedThread waiter("waiter", [&] {
        auto events = poller.wait(-1);
        for (const PollEvent &event : events)
            woke.store(woke.load() || event.isWakeup);
    });
    sleepForNanos(5'000'000);
    poller.wake();
    waiter.join();
    EXPECT_TRUE(woke.load());
}

TEST(PollerTest, ZeroTimeoutReturnsImmediately)
{
    Poller poller;
    const int64_t start = nowNanos();
    auto events = poller.wait(0);
    EXPECT_TRUE(events.empty());
    EXPECT_LT(nowNanos() - start, 100'000'000);
}

TEST(PollerTest, WriteInterestDeliversWritable)
{
    SocketPair pair;
    Poller poller;
    char cookie;
    poller.add(pair.client.fd(), &cookie, true);
    auto events = poller.wait(1000);
    bool writable = false;
    for (const PollEvent &event : events) {
        if (event.data == &cookie && event.writable)
            writable = true;
    }
    EXPECT_TRUE(writable); // Fresh socket: send buffer has room.
}

// --------------------------------------------------------------------
// FramedConnection
// --------------------------------------------------------------------

/** Framed endpoints over a real socket pair plus a poller thread on
 *  the receiving side. */
class FrameTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        pair = std::make_unique<SocketPair>();
        ASSERT_TRUE(pair->client.valid());
        ASSERT_TRUE(pair->server.valid());
        sender = std::make_shared<FramedConnection>(
            std::move(pair->client), nullptr, nullptr);
        receiver = std::make_shared<FramedConnection>(
            std::move(pair->server), nullptr, nullptr);
    }

    /** Pump the receiver until `expected` frames arrive (or timeout). */
    std::vector<std::string>
    drain(size_t expected, int64_t timeout_ms = 2000)
    {
        std::vector<std::string> frames;
        const int64_t deadline = nowNanos() + timeout_ms * 1'000'000;
        while (frames.size() < expected && nowNanos() < deadline) {
            receiver->onReadable([&](std::string_view frame) {
                frames.emplace_back(frame);
            });
            if (frames.size() < expected)
                sleepForNanos(500'000);
        }
        return frames;
    }

    std::unique_ptr<SocketPair> pair;
    // Shared ownership, as in the servers and clients: only a
    // shared_ptr-owned connection can be held by a write batch.
    std::shared_ptr<FramedConnection> sender;
    std::shared_ptr<FramedConnection> receiver;
};

TEST_F(FrameTest, SingleFrameRoundTrip)
{
    ASSERT_TRUE(sender->sendFrame("hello frames"));
    const auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "hello frames");
}

TEST_F(FrameTest, EmptyFrame)
{
    ASSERT_TRUE(sender->sendFrame(""));
    const auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "");
}

TEST_F(FrameTest, ManyFramesPreserveOrderAndBoundaries)
{
    constexpr int count = 500;
    for (int i = 0; i < count; ++i)
        ASSERT_TRUE(sender->sendFrame("frame-" + std::to_string(i)));
    const auto frames = drain(count);
    ASSERT_EQ(frames.size(), size_t(count));
    for (int i = 0; i < count; ++i)
        EXPECT_EQ(frames[size_t(i)], "frame-" + std::to_string(i));
}

TEST_F(FrameTest, LargeFrameExceedingKernelBuffers)
{
    // Multi-megabyte frame: must traverse partial sends/receives.
    std::string big(4 * 1024 * 1024, 'z');
    for (size_t i = 0; i < big.size(); i += 1000)
        big[i] = char('A' + (i / 1000) % 26);

    std::atomic<bool> done{false};
    ScopedThread pump("pump", [&] {
        // Keep flushing the sender while the receiver drains.
        while (!done.load()) {
            sender->onWritable();
            sleepForNanos(200'000);
        }
    });
    ASSERT_TRUE(sender->sendFrame(big));
    const auto frames = drain(1, 10000);
    done.store(true);
    pump.join();
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], big);
}

TEST_F(FrameTest, ConcurrentSendersInterleaveWholeFrames)
{
    constexpr int per_thread = 200;
    constexpr int threads = 4;
    {
        std::vector<ScopedThread> senders;
        for (int t = 0; t < threads; ++t) {
            senders.emplace_back("sender", [&, t] {
                for (int i = 0; i < per_thread; ++i) {
                    sender->sendFrame("t" + std::to_string(t) + "-" +
                                      std::to_string(i));
                }
            });
        }
    }
    const auto frames = drain(threads * per_thread);
    ASSERT_EQ(frames.size(), size_t(threads * per_thread));
    // Frame boundaries must be intact: every frame parses as
    // t<digit>-<index> with indexes per-thread monotonic.
    std::array<int, threads> next{};
    for (const std::string &frame : frames) {
        ASSERT_GE(frame.size(), 4u);
        ASSERT_EQ(frame[0], 't');
        const int t = frame[1] - '0';
        ASSERT_GE(t, 0);
        ASSERT_LT(t, threads);
        EXPECT_EQ(frame, "t" + std::to_string(t) + "-" +
                             std::to_string(next[size_t(t)]));
        next[size_t(t)]++;
    }
}

TEST_F(FrameTest, PeerShutdownKillsConnection)
{
    sender->shutdown();
    EXPECT_TRUE(sender->isDead());
    EXPECT_FALSE(sender->sendFrame("after death"));

    bool alive = true;
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (alive && nowNanos() < deadline) {
        alive = receiver->onReadable([](std::string_view) {});
        if (alive)
            sleepForNanos(500'000);
    }
    EXPECT_FALSE(alive);
    EXPECT_TRUE(receiver->isDead());
}

TEST_F(FrameTest, OversizedFrameHeaderDropsConnection)
{
    // Forge a header claiming a frame beyond maxFrameBytes.
    const uint32_t huge = FramedConnection::maxFrameBytes + 1;
    char header[4];
    std::memcpy(header, &huge, 4);

    // Send the raw bytes through a fresh socket speaking to the
    // receiver directly.
    // (Reuse the sender's socket via its frame API is impossible —
    // it checks the bound — so write a legitimate small frame first
    // to prove liveness, then the forged header.)
    ASSERT_TRUE(sender->sendFrame("ok"));
    auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);

    // Inject the forged header by writing it as the *payload length*
    // of a raw send on a second connection.
    TcpSocket raw = TcpSocket::connectLoopback(pair->listener.port());
    ASSERT_TRUE(raw.valid());
    TcpSocket peer;
    for (int i = 0; i < 100 && !peer.valid(); ++i) {
        peer = pair->listener.accept();
        if (!peer.valid())
            sleepForNanos(1'000'000);
    }
    ASSERT_TRUE(peer.valid());
    FramedConnection victim(std::move(peer), nullptr, nullptr);
    size_t sent = 0;
    ASSERT_EQ(raw.send(header, 4, sent), IoStatus::Ok);

    bool alive = true;
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (alive && nowNanos() < deadline) {
        alive = victim.onReadable([](std::string_view) {
            FAIL() << "oversized frame must never be delivered";
        });
        if (alive)
            sleepForNanos(500'000);
    }
    EXPECT_TRUE(victim.isDead());
}

TEST(TcpSocketTest, SendvGathersAcrossBuffers)
{
    SocketPair pair;
    ASSERT_TRUE(pair.client.valid());
    ASSERT_TRUE(pair.server.valid());

    const std::string a = "scatter-", b = "gather-", c = "sendmsg";
    struct iovec iov[3];
    iov[0] = {const_cast<char *>(a.data()), a.size()};
    iov[1] = {const_cast<char *>(b.data()), b.size()};
    iov[2] = {const_cast<char *>(c.data()), c.size()};

    const auto before = snapshotSyscalls();
    size_t sent = 0;
    ASSERT_EQ(pair.client.sendv(iov, 3, sent), IoStatus::Ok);
    const auto after = snapshotSyscalls();
    const std::string expected = a + b + c;
    EXPECT_EQ(sent, expected.size());
    EXPECT_EQ(diffSyscalls(before, after)[size_t(Sys::Sendmsg)], 1u);

    std::string got;
    char buf[64];
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (got.size() < expected.size() && nowNanos() < deadline) {
        size_t received = 0;
        if (pair.server.receive(buf, sizeof(buf), received) ==
            IoStatus::Ok)
            got.append(buf, received);
        else
            sleepForNanos(500'000);
    }
    EXPECT_EQ(got, expected);
}

TEST_F(FrameTest, ShortReadParsesWithoutExtraRecv)
{
    // Regression: onReadable used to re-recv unconditionally after a
    // short read, paying a guaranteed-EAGAIN syscall per readable
    // event. The call that delivers a small frame must cost exactly
    // one recv — the short read itself proves the buffer is drained.
    ASSERT_TRUE(sender->sendFrame("short read"));

    std::vector<std::string> frames;
    uint64_t recvs_in_delivering_call = 0;
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (frames.empty() && nowNanos() < deadline) {
        const auto before = snapshotSyscalls();
        receiver->onReadable([&](std::string_view frame) {
            frames.emplace_back(frame);
        });
        const auto after = snapshotSyscalls();
        if (!frames.empty()) {
            recvs_in_delivering_call =
                diffSyscalls(before, after)[size_t(Sys::Recvmsg)];
        } else {
            sleepForNanos(500'000);
        }
    }
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "short read");
    EXPECT_EQ(recvs_in_delivering_call, 1u);
}

TEST_F(FrameTest, OversizedSendRejectedConnectionSurvives)
{
    // Regression: an oversized outbound frame used to abort the whole
    // process via MUSUITE_CHECK. It must be rejected — counted, not
    // crashed — and the connection must keep working.
    const uint64_t rejected_before =
        FramedConnection::oversizedSendCount();
    std::string huge(size_t(FramedConnection::maxFrameBytes) + 1, 'x');
    EXPECT_FALSE(sender->sendFrame(huge));
    EXPECT_FALSE(sender->isDead());
    EXPECT_EQ(FramedConnection::oversizedSendCount(),
              rejected_before + 1);

    ASSERT_TRUE(sender->sendFrame("still alive"));
    const auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "still alive");
}

TEST_F(FrameTest, BatchedFramesFlushAsOneSyscall)
{
    // Write combining: frames held by the thread's write batch leave
    // in a single scatter-gather sendmsg when the scope closes.
    SyscallSnapshot before;
    SyscallSnapshot mid;
    {
        ScopedWriteBatch batch;
        before = snapshotSyscalls();
        for (int i = 0; i < 8; ++i)
            ASSERT_TRUE(sender->sendFrame("batched-" + std::to_string(i)));
        mid = snapshotSyscalls();
        EXPECT_EQ(diffSyscalls(before, mid)[size_t(Sys::Sendmsg)], 0u);
        EXPECT_EQ(ScopedWriteBatch::heldFrames(), 8u);
    }
    const auto after = snapshotSyscalls();
    EXPECT_EQ(diffSyscalls(mid, after)[size_t(Sys::Sendmsg)], 1u);
    EXPECT_EQ(ScopedWriteBatch::heldFrames(), 0u);

    const auto frames = drain(8);
    ASSERT_EQ(frames.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(frames[size_t(i)], "batched-" + std::to_string(i));
}

TEST_F(FrameTest, BatchedBurstCoalescesFrames)
{
    // A burst from one thread must not cost one syscall per frame:
    // the batch hands the whole burst to one flush, which drains up
    // to maxFramesPerFlush frames per sendv round.
    constexpr int count = 64;
    const auto before = snapshotSyscalls();
    {
        ScopedWriteBatch batch;
        for (int i = 0; i < count; ++i)
            ASSERT_TRUE(sender->sendFrame("burst-" + std::to_string(i)));
    }
    const auto after = snapshotSyscalls();
    // 64 frames, 32 frames max per sendv round: two syscalls.
    EXPECT_LE(diffSyscalls(before, after)[size_t(Sys::Sendmsg)], 3u);

    const auto frames = drain(count);
    ASSERT_EQ(frames.size(), size_t(count));
}

TEST_F(FrameTest, NestedBatchFlushesAtOutermostScope)
{
    {
        ScopedWriteBatch outer;
        {
            ScopedWriteBatch inner;
            ASSERT_TRUE(sender->sendFrame("first"));
        }
        // Closing the inner scope flushed nothing.
        EXPECT_EQ(ScopedWriteBatch::heldFrames(), 1u);
        ASSERT_TRUE(sender->sendFrame("second"));
    }
    EXPECT_EQ(ScopedWriteBatch::heldFrames(), 0u);
    const auto frames = drain(2);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "second");
}

TEST_F(FrameTest, OtherThreadsFramesAreNotHeldBehindABatch)
{
    // The batch is per thread and never corks the connection: a frame
    // another thread sends while this thread's batch holds frames for
    // the same connection goes out at once.
    {
        ScopedWriteBatch batch;
        ASSERT_TRUE(sender->sendFrame("held"));
        {
            ScopedThread other("other-sender", [&] {
                EXPECT_TRUE(sender->sendFrame("direct"));
            });
        }
        const auto early = drain(1);
        ASSERT_EQ(early.size(), 1u);
        EXPECT_EQ(early[0], "direct");
        EXPECT_EQ(ScopedWriteBatch::heldFrames(), 1u);
    }
    const auto late = drain(1);
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late[0], "held");
}

TEST(FrameBatchTest, FlushFailureHangsUpToTheReader)
{
    // A send that fails when the batch flushes shuts the socket down
    // but leaves the fd registered, so the reader thread sees the
    // hangup and runs the owner's connection-lost path (the client
    // fails its pending calls there).
    SocketPair pair;
    ASSERT_TRUE(pair.client.valid());
    ASSERT_TRUE(pair.server.valid());
    Poller poller;
    char cookie = 0;
    auto conn = std::make_shared<FramedConnection>(std::move(pair.client),
                                                   &poller, &cookie);
    conn->registerWithPoller();
    {
        ScopedWriteBatch batch;
        ASSERT_TRUE(conn->sendFrame("never sent"));
        // Writes now fail with EPIPE: the flush at scope close errors.
        ASSERT_EQ(::shutdown(conn->fd(), SHUT_WR), 0);
    }
    bool hung_up = false;
    for (int i = 0; i < 100 && !hung_up; ++i) {
        for (const PollEvent &event : poller.wait(10)) {
            if (event.data == &cookie && (event.readable || event.error))
                hung_up = true;
        }
    }
    ASSERT_TRUE(hung_up);
    EXPECT_FALSE(conn->onReadable([](std::string_view) {}));
    EXPECT_TRUE(conn->isDead());
    EXPECT_FALSE(conn->sendFrame("after death"));
}

TEST(FrameBatchTest, ConcurrentBatchesOnSharedConnections)
{
    // Four threads, each with its own batch per round, send on the
    // same two connections. Every frame arrives once, and each
    // thread's frames keep their order on each connection.
    constexpr int threads = 4;
    constexpr int rounds = 50;
    constexpr int perRound = 3;
    std::vector<std::unique_ptr<SocketPair>> pairs;
    std::vector<std::shared_ptr<FramedConnection>> senders;
    std::vector<std::shared_ptr<FramedConnection>> receivers;
    for (int c = 0; c < 2; ++c) {
        pairs.push_back(std::make_unique<SocketPair>());
        ASSERT_TRUE(pairs.back()->client.valid());
        ASSERT_TRUE(pairs.back()->server.valid());
        senders.push_back(std::make_shared<FramedConnection>(
            std::move(pairs.back()->client), nullptr, nullptr));
        receivers.push_back(std::make_shared<FramedConnection>(
            std::move(pairs.back()->server), nullptr, nullptr));
    }
    {
        std::vector<ScopedThread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back("batch-" + std::to_string(t), [&, t] {
                int seq = 0;
                for (int r = 0; r < rounds; ++r) {
                    ScopedWriteBatch batch;
                    for (int i = 0; i < perRound; ++i, ++seq) {
                        for (auto &sender : senders) {
                            EXPECT_TRUE(sender->sendFrame(
                                std::to_string(t) + ":" +
                                std::to_string(seq)));
                        }
                    }
                }
            });
        }
    }
    const size_t expected = size_t(threads) * rounds * perRound;
    for (auto &receiver : receivers) {
        std::vector<std::string> frames;
        const int64_t deadline = nowNanos() + 5'000'000'000;
        while (frames.size() < expected && nowNanos() < deadline) {
            receiver->onReadable([&](std::string_view frame) {
                frames.emplace_back(frame);
            });
            if (frames.size() < expected)
                sleepForNanos(500'000);
        }
        ASSERT_EQ(frames.size(), expected);
        std::map<int, int> next_seq;
        for (const std::string &frame : frames) {
            const size_t colon = frame.find(':');
            const int t = std::stoi(frame.substr(0, colon));
            const int seq = std::stoi(frame.substr(colon + 1));
            EXPECT_EQ(seq, next_seq[t]) << "thread " << t;
            next_seq[t] = seq + 1;
        }
    }
}

#if defined(MUSUITE_DEBUG_SYNC) && MUSUITE_DEBUG_SYNC
using FrameBatchDeathTest = FrameTest;

TEST_F(FrameBatchDeathTest, BlockingWithFramesHeldAborts)
{
    // A thread that blocks while its batch holds frames would stall
    // them, or deadlock waiting on an answer to one of them.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            ScopedWriteBatch batch;
            sender->sendFrame("held");
            CountdownLatch done(0);
            done.wait();
        },
        "CountdownLatch::wait while the thread's write batch holds "
        "1 frame");
    EXPECT_DEATH(
        {
            ScopedWriteBatch batch;
            sender->sendFrame("held");
            sender->sendFrame("held");
            TracedMutex mutex;
            TracedCondVar ready;
            std::unique_lock<TracedMutex> lock(mutex);
            ready.wait(lock);
        },
        "TracedCondVar::wait while the thread's write batch holds "
        "2 frame");
}
#endif

} // namespace
} // namespace musuite
