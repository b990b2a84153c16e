/**
 * @file
 * google-benchmark microbenchmarks for the murpc layer itself: unary
 * round-trip latency across payload sizes and threading models,
 * asynchronous pipelined throughput, local-channel (transport-less)
 * dispatch cost, and frame codec overhead. These isolate the RPC
 * fabric's contribution to the service latencies the fig* benches
 * report.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "base/threading.h"
#include "base/time_util.h"
#include "ostrace/syscalls.h"
#include "rpc/client.h"
#include "rpc/local_channel.h"
#include "rpc/message.h"
#include "rpc/server.h"

namespace musuite {
namespace rpc {
namespace {

constexpr uint32_t kEcho = 1;

std::unique_ptr<Server>
makeEchoServer(ServerOptions options = {})
{
    auto server = std::make_unique<Server>(options);
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->start();
    return server;
}

void
BM_UnaryRoundTrip(benchmark::State &state)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());
    const std::string body(size_t(state.range(0)), 'x');
    for (auto _ : state) {
        auto result = client.callSync(kEcho, body);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_UnaryRoundTrip)->Arg(16)->Arg(512)->Arg(16384);

void
BM_UnaryRoundTripInlineServer(benchmark::State &state)
{
    ServerOptions options;
    options.dispatchToWorkers = false;
    options.workerThreads = 1;
    auto server = makeEchoServer(options);
    RpcClient client(server->port());
    const std::string body(512, 'x');
    for (auto _ : state) {
        auto result = client.callSync(kEcho, body);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_UnaryRoundTripInlineServer);

void
BM_PipelinedThroughput(benchmark::State &state)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());
    const std::string body(64, 'x');
    const int window = int(state.range(0));

    for (auto _ : state) {
        std::atomic<int> outstanding{window};
        CountdownLatch latch{uint32_t(window)};
        for (int i = 0; i < window; ++i) {
            client.call(kEcho, body,
                        [&](const Status &, std::string_view) {
                            latch.countDown();
                        });
        }
        latch.wait();
        benchmark::DoNotOptimize(outstanding.load());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * window);
}
BENCHMARK(BM_PipelinedThroughput)->Arg(8)->Arg(64);

void
BM_PipelinedThroughputCorked(benchmark::State &state)
{
    // Same pipelined window, but the whole window leaves in one write
    // batch — one scatter-gather sendmsg per connection instead of one
    // per call.
    auto server = makeEchoServer();
    RpcClient client(server->port());
    const std::string body(64, 'x');
    const int window = int(state.range(0));

    for (auto _ : state) {
        CountdownLatch latch{uint32_t(window)};
        {
            ScopedWriteBatch batch;
            for (int i = 0; i < window; ++i) {
                client.call(kEcho, body,
                            [&](const Status &, std::string_view) {
                                latch.countDown();
                            });
            }
        }
        latch.wait();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * window);
}
BENCHMARK(BM_PipelinedThroughputCorked)->Arg(8)->Arg(64);

void
BM_LocalChannelDispatch(benchmark::State &state)
{
    auto server = makeEchoServer();
    LocalChannel channel(*server);
    const std::string body(512, 'x');
    for (auto _ : state) {
        auto result = channel.callSync(kEcho, body);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_LocalChannelDispatch);

void
BM_FrameCodec(benchmark::State &state)
{
    MessageHeader header;
    header.kind = MessageKind::Request;
    header.method = 42;
    header.requestId = 123456789;
    const std::string body(size_t(state.range(0)), 'p');
    for (auto _ : state) {
        const std::string frame = encodeFrame(header, body);
        MessageHeader parsed;
        std::string_view payload;
        benchmark::DoNotOptimize(decodeFrame(frame, parsed, payload));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_FrameCodec)->Arg(64)->Arg(4096);

/**
 * CI smoke mode (--smoke-json=PATH): a fixed, short workload that
 * records the bench trajectory without google-benchmark's adaptive
 * iteration counts — single-call round-trip latency, batched pipelined
 * throughput, and the syscall bill per pipelined request. Runs in
 * about a second so tools/check.sh can afford it on every push.
 */
int
runSmoke(const std::string &path)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());
    const std::string body(64, 'x');

    // Unary round-trip: median and mean over a fixed sample count.
    constexpr int warmup = 200;
    constexpr int samples = 2000;
    for (int i = 0; i < warmup; ++i)
        (void)client.callSync(kEcho, body); // Warmup; outcome irrelevant.
    std::vector<int64_t> rtt(samples);
    for (int i = 0; i < samples; ++i) {
        const int64_t start = nowNanos();
        auto result = client.callSync(kEcho, body);
        rtt[size_t(i)] = nowNanos() - start;
        if (!result.status().isOk())
            return 1;
    }
    std::sort(rtt.begin(), rtt.end());
    const int64_t rtt_p50 = rtt[rtt.size() / 2];
    int64_t rtt_sum = 0;
    for (int64_t sample : rtt)
        rtt_sum += sample;
    const double rtt_mean = double(rtt_sum) / samples;

    // Batched pipelined windows: QPS plus the per-request syscall bill
    // (this is the number the batched write path exists to shrink).
    constexpr int depth = 16;
    constexpr int batches = 200;
    const auto before = snapshotSyscalls();
    const int64_t pipe_start = nowNanos();
    for (int batch = 0; batch < batches; ++batch) {
        CountdownLatch latch{depth};
        {
            ScopedWriteBatch batch;
            for (int i = 0; i < depth; ++i) {
                client.call(kEcho, body,
                            [&](const Status &, std::string_view) {
                                latch.countDown();
                            });
            }
        }
        latch.wait();
    }
    const int64_t pipe_ns = nowNanos() - pipe_start;
    const auto delta = diffSyscalls(before, snapshotSyscalls());
    const double requests = double(depth) * batches;
    const double qps = requests / (double(pipe_ns) * 1e-9);
    const auto per_req = [&](Sys sys) {
        return double(delta[size_t(sys)]) / requests;
    };

    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "micro_rpc: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"unary_rtt_p50_ns\": %lld,\n"
                 "  \"unary_rtt_mean_ns\": %.1f,\n"
                 "  \"pipelined_depth\": %d,\n"
                 "  \"pipelined_qps\": %.0f,\n"
                 "  \"sendmsg_per_request\": %.3f,\n"
                 "  \"recvmsg_per_request\": %.3f,\n"
                 "  \"futex_per_request\": %.3f,\n"
                 "  \"epoll_wait_per_request\": %.3f\n"
                 "}\n",
                 static_cast<long long>(rtt_p50), rtt_mean, depth, qps,
                 per_req(Sys::Sendmsg), per_req(Sys::Recvmsg),
                 per_req(Sys::Futex), per_req(Sys::EpollPwait));
    std::fclose(out);
    std::printf("micro_rpc smoke: rtt_p50=%lldns qps=%.0f "
                "sendmsg/req=%.3f -> %s\n",
                static_cast<long long>(rtt_p50), qps,
                per_req(Sys::Sendmsg), path.c_str());
    return 0;
}

} // namespace
} // namespace rpc
} // namespace musuite

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string flag = "--smoke-json=";
        if (arg.rfind(flag, 0) == 0)
            return musuite::rpc::runSmoke(arg.substr(flag.size()));
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
