/**
 * @file
 * End-to-end server tests over real loopback sockets: the dnastored
 * event loop + scheduler serving put/get/ls/stat/ping to concurrent
 * clients, including the ISSUE acceptance workload — 32 clients with
 * Zipfian popularity over a 10-object backend, zero failed requests,
 * coalescing observed — and typed (not hung) overload rejection.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.hh"
#include "obs/metrics.hh"
#include "server/archive_backend.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "server/fake_backend.hh"
#include "util/random.hh"

namespace dnastore::server
{
namespace
{

using testing::FakeBackend;

std::vector<std::uint8_t>
bytes(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** A running server over a FakeBackend plus its serve() thread. */
class ServerFixture
{
  public:
    explicit ServerFixture(ServerConfig config = {})
        : server_(backend, config)
    {
        EXPECT_EQ(server_.start(), ServerStatus::Ok);
        thread_ = std::thread([this] { server_.serve(); });
    }

    ~ServerFixture()
    {
        server_.requestDrain();
        thread_.join();
    }

    std::uint16_t port() const { return server_.port(); }
    Server &server() { return server_; }

    FakeBackend backend;

  private:
    Server server_;
    std::thread thread_;
};

TEST(Server, PingPutGetLsStatRoundTrip)
{
    ServerFixture fx;
    Client client;
    ASSERT_TRUE(client.connectTo(fx.port(), 10000)) << client.error();

    const ClientReply pong = client.ping(bytes("hello"));
    EXPECT_TRUE(pong.ok()) << pong.error;
    EXPECT_EQ(pong.data, bytes("hello"));

    const std::vector<std::uint8_t> payload = bytes("the-object-bytes");
    const ClientReply put = client.put("obj", payload);
    ASSERT_TRUE(put.ok()) << put.error;
    EXPECT_NE(put.json.find("\"name\""), std::string::npos);

    const ClientReply get = client.get("obj");
    ASSERT_TRUE(get.ok()) << get.error;
    EXPECT_EQ(get.data, payload);

    const ClientReply ls = client.ls();
    ASSERT_TRUE(ls.ok()) << ls.error;
    EXPECT_NE(ls.json.find("archive_ls"), std::string::npos);

    const ClientReply stat = client.stat("obj");
    ASSERT_TRUE(stat.ok()) << stat.error;
    EXPECT_NE(stat.json.find("obj"), std::string::npos);
}

TEST(Server, MissingObjectIsTypedNotFound)
{
    ServerFixture fx;
    Client client;
    ASSERT_TRUE(client.connectTo(fx.port(), 10000)) << client.error();
    const ClientReply reply = client.get("missing");
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status, ServerStatus::NotFound);
    // The connection survives a NotFound: the next request works.
    EXPECT_TRUE(client.ping(bytes("still-alive")).ok());
}

TEST(Server, DuplicatePutIsTypedAlreadyExists)
{
    ServerFixture fx;
    Client client;
    ASSERT_TRUE(client.connectTo(fx.port(), 10000)) << client.error();
    ASSERT_TRUE(client.put("dup", bytes("x")).ok());
    const ClientReply again = client.put("dup", bytes("y"));
    EXPECT_FALSE(again.ok());
    EXPECT_EQ(again.status, ServerStatus::AlreadyExists);
}

TEST(Server, ZipfianLoadCompletesWithZeroFailuresAndCoalesces)
{
    // The ISSUE acceptance workload: 32 concurrent clients, Zipfian
    // popularity over 10 objects, every request must succeed byte-exact
    // and the coalescing counter must move.
    constexpr std::size_t kClients = 32;
    constexpr std::size_t kObjects = 10;
    constexpr std::size_t kRequestsPerClient = 8;

    ServerConfig config;
    config.scheduler.num_threads = 4;
    config.scheduler.max_inflight = kClients * 2;
    ServerFixture fx(config);

    std::vector<std::vector<std::uint8_t>> payloads(kObjects);
    for (std::size_t i = 0; i < kObjects; ++i) {
        payloads[i] = bytes("object-" + std::to_string(i) + "-payload");
        fx.backend.add("obj" + std::to_string(i), payloads[i]);
    }
    // Hold fetches shut until every client's first get has been
    // admitted: 32 concurrent gets over 10 names guarantees coalescing
    // by pigeonhole, rather than hoping the threads happen to overlap.
    fx.backend.fetch_gate.close();

    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ZipfSampler zipf(kObjects, 1.0, 0x5eedULL + c);
            Client client;
            if (!client.connectTo(fx.port(), 30000)) {
                failures.fetch_add(kRequestsPerClient);
                return;
            }
            for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
                const std::size_t pick = zipf.next();
                const ClientReply reply =
                    client.get("obj" + std::to_string(pick));
                if (!reply.ok() || reply.data != payloads[pick])
                    failures.fetch_add(1);
            }
        });
    }
    while (failures.load() == 0 &&
           fx.server().counters().requests < kClients)
        std::this_thread::yield();
    fx.backend.fetch_gate.open();
    for (std::thread &t : clients)
        t.join();

    EXPECT_EQ(failures.load(), 0u);
    const SchedulerCounters counters = fx.server().counters();
    EXPECT_EQ(counters.requests, kClients * kRequestsPerClient);
    EXPECT_GT(counters.coalesced_gets, 0u);
    EXPECT_GT(counters.batches, 0u);
    EXPECT_EQ(counters.rejected_overload, 0u);
}

TEST(Server, OverloadIsRejectedTypedNotHung)
{
    // Admission limit 1 with the backend gated shut: the second
    // concurrent get must come back Overloaded promptly — a typed
    // reply, not a queued-forever hang.
    ServerConfig config;
    config.scheduler.num_threads = 2;
    config.scheduler.max_inflight = 1;
    config.scheduler.batch_max = 1;
    ServerFixture fx(config);
    fx.backend.add("a", bytes("a"));
    fx.backend.fetch_gate.close();

    Client blocker;
    ASSERT_TRUE(blocker.connectTo(fx.port(), 10000)) << blocker.error();
    std::thread blocked([&] {
        const ClientReply reply = blocker.get("a");
        EXPECT_TRUE(reply.ok()) << reply.error;
    });

    // Wait until the blocked get is admitted (inflight = 1).
    while (fx.server().counters().requests < 1)
        std::this_thread::yield();

    Client shed;
    ASSERT_TRUE(shed.connectTo(fx.port(), 10000)) << shed.error();
    const ClientReply reply = shed.get("a");
    EXPECT_FALSE(reply.ok());
    EXPECT_EQ(reply.status, ServerStatus::Overloaded);
    EXPECT_EQ(fx.server().counters().rejected_overload, 1u);

    fx.backend.fetch_gate.open();
    blocked.join();
}

/**
 * Connect, write @p raw bytes verbatim, then read until the server
 * closes the connection; returns everything the server sent back.
 */
std::vector<std::uint8_t>
sendRawAndDrain(std::uint16_t port, const std::vector<std::uint8_t> &raw)
{
    std::vector<std::uint8_t> got;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (fd < 0)
        return got;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0),
              static_cast<ssize_t>(raw.size()));
    std::uint8_t buf[512];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        got.insert(got.end(), buf, buf + n);
    }
    ::close(fd);
    return got;
}

TEST(Server, CorruptFrameGetsTypedErrorAndServerSurvives)
{
    ServerFixture fx;
    fx.backend.add("a", bytes("a"));

    // A full header's worth of garbage: the server must reply with a
    // typed ProtocolError frame and close that session — not crash,
    // not hang, not take other sessions down with it.
    const std::vector<std::uint8_t> reply = sendRawAndDrain(
        fx.port(), bytes("this is definitely not a valid frame"));
    FrameDecoder decoder;
    decoder.feed(reply.data(), reply.size());
    Frame frame;
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::Ready);
    EXPECT_EQ(frame.type, static_cast<std::uint8_t>(MsgType::Error));
    ErrorBody err;
    ASSERT_TRUE(tryParseErrorBody(frame.body, err));
    EXPECT_EQ(err.status, ServerStatus::ProtocolError);

    // A well-behaved client is unaffected.
    Client good;
    ASSERT_TRUE(good.connectTo(fx.port(), 10000)) << good.error();
    EXPECT_TRUE(good.get("a").ok());
}

TEST(ArchiveBackend, ZeroPutThreadsEncodesShardsOnThePool)
{
    // put_threads 0 is the shared pool's width (dnastored's default
    // --threads 0), not a serial put: a multi-shard put queues helper
    // tasks on the pool.
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "a one-worker pool runs every loop inline";
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "backend_put_width";
    std::filesystem::remove_all(dir);
    archive::ArchiveParams params;
    params.codec.payload_nt = 120;
    params.codec.index_nt = 12;
    params.codec.rs_n = 60;
    params.codec.rs_k = 40;
    params.max_shard_bytes = 256;
    auto created = archive::Archive::create(dir.string(), params);
    ASSERT_TRUE(created.ok()) << created.error;
    ArchiveBackend backend(*created.archive, archive::RetrievalConfig{}, 0);

    std::vector<std::uint8_t> data(4 * params.max_shard_bytes);
    Rng rng(31);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    const auto tasks = [] {
        return obs::metrics().counter("util.thread_pool.tasks_total").value();
    };
    const std::uint64_t before = tasks();
    ASSERT_TRUE(backend.storeObject("obj", data).ok());
    // A helper counts once a worker dequeues it, which may be after the
    // caller has encoded every shard itself.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (tasks() == before && std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(tasks(), before);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dnastore::server
