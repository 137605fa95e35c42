/**
 * @file
 * The serve_* workloads: an in-process dnastored Server (daemon
 * defaults, except the per-connection and global inflight limits, which
 * no run reaches: four connections stand in for many users) over an archive of
 * 1 KiB objects, driven open loop by one generator thread over four
 * pipelined connections.
 *
 *  - serve_hot: 100 objects, Zipf(1.1) gets.  Requests share work, so
 *    scheduler coalescing, batching and the reply path dominate.
 *  - serve_cold_rw: 128 objects, uniform gets, and every tenth request
 *    a put of a new object.  No shared work: decode capacity, writer exclusion and
 *    the full-pool rewrite of every put dominate.
 *
 * Requests are sent open loop at a constant rate (one every 1/rate
 * seconds, whatever the replies do); each is timed from the moment it
 * was due, so a stalled generator or server is charged to the requests
 * behind it.  Constant spacing rather than Poisson arrivals: on a
 * shared host, Poisson bursts turned host-speed noise into p90 swings
 * of up to 3x for one seed (bench/e2e/README.md, calibration record).
 * The rates are about 55% of the rate at which a backlog starts to grow
 * with constant spacing.  The backend is wrapped in a timing decorator,
 * so every request can be joined to the fetch that served it.
 */

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "archive/archive.hh"
#include "e2e/bench.hh"
#include "obs/metrics.hh"
#include "server/archive_backend.hh"
#include "server/protocol.hh"
#include "server/server.hh"
#include "util/random.hh"

namespace dnastore::bench
{

namespace
{

constexpr std::size_t kConnections = 4;
constexpr std::size_t kObjectBytes = 1024;
/** A get slower than this (or failed) misses the latency objective. */
constexpr double kSloSeconds = 2.0;
/**
 * Global and per-connection inflight limit: above the number of requests
 * in any window, so a host that slows down builds a queue (charged to
 * latency) instead of refusing requests (which would fail the run).
 */
constexpr std::size_t kInflightLimit = 4096;

struct ServeParams
{
    std::size_t objects = 0;
    double rate = 0.0;      //!< Offered requests per second.
    double zipf_skew = 0.0;    //!< 0 = uniform.
    std::size_t put_every = 0; //!< Every n-th request is a put; 0 = none.
};

ServeParams
serveParams(const Options &options)
{
    ServeParams p;
    if (options.workload == "serve_hot") {
        p.objects = 100;
        p.rate = 9.0;
        p.zipf_skew = 1.1;
    } else {
        p.objects = 128;
        p.rate = 8.0;
        p.put_every = 10;
    }
    if (options.smoke)
        p.objects = 8;
    return p;
}

/** One scheduled request and what happened to it. */
struct Op
{
    double due = 0.0;        //!< Seconds after the window opened.
    bool put = false;
    std::size_t object = 0;  //!< get: index of the object read.
    std::size_t conn = 0;
    std::string put_name;
    std::vector<std::uint8_t> put_data;

    double sent = 0.0;       //!< Absolute nowSeconds() of the send.
    double done = 0.0;       //!< Absolute nowSeconds() of the reply.
    bool completed = false;
    bool ok = false;
};

/** Bytes of the archive's two files (pool.fasta + manifest.json). */
std::uint64_t
archiveFileBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    for (const char *file : {"/pool.fasta", "/manifest.json"}) {
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(dir + file, ec);
        if (!ec)
            total += static_cast<std::uint64_t>(size);
    }
    return total;
}

/**
 * Backend decorator that times every call into the archive layer; the
 * server sees the same interface, so nothing under src/ changes.
 */
class TimedBackend final : public server::Backend
{
  public:
    struct Fetch
    {
        std::vector<std::string> names;
        double start = 0.0;
        double end = 0.0;
    };
    struct Store
    {
        double start = 0.0;
        double end = 0.0;
        std::uint64_t user_bytes = 0;
        std::uint64_t file_bytes = 0; //!< Archive files after the store.
    };

    TimedBackend(server::Backend &inner, std::string dir)
        : inner_(inner), dir_(std::move(dir))
    {
    }

    std::vector<server::FetchResult>
    fetchMany(const std::vector<std::string> &names) override
    {
        const double t0 = nowSeconds();
        std::vector<server::FetchResult> results = inner_.fetchMany(names);
        const double t1 = nowSeconds();
        MutexLock lock(mu_);
        fetches_.push_back({names, t0, t1});
        return results;
    }

    server::StoreResult
    storeObject(const std::string &name,
                const std::vector<std::uint8_t> &data) override
    {
        const double t0 = nowSeconds();
        server::StoreResult result = inner_.storeObject(name, data);
        const double t1 = nowSeconds();
        const std::uint64_t bytes = archiveFileBytes(dir_);
        MutexLock lock(mu_);
        stores_.push_back({t0, t1, data.size(), bytes});
        return result;
    }

    server::MetaResult list() override { return inner_.list(); }

    server::MetaResult
    statObject(const std::string &name) override
    {
        return inner_.statObject(name);
    }

    std::vector<Fetch>
    fetches() const
    {
        MutexLock lock(mu_);
        return fetches_;
    }

    std::vector<Store>
    stores() const
    {
        MutexLock lock(mu_);
        return stores_;
    }

  private:
    server::Backend &inner_;
    const std::string dir_;
    mutable Mutex mu_{"bench.timed_backend"};
    std::vector<Fetch> fetches_ DNASTORE_GUARDED_BY(mu_);
    std::vector<Store> stores_ DNASTORE_GUARDED_BY(mu_);
};

/** One pipelined, non-blocking client connection. */
struct Conn
{
    int fd = -1;
    server::FrameDecoder decoder;
    std::vector<std::uint8_t> out; //!< Encoded frames not yet sent.
    /** Streamed Data bytes per request id, until the last frame. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> partial;
    bool broken = false;

    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

bool
connectTo(Conn &conn, std::uint16_t port)
{
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0)
        return false;
    const int one = 1;
    (void)::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return false;
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Send as much of conn.out as the socket takes now. */
void
flush(Conn &conn)
{
    std::size_t sent = 0;
    while (sent < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + sent,
                                 conn.out.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        conn.broken = true;
        break;
    }
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(sent));
}

/**
 * Seeded schedule over [0, seconds): one request every 1/rate seconds
 * (open loop at a constant rate), each a get of a seeded object or, every
 * put_every-th request, a put of fresh seeded bytes.  A fixed put count
 * keeps the work of a run the same for every seed.
 */
std::vector<Op>
makeSchedule(const Options &options, const ServeParams &p,
             std::uint64_t seed)
{
    SplitMix64 seeds(seed);
    Rng rng(seeds.next());
    ZipfSampler zipf(p.objects, p.zipf_skew, seeds.next());
    std::vector<Op> ops;
    for (;;) {
        const double t = static_cast<double>(ops.size()) / p.rate;
        if (t >= options.seconds)
            break;
        Op op;
        op.due = t;
        op.conn = ops.size() % kConnections;
        op.put = p.put_every > 0 && (ops.size() + 1) % p.put_every == 0;
        if (op.put) {
            op.put_name = "put-" + std::to_string(ops.size());
            op.put_data.resize(kObjectBytes);
            for (std::uint8_t &b : op.put_data)
                b = static_cast<std::uint8_t>(rng.below(256));
        } else {
            op.object = p.zipf_skew > 0.0 ? zipf.next() : rng.below(p.objects);
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

/** Apply one reply frame to the op it answers. */
void
onFrame(Conn &conn, server::Frame &frame, std::vector<Op> &ops,
        const std::vector<std::vector<std::uint8_t>> &payloads,
        std::size_t &outstanding, Report &report)
{
    if (frame.request_id == 0 || frame.request_id > ops.size()) {
        report.fail("reply for an unknown request id");
        return;
    }
    Op &op = ops[frame.request_id - 1];
    if (op.completed)
        return;
    const auto type = static_cast<server::MsgType>(frame.type);
    if (type == server::MsgType::Data) {
        std::vector<std::uint8_t> &data = conn.partial[frame.request_id];
        data.insert(data.end(), frame.body.begin(), frame.body.end());
        if (frame.more())
            return;
    }
    op.done = nowSeconds();
    op.completed = true;
    --outstanding;
    std::string error;
    if (type == server::MsgType::Data && !op.put) {
        op.ok = conn.partial[frame.request_id] == payloads[op.object];
        if (!op.ok)
            error = "get returned wrong bytes";
    } else if (type == server::MsgType::PutOk && op.put) {
        op.ok = true;
    } else if (type == server::MsgType::Error) {
        server::ErrorBody body;
        error = server::tryParseErrorBody(frame.body, body)
                    ? std::string(server::serverStatusName(body.status)) +
                          ": " + body.message
                    : "malformed error frame";
    } else {
        error = "unexpected reply type";
    }
    conn.partial.erase(frame.request_id);
    if (!op.ok)
        report.fail(error);
}

/**
 * Drive the schedule open loop over @p conns: send each op when due,
 * read replies as they arrive, then wait (bounded) for stragglers.
 * Returns the absolute time the window opened.
 */
double
generate(std::vector<std::unique_ptr<Conn>> &conns, std::vector<Op> &ops,
         const std::vector<std::vector<std::uint8_t>> &payloads,
         const std::vector<std::string> &names, double drain_limit,
         Report &report)
{
    const double start = nowSeconds() + 0.05;
    std::size_t next = 0;
    std::size_t outstanding = 0;
    double deadline = 0.0;
    std::vector<pollfd> fds(conns.size());
    std::uint8_t buf[64 * 1024];
    for (;;) {
        double now = nowSeconds();
        while (next < ops.size() && start + ops[next].due <= now) {
            Op &op = ops[next];
            Conn &conn = *conns[op.conn];
            server::Frame frame;
            frame.request_id = next + 1;
            if (op.put) {
                frame.type = static_cast<std::uint8_t>(server::MsgType::Put);
                frame.body = server::makePutBody(op.put_name, op.put_data);
            } else {
                frame.type = static_cast<std::uint8_t>(server::MsgType::Get);
                const std::string &name = names[op.object];
                frame.body.assign(name.begin(), name.end());
            }
            if (!server::encodeFrame(frame, conn.out))
                conn.broken = true;
            flush(conn);
            op.sent = nowSeconds();
            ++outstanding;
            ++next;
            now = op.sent;
        }
        if (next == ops.size()) {
            if (outstanding == 0)
                break;
            if (deadline == 0.0)
                deadline = now + drain_limit;
            if (now >= deadline)
                break;
        }
        const double wait = next < ops.size() ? start + ops[next].due - now
                                              : deadline - now;
        for (std::size_t c = 0; c < conns.size(); ++c) {
            fds[c].fd = conns[c]->broken ? -1 : conns[c]->fd;
            fds[c].events = static_cast<short>(
                POLLIN | (conns[c]->out.empty() ? 0 : POLLOUT));
            fds[c].revents = 0;
        }
        timespec ts;
        const double clamped = std::clamp(wait, 0.0, 0.1);
        ts.tv_sec = 0;
        ts.tv_nsec = static_cast<long>(clamped * 1e9);
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;
        for (std::size_t c = 0; c < conns.size(); ++c) {
            Conn &conn = *conns[c];
            if ((fds[c].revents & POLLOUT) != 0)
                flush(conn);
            if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            for (;;) {
                const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
                if (n > 0) {
                    conn.decoder.feed(buf, static_cast<std::size_t>(n));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                    conn.broken = true;
                break;
            }
            server::Frame frame;
            for (;;) {
                const server::FrameDecoder::Result r =
                    conn.decoder.next(frame);
                if (r == server::FrameDecoder::Result::Ready) {
                    onFrame(conn, frame, ops, payloads, outstanding, report);
                    continue;
                }
                if (r == server::FrameDecoder::Result::Corrupt)
                    conn.broken = true;
                break;
            }
        }
    }
    for (Op &op : ops) {
        if (op.sent > 0.0 && !op.completed)
            report.fail("no reply before the drain limit");
    }
    return start;
}

/** Archive set-up: create, store every object, reopen from disk. */
std::optional<archive::Archive>
buildArchive(const std::string &dir, const std::vector<std::string> &names,
             const std::vector<std::vector<std::uint8_t>> &payloads,
             Report &report)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    {
        archive::OpenResult created =
            archive::Archive::create(dir, archive::ArchiveParams{});
        if (!created.ok()) {
            report.fail("archive create failed: " + created.error);
            return std::nullopt;
        }
        for (std::size_t i = 0; i < names.size(); ++i) {
            const archive::PutResult put =
                created.archive->put(names[i], payloads[i], 1);
            if (!put.ok()) {
                report.fail("set-up put failed: " + put.error);
                return std::nullopt;
            }
        }
    }
    archive::OpenResult opened = archive::Archive::open(dir);
    if (!opened.ok()) {
        report.fail("archive reopen failed: " + opened.error);
        return std::nullopt;
    }
    return std::move(opened.archive);
}

/**
 * Split every get's latency into queue wait, fetch and reply by joining
 * it to the fetch that served it, record the spans, and report each
 * part's share of the total latency.
 */
void
decomposeLatency(const Options &options, const std::vector<Op> &ops,
                 double start, const std::vector<std::string> &names,
                 const std::vector<TimedBackend::Fetch> &fetches,
                 Report &report)
{
    // The fetch that served a get is the last fetch of its object that
    // ended before the reply arrived.  (A get can join a fetch in the
    // instant between the backend returning and the scheduler claiming
    // its waiters, so "ended after the send" is not reliable; a later
    // fetch of the object cannot end before a reply that is delivered
    // as soon as the earlier one finishes.)
    std::map<std::string, std::vector<std::size_t>> fetches_of;
    for (std::size_t f = 0; f < fetches.size(); ++f)
        for (const std::string &name : fetches[f].names)
            fetches_of[name].push_back(f);
    double queue_sum = 0.0;
    double fetch_sum = 0.0;
    double reply_sum = 0.0;
    std::size_t unjoined = 0;
    for (const TimedBackend::Fetch &f : fetches)
        options.spans->add("archive/fetch_many", f.start, f.end, 0, 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        if (!op.ok)
            continue;
        const double due = start + op.due;
        const std::uint64_t request = i + 1;
        const std::uint64_t root = options.spans->add(
            op.put ? "client/put" : "client/get", due, op.done, 0, request);
        if (op.put)
            continue;
        const TimedBackend::Fetch *served = nullptr;
        for (const std::size_t f : fetches_of[names[op.object]]) {
            if (fetches[f].end <= op.done &&
                (served == nullptr || fetches[f].end > served->end))
                served = &fetches[f];
        }
        if (served == nullptr) {
            ++unjoined;
            continue;
        }
        const LatencySplit split =
            splitLatency(due, served->start, served->end, op.done);
        options.spans->add("server/queue", due, split.fetch_begin, root,
                           request);
        options.spans->add("archive/fetch", split.fetch_begin,
                           split.fetch_end, root, request);
        options.spans->add("server/reply", split.fetch_end, op.done, root,
                           request);
        queue_sum += split.fetch_begin - due;
        fetch_sum += split.fetch_end - split.fetch_begin;
        reply_sum += op.done - split.fetch_end;
    }
    report.check("every_get_joined_to_a_fetch", unjoined == 0);
    const double latency_sum = queue_sum + fetch_sum + reply_sum;
    const auto share = [&](double part) {
        return latency_sum > 0.0 ? part / latency_sum : 0.0;
    };
    report.set("server.queue_share", share(queue_sum), "ratio");
    report.set("server.fetch_share", share(fetch_sum), "ratio");
    report.set("server.reply_share", share(reply_sum), "ratio");
}

} // namespace

void
runServe(const Options &options, Report &report)
{
    const ServeParams p = serveParams(options);
    SplitMix64 seeds(options.seed);
    std::vector<std::string> names(p.objects);
    std::vector<std::vector<std::uint8_t>> payloads(p.objects);
    {
        Rng rng(seeds.next());
        for (std::size_t i = 0; i < p.objects; ++i) {
            names[i] = "obj-" + std::to_string(i);
            payloads[i].resize(kObjectBytes);
            for (std::uint8_t &b : payloads[i])
                b = static_cast<std::uint8_t>(rng.below(256));
        }
    }
    std::vector<Op> ops = makeSchedule(options, p, seeds.next());

    // Set-up: create the archive, store every object, reopen it from
    // disk as the daemon would.  Repeated; the median is reported.
    const std::size_t setups = options.smoke ? 1 : 3;
    const std::string dir = options.work_dir + "/archive";
    std::vector<double> setup_times;
    std::optional<archive::Archive> tube;
    for (std::size_t i = 0; i < setups; ++i) {
        tube.reset();
        const double t0 = nowSeconds();
        tube = buildArchive(dir, names, payloads, report);
        setup_times.push_back(nowSeconds() - t0);
        if (!tube)
            return;
    }
    report.set("setup_s", median(setup_times), "s");

    archive::RetrievalConfig retrieval; // dnastored defaults
    retrieval.num_threads = 1;
    retrieval.max_decode_retries = 1;
    server::ServerConfig config;
    config.scheduler.num_threads = 0;
    config.scheduler.max_inflight = kInflightLimit;
    config.scheduler.per_client_inflight = kInflightLimit;
    server::ArchiveBackend inner(*tube, retrieval, 1);
    TimedBackend backend(inner, dir);
    server::Server srv(backend, config);
    if (srv.start() != server::ServerStatus::Ok) {
        report.fail("server start failed");
        return;
    }
    report.params["objects"] = std::to_string(p.objects);
    report.params["rate_rps"] = std::to_string(p.rate);
    report.params["zipf_skew"] = std::to_string(p.zipf_skew);
    report.params["put_every"] = std::to_string(p.put_every);
    report.params["connections"] = std::to_string(kConnections);
    report.params["scheduler_threads"] = std::to_string(
        std::max<std::size_t>(1, std::thread::hardware_concurrency()));

    double start = 0.0;
    double end = 0.0;
    double cpu = 0.0;
    obs::MetricsSnapshot delta;
    {
        std::thread serve_thread([&srv] { srv.serve(); });
        std::vector<std::unique_ptr<Conn>> conns;
        bool connected = true;
        for (std::size_t c = 0; c < kConnections; ++c) {
            conns.push_back(std::make_unique<Conn>());
            connected = connected && connectTo(*conns.back(), srv.port());
        }
        if (connected) {
            const TraceSinkScope sink(options);
            const obs::MetricsSnapshot before = obs::metrics().snapshot();
            const double cpu0 = processCpuSeconds();
            start = generate(conns, ops, payloads, names,
                             options.smoke ? 20.0 : 60.0, report);
            end = nowSeconds();
            cpu = processCpuSeconds() - cpu0;
            delta = obs::metrics().snapshot().delta(before);
        } else {
            report.fail("could not connect to the server");
        }
        conns.clear();
        srv.requestDrain();
        serve_thread.join();
    }
    report.attempted = ops.size();

    std::vector<double> gets;
    std::vector<double> late;
    std::size_t completed = 0;
    std::size_t slo_misses = 0;
    std::uint64_t user_bytes = p.objects * kObjectBytes;
    for (const Op &op : ops) {
        late.push_back(op.sent - (start + op.due));
        completed += op.completed ? 1 : 0;
        if (op.put) {
            user_bytes += op.ok ? op.put_data.size() : 0;
            continue;
        }
        const double latency = op.done - (start + op.due);
        if (op.ok)
            gets.push_back(latency);
        if (!op.ok || latency > kSloSeconds)
            ++slo_misses;
    }
    report.set("latency_p50_s", median(gets), "s");
    report.set("latency_p90_s", nearestRank(gets, 0.9), "s");
    report.set("cpu_s_per_op",
               cpu / static_cast<double>(std::max<std::size_t>(1, completed)),
               "s");
    report.set("peak_rss_mib", peakRssMib(), "MiB");
    report.set("stored_bytes_per_user_byte",
               static_cast<double>(archiveFileBytes(dir)) /
                   static_cast<double>(user_bytes),
               "ratio");
    report.params["gets"] = std::to_string(gets.size());
    // How late the generator ran.  Latency is timed from the due time,
    // so late sends are already charged to it; a slow host is reported,
    // not failed.
    report.set("gen.late_p99_s", nearestRank(late, 0.99), "s");
    if (!options.traced())
        return;

    const std::vector<TimedBackend::Fetch> fetches = backend.fetches();
    decomposeLatency(options, ops, start, names, fetches, report);

    const server::SchedulerCounters counters = srv.counters();
    std::size_t fetched_objects = 0;
    double fetch_busy = 0.0;
    for (const TimedBackend::Fetch &f : fetches) {
        fetched_objects += f.names.size();
        fetch_busy += f.end - f.start;
    }
    const double window = end - start;
    report.set("server.coalesced_frac",
               gets.empty() ? 0.0
                            : static_cast<double>(counters.coalesced_gets) /
                                  static_cast<double>(gets.size()),
               "ratio");
    report.set("server.gets_per_fetched_object",
               fetched_objects == 0
                   ? 0.0
                   : static_cast<double>(gets.size()) /
                         static_cast<double>(fetched_objects),
               "ratio");
    report.set("server.rejected",
               static_cast<double>(counters.rejected_overload +
                                   counters.rejected_quota +
                                   counters.rejected_draining),
               "count");
    report.set("server.slo_misses", static_cast<double>(slo_misses), "count");
    report.set("archive.fetch_calls", static_cast<double>(fetches.size()),
               "count");
    report.set("archive.objects_per_fetch",
               fetches.empty() ? 0.0
                               : static_cast<double>(fetched_objects) /
                                     static_cast<double>(fetches.size()),
               "ratio");
    report.set("archive.decode_slot_busy_frac",
               fetch_busy /
                   (window * static_cast<double>(
                                 config.scheduler.max_concurrent_batches)),
               "ratio");

    const std::vector<TimedBackend::Store> stores = backend.stores();
    double store_busy = 0.0;
    double written = 0.0;
    double stored = 0.0;
    for (const TimedBackend::Store &s : stores) {
        store_busy += s.end - s.start;
        written += static_cast<double>(s.file_bytes);
        stored += static_cast<double>(s.user_bytes);
    }
    report.set("archive.stores", static_cast<double>(stores.size()), "count");
    report.set("archive.read_block_frac", store_busy / window, "ratio");
    report.set("archive.write_amp", stored > 0.0 ? written / stored : 0.0,
               "ratio");
    report.set("archive.pool_molecules",
               static_cast<double>(tube->poolSize()), "count");

    std::size_t late_sends = 0;
    for (const double l : late)
        late_sends += l > 1e-3 ? 1 : 0;
    report.set("gen.late_sends", static_cast<double>(late_sends), "count");
    setStageMetrics(report, options.obs_sink->events());
    setCountMetrics(report, delta, false);
    setPoolMetrics(report, delta);
    report.set("proc.cpu_util", cpu / window, "ratio");
}

} // namespace dnastore::bench
