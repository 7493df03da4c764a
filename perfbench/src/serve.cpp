/**
 * @file
 * The serve_pnpp phases. Latency in the open-loop phases is timed from
 * each request's *due* time on an absolute arrival schedule, not from
 * the submit() call (as examples/serve_loadgen does): if the
 * generator stalls, the requests it should have sent meanwhile still
 * count the wait, and the stall itself is reported as generator lag.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <random>
#include <thread>

#include "common/rng.hpp"
#include "workloads.hpp"

using namespace mesorasi;

namespace perfbench {

namespace {

/** Phase (a): about 40% of the 2x2 layout's saturation on 4 cores. */
constexpr double kLightQps = 150.0;
/** Phase (b): rates kLadderStartQps * kLadderStep^k, ascending until
 *  the first rate that misses the latency limit. */
constexpr double kLadderStartQps = 260.0;
constexpr double kLadderStep = 1.1;
constexpr int kLadderRungs = 12;
/** Phase (c): outstanding requests, well below the 2 x 256 queue
 *  capacity, enough to keep every worker's batches full. */
constexpr int32_t kClosedLoopClients = 16;
/** Requests sent at once before the phases, so every shard worker has
 *  built its context. */
constexpr int kWarmupRequests = 32;
/** Served outputs kept per phase for the served == direct gate. */
constexpr size_t kGateSamplesPerPhase = 4;

void
countTicket(const serve::Ticket &t, Counts &c)
{
    ++c.attempted;
    if (t.status().isOk())
        ++c.succeeded;
    else if (t.status().code() == StatusCode::ResourceExhausted)
        ++c.rejected;
    else
        ++c.failed;
}

struct Sent
{
    Clock::time_point due, start, end;
    serve::Ticket ticket;
    size_t cloud = 0;
};

/** One open-loop phase: Poisson arrivals at @p qps for @p seconds. */
OpenLoopResult
openLoop(serve::ServingEngine &server,
         const std::vector<geom::PointCloud> &clouds, uint64_t seed,
         uint64_t &nextRequest, double qps, double seconds, double sloMs,
         SpanLog *spans, std::vector<OutputSample> &gateSamples)
{
    // The whole arrival schedule is drawn before the first send, so
    // the sends never wait on completions (open loop).
    Rng rng(requestSeed(seed, nextRequest) ^ 0xa771ull);
    std::exponential_distribution<double> gap(qps);
    std::vector<double> offsets;
    for (double t = gap(rng.engine()); t < seconds; t += gap(rng.engine()))
        offsets.push_back(t);

    std::vector<Sent> sent(offsets.size());
    const uint64_t firstRequest = nextRequest;
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    for (size_t i = 0; i < sent.size(); ++i) {
        Sent &s = sent[i];
        s.due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[i]));
        if (s.due > Clock::now())
            std::this_thread::sleep_until(s.due);
        s.cloud = nextRequest % clouds.size();
        s.start = Clock::now();
        s.ticket = server.submit(clouds[s.cloud],
                                 requestSeed(seed, nextRequest));
        s.end = Clock::now();
        ++nextRequest;
    }

    OpenLoopResult r;
    r.nominalQps = qps;
    r.offeredQps = static_cast<double>(sent.size()) / seconds;
    const Clock::time_point windowEnd =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    Clock::time_point lastDone = windowEnd;
    for (Sent &s : sent) {
        s.ticket.wait();
        countTicket(s.ticket, r.counts);
        const double ticketMs = s.ticket.latencyMs();
        const Clock::time_point done =
            s.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              ticketMs));
        lastDone = std::max(lastDone, done);
        r.lagMs.push_back(msBetween(s.due, s.start));
        r.submitUs.push_back(msBetween(s.start, s.end) * 1000.0);
        if (!s.ticket.status().isOk())
            continue;
        r.ticketMs.push_back(ticketMs);
        r.latencyMs.push_back(msBetween(s.due, done));
        if (spans) {
            const uint64_t id = firstRequest + (&s - sent.data());
            const int64_t req = spans->add("request", id, -1, s.due, done, 0);
            spans->add("submit", id, req, s.start, s.end, 0);
            spans->add("server", id, req, s.start, done,
                       1 + s.ticket.shard());
        }
    }
    r.drainMs = msBetween(windowEnd, lastDone);
    r.tail = tailOf(r.latencyMs);
    r.meetsSlo = r.counts.failed == 0 && r.counts.rejected == 0 &&
                 !r.latencyMs.empty() && r.tail.valueMs <= sloMs &&
                 r.drainMs <= sloMs;
    // Gate samples: successful requests spread over the phase.
    const size_t stride =
        std::max<size_t>(1, sent.size() / kGateSamplesPerPhase);
    size_t kept = 0;
    for (size_t i = stride / 2;
         i < sent.size() && kept < kGateSamplesPerPhase; i += stride)
        if (sent[i].ticket.status().isOk()) {
            gateSamples.push_back({sent[i].cloud, sent[i].ticket.seed(),
                                   sent[i].ticket.logits()});
            ++kept;
        }
    return r;
}

/**
 * Highest offered rate whose tail stays within @p sloMs with no
 * failures and no backlog left at the end of its window. Between the
 * last rate that meets the limit and the first that misses it on tail
 * alone, the crossing is interpolated in log(tail), so the figure is
 * not quantized to the ladder's rungs.
 */
double
maxQpsWithinSlo(const std::vector<const OpenLoopResult *> &points,
                double sloMs)
{
    size_t f = 0;
    while (f < points.size() && points[f]->meetsSlo)
        ++f;
    if (f == points.size())
        return points.back()->nominalQps;
    if (f == 0) {
        const OpenLoopResult &a = *points[0];
        return a.nominalQps *
               std::min(1.0, sloMs / std::max(a.tail.valueMs, 1e-9));
    }
    const OpenLoopResult &pass = *points[f - 1];
    const OpenLoopResult &miss = *points[f];
    const bool tailOnly = miss.counts.failed == 0 &&
                          miss.counts.rejected == 0 &&
                          miss.tail.valueMs > sloMs;
    if (!tailOnly || pass.tail.valueMs <= 0.0)
        return pass.nominalQps;
    const double x = (std::log(sloMs) - std::log(pass.tail.valueMs)) /
                     (std::log(miss.tail.valueMs) -
                      std::log(pass.tail.valueMs));
    return pass.nominalQps +
           std::clamp(x, 0.0, 1.0) * (miss.nominalQps - pass.nominalQps);
}

/** Phase (c): kClosedLoopClients callers, each submitting its next
 *  request when the previous one completes. */
ClosedLoopResult
closedLoop(serve::ServingEngine &server,
           const std::vector<geom::PointCloud> &clouds, uint64_t seed,
           uint64_t &nextRequest, double seconds,
           std::vector<OutputSample> &gateSamples)
{
    struct Client
    {
        Counts counts;
        std::vector<double> latencyMs;
        std::vector<std::pair<serve::Ticket, size_t>> kept;
        std::exception_ptr error;
    };
    std::vector<Client> clients(kClosedLoopClients);
    std::atomic<uint64_t> next{nextRequest};
    std::atomic<bool> stop{false};

    ClosedLoopResult r;
    r.clients = kClosedLoopClients;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    auto joinAll = [&] {
        stop.store(true);
        for (std::thread &t : threads)
            t.join();
    };
    try {
        for (Client &c : clients)
            threads.emplace_back([&, &c = c] {
            try {
                c.latencyMs.reserve(static_cast<size_t>(seconds * 200) + 8);
                while (!stop.load(std::memory_order_relaxed)) {
                    const uint64_t i = next.fetch_add(1);
                    const size_t cloud = i % clouds.size();
                    serve::Ticket t =
                        server.submit(clouds[cloud], requestSeed(seed, i));
                    t.wait();
                    countTicket(t, c.counts);
                    if (t.status().isOk())
                        c.latencyMs.push_back(t.latencyMs());
                    if (c.kept.empty() && &c - clients.data() <
                                              static_cast<ptrdiff_t>(
                                                  kGateSamplesPerPhase))
                        c.kept.emplace_back(t, cloud);
                }
            } catch (...) {
                c.error = std::current_exception();
            }
        });
    } catch (...) {
        joinAll();
        throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    joinAll();
    r.wallS = msBetween(t0, Clock::now()) / 1000.0;
    r.cpuS = cpuSeconds() - cpu0;
    nextRequest = next.load();

    for (Client &c : clients) {
        if (c.error)
            std::rethrow_exception(c.error);
        r.counts.add(c.counts);
        r.latencyMs.insert(r.latencyMs.end(), c.latencyMs.begin(),
                           c.latencyMs.end());
        for (const auto &[t, cloud] : c.kept)
            if (t.status().isOk())
                gateSamples.push_back({cloud, t.seed(), t.logits()});
    }
    return r;
}

} // namespace

ServeResult
runServe(const Workload &w, const Prepared &p,
         const std::vector<geom::PointCloud> &clouds, uint64_t seed,
         double seconds, SpanLog *spans)
{
    serve::ServingEngine &server = *p.server;
    ServeResult r;
    uint64_t nextRequest = 1u << 20; // clear of the set-up requests

    std::vector<serve::Ticket> warm;
    for (int i = 0; i < kWarmupRequests; ++i, ++nextRequest)
        warm.push_back(server.submit(clouds[nextRequest % clouds.size()],
                                     requestSeed(seed, nextRequest)));
    for (const serve::Ticket &t : warm) {
        t.wait();
        countTicket(t, r.warmup);
    }

    r.light = openLoop(server, clouds, seed, nextRequest, kLightQps,
                       0.4 * seconds, w.sloMs, spans, r.served);

    std::vector<const OpenLoopResult *> points{&r.light};
    r.ladder.reserve(kLadderRungs);
    double qps = kLadderStartQps;
    for (int k = 0; k < kLadderRungs; ++k, qps *= kLadderStep) {
        r.ladder.push_back(openLoop(server, clouds, seed, nextRequest, qps,
                                    0.05 * seconds, w.sloMs, spans,
                                    r.served));
        points.push_back(&r.ladder.back());
        if (!r.ladder.back().meetsSlo)
            break;
    }
    r.maxQpsSlo = maxQpsWithinSlo(points, w.sloMs);

    r.closed = closedLoop(server, clouds, seed, nextRequest, 0.1 * seconds,
                          r.served);
    r.stats = server.stats();
    return r;
}

} // namespace perfbench
