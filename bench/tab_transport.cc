/**
 * @file
 * Sample-transport table: the SPSC ring pipeline under sustained load.
 * Four measurements:
 *
 *   1. sustained run — a million-request stream (PEP_BENCH_SCALE
 *      scales it down) sharded over >= 16 OS workers recording through
 *      the ring transport: requests/second, drop accounting (the
 *      conservation law produced == consumed + dropped is a hard
 *      failure), windowed-profile staleness, and memory flatness (peak
 *      RSS after a short warm-up run vs. after the full run — a
 *      transport whose footprint grows with request count fails the
 *      point of bounded rings and pruned windows);
 *   2. drop rate vs. ring capacity — the same workload swept across
 *      ring sizes: how much capacity buys how much fidelity;
 *   3. aggregation comparison — ring vs. sharded vs. mutex
 *      requests/second at the sustained worker count;
 *   4. drop-free identity — at a scale where the ample ring provably
 *      cannot fill, the ring totals must match mutex (and sharded)
 *      count for count; divergence is a hard failure.
 *
 * Usage: tab_transport [output.json]   (default tab_transport.json)
 * PEP_BENCH_SCALE scales the request counts.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "common/report.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"

using namespace pep;

namespace {

/** Peak resident set (VmHWM) in kB; 0 where /proc is unavailable.
 *  The peak — not the current RSS — is what a leaky transport moves. */
std::uint64_t
peakRssKb()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtoull(line + 6, nullptr, 10);
            break;
        }
    }
    std::fclose(status);
    return kb;
}

bool
edgesIdentical(const profile::EdgeProfileSet &a,
               const profile::EdgeProfileSet &b)
{
    if (a.perMethod.size() != b.perMethod.size())
        return false;
    for (std::size_t m = 0; m < a.perMethod.size(); ++m)
        if (a.perMethod[m].counts() != b.perMethod[m].counts())
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = bench::benchScale();

    const std::uint32_t workers = std::max<std::uint32_t>(
        16, std::thread::hardware_concurrency());
    const auto sustained_requests = std::max<std::uint32_t>(
        8192, static_cast<std::uint32_t>(1'000'000 * scale));

    vm::SimParams params = bench::defaultParams();
    params.tickCycles = 10'000;
    params.rngSeed = 701 ^ 0x7ead5eedull;

    runtime::RequestStreamSpec spec;
    spec.seed = 701;
    spec.requests = sustained_requests;
    const runtime::RequestStream stream(spec);

    runtime::ThroughputOptions options;
    options.workers = workers;
    options.epochRequests = 64;
    options.params = params;
    options.aggregation = runtime::ThroughputOptions::Aggregation::Ring;
    options.ring.capacity = 1u << 14;
    options.ring.windowDecay = 0.5;

    bench::Report report("tab_transport");
    const auto checkConservation =
        [&report](const runtime::ThroughputResult &result,
                  const std::string &label) {
            const runtime::RingTransportStats &t = result.transport;
            report.check(t.produced == t.consumed + t.dropped,
                         label + ": produced " +
                             std::to_string(t.produced) +
                             " != consumed " +
                             std::to_string(t.consumed) +
                             " + dropped " + std::to_string(t.dropped));
        };

    // ---- sustained run ----------------------------------------------
    // Warm-up at 1/8 scale pins the high-water mark a bounded
    // transport should already be near; the full run then must not
    // move it by much (rings are fixed arrays, windows are pruned —
    // only path-total tables may still creep toward their bounded
    // universe of distinct paths).
    std::printf("tab_transport: %u requests over %u workers "
                "(ring capacity %u)...\n",
                sustained_requests, workers, options.ring.capacity);
    runtime::RequestStreamSpec warm_spec = spec;
    warm_spec.requests = std::max<std::uint32_t>(
        1024, sustained_requests / 8);
    {
        const runtime::RequestStream warm(warm_spec);
        (void)runtime::runThroughput(warm, options);
    }
    const std::uint64_t rss_warm_kb = peakRssKb();

    const runtime::ThroughputResult sustained =
        runtime::runThroughput(stream, options);
    const std::uint64_t rss_after_kb = peakRssKb();
    const double rss_growth_kb = static_cast<double>(rss_after_kb) -
                                 static_cast<double>(rss_warm_kb);
    checkConservation(sustained, "sustained");
    report.check(sustained.requestsCompleted == sustained_requests,
                 "sustained: completed " +
                     std::to_string(sustained.requestsCompleted) +
                     " of " + std::to_string(sustained_requests) +
                     " requests");
    std::printf("  sustained: %9.0f req/s  drop-rate %.4f%%  "
                "staleness %.3f epochs  rss %llu -> %llu kB "
                "(%+.0f kB)\n",
                sustained.requestsPerSecond,
                100.0 * sustained.transport.dropRate(),
                sustained.windowStalenessEpochs,
                static_cast<unsigned long long>(rss_warm_kb),
                static_cast<unsigned long long>(rss_after_kb),
                rss_growth_kb);
    report.set("sustained.workers", workers, "count");
    report.set("sustained.requests", sustained_requests, "count");
    report.set("sustained.ring_capacity", options.ring.capacity,
               "count");
    report.set("sustained.window_decay", options.ring.windowDecay,
               "ratio");
    report.set("sustained.wall_seconds", sustained.wallSeconds, "s");
    report.set("sustained.requests_per_sec",
               sustained.requestsPerSecond, "1/s");
    report.set("sustained.produced",
               static_cast<double>(sustained.transport.produced),
               "count");
    report.set("sustained.consumed",
               static_cast<double>(sustained.transport.consumed),
               "count");
    report.set("sustained.dropped",
               static_cast<double>(sustained.transport.dropped),
               "count");
    report.set("sustained.drop_rate", sustained.transport.dropRate(),
               "ratio");
    report.set("sustained.epoch_marks",
               static_cast<double>(sustained.transport.epochMarks),
               "count");
    report.set("sustained.window_advances",
               static_cast<double>(sustained.windowAdvances), "count");
    report.set("sustained.window_staleness_epochs",
               sustained.windowStalenessEpochs, "epochs");
    report.set("sustained.window_mass", sustained.windowMass, "count");
    report.set("sustained.peak_rss_warm_kb",
               static_cast<double>(rss_warm_kb), "kB");
    report.set("sustained.peak_rss_after_kb",
               static_cast<double>(rss_after_kb), "kB");
    report.set("sustained.peak_rss_growth_kb", rss_growth_kb, "kB");

    // ---- drop rate vs ring capacity ---------------------------------
    const std::uint32_t sweep_capacities[] = {
        1u << 8, 1u << 10, 1u << 12, 1u << 14, 1u << 16};
    runtime::RequestStreamSpec sweep_spec = spec;
    sweep_spec.requests = std::max<std::uint32_t>(
        2048, sustained_requests / 8);
    const runtime::RequestStream sweep_stream(sweep_spec);
    std::printf("tab_transport: capacity sweep (%u requests)...\n",
                sweep_spec.requests);
    for (const std::uint32_t capacity : sweep_capacities) {
        options.ring.capacity = capacity;
        const runtime::ThroughputResult result =
            runtime::runThroughput(sweep_stream, options);
        checkConservation(result, "sweep");
        std::printf("  capacity %6u  %9.0f req/s  drop-rate %7.4f%%\n",
                    capacity, result.requestsPerSecond,
                    100.0 * result.transport.dropRate());
        const std::string prefix =
            "capacity_sweep.c" + std::to_string(capacity) + ".";
        report.set(prefix + "requests_per_sec",
                   result.requestsPerSecond, "1/s");
        report.set(prefix + "drop_rate", result.transport.dropRate(),
                   "ratio");
        report.set(prefix + "consumed",
                   static_cast<double>(result.transport.consumed),
                   "count");
        report.set(prefix + "window_staleness_epochs",
                   result.windowStalenessEpochs, "epochs");
    }
    options.ring.capacity = 1u << 14;

    // ---- aggregation comparison -------------------------------------
    runtime::RequestStreamSpec agg_spec = spec;
    agg_spec.requests = std::max<std::uint32_t>(
        2048, sustained_requests / 8);
    const runtime::RequestStream agg_stream(agg_spec);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult sharded =
        runtime::runThroughput(agg_stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult mutex_global =
        runtime::runThroughput(agg_stream, options);
    options.aggregation =
        runtime::ThroughputOptions::Aggregation::Ring;
    const runtime::ThroughputResult ring_agg =
        runtime::runThroughput(agg_stream, options);
    checkConservation(ring_agg, "aggregation");
    std::printf("tab_transport: ring %9.0f vs sharded %9.0f vs "
                "mutex %9.0f req/s\n",
                ring_agg.requestsPerSecond, sharded.requestsPerSecond,
                mutex_global.requestsPerSecond);
    report.set("aggregation.ring_requests_per_sec",
               ring_agg.requestsPerSecond, "1/s");
    report.set("aggregation.sharded_requests_per_sec",
               sharded.requestsPerSecond, "1/s");
    report.set("aggregation.mutex_requests_per_sec",
               mutex_global.requestsPerSecond, "1/s");
    report.set("aggregation.ring_drop_rate",
               ring_agg.transport.dropRate(), "ratio");

    // ---- drop-free identity -----------------------------------------
    // Small enough that each worker's whole record volume fits in the
    // ample ring even if the collector never runs mid-production: the
    // merged totals must equal the synchronous baselines exactly.
    runtime::RequestStreamSpec id_spec = spec;
    id_spec.requests = 4096;
    const runtime::RequestStream id_stream(id_spec);
    runtime::ThroughputOptions id_options = options;
    id_options.ring.capacity = 1u << 17;
    id_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Ring;
    const runtime::ThroughputResult id_ring =
        runtime::runThroughput(id_stream, id_options);
    id_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Mutex;
    const runtime::ThroughputResult id_mutex =
        runtime::runThroughput(id_stream, id_options);
    id_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    const runtime::ThroughputResult id_sharded =
        runtime::runThroughput(id_stream, id_options);
    checkConservation(id_ring, "identity");

    const bool drop_free = id_ring.transport.dropped == 0;
    const bool ring_matches =
        drop_free && edgesIdentical(id_ring.edges, id_mutex.edges) &&
        id_ring.paths == id_mutex.paths;
    const bool sharded_matches =
        edgesIdentical(id_sharded.edges, id_mutex.edges) &&
        id_sharded.paths == id_mutex.paths;
    std::printf("tab_transport: identity at %u requests — ring "
                "dropped %llu, ring %s, sharded %s\n",
                id_spec.requests,
                static_cast<unsigned long long>(
                    id_ring.transport.dropped),
                ring_matches ? "matches mutex" : "DIVERGES",
                sharded_matches ? "matches mutex" : "DIVERGES");
    report.set("identity.requests", id_spec.requests, "count");
    report.set("identity.ring_dropped",
               static_cast<double>(id_ring.transport.dropped), "count");
    report.check(drop_free, "identity: the ample ring dropped records");
    report.check(ring_matches,
                 "identity: ring profiles differ from mutex");
    report.check(sharded_matches,
                 "identity: sharded profiles differ from mutex");

    return report.write(argc > 1 ? argv[1] : "tab_transport.json");
}
