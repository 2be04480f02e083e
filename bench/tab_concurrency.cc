/**
 * @file
 * Concurrency table: profiling under the concurrent runtime. Two
 * measurements:
 *
 *   1. cooperative scaling — a request stream run under the
 *      cooperative scheduler with K = 1, 2, 4, 8 virtual mutator
 *      threads: PEP overhead (simulated cycles with the profiler
 *      attached vs. a bare run of the same interleaving) and
 *      edge-profile accuracy (relative / absolute overlap of PEP's
 *      continuous profile against the run's own ground truth),
 *      compared against the K = 1 baseline. Each PEP run executes
 *      twice and must serialize byte-identically (the determinism
 *      contract of docs/RUNTIME.md);
 *   2. throughput worker scaling — the same stream sharded over
 *      1..N OS worker threads with the sharded, cache-line-padded
 *      aggregator: path records and edge counts per worker count.
 *      Counts only: one run of a few milliseconds per cell is too
 *      short to time; perfbench's `runtime.sharded_req_per_s` rung
 *      times the sharded transport with interleaved repeats.
 *
 * The aggregation strategies (sharded, mutex, ring) are compared, and
 * checked count for count against each other, by tab_transport.
 *
 * Usage: tab_concurrency [output.json]   (default tab_concurrency.json)
 * PEP_BENCH_SCALE scales the request count.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "common/report.hh"
#include "core/pep_profiler.hh"
#include "core/sampling.hh"
#include "metrics/overlap.hh"
#include "runtime/coop_scheduler.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"
#include "vm/machine.hh"

using namespace pep;

namespace {

/** Everything observable about one cooperative run, serialized; two
 *  runs with identical seeds must compare equal byte for byte. */
std::string
serializeRun(const vm::Machine &machine, const core::PepProfiler &pep,
             const runtime::CoopStats &stats)
{
    std::ostringstream os;
    const auto dump = [&os](const profile::EdgeProfileSet &set) {
        for (const auto &method : set.perMethod) {
            for (const auto &per_block : method.counts())
                for (std::uint64_t count : per_block)
                    os << count << ' ';
            os << '\n';
        }
    };
    dump(machine.truthEdges());
    dump(pep.edgeProfile());
    for (const auto &[key, vp] : pep.versionProfiles()) {
        std::map<std::uint64_t, std::uint64_t> ordered;
        for (const auto &[number, record] : vp->paths.paths())
            ordered[number] = record.count;
        os << key.first << '/' << key.second << ':';
        for (const auto &[number, count] : ordered)
            os << ' ' << number << '=' << count;
        os << '\n';
    }
    os << stats.contextSwitches << ' ' << stats.requestsCompleted
       << ' ' << machine.stats().instructionsExecuted << ' '
       << machine.now() << '\n';
    return os.str();
}

struct CoopRow
{
    std::uint32_t threads = 1;
    std::uint64_t baseCycles = 0;
    std::uint64_t pepCycles = 0;
    double overhead = 0.0; // (pep - base) / base
    double relativeOverlap = 0.0;
    double absoluteOverlap = 0.0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t samplesRecorded = 0;
    bool deterministic = false;
};

CoopRow
runCoopCell(const runtime::RequestStream &stream,
            const vm::SimParams &params, std::uint32_t threads,
            bench::Report &report)
{
    CoopRow row;
    row.threads = threads;

    const auto drive = [&](vm::Machine &machine) {
        runtime::CoopOptions coop;
        coop.threads = threads;
        coop.seed = stream.spec().seed;
        runtime::CoopScheduler scheduler(machine, coop);
        scheduler.assignRoundRobin(stream);
        scheduler.run();
        report.check(scheduler.stats().requestsCompleted ==
                         stream.requests().size(),
                     "K=" + std::to_string(threads) +
                         " did not complete every request");
        return scheduler.stats();
    };

    // Bare run: the same interleaving with no profiler attached gives
    // the cost baseline for this K.
    {
        vm::Machine machine(stream.program(), params);
        drive(machine);
        row.baseCycles = machine.now();
    }

    // PEP run, twice: overhead + accuracy from the first, determinism
    // from byte-comparing the second against it.
    std::string first_blob;
    for (int run = 0; run < 2; ++run) {
        vm::Machine machine(stream.program(), params);
        core::SimplifiedArnoldGrove controller(64, 17);
        core::PepProfiler pep(machine, controller);
        machine.addHooks(&pep);
        machine.addCompileObserver(&pep);
        const runtime::CoopStats stats = drive(machine);

        if (run == 0) {
            row.pepCycles = machine.now();
            row.overhead =
                row.baseCycles > 0
                    ? (static_cast<double>(row.pepCycles) -
                       static_cast<double>(row.baseCycles)) /
                          static_cast<double>(row.baseCycles)
                    : 0.0;
            const std::vector<bytecode::MethodCfg> cfgs =
                bench::allCfgs(machine);
            row.relativeOverlap = metrics::relativeOverlap(
                cfgs, machine.truthEdges(), pep.edgeProfile());
            row.absoluteOverlap = metrics::absoluteOverlap(
                machine.truthEdges(), pep.edgeProfile());
            row.contextSwitches = stats.contextSwitches;
            row.samplesRecorded = pep.pepStats().samplesRecorded;
            first_blob = serializeRun(machine, pep, stats);
        } else {
            row.deterministic =
                serializeRun(machine, pep, stats) == first_blob;
        }
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    runtime::RequestStreamSpec spec;
    spec.seed = 401;
    spec.requests = std::max<std::uint32_t>(
        64, static_cast<std::uint32_t>(4096 * bench::benchScale()));
    const runtime::RequestStream stream(spec);

    vm::SimParams params = bench::defaultParams();
    // Short tick period relative to a request's length, so the timer
    // actually drives context switches and sampling on this stream.
    params.tickCycles = 10'000;
    params.rngSeed = spec.seed ^ 0x7ead5eedull;

    bench::Report report("tab_concurrency");
    report.set("requests", spec.requests, "count");

    // ---- cooperative scaling ----------------------------------------
    std::printf("tab_concurrency: %u requests, cooperative runs...\n",
                spec.requests);
    const std::uint32_t kValues[] = {1, 2, 4, 8};
    for (const std::uint32_t k : kValues) {
        const CoopRow row = runCoopCell(stream, params, k, report);
        std::printf("  K=%u  base %10llu  pep %10llu  overhead %6s  "
                    "rel %.4f  abs %.4f  switches %6llu  %s\n",
                    row.threads,
                    static_cast<unsigned long long>(row.baseCycles),
                    static_cast<unsigned long long>(row.pepCycles),
                    bench::pct(row.overhead).c_str(),
                    row.relativeOverlap, row.absoluteOverlap,
                    static_cast<unsigned long long>(
                        row.contextSwitches),
                    row.deterministic ? "deterministic"
                                      : "NON-DETERMINISTIC");
        const std::string prefix = "coop.k" + std::to_string(k) + ".";
        report.set(prefix + "base_cycles",
                   static_cast<double>(row.baseCycles), "count");
        report.set(prefix + "pep_cycles",
                   static_cast<double>(row.pepCycles), "count");
        report.set(prefix + "overhead", row.overhead, "ratio");
        report.set(prefix + "relative_overlap", row.relativeOverlap,
                   "ratio");
        report.set(prefix + "absolute_overlap", row.absoluteOverlap,
                   "ratio");
        report.set(prefix + "context_switches",
                   static_cast<double>(row.contextSwitches), "count");
        report.set(prefix + "samples_recorded",
                   static_cast<double>(row.samplesRecorded), "count");
        report.check(row.deterministic,
                     "K=" + std::to_string(k) +
                         " PEP run is not deterministic");
    }

    // ---- throughput worker scaling ----------------------------------
    const std::uint32_t max_workers = std::clamp(
        std::thread::hardware_concurrency(), 2u, 8u);
    std::printf("tab_concurrency: throughput scaling to %u "
                "workers...\n",
                max_workers);
    runtime::ThroughputOptions t_options;
    t_options.epochRequests = 64;
    t_options.params = params;
    t_options.aggregation =
        runtime::ThroughputOptions::Aggregation::Sharded;
    for (std::uint32_t w = 1; w <= max_workers; ++w) {
        t_options.workers = w;
        const runtime::ThroughputResult r =
            runtime::runThroughput(stream, t_options);
        std::printf("  workers=%u  %llu path records  %llu edges\n", w,
                    static_cast<unsigned long long>(r.pathRecords),
                    static_cast<unsigned long long>(
                        r.edges.totalCount()));
        const std::string prefix =
            "scaling.w" + std::to_string(w) + ".";
        report.set(prefix + "path_records",
                   static_cast<double>(r.pathRecords), "count");
        report.set(prefix + "edge_count",
                   static_cast<double>(r.edges.totalCount()), "count");
    }
    return report.write(argc > 1 ? argv[1] : "tab_concurrency.json");
}
