/**
 * @file
 * The server workloads: a generated request stream (runtime::
 * RequestStream) driven through runtime::runThroughput with
 * Aggregation::Ring, 3 worker threads plus the ring's collector thread.
 * Every completed path and its edges go through the transport.
 *
 *   server-hot      the default RequestStreamSpec (4 handlers): few
 *                   distinct paths, heavy repetition;
 *   server-diverse  16 handlers, 6 leaves, 10 elements per body, 8
 *                   switch cases: about 15,500 distinct paths.
 *
 * The stream itself (program shape and request arguments) is fixed by
 * the spec, as the replay-suite's programs are; the seed is the input
 * the handlers read, the workers' Irnd stream (SimParams::rngSeed),
 * which steers their data-dependent branches and inner loop trips.
 *
 * --trace 0 repeats timed ring runs of the whole stream for the run's
 * budget. --trace 1 runs the ablation ladder instead: per round, vm
 * batches (the benchmark's own worker threads running the shards
 * through Machine + Interpreter, each batch adding one layer), a
 * sharded run, and traced and untraced ring runs. Both modes end with
 * an untimed PEP pass over worker 0's shard for simulated overhead and
 * profile accuracy.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "common/harness.hh"
#include "core/baseline_profilers.hh"
#include "core/pep_profiler.hh"
#include "metrics/overlap.hh"
#include "metrics/path_accuracy.hh"
#include "runtime/request_stream.hh"
#include "runtime/throughput.hh"
#include "vm/interpreter.hh"

namespace pep::perfbench {

namespace {

using Aggregation = runtime::ThroughputOptions::Aggregation;

/** Producers; the ring adds its collector thread. */
constexpr std::uint32_t kWorkers = 3;
/** Requests per stream: long enough for the ring to reach its steady
 *  drop rate, short enough for many runs per measurement. */
constexpr std::uint32_t kRequests = 200'000;
constexpr int kSetupReps = 5;
/** Fewest timed ring runs, and fewest ladder rounds: layer costs are
 *  differences of noisy rung times and need more rounds to settle. */
constexpr int kMinRuns = 3;
constexpr int kMinRounds = 5;

runtime::RequestStreamSpec
streamSpec(bool diverse)
{
    runtime::RequestStreamSpec spec;
    spec.requests = kRequests;
    if (diverse) {
        spec.handlers = 16;
        spec.leaves = 6;
        spec.elementsPerBody = 10;
        spec.switchCases = 8;
    }
    return spec;
}

runtime::ThroughputResult
throughput(const runtime::RequestStream &stream, Aggregation aggregation,
           std::uint32_t workers, const vm::SimParams &params,
           Tracer &tracer, const std::string &id, bool traced = true)
{
    runtime::ThroughputOptions options;
    options.workers = workers;
    options.aggregation = aggregation;
    options.params = params;
    Tracer::Scope scope = traced
                              ? tracer.span("runtime.run_throughput", id)
                              : Tracer::Scope(tracer, -1);
    return runtime::runThroughput(stream, options);
}

std::uint64_t
pathTotal(const runtime::PathTotals &paths)
{
    std::uint64_t total = 0;
    for (const auto &[key, count] : paths)
        total += count;
    return total;
}

/** Per-edge a <= b over two profiles of the same program. */
bool
edgesWithin(const profile::EdgeProfileSet &a,
            const profile::EdgeProfileSet &b)
{
    if (a.perMethod.size() != b.perMethod.size())
        return false;
    for (std::size_t m = 0; m < a.perMethod.size(); ++m) {
        const auto &ca = a.perMethod[m].counts();
        const auto &cb = b.perMethod[m].counts();
        if (ca.size() != cb.size())
            return false;
        for (std::size_t blk = 0; blk < ca.size(); ++blk) {
            if (ca[blk].size() != cb[blk].size())
                return false;
            for (std::size_t i = 0; i < ca[blk].size(); ++i)
                if (ca[blk][i] > cb[blk][i])
                    return false;
        }
    }
    return true;
}

/** Per-path a <= b (a path absent from b counts as 0). */
bool
pathsWithin(const runtime::PathTotals &a, const runtime::PathTotals &b)
{
    for (const auto &[key, count] : a) {
        const auto it = b.find(key);
        if (it == b.end() || count > it->second)
            return false;
    }
    return true;
}

/** Checks every run of the stream must pass. */
void
checkRun(const runtime::ThroughputResult &result,
         const runtime::RequestStream &stream, const std::string &label,
         Report &report)
{
    report.check(result.requestsCompleted == stream.requests().size(),
                 label + ": " + std::to_string(result.requestsCompleted) +
                     " of " + std::to_string(stream.requests().size()) +
                     " requests completed");
}

/** Ring-run checks against the exact (sharded) totals. */
void
checkRing(const runtime::ThroughputResult &ring,
          const runtime::ThroughputResult &exact,
          const runtime::RequestStream &stream, const std::string &label,
          Report &report)
{
    checkRun(ring, stream, label, report);
    const runtime::RingTransportStats &t = ring.transport;
    report.check(t.produced == t.consumed + t.dropped,
                 label + ": produced " + std::to_string(t.produced) +
                     " != consumed " + std::to_string(t.consumed) +
                     " + dropped " + std::to_string(t.dropped));
    report.check(t.produced == ring.pathRecords + ring.edgeRecords,
                 label + ": ring produced differs from the records "
                         "written");
    report.check(pathsWithin(ring.paths, exact.paths),
                 label + ": a delivered path count exceeds the exact "
                         "total");
    report.check(edgesWithin(ring.edges, exact.edges),
                 label + ": a delivered edge count exceeds the exact "
                         "total");
}

/** 1 - delivered profile events / events written. */
double
lossRatio(const runtime::ThroughputResult &ring)
{
    const double delivered =
        static_cast<double>(pathTotal(ring.paths)) +
        static_cast<double>(ring.edges.totalCount());
    return 1.0 - delivered / static_cast<double>(ring.pathRecords +
                                                 ring.edgeRecords);
}

/** Run one worker's shard on one machine, each request to completion;
 *  returns the number of requests run. */
std::size_t
runShard(vm::Machine &machine, const runtime::RequestStream &stream,
         std::uint32_t shard, std::uint32_t workers)
{
    vm::Interpreter interp(machine, 0);
    const std::vector<runtime::Request> requests =
        stream.shard(shard, workers);
    for (const runtime::Request &request : requests) {
        interp.start(stream.handlerMethod(request.handler), {request.arg});
        while (!interp.resume()) {
        }
    }
    return requests.size();
}

/** Simulated cycles a machine spent outside the compiler. */
std::uint64_t
executionCycles(const vm::Machine &machine)
{
    return machine.now() - machine.stats().compileCycles;
}

/** Exact counts of a vm batch, summed over its workers. */
struct VmBatch
{
    double seconds = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t instructions = 0;
    std::uint64_t edges = 0;
    std::uint64_t invocations = 0;
    std::uint64_t yieldpoints = 0;
    std::uint64_t compiles = 0;
    std::uint64_t methodsDecoded = 0;
    std::uint64_t samplesTaken = 0;
};

/**
 * The runtime's worker loop with the recorder replaced by one ladder
 * layer: each worker builds a private Machine, attaches the layer and
 * runs its shard back to back. Timed like runThroughput, from before
 * the threads start to after they join.
 */
VmBatch
runVmBatch(const runtime::RequestStream &stream, std::uint32_t workers,
           const vm::SimParams &params, Layer layer, Tracer &tracer,
           const std::string &id)
{
    std::vector<VmBatch> tallies(workers);
    Tracer::Scope scope = tracer.span("runtime.vm_batch", id);
    const Clock::time_point start = Clock::now();
    {
        std::vector<std::jthread> threads;
        for (std::uint32_t w = 0; w < workers; ++w) {
            threads.emplace_back([&, w] {
                vm::Machine machine(stream.program(), params);
                NoopHooks noop;
                core::SimplifiedArnoldGrove sampled(kPepSamples, kPepStride);
                core::NeverSample never;
                std::unique_ptr<core::PepProfiler> pep;
                if (layer == Layer::NoopHook) {
                    machine.addHooks(&noop);
                } else if (layer != Layer::None) {
                    core::SamplingController &controller =
                        layer == Layer::Pep
                            ? static_cast<core::SamplingController &>(
                                  sampled)
                            : never;
                    pep = std::make_unique<core::PepProfiler>(machine,
                                                              controller);
                    machine.addHooks(pep.get());
                    machine.addCompileObserver(pep.get());
                }
                VmBatch &tally = tallies[w];
                tally.requests = runShard(machine, stream, w, workers);
                const vm::MachineStats &stats = machine.stats();
                tally.instructions = stats.instructionsExecuted;
                tally.edges = machine.truthEdges().totalCount();
                tally.invocations = stats.methodInvocations;
                tally.yieldpoints = stats.yieldpointsExecuted;
                tally.compiles = stats.compiles;
                tally.methodsDecoded = stats.methodsDecoded;
                tally.samplesTaken = pep ? pep->pepStats().samplesTaken : 0;
            });
        }
    }
    VmBatch sum;
    sum.seconds = secondsSince(start);
    for (const VmBatch &t : tallies) {
        sum.requests += t.requests;
        sum.instructions += t.instructions;
        sum.edges += t.edges;
        sum.invocations += t.invocations;
        sum.yieldpoints += t.yieldpoints;
        sum.compiles += t.compiles;
        sum.methodsDecoded += t.methodsDecoded;
        sum.samplesTaken += t.samplesTaken;
    }
    return sum;
}

/**
 * Untimed PEP pass over worker 0's shard on one machine, by the paper's
 * replay method: an adaptive run records each method's final level,
 * then a no-profiler machine and a machine with PEP(64,17) plus a
 * zero-cost perfect path profiler both replay those compile decisions,
 * so their cycle counts differ by PEP's cost alone.
 */
void
profileShard(const runtime::RequestStream &stream, std::uint32_t workers,
             const vm::SimParams &params, Tracer &tracer, Report &report)
{
    Tracer::Scope scope = tracer.span("core.pep_pass", "shard0");
    vm::ReplayAdvice advice;
    {
        vm::Machine recorder(stream.program(), params);
        runShard(recorder, stream, 0, workers);
        advice = recorder.recordAdvice();
    }
    vm::Machine base(stream.program(), params);
    base.enableReplay(&advice);
    runShard(base, stream, 0, workers);
    const std::uint64_t base_cycles = executionCycles(base);

    vm::Machine machine(stream.program(), params);
    machine.enableReplay(&advice);
    core::SimplifiedArnoldGrove controller(kPepSamples, kPepStride);
    core::PepProfiler pep(machine, controller);
    core::FullPathProfiler perfect(machine, profile::DagMode::HeaderSplit,
                                   /*charge_costs=*/false);
    machine.addHooks(&pep);
    machine.addCompileObserver(&pep);
    machine.addHooks(&perfect);
    machine.addCompileObserver(&perfect);
    runShard(machine, stream, 0, workers);
    const std::uint64_t pep_cycles = executionCycles(machine);

    const Clock::time_point start = Clock::now();
    double path_overlap = 0.0, edge_overlap = 0.0;
    {
        Tracer::Scope overlap_scope = tracer.span("metrics.overlap", "shard0");
        path_overlap =
            metrics::wallPathAccuracy(metrics::canonicalize(perfect),
                                      metrics::canonicalize(pep))
                .accuracy;
        edge_overlap = metrics::relativeOverlap(
            bench::allCfgs(machine),
            core::edgeProfileFromPaths(machine, perfect),
            pep.edgeProfile());
    }
    report.set("metrics.overlap_s", secondsSince(start), "s");
    report.set("path_overlap", path_overlap, "ratio");
    report.set("edge_overlap", edge_overlap, "ratio");
    report.set("sim_overhead_pct",
               (static_cast<double>(pep_cycles) /
                    static_cast<double>(base_cycles) -
                1.0) * 100.0,
               "%");
    report.set("sim.cycles_base", static_cast<double>(base_cycles),
               "count");
    report.set("sim.cycles_pep", static_cast<double>(pep_cycles), "count");
    const core::PepStats &stats = pep.pepStats();
    report.set("core.paths_completed",
               static_cast<double>(stats.pathsCompleted), "count");
    report.set("core.samples_taken", static_cast<double>(stats.samplesTaken),
               "count");
    report.set("core.samples_recorded",
               static_cast<double>(stats.samplesRecorded), "count");
}

/** --trace 0: timed ring runs of the whole stream. */
void
measureEndToEnd(const Options &options,
                const runtime::RequestStream &stream,
                const runtime::ThroughputResult &exact,
                std::uint32_t workers, const vm::SimParams &params,
                Tracer &tracer, Report &report)
{
    std::vector<double> rps, loss, edges_per_s;
    const Clock::time_point start = Clock::now();
    for (int run = 0;
         run < kMinRuns || secondsSince(start) < options.seconds; ++run) {
        const runtime::ThroughputResult ring =
            throughput(stream, Aggregation::Ring, workers, params, tracer,
                       "ring" + std::to_string(run));
        checkRing(ring, exact, stream, "ring run " + std::to_string(run),
                  report);
        rps.push_back(ring.requestsPerSecond);
        loss.push_back(lossRatio(ring));
        edges_per_s.push_back(static_cast<double>(ring.edgeRecords) /
                              ring.wallSeconds);
        std::printf("  ring run %d: %.3f s, %.6g req/s, loss %.4f\n", run,
                    ring.wallSeconds, rps.back(), loss.back());
    }
    std::printf("  req/s median %.6g, IQR/median %.4f; loss median %.4f, "
                "IQR/median %.4f over %zu runs\n",
                median(rps), relativeIqr(rps), median(loss),
                relativeIqr(loss), rps.size());
    report.set("requests_per_s", median(rps), "1/s");
    report.set("sample_loss_ratio", median(loss), "ratio");
    report.set("edges_per_s", median(edges_per_s), "1/s");
}

/**
 * --trace 1: the ablation ladder. One round runs every rung once over
 * the whole stream, in an order rotated each round: the vm batches
 * (each adding one layer to the machines of the one before), then the
 * runtime rungs. A layer's cost is the per-round difference between
 * adjacent rungs in thread-seconds, normalised by that round's exact
 * counts; medians over rounds go to the report and the spread of each
 * is printed.
 */
void
measureLadder(const Options &options, const runtime::RequestStream &stream,
              const runtime::ThroughputResult &exact, std::uint32_t workers,
              const vm::SimParams &params, Tracer &tracer, Report &report)
{
    struct Rung
    {
        const char *name;
        vm::EngineKind engine;
        vm::FuseOptions fuse;
        Layer layer;
    };
    const vm::EngineKind threaded = vm::EngineKind::Threaded;
    const std::vector<Rung> vm_rungs = {
        {"switch-none", vm::EngineKind::Switch, {}, Layer::None},
        {"none", threaded, {}, Layer::None},
        {"noop-hook", threaded, {}, Layer::NoopHook},
        {"pep-instr-only", threaded, {}, Layer::PepInstrOnly},
        {"pep-64-17", threaded, {}, Layer::Pep},
        {"none-pairs", threaded, {true, false}, Layer::None},
        {"none-pairs-traces", threaded, {true, true}, Layer::None},
    };
    enum
    {
        kSwitch,
        kNone,
        kNoop,
        kInstr,
        kPep,
        kPairs,
        kTraces,
        kSharded,
        kRing,
        kRingUntraced,
        kRungs,
    };
    const char *const runtime_names[] = {"sharded", "ring",
                                         "ring-untraced"};
    const auto rung_name = [&](int r) {
        return r < kSharded ? vm_rungs[static_cast<std::size_t>(r)].name
                            : runtime_names[r - kSharded];
    };

    std::vector<std::vector<double>> seconds(kRungs);
    std::vector<double> instructions, edges, samples, produced, consumed,
        dropped, dropped_marks, staleness;
    VmBatch first_none;
    const Clock::time_point start = Clock::now();
    for (int round = 0;
         round < kMinRounds || secondsSince(start) < options.seconds;
         ++round) {
        std::vector<double> round_seconds(kRungs);
        for (int k = 0; k < kRungs; ++k) {
            const int r = (k + round) % kRungs;
            const std::string id =
                std::string(rung_name(r)) + "/round" + std::to_string(round);
            if (r < kSharded) {
                const Rung &rung = vm_rungs[static_cast<std::size_t>(r)];
                vm::SimParams rung_params = params;
                rung_params.engine = rung.engine;
                rung_params.fuse = rung.fuse;
                const VmBatch batch = runVmBatch(stream, workers, rung_params,
                                                 rung.layer, tracer, id);
                report.check(batch.requests == stream.requests().size(),
                             id + ": not every request ran");
                round_seconds[r] = batch.seconds;
                if (r == kNone) {
                    instructions.push_back(
                        static_cast<double>(batch.instructions));
                    edges.push_back(static_cast<double>(batch.edges));
                    if (round == 0)
                        first_none = batch;
                } else if (r == kPep) {
                    samples.push_back(static_cast<double>(batch.samplesTaken));
                }
                continue;
            }
            const runtime::ThroughputResult result =
                throughput(stream,
                           r == kSharded ? Aggregation::Sharded
                                         : Aggregation::Ring,
                           workers, params, tracer, id, r != kRingUntraced);
            round_seconds[r] = result.wallSeconds;
            if (r == kSharded) {
                checkRun(result, stream, id, report);
                report.check(result.paths == exact.paths &&
                                 serializeEdges(result.edges) ==
                                     serializeEdges(exact.edges),
                             id + ": sharded totals are not repeatable");
                continue;
            }
            checkRing(result, exact, stream, id, report);
            if (r == kRing) {
                const runtime::RingTransportStats &t = result.transport;
                produced.push_back(static_cast<double>(t.produced));
                consumed.push_back(static_cast<double>(t.consumed));
                dropped.push_back(static_cast<double>(t.dropped));
                dropped_marks.push_back(
                    static_cast<double>(t.droppedEpochMarks));
                staleness.push_back(result.windowStalenessEpochs);
            }
        }
        for (int r = 0; r < kRungs; ++r)
            seconds[r].push_back(round_seconds[r]);
        std::printf("  round %d: none %.3f s, pep-64-17 %.3f s, sharded "
                    "%.3f s, ring %.3f s\n",
                    round, round_seconds[kNone], round_seconds[kPep],
                    round_seconds[kSharded], round_seconds[kRing]);
    }

    const std::size_t rounds = seconds[kNone].size();
    const double requests = static_cast<double>(stream.requests().size());
    const double threads = static_cast<double>(workers);
    const auto per_round = [&](auto &&fn) {
        std::vector<double> values(rounds);
        for (std::size_t i = 0; i < rounds; ++i)
            values[i] = fn(i);
        return values;
    };
    // Thread-seconds between two rungs, per unit of `count`, in ns.
    const auto cost = [&](int hi, int lo, const std::vector<double> &count) {
        return per_round([&, hi, lo](std::size_t i) {
            return (seconds[hi][i] - seconds[lo][i]) * threads * 1e9 /
                   count[i];
        });
    };
    const auto ratio = [&](int num, int den) {
        return per_round([&, num, den](std::size_t i) {
            return seconds[num][i] / seconds[den][i];
        });
    };
    const auto rate = [&](int r) {
        return per_round(
            [&, r](std::size_t i) { return requests / seconds[r][i]; });
    };
    const std::vector<LayerCost> costs = {
        {"vm.dispatch_ns_per_instr", "ns",
         per_round([&](std::size_t i) {
             return seconds[kNone][i] * threads * 1e9 / instructions[i];
         })},
        {"vm.hook_ns_per_edge", "ns", cost(kNoop, kNone, edges)},
        {"core.path_register_ns_per_edge", "ns", cost(kInstr, kNoop, edges)},
        {"core.sample_ns", "ns", cost(kPep, kInstr, samples)},
        {"vm.fuse_pairs_speedup", "x", ratio(kNone, kPairs)},
        {"vm.fuse_traces_speedup", "x", ratio(kNone, kTraces)},
        {"vm.threaded_speedup", "x", ratio(kSwitch, kNone)},
        {"runtime.vm_only_req_per_s", "1/s", rate(kNone)},
        {"runtime.sharded_req_per_s", "1/s", rate(kSharded)},
        {"trace.overhead_pct", "%", per_round([&](std::size_t i) {
             return (seconds[kRing][i] / seconds[kRingUntraced][i] - 1.0) *
                    100.0;
         })},
    };

    std::printf("  ladder over %zu rounds (seconds per rung: median, "
                "IQR/median):\n",
                rounds);
    for (int r = 0; r < kRungs; ++r)
        std::printf("    %-20s %.4f s  %.4f\n", rung_name(r),
                    median(seconds[r]), relativeIqr(seconds[r]));
    reportLayerCosts(costs, report);
    report.set("runtime.ring.produced", median(produced), "count");
    report.set("runtime.ring.consumed", median(consumed), "count");
    report.set("runtime.ring.dropped", median(dropped), "count");
    report.set("runtime.ring.dropped_epoch_marks", median(dropped_marks),
               "count");
    report.set("runtime.window_staleness_epochs", median(staleness),
               "epochs");
    const auto count = [&](const char *name, std::uint64_t value) {
        report.set(name, static_cast<double>(value), "count");
    };
    count("vm.instructions", first_none.instructions);
    count("vm.edges", first_none.edges);
    count("vm.invocations", first_none.invocations);
    count("vm.yieldpoints", first_none.yieldpoints);
    count("vm.compiles", first_none.compiles);
    count("vm.methods_decoded", first_none.methodsDecoded);
}

} // namespace

void
runServer(const Options &options, bool diverse, Tracer &tracer,
          Report &report)
{
    const std::uint32_t cores =
        std::max(2u, std::thread::hardware_concurrency());
    const std::uint32_t workers = std::min(kWorkers, cores - 1);
    const runtime::RequestStreamSpec spec = streamSpec(diverse);
    const vm::SimParams params = pinnedParams(options.seed);
    std::printf("%s: %u requests, %u workers + collector, set-up x%d "
                "(stream build)...\n",
                options.workload.c_str(), spec.requests, workers,
                kSetupReps);
    std::fflush(stdout);

    std::unique_ptr<runtime::RequestStream> stream;
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Tracer::Scope scope = tracer.span("runtime.stream_build",
                                          "rep" + std::to_string(rep));
        const Clock::time_point start = Clock::now();
        stream = std::make_unique<runtime::RequestStream>(spec);
        setup.push_back(secondsSince(start));
    }
    report.set("setup_s", median(setup), "s");
    report.set("workload.generate_s", median(setup), "s");

    // The first runThroughput of a process runs markedly slower than
    // later ones; an untimed ring run warms the process up.
    {
        const runtime::ThroughputResult warm =
            throughput(*stream, Aggregation::Ring, workers, params, tracer,
                       "warm-up");
        checkRun(warm, *stream, "warm-up", report);
    }
    // Exact totals: sharded aggregation loses nothing.
    const runtime::ThroughputResult exact =
        throughput(*stream, Aggregation::Sharded, workers, params, tracer,
                   "exact");
    checkRun(exact, *stream, "sharded reference", report);
    report.check(pathTotal(exact.paths) == exact.pathRecords &&
                     exact.edges.totalCount() == exact.edgeRecords,
                 "sharded reference: aggregated totals differ from the "
                 "records written");
    const double requests = static_cast<double>(exact.requestsCompleted);
    report.set("runtime.distinct_paths",
               static_cast<double>(exact.paths.size()), "count");
    report.set("runtime.path_records_per_req",
               static_cast<double>(exact.pathRecords) / requests, "count");
    report.set("runtime.edge_records_per_req",
               static_cast<double>(exact.edgeRecords) / requests, "count");
    std::printf("  %zu distinct paths, %.2f path + %.2f edge records "
                "per request\n",
                exact.paths.size(),
                static_cast<double>(exact.pathRecords) / requests,
                static_cast<double>(exact.edgeRecords) / requests);

    std::printf("%s: %s for %.0f s...\n", options.workload.c_str(),
                options.trace ? "ladder" : "timed ring runs",
                options.seconds);
    std::fflush(stdout);
    if (options.trace)
        measureLadder(options, *stream, exact, workers, params, tracer,
                      report);
    else
        measureEndToEnd(options, *stream, exact, workers, params, tracer,
                        report);

    std::printf("%s: PEP pass over shard 0...\n", options.workload.c_str());
    std::fflush(stdout);
    profileShard(*stream, workers, params, tracer, report);
    report.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace pep::perfbench
