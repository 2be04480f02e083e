/**
 * @file
 * The replay-suite workload: the fifteen standardSuite() programs under
 * the paper's replay method (record an adaptive run, compile every
 * method at its final level in iteration 1, measure iteration 2+) with
 * PEP(64,17) and smart numbering attached, on one thread.
 *
 * The seed is the programs' input: it seeds the VM's Irnd stream, which
 * drives every data-dependent branch and loop trip of the suite.
 *
 * --trace 0 times PEP-on measured passes over the suite for the run's
 * budget. --trace 1 runs the ablation ladder instead: every rung gets
 * its own compiled machines, and one round times one measured iteration
 * of every (program, rung) pair, interleaved per program with the rung
 * order rotated each time, so slow drift in the host hits every rung
 * alike. Both modes end with the same untimed correctness and accuracy
 * pass against the switch engine.
 *
 * This workload is not listed in BENCHMARK.json: its absolute rates
 * moved by more than the largest allowed bound between runs on a shared
 * host (README.md). It stays runnable for the suite-level accuracy and
 * overhead figures and for its ladder.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "common/harness.hh"
#include "core/baseline_profilers.hh"
#include "metrics/overlap.hh"
#include "metrics/path_accuracy.hh"
#include "workload/suite.hh"
#include "workload/synthetic.hh"

namespace pep::perfbench {

namespace {

constexpr int kSetupReps = 3;
constexpr int kMinPasses = 3;

std::unique_ptr<core::SamplingController>
pepController()
{
    return std::make_unique<core::SimplifiedArnoldGrove>(kPepSamples,
                                                         kPepStride);
}

struct Rung
{
    const char *name;
    vm::EngineKind engine;
    vm::FuseOptions fuse;
    Layer layer;
    bool traced;
};

/** One program's compiled machine for one rung. */
struct Cell
{
    std::unique_ptr<bench::ReplayRun> run;
    std::unique_ptr<NoopHooks> noop;
    core::PepProfiler *pep = nullptr;
};

/** Exact counts of one measured iteration. */
struct IterationCounts
{
    double seconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t edges = 0;
    std::uint64_t invocations = 0;
    std::uint64_t yieldpoints = 0;
    std::uint64_t pathsCompleted = 0;
    std::uint64_t samplesTaken = 0;
    std::uint64_t samplesRecorded = 0;
};

/** Time one measured iteration (the timed region is exactly the
 *  ReplayRun call) and take its exact counts. */
IterationCounts
timedIteration(Cell &cell, Tracer &tracer, const std::string &id,
               bool traced)
{
    vm::Machine &machine = cell.run->machine();
    const vm::MachineStats before = machine.stats();
    const std::uint64_t edges_before = machine.truthEdges().totalCount();
    const core::PepStats pep_before =
        cell.pep ? cell.pep->pepStats() : core::PepStats{};
    IterationCounts counts;
    {
        Tracer::Scope scope =
            traced ? tracer.span("vm.measured_iteration", id)
                   : Tracer::Scope(tracer, -1);
        const Clock::time_point start = Clock::now();
        counts.cycles = cell.run->runMeasuredIteration();
        counts.seconds = secondsSince(start);
    }
    const vm::MachineStats &after = machine.stats();
    counts.instructions =
        after.instructionsExecuted - before.instructionsExecuted;
    counts.invocations = after.methodInvocations - before.methodInvocations;
    counts.yieldpoints =
        after.yieldpointsExecuted - before.yieldpointsExecuted;
    counts.edges = machine.truthEdges().totalCount() - edges_before;
    if (cell.pep) {
        const core::PepStats &pep = cell.pep->pepStats();
        counts.pathsCompleted = pep.pathsCompleted - pep_before.pathsCompleted;
        counts.samplesTaken = pep.samplesTaken - pep_before.samplesTaken;
        counts.samplesRecorded =
            pep.samplesRecorded - pep_before.samplesRecorded;
    }
    return counts;
}

/**
 * Everything a replay run may legitimately observe: ground-truth and
 * one-time edge profiles, the simulated clock and the
 * engine-independent MachineStats counters. methodsDecoded and
 * templateInvalidations describe the threaded engine's translation
 * cache, not simulated behaviour, so they are left out.
 */
std::string
serializeObservables(const vm::Machine &machine)
{
    std::string out = "truth\n" + serializeEdges(machine.truthEdges()) +
                      "one-time\n" +
                      serializeEdges(machine.oneTimeEdges());
    const vm::MachineStats &s = machine.stats();
    char line[256];
    std::snprintf(line, sizeof line,
                  "clock %llu\nstats %llu %llu %llu %llu %llu %llu %llu "
                  "%llu %llu\n",
                  static_cast<unsigned long long>(machine.now()),
                  static_cast<unsigned long long>(s.instructionsExecuted),
                  static_cast<unsigned long long>(s.methodInvocations),
                  static_cast<unsigned long long>(s.yieldpointsExecuted),
                  static_cast<unsigned long long>(s.timerTicks),
                  static_cast<unsigned long long>(s.compileCycles),
                  static_cast<unsigned long long>(s.compiles),
                  static_cast<unsigned long long>(s.osrs),
                  static_cast<unsigned long long>(s.layoutMisses),
                  static_cast<unsigned long long>(s.branchesExecuted));
    out += line;
    return out;
}

/** Everything the correctness gate compares for one program. */
std::string
serializeRun(const vm::Machine &machine, const core::PepProfiler &pep)
{
    const core::PepStats &s = pep.pepStats();
    return serializeObservables(machine) + "pep " +
           std::to_string(s.pathsCompleted) + " " +
           std::to_string(s.samplesTaken) + " " +
           std::to_string(s.samplesRecorded) + " " +
           std::to_string(s.strides) + "\npep-edges\n" +
           serializeEdges(pep.edgeProfile());
}

/** Build one rung's compiled machine for a prepared program. */
Cell
buildCell(const bench::Prepared &prepared, const vm::SimParams &params,
          Layer layer, Tracer &tracer, const std::string &id)
{
    Cell cell;
    cell.run = std::make_unique<bench::ReplayRun>(prepared, params);
    if (layer == Layer::NoopHook) {
        cell.noop = std::make_unique<NoopHooks>();
        cell.run->machine().addHooks(cell.noop.get());
    } else if (layer == Layer::PepInstrOnly) {
        cell.pep = &cell.run->attachPep(
            std::make_unique<core::NeverSample>());
    } else if (layer == Layer::Pep) {
        cell.pep = &cell.run->attachPep(pepController());
    }
    Tracer::Scope scope = tracer.span("vm.compile_iteration", id);
    cell.run->runCompileIteration();
    cell.run->clearCollectedProfiles();
    return cell;
}

/** Per-program state kept from set-up to the correctness pass. */
struct Program
{
    bench::Prepared prepared;
    /** The PEP(64,17) machine the end-to-end numbers come from. */
    Cell pep;
    /** Exact counts of its first measured iteration. */
    IterationCounts first;
    std::uint64_t compiles = 0;
    std::uint64_t methodsDecoded = 0;
    /** Observables after that first measured iteration. */
    std::string blob;
};

struct SetupTimes
{
    double generate = 0.0;
    double record = 0.0;
    double compile = 0.0;
    double total() const { return generate + record + compile; }
};

/**
 * Set-up: generate every program, record its advice, and run the
 * compile iteration of a PEP(64,17) replay. Done kSetupReps times from
 * scratch; the last repetition's machines are the ones measured.
 */
std::vector<SetupTimes>
setUp(const vm::SimParams &params, Tracer &tracer,
      std::vector<Program> &programs)
{
    const std::vector<workload::WorkloadSpec> &suite =
        workload::standardSuite();
    std::vector<SetupTimes> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Tracer::Scope rep_scope =
            tracer.span("setup", "replay-suite/rep" + std::to_string(rep));
        programs.clear();
        programs.resize(suite.size());
        SetupTimes times;
        for (std::size_t p = 0; p < suite.size(); ++p) {
            Program &program = programs[p];
            const std::string &id = suite[p].name;
            program.prepared.spec = suite[p];
            Clock::time_point start = Clock::now();
            {
                Tracer::Scope scope = tracer.span("workload.generate", id);
                program.prepared.program =
                    workload::generateWorkload(suite[p]);
            }
            times.generate += secondsSince(start);
            start = Clock::now();
            {
                Tracer::Scope scope = tracer.span("vm.record", id);
                vm::Machine recorder(program.prepared.program, params);
                recorder.runIteration();
                program.prepared.advice = recorder.recordAdvice();
            }
            times.record += secondsSince(start);
            start = Clock::now();
            program.pep = buildCell(program.prepared, params, Layer::Pep,
                                    tracer, id);
            times.compile += secondsSince(start);
            const vm::MachineStats &stats =
                program.pep.run->machine().stats();
            program.compiles = stats.compiles;
            program.methodsDecoded = stats.methodsDecoded;
        }
        reps.push_back(times);
    }
    return reps;
}

/** First measured iteration of a program's PEP machine: keep its
 *  counts and observables for the correctness gate. */
void
noteFirstIteration(Program &program, const IterationCounts &counts)
{
    program.first = counts;
    program.blob =
        serializeRun(program.pep.run->machine(), *program.pep.pep);
}

/**
 * Untimed correctness and accuracy pass. For each program, a fresh
 * switch-engine replay with PEP(64,17) plus a zero-cost perfect path
 * profiler must reproduce the threaded run's observables and PEP state
 * byte for byte; the perfect profiles then give Fig. 8 / Fig. 9
 * accuracy. Returns the mean path and edge overlap.
 */
std::pair<double, double>
checkAndScore(const vm::SimParams &params, std::vector<Program> &programs,
              Tracer &tracer, Report &report)
{
    vm::SimParams reference_params = params;
    reference_params.engine = vm::EngineKind::Switch;
    double path_sum = 0.0, edge_sum = 0.0, overlap_seconds = 0.0;
    for (Program &program : programs) {
        const std::string &id = program.prepared.spec.name;
        bench::ReplayRun reference(program.prepared, reference_params);
        core::PepProfiler &pep = reference.attachPep(pepController());
        core::FullPathProfiler &perfect = reference.attachFullPath(
            profile::DagMode::HeaderSplit, /*charge_costs=*/false);
        {
            Tracer::Scope scope = tracer.span("vm.reference_run", id);
            reference.runStandard();
        }
        report.check(serializeRun(reference.machine(), pep) ==
                         program.blob,
                     "replay-suite " + id +
                         ": threaded observables differ from the "
                         "switch engine");
        const Clock::time_point start = Clock::now();
        {
            Tracer::Scope scope = tracer.span("metrics.overlap", id);
            const metrics::CanonicalPathProfile truth =
                metrics::canonicalize(perfect);
            const metrics::CanonicalPathProfile sampled =
                metrics::canonicalize(pep);
            path_sum += metrics::wallPathAccuracy(truth, sampled).accuracy;
            const profile::EdgeProfileSet perfect_edges =
                core::edgeProfileFromPaths(reference.machine(), perfect);
            edge_sum += metrics::relativeOverlap(
                bench::allCfgs(reference.machine()), perfect_edges,
                pep.edgeProfile());
        }
        overlap_seconds += secondsSince(start);
    }
    const double n = static_cast<double>(programs.size());
    report.set("metrics.overlap_s", overlap_seconds, "s");
    return {path_sum / n, edge_sum / n};
}

/** Exact counts of the first measured pass, shared by both modes. */
void
setCounts(const std::vector<Program> &programs, Report &report)
{
    IterationCounts sum;
    std::uint64_t compiles = 0, decoded = 0;
    for (const Program &program : programs) {
        const IterationCounts &c = program.first;
        sum.instructions += c.instructions;
        sum.edges += c.edges;
        sum.invocations += c.invocations;
        sum.yieldpoints += c.yieldpoints;
        sum.pathsCompleted += c.pathsCompleted;
        sum.samplesTaken += c.samplesTaken;
        sum.samplesRecorded += c.samplesRecorded;
        sum.cycles += c.cycles;
        compiles += program.compiles;
        decoded += program.methodsDecoded;
    }
    const auto count = [&](const char *name, std::uint64_t value) {
        report.set(name, static_cast<double>(value), "count");
    };
    count("vm.instructions", sum.instructions);
    count("vm.edges", sum.edges);
    count("vm.invocations", sum.invocations);
    count("vm.yieldpoints", sum.yieldpoints);
    count("vm.compiles", compiles);
    count("vm.methods_decoded", decoded);
    count("core.paths_completed", sum.pathsCompleted);
    count("core.samples_taken", sum.samplesTaken);
    count("core.samples_recorded", sum.samplesRecorded);
    count("sim.cycles_pep", sum.cycles);
    report.set("sample_loss_ratio",
               1.0 - static_cast<double>(sum.samplesRecorded) /
                         static_cast<double>(sum.pathsCompleted),
               "ratio");
}

/**
 * --trace 0: PEP-on measured passes over the suite. Each program's
 * iteration time and edge count are the medians over the passes, so a
 * burst of host noise during one iteration barely moves the result;
 * the suite's rate is the sum of edges over the sum of times.
 */
void
measureEndToEnd(const Options &options, std::vector<Program> &programs,
                Tracer &tracer, Report &report)
{
    std::vector<std::vector<double>> seconds(programs.size()),
        edges(programs.size());
    const Clock::time_point start = Clock::now();
    for (int pass = 0;
         pass < kMinPasses || secondsSince(start) < options.seconds;
         ++pass) {
        double pass_seconds = 0.0, pass_edges = 0.0;
        for (std::size_t p = 0; p < programs.size(); ++p) {
            const IterationCounts counts =
                timedIteration(programs[p].pep, tracer,
                               programs[p].prepared.spec.name, false);
            if (pass == 0)
                noteFirstIteration(programs[p], counts);
            seconds[p].push_back(counts.seconds);
            edges[p].push_back(static_cast<double>(counts.edges));
            pass_seconds += counts.seconds;
            pass_edges += static_cast<double>(counts.edges);
        }
        std::printf("  pass %d: %.3f s, %.4g edges/s\n", pass,
                    pass_seconds, pass_edges / pass_seconds);
    }
    double suite_seconds = 0.0, suite_edges = 0.0;
    for (std::size_t p = 0; p < programs.size(); ++p) {
        suite_seconds += median(seconds[p]);
        suite_edges += median(edges[p]);
    }
    std::printf("  per-program medians over %zu passes: %.4f s, %.6g "
                "edges/s\n",
                seconds[0].size(), suite_seconds,
                suite_edges / suite_seconds);
    report.set("edges_per_s", suite_edges / suite_seconds, "1/s");
    report.set("requests_per_s",
               static_cast<double>(programs.size()) / suite_seconds, "1/s");
}

/**
 * --trace 1: the ablation ladder. Each rung adds one layer to the one
 * before it; each round times every (program, rung) pair once. A
 * layer's cost is the per-round difference between adjacent rungs,
 * normalised by that round's exact counts; medians over rounds go to
 * the report and the spread is printed next to each one.
 */
void
measureLadder(const Options &options, const vm::SimParams &params,
              std::vector<Program> &programs, Tracer &tracer,
              Report &report)
{
    const vm::FuseOptions none{};
    const vm::FuseOptions pairs{true, false};
    const vm::FuseOptions pairs_traces{true, true};
    const vm::EngineKind threaded = vm::EngineKind::Threaded;
    const std::vector<Rung> rungs = {
        {"switch-none", vm::EngineKind::Switch, none, Layer::None, true},
        {"none", threaded, none, Layer::None, true},
        {"noop-hook", threaded, none, Layer::NoopHook, true},
        {"pep-instr-only", threaded, none, Layer::PepInstrOnly, true},
        {"pep-64-17", threaded, none, Layer::Pep, true},
        {"pep-64-17-untraced", threaded, none, Layer::Pep, false},
        {"none-pairs", threaded, pairs, Layer::None, true},
        {"none-pairs-traces", threaded, pairs_traces, Layer::None, true},
    };
    enum
    {
        kSwitch,
        kNone,
        kNoop,
        kInstr,
        kPep,
        kPepUntraced,
        kPairs,
        kTraces,
    };

    // cells[r][p]; the PEP(64,17) rung reuses the set-up machines.
    std::vector<std::vector<Cell>> cells(rungs.size());
    for (std::size_t r = 0; r < rungs.size(); ++r) {
        if (r == kPep)
            continue;
        vm::SimParams rung_params = params;
        rung_params.engine = rungs[r].engine;
        rung_params.fuse = rungs[r].fuse;
        for (Program &program : programs) {
            cells[r].push_back(buildCell(
                program.prepared, rung_params, rungs[r].layer, tracer,
                program.prepared.spec.name + "/" + rungs[r].name));
        }
    }

    std::vector<std::vector<double>> seconds(rungs.size());
    std::vector<double> instructions, edges, samples;
    std::uint64_t base_cycles = 0;
    const Clock::time_point start = Clock::now();
    for (int round = 0;
         round < kMinPasses || secondsSince(start) < options.seconds;
         ++round) {
        std::vector<double> round_seconds(rungs.size(), 0.0);
        IterationCounts none_sum, pep_sum;
        for (std::size_t p = 0; p < programs.size(); ++p) {
            for (std::size_t k = 0; k < rungs.size(); ++k) {
                const std::size_t r = (k + p + static_cast<std::size_t>(
                                                   round)) %
                                      rungs.size();
                Cell &cell = r == kPep ? programs[p].pep : cells[r][p];
                const IterationCounts counts = timedIteration(
                    cell, tracer,
                    programs[p].prepared.spec.name + "/" + rungs[r].name,
                    rungs[r].traced);
                round_seconds[r] += counts.seconds;
                if (r == kNone) {
                    none_sum.instructions += counts.instructions;
                    none_sum.edges += counts.edges;
                    none_sum.cycles += counts.cycles;
                } else if (r == kPep) {
                    pep_sum.samplesTaken += counts.samplesTaken;
                    if (round == 0)
                        noteFirstIteration(programs[p], counts);
                }
            }
        }
        for (std::size_t r = 0; r < rungs.size(); ++r)
            seconds[r].push_back(round_seconds[r]);
        instructions.push_back(static_cast<double>(none_sum.instructions));
        edges.push_back(static_cast<double>(none_sum.edges));
        samples.push_back(static_cast<double>(pep_sum.samplesTaken));
        if (round == 0)
            base_cycles = none_sum.cycles;
        std::printf("  round %d: %.3f s (none) .. %.3f s (pep-64-17)\n",
                    round, round_seconds[kNone], round_seconds[kPep]);
    }

    const std::size_t rounds = seconds[kNone].size();
    const auto per_round = [&](auto &&fn) {
        std::vector<double> values(rounds);
        for (std::size_t i = 0; i < rounds; ++i)
            values[i] = fn(i);
        return values;
    };
    const auto delta = [&](std::size_t hi, std::size_t lo, std::size_t i) {
        return seconds[hi][i] - seconds[lo][i];
    };
    const std::vector<LayerCost> costs = {
        {"vm.dispatch_ns_per_instr", "ns", per_round([&](std::size_t i) {
             return seconds[kNone][i] * 1e9 / instructions[i];
         })},
        {"vm.hook_ns_per_edge", "ns", per_round([&](std::size_t i) {
             return delta(kNoop, kNone, i) * 1e9 / edges[i];
         })},
        {"core.path_register_ns_per_edge", "ns",
         per_round([&](std::size_t i) {
             return delta(kInstr, kNoop, i) * 1e9 / edges[i];
         })},
        {"core.sample_ns", "ns", per_round([&](std::size_t i) {
             return delta(kPep, kInstr, i) * 1e9 / samples[i];
         })},
        {"vm.fuse_pairs_speedup", "x", per_round([&](std::size_t i) {
             return seconds[kNone][i] / seconds[kPairs][i];
         })},
        {"vm.fuse_traces_speedup", "x", per_round([&](std::size_t i) {
             return seconds[kNone][i] / seconds[kTraces][i];
         })},
        {"vm.threaded_speedup", "x", per_round([&](std::size_t i) {
             return seconds[kSwitch][i] / seconds[kNone][i];
         })},
        {"trace.overhead_pct", "%", per_round([&](std::size_t i) {
             return (seconds[kPep][i] / seconds[kPepUntraced][i] - 1.0) *
                    100.0;
         })},
    };

    std::printf("  ladder over %zu rounds (suite seconds per rung: "
                "median, IQR/median):\n",
                rounds);
    for (std::size_t r = 0; r < rungs.size(); ++r) {
        std::printf("    %-20s %.4f s  %.4f\n", rungs[r].name,
                    median(seconds[r]), relativeIqr(seconds[r]));
    }
    reportLayerCosts(costs, report);
    report.set("sim.cycles_base", static_cast<double>(base_cycles),
               "count");
}

/** Zero-work values of the runtime layer, which this workload does not
 *  exercise. */
void
setRuntimeUnused(Report &report)
{
    for (const char *name :
         {"runtime.ring.produced", "runtime.ring.consumed",
          "runtime.ring.dropped", "runtime.ring.dropped_epoch_marks",
          "runtime.distinct_paths"}) {
        report.set(name, 0.0, "count");
    }
    report.set("runtime.vm_only_req_per_s", 0.0, "1/s");
    report.set("runtime.sharded_req_per_s", 0.0, "1/s");
    report.set("runtime.window_staleness_epochs", 0.0, "epochs");
    report.set("runtime.path_records_per_req", 0.0, "count");
    report.set("runtime.edge_records_per_req", 0.0, "count");
}

} // namespace

void
runReplaySuite(const Options &options, Tracer &tracer, Report &report)
{
    const vm::SimParams params = pinnedParams(options.seed);
    std::vector<Program> programs;

    std::printf("replay-suite: set-up x%d (generate, record, compile "
                "iteration)...\n",
                kSetupReps);
    std::fflush(stdout);
    const std::vector<SetupTimes> reps = setUp(params, tracer, programs);
    std::vector<double> total, generate, record, compile;
    for (const SetupTimes &times : reps) {
        total.push_back(times.total());
        generate.push_back(times.generate);
        record.push_back(times.record);
        compile.push_back(times.compile);
        std::printf("  set-up %.3f s (generate %.3f, record %.3f, "
                    "compile %.3f)\n",
                    times.total(), times.generate, times.record,
                    times.compile);
    }
    report.set("setup_s", median(total), "s");
    report.set("workload.generate_s", median(generate), "s");
    report.set("vm.record_s", median(record), "s");
    report.set("vm.compile_iter_s", median(compile), "s");

    std::printf("replay-suite: %s for %.0f s...\n",
                options.trace ? "ablation ladder" : "measured passes",
                options.seconds);
    std::fflush(stdout);
    if (options.trace)
        measureLadder(options, params, programs, tracer, report);
    else
        measureEndToEnd(options, programs, tracer, report);
    setCounts(programs, report);
    setRuntimeUnused(report);

    std::printf("replay-suite: correctness and accuracy pass...\n");
    std::fflush(stdout);
    const auto [path_overlap, edge_overlap] =
        checkAndScore(params, programs, tracer, report);
    report.set("path_overlap", path_overlap, "ratio");
    report.set("edge_overlap", edge_overlap, "ratio");

    if (!options.trace) {
        // PEP's simulated-cycle overhead needs a no-profiler replay of
        // the same iteration (the ladder's `none` rung in trace mode).
        std::vector<double> ratios;
        std::uint64_t base_sum = 0;
        for (Program &program : programs) {
            bench::ReplayRun base(program.prepared, params);
            const std::uint64_t base_cycles = base.runStandard();
            base_sum += base_cycles;
            ratios.push_back(static_cast<double>(program.first.cycles) /
                             static_cast<double>(base_cycles));
        }
        report.set("sim_overhead_pct", (geomean(ratios) - 1.0) * 100.0,
                   "%");
        report.set("sim.cycles_base", static_cast<double>(base_sum),
                   "count");
    }
    report.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace pep::perfbench
