/**
 * @file
 * Harness suite: runs the bench suite serially and fanned out, and
 * reports counts only.
 *
 *   1. serial suite run — every (benchmark, config) cell on one
 *      worker, reporting the simulated cycles;
 *   2. parallel suite run — the same cells fanned out over the cores
 *      via ParallelRunner, with a byte-identity check of the composed
 *      output against the serial order (the exit-status gate).
 *
 * Wall-clock speed is measured by perfbench's interleaved ladder
 * (`vm.threaded_speedup`, `vm.dispatch_ns_per_instr`), not here: a
 * single timed run per mode is too noisy to support a speed claim.
 * scripts/bench.sh judges the ladder.
 *
 * Usage: perf_suite [output.json]   (default perf_suite.json)
 * PEP_BENCH_SCALE / PEP_BENCH_ONLY / PEP_BENCH_THREADS apply.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/harness.hh"
#include "common/report.hh"
#include "workload/parallel_runner.hh"

using namespace pep;

namespace {

// ---- suite runs ------------------------------------------------------

/** Output text plus simulated cycles of one suite cell. */
struct CellResult
{
    std::string text;
    std::uint64_t cycles = 0;
};

CellResult
runCell(const workload::WorkloadSpec &spec, const vm::SimParams &params)
{
    const bench::Prepared prepared = bench::prepare(spec, params);

    bench::ReplayRun base_run(prepared, params);
    const std::uint64_t base = base_run.runStandard();

    bench::ReplayRun pep_run(prepared, params);
    pep_run.attachPep(
        std::make_unique<core::SimplifiedArnoldGrove>(64, 17));
    const std::uint64_t with_pep = pep_run.runStandard();

    char line[160];
    std::snprintf(line, sizeof(line), "%-12s %14llu %14llu %8.4f\n",
                  spec.name.c_str(),
                  static_cast<unsigned long long>(base),
                  static_cast<unsigned long long>(with_pep),
                  static_cast<double>(with_pep) /
                      static_cast<double>(base));
    CellResult result;
    result.text = line;
    result.cycles = base + with_pep;
    return result;
}

struct SuiteRun
{
    std::uint64_t simulatedCycles = 0;
    std::string output;
};

SuiteRun
runSuite(const std::vector<workload::WorkloadSpec> &suite,
         const vm::SimParams &params, unsigned workers)
{
    std::vector<CellResult> slots(suite.size());
    const workload::ParallelRunner runner(workers);
    runner.run(suite.size(), [&](std::size_t i) {
        slots[i] = runCell(suite[i], params);
    });
    SuiteRun result;
    for (const CellResult &cell : slots) {
        result.output += cell.text;
        result.simulatedCycles += cell.cycles;
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const vm::SimParams params = bench::defaultParams();
    const std::vector<workload::WorkloadSpec> suite =
        bench::benchSuite();
    // At least two workers even on a single-core box, so the threaded
    // fan-out and the byte-identity check are actually exercised.
    const unsigned workers = std::max(
        2u, workload::ParallelRunner::defaultWorkers());

    std::printf("perf_suite: serial suite (1 worker)...\n");
    const SuiteRun serial = runSuite(suite, params, 1);
    std::printf("perf_suite: parallel suite (%u workers)...\n",
                workers);
    const SuiteRun parallel = runSuite(suite, params, workers);

    const bool identical = serial.output == parallel.output;

    std::printf("\nbenchmark        base(cyc)       pep(cyc)    "
                "ratio\n%s\n",
                serial.output.c_str());
    std::printf("parallel output %s\n",
                identical ? "identical" : "DIVERGES");

    bench::Report report("perf_suite");
    report.set("suite_cells", static_cast<double>(suite.size()),
               "count");
    report.set("workers", workers, "count");
    report.set("serial.simulated_cycles",
               static_cast<double>(serial.simulatedCycles), "count");
    report.set("parallel.simulated_cycles",
               static_cast<double>(parallel.simulatedCycles), "count");
    report.check(identical,
                 "parallel suite output differs from the serial run");
    return report.write(argc > 1 ? argv[1] : "perf_suite.json");
}
