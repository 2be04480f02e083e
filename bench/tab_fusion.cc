/**
 * @file
 * Superinstruction and hot-trace stream table: runs identical replay
 * runs across the PEP_ENGINE x PEP_FUSE matrix, untimed, and reports
 * what fusion does to the template streams.
 *
 * Four cells, all over the same recorded advice (docs/ENGINE.md):
 *
 *   switch-none           the reference interpreter;
 *   threaded-none         the pre-decoded threaded engine, plain
 *                         per-opcode templates;
 *   threaded-pairs        superinstruction pairs/triples with
 *                         burned-in operands (PEP_FUSE=pairs);
 *   threaded-pairs-traces pairs plus straightened hot-trace segments
 *                         with guarded exits and batched per-trace
 *                         accounting (PEP_FUSE=pairs,traces).
 *
 * Reported per cell: a static breakdown of the template streams (how
 * many dispatches fusion and tracing removed). The exit status is the
 * identity gate: every observable (profiles, clock, stats) must be
 * byte-identical across all four cells.
 *
 * The cells' speed is measured by perfbench's ladder rungs
 * `switch-none`, `none`, `none-pairs` and `none-pairs-traces`
 * (`vm.threaded_speedup`, `vm.fuse_pairs_speedup`,
 * `vm.fuse_traces_speedup`); scripts/bench.sh judges the 1.20x fusion
 * gate on them.
 *
 * Usage: tab_fusion [output.json]   (default tab_fusion.json)
 * PEP_BENCH_SCALE / PEP_BENCH_ONLY apply.
 */

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/harness.hh"
#include "common/report.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/machine.hh"

using namespace pep;

namespace {

/**
 * Serialize everything a run may legitimately observe: ground-truth and
 * one-time edge profiles, the simulated clock, and the
 * engine-independent machine counters. methodsDecoded and
 * templateInvalidations are deliberately excluded — they describe the
 * harness's translation cache, not simulated behaviour, and differ
 * across the matrix by design.
 */
std::string
serializeObservables(const vm::Machine &machine)
{
    std::string out;
    char line[192];
    const auto dump_set = [&](const profile::EdgeProfileSet &set,
                              const char *tag) {
        for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
            const auto &counts = set.perMethod[m].counts();
            for (std::size_t b = 0; b < counts.size(); ++b) {
                for (std::size_t i = 0; i < counts[b].size(); ++i) {
                    if (counts[b][i] == 0)
                        continue;
                    std::snprintf(line, sizeof(line),
                                  "%s %zu %zu %zu %llu\n", tag, m, b, i,
                                  static_cast<unsigned long long>(
                                      counts[b][i]));
                    out += line;
                }
            }
        }
    };
    dump_set(machine.truthEdges(), "truth");
    dump_set(machine.oneTimeEdges(), "one-time");
    const vm::MachineStats &s = machine.stats();
    std::snprintf(line, sizeof(line),
                  "clock %llu\nstats %llu %llu %llu %llu %llu %llu "
                  "%llu %llu %llu\n",
                  static_cast<unsigned long long>(machine.now()),
                  static_cast<unsigned long long>(
                      s.instructionsExecuted),
                  static_cast<unsigned long long>(s.methodInvocations),
                  static_cast<unsigned long long>(
                      s.yieldpointsExecuted),
                  static_cast<unsigned long long>(s.timerTicks),
                  static_cast<unsigned long long>(s.compileCycles),
                  static_cast<unsigned long long>(s.compiles),
                  static_cast<unsigned long long>(s.osrs),
                  static_cast<unsigned long long>(s.layoutMisses),
                  static_cast<unsigned long long>(s.branchesExecuted));
    out += line;
    return out;
}

/** Static anatomy of one cell's translated template streams. */
struct StreamBreakdown
{
    std::uint64_t templates = 0;
    /** Fused superinstruction templates / constituent instructions
     *  they cover (guards excluded). */
    std::uint64_t fusedTemplates = 0;
    std::uint64_t fusedConstituents = 0;
    std::uint64_t guardTemplates = 0;
    std::uint64_t traces = 0;
    std::uint64_t traceBlocks = 0;
    /** Dispatches a fully sequential walk of the streams saves vs.
     *  one template per instruction: sum of (fuseLen - 1). */
    std::uint64_t dispatchesSaved = 0;
};

/** Walk every current version's cached stream under the cell's fuse
 *  options. */
StreamBreakdown
analyzeStreams(vm::Machine &machine, std::size_t num_methods)
{
    StreamBreakdown out;
    for (std::size_t m = 0; m < num_methods; ++m) {
        const vm::CompiledMethod *cm =
            machine.currentVersion(static_cast<bytecode::MethodId>(m));
        if (!cm)
            continue;
        const vm::DecodedMethod &decoded = machine.decodedFor(*cm);
        out.templates += decoded.stream.size();
        for (const vm::Template &tpl : decoded.stream) {
            if (vm::isFusedTop(tpl.op)) {
                ++out.fusedTemplates;
                out.fusedConstituents += tpl.fuseLen;
            }
            if (vm::isGuardTop(tpl.op))
                ++out.guardTemplates;
            if (tpl.fuseLen > 1)
                out.dispatchesSaved += tpl.fuseLen - 1u;
        }
        out.traces += decoded.traces.size();
        for (const std::vector<cfg::BlockId> &trace : decoded.traces)
            out.traceBlocks += trace.size();
    }
    return out;
}

struct Cell
{
    const char *label;
    vm::EngineKind engine;
    vm::FuseOptions fuse;
};

struct CellResult
{
    std::uint64_t instructions = 0;
    std::uint64_t edges = 0;
    std::string blob;
    StreamBreakdown streams;
};

/**
 * Run one cell over the replay workload: iteration 1 compiles every
 * method at its final level, then kMeasuredIters measured iterations
 * run under the pinned engine and fusion selection with no profilers
 * attached.
 */
CellResult
runCell(const bench::Prepared &prepared,
        const vm::SimParams &base_params, const Cell &cell)
{
    constexpr int kMeasuredIters = 3;

    vm::SimParams params = base_params;
    params.engine = cell.engine;
    params.fuse = cell.fuse;

    bench::ReplayRun run(prepared, params);
    run.runCompileIteration();
    run.clearCollectedProfiles();
    const vm::MachineStats before = run.machine().stats();
    for (int i = 0; i < kMeasuredIters; ++i)
        run.runMeasuredIteration();
    CellResult result;
    result.instructions = run.machine().stats().instructionsExecuted -
                          before.instructionsExecuted;
    result.edges = run.machine().truthEdges().totalCount();
    result.blob = serializeObservables(run.machine());
    result.streams =
        analyzeStreams(run.machine(), prepared.program.methods.size());
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const vm::SimParams params = bench::defaultParams();
    const std::vector<workload::WorkloadSpec> suite =
        bench::benchSuite();

    const Cell cells[] = {
        {"switch-none", vm::EngineKind::Switch, {false, false}},
        {"threaded-none", vm::EngineKind::Threaded, {false, false}},
        {"threaded-pairs", vm::EngineKind::Threaded, {true, false}},
        {"threaded-pairs-traces", vm::EngineKind::Threaded,
         {true, true}},
    };

    // One shared record run: advice is an observable, so it is
    // engine- and fusion-independent; all four cells replay the same
    // decisions.
    std::printf("tab_fusion: workload %s, %zu cells...\n",
                suite[0].name.c_str(), std::size(cells));
    const bench::Prepared prepared = bench::prepare(suite[0], params);

    bench::Report report("tab_fusion");
    std::string reference_blob;
    for (const Cell &cell : cells) {
        const CellResult r = runCell(prepared, params, cell);
        const StreamBreakdown &st = r.streams;
        std::printf("  %-22s %6llu templates, %llu fused covering %llu"
                    " instr, %llu traces over %llu blocks, %llu "
                    "guards\n",
                    cell.label,
                    static_cast<unsigned long long>(st.templates),
                    static_cast<unsigned long long>(st.fusedTemplates),
                    static_cast<unsigned long long>(
                        st.fusedConstituents),
                    static_cast<unsigned long long>(st.traces),
                    static_cast<unsigned long long>(st.traceBlocks),
                    static_cast<unsigned long long>(st.guardTemplates));
        const std::string prefix = std::string("cells.") + cell.label;
        report.set(prefix + ".templates",
                   static_cast<double>(st.templates), "count");
        report.set(prefix + ".fused_templates",
                   static_cast<double>(st.fusedTemplates), "count");
        report.set(prefix + ".fused_constituents",
                   static_cast<double>(st.fusedConstituents), "count");
        report.set(prefix + ".guard_templates",
                   static_cast<double>(st.guardTemplates), "count");
        report.set(prefix + ".traces", static_cast<double>(st.traces),
                   "count");
        report.set(prefix + ".trace_blocks",
                   static_cast<double>(st.traceBlocks), "count");
        report.set(prefix + ".dispatches_saved",
                   static_cast<double>(st.dispatchesSaved), "count");
        if (reference_blob.empty()) {
            reference_blob = r.blob;
            report.set("instructions_per_run",
                       static_cast<double>(r.instructions), "count");
            report.set("edges_per_run", static_cast<double>(r.edges),
                       "count");
        } else {
            report.check(r.blob == reference_blob,
                         std::string("observables of ") + cell.label +
                             " diverge from " + cells[0].label);
        }
    }
    return report.write(argc > 1 ? argv[1] : "tab_fusion.json");
}
