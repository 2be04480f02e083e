/**
 * @file
 * k-BLPP table (docs/KBLPP.md): what multi-iteration windows buy on
 * the loop-heavy suite. For each benchmark and k in {1, 2, 4, 8} a
 * zero-cost windowed profiler runs under replay and we measure:
 *
 *   - distinct k-paths vs distinct acyclic paths — how much cyclic
 *     structure 1-BLPP was conflating (the paper's core claim is that
 *     this ratio is substantial on loopy code);
 *   - the fraction of recorded windows that are composite (length > 1),
 *     i.e. actually cross a loop-header boundary;
 *   - hot-path concentration (weight of the ten hottest ids) — longer
 *     windows should spread weight over more distinct contexts;
 *   - agreement between the k-path-derived edge profile and the
 *     machine's ground-truth edges. Windowing regroups segments but
 *     never invents or loses flow, so this must not move with k —
 *     a k-dependent divergence is a correctness failure, not a
 *     finding;
 *   - measured-iteration cycles with a cost-charging windowed profiler,
 *     relative to k=1 — the runtime price of window bookkeeping on top
 *     of identical instrumentation (the plan never depends on k).
 *
 * Range checks decide the exit status: every fraction lies in [0, 1],
 * k = 1 records no composite window, and the edge agreement of every
 * k equals k = 1's.
 *
 * Usage: tab_kiter [output.json]   (default tab_kiter.json)
 * PEP_BENCH_SCALE / PEP_BENCH_ONLY apply.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/harness.hh"
#include "common/report.hh"
#include "metrics/overlap.hh"
#include "support/table.hh"

using namespace pep;

namespace {

constexpr std::uint32_t kValues[] = {1, 2, 4, 8};

struct KRow
{
    std::uint64_t distinct = 0;
    std::uint64_t windows = 0;
    double compositeFraction = 0.0;
    double top10Coverage = 0.0;
    double edgeAgreement = 0.0;
    std::uint64_t chargedCycles = 0;
};

struct BenchResult
{
    std::string name;
    KRow rows[std::size(kValues)];
};

/** Zero-cost windowed run: profile shape + derived-edge agreement. */
KRow
measureShape(const bench::Prepared &prepared,
             const vm::SimParams &params, std::uint32_t k)
{
    bench::ReplayRun run(prepared, params);
    core::FullPathProfiler full(
        run.machine(), profile::DagMode::HeaderSplit,
        /*charge_costs=*/false, profile::NumberingScheme::BallLarus,
        core::PathStoreKind::Hash, profile::PlacementKind::Direct, k);
    run.machine().addHooks(&full);
    run.machine().addCompileObserver(&full);

    run.runCompileIteration();
    run.clearCollectedProfiles();
    full.clearPathProfiles();
    run.runMeasuredIteration();

    KRow row;
    std::vector<std::uint64_t> counts;
    std::uint64_t composite_weight = 0;
    for (const auto &[key, vp] : full.versionProfiles()) {
        if (!vp->state->plan.enabled)
            continue;
        const profile::KPathScheme &kpath = vp->state->kpath;
        for (const auto &[id, record] : vp->paths.paths()) {
            ++row.distinct;
            row.windows += record.count;
            counts.push_back(record.count);
            if (id >= kpath.base())
                composite_weight += record.count;
        }
    }
    if (row.windows > 0) {
        row.compositeFraction =
            static_cast<double>(composite_weight) /
            static_cast<double>(row.windows);
        std::sort(counts.rbegin(), counts.rend());
        std::uint64_t top = 0;
        for (std::size_t i = 0; i < counts.size() && i < 10; ++i)
            top += counts[i];
        row.top10Coverage = static_cast<double>(top) /
                            static_cast<double>(row.windows);
    }
    row.edgeAgreement = metrics::relativeOverlap(
        bench::allCfgs(run.machine()), run.machine().truthEdges(),
        core::edgeProfileFromPaths(run.machine(), full));
    return row;
}

/** Cost-charging run: the price of window bookkeeping. */
std::uint64_t
measureCharged(const bench::Prepared &prepared,
               const vm::SimParams &params, std::uint32_t k)
{
    bench::ReplayRun run(prepared, params);
    core::FullPathProfiler full(
        run.machine(), profile::DagMode::HeaderSplit,
        /*charge_costs=*/true, profile::NumberingScheme::BallLarus,
        core::PathStoreKind::Hash, profile::PlacementKind::Direct, k);
    run.machine().addHooks(&full);
    run.machine().addCompileObserver(&full);
    run.runCompileIteration();
    run.clearCollectedProfiles();
    full.clearPathProfiles();
    return run.runMeasuredIteration();
}

} // namespace

int
main(int argc, char **argv)
{
    const vm::SimParams params = bench::defaultParams();

    const std::vector<BenchResult> results = bench::mapSuite(
        bench::benchSuite(), [&](const workload::WorkloadSpec &spec) {
            const bench::Prepared prepared =
                bench::prepare(spec, params);
            BenchResult result;
            result.name = spec.name;
            for (std::size_t i = 0; i < std::size(kValues); ++i) {
                result.rows[i] =
                    measureShape(prepared, params, kValues[i]);
                result.rows[i].chargedCycles =
                    measureCharged(prepared, params, kValues[i]);
            }
            return result;
        });

    bench::Report report("tab_kiter");
    const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
    support::Table table;
    table.header({"benchmark", "k", "distinct", "windows",
                  "composite", "top10", "edge-agree", "overhead"});
    double refinement_sum[std::size(kValues)] = {};
    for (const BenchResult &result : results) {
        const KRow &base = result.rows[0];
        report.check(base.compositeFraction == 0.0,
                     result.name + ": k=1 recorded composite windows");
        for (std::size_t i = 0; i < std::size(kValues); ++i) {
            const KRow &row = result.rows[i];
            const double overhead =
                base.chargedCycles > 0
                    ? static_cast<double>(row.chargedCycles) /
                          static_cast<double>(base.chargedCycles)
                    : 1.0;
            const double refinement =
                base.distinct > 0
                    ? static_cast<double>(row.distinct) /
                          static_cast<double>(base.distinct)
                    : 1.0;
            refinement_sum[i] += refinement;
            table.row({i == 0 ? result.name : "",
                       std::to_string(kValues[i]),
                       std::to_string(row.distinct),
                       std::to_string(row.windows),
                       bench::pct(row.compositeFraction),
                       bench::pct(row.top10Coverage),
                       bench::pct(row.edgeAgreement, 2),
                       std::to_string(overhead).substr(0, 5) + "x"});

            const std::string k = std::to_string(kValues[i]);
            const std::string prefix =
                "benchmarks." + result.name + ".k" + k + ".";
            report.set(prefix + "distinct_paths",
                       static_cast<double>(row.distinct), "count");
            report.set(prefix + "windows",
                       static_cast<double>(row.windows), "count");
            report.set(prefix + "composite_fraction",
                       row.compositeFraction, "ratio");
            report.set(prefix + "top10_coverage", row.top10Coverage,
                       "ratio");
            report.set(prefix + "edge_agreement", row.edgeAgreement,
                       "ratio");
            report.set(prefix + "charged_cycles",
                       static_cast<double>(row.chargedCycles), "count");
            report.check(in_unit(row.compositeFraction) &&
                             in_unit(row.top10Coverage) &&
                             in_unit(row.edgeAgreement),
                         result.name + " k=" + k +
                             ": a fraction lies outside [0, 1]");
            report.check(row.edgeAgreement == base.edgeAgreement,
                         result.name + " k=" + k +
                             ": edge agreement moved with k");
        }
    }
    std::printf("k-BLPP: multi-iteration path windows vs classic "
                "BLPP (docs/KBLPP.md)\n\n%s\n",
                table.str().c_str());

    for (std::size_t i = 0; i < std::size(kValues); ++i) {
        report.set("refinement_avg.k" + std::to_string(kValues[i]),
                   refinement_sum[i] /
                       static_cast<double>(results.size()),
                   "x");
    }
    return report.write(argc > 1 ? argv[1] : "tab_kiter.json");
}
