#include "analysis/lint.hh"

#include "analysis/liveness.hh"
#include "analysis/verify/engine_equiv.hh"
#include "analysis/plan_check.hh"
#include "analysis/stack_const.hh"
#include "analysis/unreachable.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/verifier.hh"
#include "profile/instr_plan.hh"
#include "profile/numbering.hh"
#include "profile/pdag.hh"
#include "profile/spanning_placement.hh"
#include "vm/compiled_method.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

using profile::DagMode;
using profile::NumberingScheme;
using profile::PlacementKind;

/** Uniform DAG edge frequencies (lint has no runtime profile). */
profile::DagEdgeFreqs
uniformFreqs(const cfg::Graph &dag)
{
    profile::DagEdgeFreqs freqs(dag.numBlocks());
    for (cfg::BlockId v = 0; v < dag.numBlocks(); ++v)
        freqs[v].assign(dag.succs(v).size(), 1.0);
    return freqs;
}

/** Build and check one (mode, scheme, placement) configuration. */
void
checkOnePlan(const bytecode::Method &method,
             const bytecode::MethodCfg &cfg, DagMode mode,
             NumberingScheme scheme, PlacementKind placement,
             std::uint64_t simulate_limit,
             DiagnosticList &diagnostics)
{
    const profile::PDag pdag = profile::buildPDag(cfg, mode);
    const profile::DagEdgeFreqs freqs = uniformFreqs(pdag.dag);
    const profile::Numbering numbering = profile::numberPaths(
        pdag, scheme,
        scheme == NumberingScheme::BallLarus ? nullptr : &freqs);
    profile::InstrumentationPlan plan =
        profile::buildInstrumentationPlan(cfg, pdag, numbering);

    profile::SpanningPlacement spanning;
    if (placement == PlacementKind::SpanningTree && plan.enabled) {
        spanning =
            profile::computeSpanningPlacement(pdag, numbering, &freqs);
        profile::applySpanningPlacement(cfg, pdag, spanning, plan);
    }

    PlanCheckInput input;
    input.cfg = &cfg;
    input.pdag = &pdag;
    input.numbering = &numbering;
    input.plan = &plan;
    input.placement = placement;
    input.spanning =
        placement == PlacementKind::SpanningTree ? &spanning : nullptr;
    input.scheme = scheme;
    input.freqs = &freqs;
    input.methodName = method.name;
    input.simulateLimit = simulate_limit;
    checkInstrumentationPlan(input, diagnostics);
}

/**
 * Check 9: translate the method for the threaded engine exactly as
 * Machine::decodedFor would (full-opt costs, no layout information)
 * and prove the template stream consistent with the CFG's edge
 * numbering and the canonical plan's edge table. The numbering belongs
 * to the CFG — identical across every (mode, scheme, placement) built
 * above — so one representative plan suffices.
 */
void
checkTemplates(const bytecode::Method &method,
               const bytecode::MethodCfg &cfg, bool check_stream,
               bool check_equivalence, DiagnosticList &diagnostics)
{
    const profile::PDag pdag =
        profile::buildPDag(cfg, DagMode::HeaderSplit);
    const profile::Numbering numbering =
        profile::numberPaths(pdag, NumberingScheme::BallLarus, nullptr);
    const profile::InstrumentationPlan plan =
        profile::buildInstrumentationPlan(cfg, pdag, numbering);

    const vm::MethodInfo info = vm::buildMethodInfo(method);
    vm::CompiledMethod cm;
    cm.level = vm::OptLevel::Opt2;
    const vm::CostModel cost;
    cm.scaledCost.resize(bytecode::kNumOpcodes);
    for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
        cm.scaledCost[op] =
            cost.instrCost(static_cast<bytecode::Opcode>(op));
    cm.branchLayout.assign(cfg.graph.numBlocks(), -1);

    // One translation per fusion selection: checks 9 and 12 plus the
    // symbolic engine-equivalence pass must hold across the whole
    // PEP_FUSE matrix (the canonical no-information layout predicts
    // fall-through everywhere, so `traces` forms real chains here).
    const vm::FuseOptions fuse_matrix[] = {
        {false, false}, {true, false}, {false, true}, {true, true}};
    for (const vm::FuseOptions &fuse : fuse_matrix) {
        const vm::DecodedMethod decoded =
            translateMethod(method, info, cm, fuse);

        if (check_stream) {
            TemplateCheckInput input;
            input.code = &method;
            input.cfg = &cfg;
            input.plan = &plan;
            input.decoded = &decoded;
            input.methodName = method.name;
            checkTemplateStream(input, diagnostics);

            FusedCheckInput fused;
            fused.decoded = &decoded;
            fused.methodName = method.name;
            checkFusedStream(fused, diagnostics);
        }

        // The symbolic engine-equivalence pass (verify pass 1) on the
        // same canonical translation.
        if (check_equivalence) {
            EngineEquivInput input;
            input.code = &method;
            input.info = &info;
            input.cm = &cm;
            input.decoded = &decoded;
            input.methodName = method.name;
            checkEngineEquivalence(input, diagnostics);
        }
    }
}

} // namespace

DiagnosticList
lintProgram(bytecode::Program &program, const LintOptions &options)
{
    DiagnosticList diagnostics;

    if (options.runVerifier) {
        const bytecode::VerifyResult verified =
            bytecode::verifyProgram(program);
        for (const bytecode::VerifyDiagnostic &d :
             verified.diagnostics) {
            Diagnostic &out = diagnostics.report(
                Severity::Error, "verify", d.method, d.message);
            out.hasPc = d.hasPc;
            out.pc = d.pc;
        }
        // The CFG builder panics on unverified code; stop here.
        if (!verified.ok)
            return diagnostics;
    }

    if (!options.runMethodPasses && !options.runPlanChecks &&
        !options.runVerifyPasses)
        return diagnostics;

    for (const bytecode::Method &method : program.methods) {
        const bytecode::MethodCfg cfg = bytecode::buildCfg(method);

        if (options.runMethodPasses) {
            const LivenessResult liveness =
                computeLiveness(method, cfg);
            reportDeadStores(method, cfg, liveness, diagnostics);
            reportUnreachableCode(method, cfg, diagnostics);
            const StackConstResult stack_const =
                computeStackConst(program, method, cfg);
            reportStackConstFindings(program, method, cfg, stack_const,
                                     diagnostics);
        }

        if (options.runPlanChecks) {
            for (const DagMode mode :
                 {DagMode::HeaderSplit, DagMode::BackEdgeTruncate}) {
                checkOnePlan(method, cfg, mode,
                             NumberingScheme::BallLarus,
                             PlacementKind::Direct,
                             options.simulateLimit, diagnostics);
                checkOnePlan(method, cfg, mode,
                             NumberingScheme::BallLarus,
                             PlacementKind::SpanningTree,
                             options.simulateLimit, diagnostics);
                checkOnePlan(method, cfg, mode,
                             NumberingScheme::Smart,
                             PlacementKind::Direct,
                             options.simulateLimit, diagnostics);
            }
        }

        if (options.runPlanChecks || options.runVerifyPasses) {
            checkTemplates(method, cfg, options.runPlanChecks,
                           options.runVerifyPasses, diagnostics);
        }
    }
    return diagnostics;
}

} // namespace pep::analysis
