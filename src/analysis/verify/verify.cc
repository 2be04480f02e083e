#include "analysis/verify/verify.hh"

#include "analysis/plan_check.hh"
#include "analysis/verify/engine_equiv.hh"
#include "analysis/verify/invariants.hh"
#include "bytecode/cfg_builder.hh"
#include "bytecode/verifier.hh"
#include "vm/compiled_method.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/inliner.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

/** The canonical translation the static passes check: full-opt costs,
 *  no layout information, no baseline instrumentation. */
vm::CompiledMethod
canonicalVersion(const bytecode::MethodCfg &cfg)
{
    vm::CompiledMethod cm;
    cm.level = vm::OptLevel::Opt2;
    const vm::CostModel cost;
    cm.scaledCost.resize(bytecode::kNumOpcodes);
    for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
        cm.scaledCost[op] =
            cost.instrCost(static_cast<bytecode::Opcode>(op));
    cm.branchLayout.assign(cfg.graph.numBlocks(), -1);
    return cm;
}

} // namespace

bool
verifyBytecode(bytecode::Program &program, DiagnosticList &diagnostics)
{
    const bytecode::VerifyResult verified =
        bytecode::verifyProgram(program);
    for (const bytecode::VerifyDiagnostic &d : verified.diagnostics) {
        Diagnostic &out = diagnostics.report(Severity::Error, "verify",
                                             d.method, d.message);
        out.hasPc = d.hasPc;
        out.pc = d.pc;
    }
    return verified.ok;
}

bool
verifyTranslations(const bytecode::Method &method,
                   DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    // The equivalence proof must hold under every fusion selection —
    // fused segments included (under the canonical all-fall-through
    // layout `traces` straightens real chains).
    const vm::FuseOptions fuse_matrix[] = {
        {false, false}, {true, false}, {false, true}, {true, true}};
    const vm::MethodInfo info = vm::buildMethodInfo(method);
    const vm::CompiledMethod cm = canonicalVersion(info.cfg);
    for (const vm::FuseOptions &fuse : fuse_matrix) {
        const vm::DecodedMethod decoded =
            vm::translateMethod(method, info, cm, fuse);
        EngineEquivInput input;
        input.code = &method;
        input.info = &info;
        input.cm = &cm;
        input.decoded = &decoded;
        input.methodName = method.name;
        checkEngineEquivalence(input, diagnostics);
    }
    return diagnostics.errorCount() == before;
}

bool
verifyProgram(bytecode::Program &program, DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    // The CFG builder panics on unverified code; stop there.
    if (!verifyBytecode(program, diagnostics))
        return false;
    for (const bytecode::Method &method : program.methods)
        verifyTranslations(method, diagnostics);
    return diagnostics.errorCount() == before;
}

bool
verifyMachine(const vm::Machine &machine, DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();

    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
            const vm::CompiledMethod *cm = machine.versionAt(m, v);
            const std::string &name = machine.program().methods[m].name;
            // The version executes its inlined body's code when it has
            // one; all block ids refer to that CFG.
            const bytecode::Method *code =
                cm->inlinedBody ? &cm->inlinedBody->method
                                : &machine.program().methods[m];
            const vm::MethodInfo *info = cm->inlinedBody
                                             ? &cm->inlinedBody->info
                                             : &machine.info(m);
            // Verify under the machine's live fusion selection — the
            // streams the threaded engine actually executes.
            const vm::DecodedMethod decoded = vm::translateMethod(
                *code, *info, *cm, machine.params().fuse);

            EngineEquivInput input;
            input.code = code;
            input.info = info;
            input.cm = cm;
            input.decoded = &decoded;
            input.methodName = name;
            input.hasVersion = true;
            input.version = v;
            checkEngineEquivalence(input, diagnostics);

            // Clone discipline: the check-11 origin audit of every
            // clone-synthesized body.
            if (cm->cloneApplied && cm->inlinedBody) {
                CloneCheckInput clone;
                clone.rootMethod = m;
                clone.originalCfg = &machine.info(m).cfg;
                clone.body = cm->inlinedBody.get();
                clone.methodName = name;
                checkClonedBody(clone, diagnostics);
            }
        }
    }

    auditMachineDecoded(machine, diagnostics);
    auditMutationJournal(machine, diagnostics);
    auditCloneJournal(machine, diagnostics);

    return diagnostics.errorCount() == before;
}

} // namespace pep::analysis
