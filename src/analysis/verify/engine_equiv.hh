#ifndef PEP_ANALYSIS_VERIFY_ENGINE_EQUIV_HH
#define PEP_ANALYSIS_VERIFY_ENGINE_EQUIV_HH

/**
 * @file
 * Pass 1 of pep-verify: symbolic cross-engine equivalence
 * (docs/ANALYSIS.md). The switch interpreter executes bytecode and
 * consults the installed CompiledMethod live; the threaded engine
 * executes the version's pre-decoded template stream
 * (vm/decoded_method.hh) with layouts, flat-edge bases, header flags
 * and segment charges baked in at translation time. The differ's
 * check 7 proves the two byte-identical *dynamically*, per run; this
 * pass proves it *statically*, for all inputs, by abstractly executing
 * both representations one basic block at a time and comparing their
 * observable effects:
 *
 *  - cycle charges: the per-instruction scaled costs the switch engine
 *    charges over a block must equal the folded segment sums the
 *    threaded engine charges on the block's segment-leader templates
 *    (a per-block strengthening of plan-checker check 9's global sum);
 *  - instruction counts: same, for the ninstr counter;
 *  - profile-counter effects: every block exit must fire the same CFG
 *    edge (src block, successor index) at the same dense flat id —
 *    the switch engine asks the CFG (`MethodCfg::flatEdgeId`), the
 *    threaded engine adds the successor to its template's burned-in
 *    `flatBase` — so every attached profiler's flatEdgeActions
 *    dispatch is identical under both engines;
 *  - yieldpoint/header placement: an exit transfers into a loop-header
 *    leader pc on one side iff the template carries the corresponding
 *    header flag, so onLoopHeader hooks and LoopHeader yieldpoints
 *    fire identically;
 *  - branch-layout reads: the layout the threaded engine baked into a
 *    Cond/Switch terminator template equals the version's live
 *    branchLayout, so layout-miss penalties agree;
 *  - baseline edge counters: the one-time-instrumentation flag on
 *    Cond/Switch terminators equals CompiledMethod::baselineEdgeInstr.
 *
 * Method entry (the {entry, 0} edge and entry-header events) is shared
 * pushFrame code outside the template stream, identical by
 * construction; it is out of scope here. Back-edge yieldpoints fire in
 * a helper shared by both engines keyed only on the CFG EdgeRef, so
 * edge equality above covers them.
 *
 * Findings are reported under pass "engine-equiv" with a per-category
 * check id, capped like the plan checker's.
 */

#include <cstdint>
#include <string>

#include "analysis/diagnostics.hh"
#include "bytecode/method.hh"

namespace pep::vm {
class CompiledMethod;
struct DecodedMethod;
struct MethodInfo;
}

namespace pep::analysis {

/** Everything the equivalence check inspects for one version. `code`
 *  and `info` must be the code the version executes (the inlined
 *  body's when the version has one). */
struct EngineEquivInput
{
    const bytecode::Method *code = nullptr;
    const vm::MethodInfo *info = nullptr;
    const vm::CompiledMethod *cm = nullptr;
    const vm::DecodedMethod *decoded = nullptr;

    /** Method name used in diagnostics. */
    std::string methodName;

    /** Compiled version number, when verifying an installed version. */
    bool hasVersion = false;
    std::uint32_t version = 0;
};

/**
 * Prove the template stream and the bytecode have identical abstract
 * effects per basic block (see file comment). Returns true if no
 * errors were added.
 */
bool checkEngineEquivalence(const EngineEquivInput &input,
                            DiagnosticList &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_VERIFY_ENGINE_EQUIV_HH
