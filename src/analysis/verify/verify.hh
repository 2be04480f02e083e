#ifndef PEP_ANALYSIS_VERIFY_VERIFY_HH
#define PEP_ANALYSIS_VERIFY_VERIFY_HH

/**
 * @file
 * Driver for the pep-verify passes (docs/ANALYSIS.md):
 *
 *  1. engine equivalence  (verify/engine_equiv.hh)
 *  2. profile realizability (verify/realizability.hh)
 *  3. invariant escape audits (verify/invariants.hh)
 *
 * Entry points:
 *
 *  - verifyProgram: static, no VM. Runs the bytecode verifier, then
 *    verifyTranslations over every method. This is what
 *    `pep_verify --static-only` runs; pep_lint's plan checks run
 *    verifyTranslations too.
 *
 *  - verifyTranslations: translates one method for the threaded
 *    engine exactly as the VM would at full opt (no layout
 *    information), under every fusion selection, and proves each
 *    template stream equivalent to the bytecode.
 *
 *  - verifyMachine: inspects a live VM after (or during) a run. For
 *    every installed compiled version it re-translates the version
 *    (using the inlined body's code when the version has one) and
 *    proves engine equivalence against the *installed* state — baked
 *    layouts included — audits clone-synthesized bodies (plan-checker
 *    check 11), then audits cached template streams and the
 *    escape/sanitize and compile journals. Realizability of recorded
 *    profiles is checked by the callers that own the profilers (the
 *    pep-verify tool and the differ), since the analysis layer does
 *    not depend on the profiler runtime.
 */

#include "analysis/diagnostics.hh"
#include "bytecode/method.hh"

namespace pep::vm {
class Machine;
}

namespace pep::analysis {

/**
 * Run the multi-diagnostic bytecode verifier over a program, reporting
 * its findings under pass "verify". Fills in maxStack. Returns true if
 * the program verified (the CFG builder requires verified code).
 */
bool verifyBytecode(bytecode::Program &program,
                    DiagnosticList &diagnostics);

/**
 * Static verification of one verified method: engine equivalence of
 * its canonical full-opt translation under every fusion selection.
 * Returns true if no errors were added.
 */
bool verifyTranslations(const bytecode::Method &method,
                        DiagnosticList &diagnostics);

/**
 * Static verification of a program: bytecode verifier + engine
 * equivalence of the canonical full-opt translation of every method.
 * The program is mutated only the way verification mutates it
 * (maxStack is filled in). Returns true if no errors were added.
 */
bool verifyProgram(bytecode::Program &program,
                   DiagnosticList &diagnostics);

/**
 * Verify a live machine's installed versions: engine equivalence per
 * version, clone discipline, cached-stream freshness, journal
 * discipline. Returns true if no errors were added.
 */
bool verifyMachine(const vm::Machine &machine,
                   DiagnosticList &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_VERIFY_VERIFY_HH
