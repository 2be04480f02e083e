#ifndef PEP_ANALYSIS_VERIFY_INVARIANTS_HH
#define PEP_ANALYSIS_VERIFY_INVARIANTS_HH

/**
 * @file
 * Pass 3 of pep-verify: invariant escape audits (docs/ANALYSIS.md).
 * The template rule allows in-place mutation of installed state only
 * when a re-establishing call follows: the threaded engine's cached
 * template streams bake in an installed version's branch layout,
 * costs and flags, so any in-place version mutation
 * (`Machine::versionForUpdate`) must be followed by
 * `Machine::invalidateDecoded` (docs/ENGINE.md, enforced dynamically
 * by the stale-template injection).
 *
 * These audits prove the *current* state discharges it:
 *
 *  - auditMachineDecoded re-translates every version with a cached
 *    stream (translation is a pure function of the installed version)
 *    and compares memberwise — a stale stream is caught without
 *    executing a single instruction;
 *  - auditMutationJournal walks the machine's escape/sanitize journal
 *    and proves every `versionForUpdate` escape was followed by a
 *    matching `invalidateDecoded` — the conservative source-discipline
 *    check: it flags a skipped invalidate even if the mutation happened
 *    to leave the baked-in state unchanged;
 *  - auditCloneJournal extends the discipline to the path-cloning
 *    pass (src/opt/path_clone.hh): every installed version must appear
 *    in the machine's compile journal with a matching cloneApplied
 *    flag — a clone-applied version absent from the journal, or whose
 *    installed flag disagrees with its recorded compile, acquired its
 *    synthesized body outside Machine::compile()'s pass pipeline and
 *    therefore outside the template rule the pipeline guarantees
 *    (in-place mutations after the compile remain the mutation
 *    journal's concern).
 *
 * Findings are reported under pass "invariants".
 */

#include <cstdint>
#include <string>

#include "analysis/diagnostics.hh"

namespace pep::vm {
class Machine;
}

namespace pep::analysis {

/**
 * Prove every cached template stream equals a fresh translation of its
 * installed version. Returns true if no errors were added.
 */
bool auditMachineDecoded(const vm::Machine &machine,
                         DiagnosticList &diagnostics);

/**
 * Prove every versionForUpdate escape in the machine's mutation
 * journal is followed by a matching invalidateDecoded sanitize.
 * Returns true if no errors were added.
 */
bool auditMutationJournal(const vm::Machine &machine,
                          DiagnosticList &diagnostics);

/**
 * Prove every installed version's clone state matches the machine's
 * compile journal: the version was recorded by compile(), its
 * cloneApplied flag agrees with the record, and clone-applied versions
 * really carry a synthesized body. Returns true if no errors were
 * added.
 */
bool auditCloneJournal(const vm::Machine &machine,
                       DiagnosticList &diagnostics);

} // namespace pep::analysis

#endif // PEP_ANALYSIS_VERIFY_INVARIANTS_HH
