#include "analysis/verify/invariants.hh"

#include <map>
#include <sstream>

#include "vm/inliner.hh"

#include "vm/compiled_method.hh"
#include "vm/decoded_method.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

constexpr std::size_t kMaxPerCategory = 8;
constexpr char kPass[] = "invariants";

Diagnostic &
reportError(DiagnosticList &diags, const char *check,
            const std::string &method, bool has_version,
            std::uint32_t version, const std::string &message)
{
    Diagnostic &d =
        diags.report(Severity::Error, kPass, method, message);
    d.check = check;
    d.hasVersion = has_version;
    d.version = version;
    return d;
}

bool
sameTemplate(const vm::Template &a, const vm::Template &b)
{
    return a.op == b.op && a.flags == b.flags && a.sub == b.sub &&
           a.fuseLen == b.fuseLen && a.layout == b.layout &&
           a.cost == b.cost && a.ninstr == b.ninstr && a.a == b.a &&
           a.b == b.b && a.block == b.block &&
           a.flatBase == b.flatBase && a.taken == b.taken &&
           a.takenPc == b.takenPc && a.takenBlock == b.takenBlock &&
           a.fall == b.fall && a.fallPc == b.fallPc &&
           a.fallBlock == b.fallBlock && a.swFirst == b.swFirst &&
           a.swCount == b.swCount && a.pc == b.pc;
}

/** First difference between a cached stream and a fresh translation,
 *  or the empty string when they are identical. */
std::string
firstStreamDiff(const vm::DecodedMethod &cached,
                const vm::DecodedMethod &fresh)
{
    std::ostringstream os;
    if (cached.fuse != fresh.fuse)
        return "fusion options differ from a fresh translation";
    if (cached.traces != fresh.traces)
        return "trace selection differs from a fresh translation";
    if (cached.blockTrace != fresh.blockTrace)
        return "blockTrace differs from a fresh translation";
    if (cached.stream.size() != fresh.stream.size()) {
        os << "cached stream has " << cached.stream.size()
           << " templates, fresh translation " << fresh.stream.size();
        return os.str();
    }
    for (std::size_t i = 0; i < cached.stream.size(); ++i) {
        if (!sameTemplate(cached.stream[i], fresh.stream[i])) {
            const vm::Template &c = cached.stream[i];
            const vm::Template &f = fresh.stream[i];
            os << "template " << i << " (pc " << f.pc
               << ") differs from a fresh translation";
            if (c.layout != f.layout) {
                os << ": cached layout " << c.layout << ", fresh "
                   << f.layout;
            } else if (c.cost != f.cost) {
                os << ": cached cost " << c.cost << ", fresh " << f.cost;
            } else if (c.flags != f.flags) {
                os << ": cached flags " << int(c.flags) << ", fresh "
                   << int(f.flags);
            }
            return os.str();
        }
    }
    if (cached.pcToTemplate != fresh.pcToTemplate)
        return "pcToTemplate differs from a fresh translation";
    if (cached.switchCases.size() != fresh.switchCases.size())
        return "switchCases differs from a fresh translation";
    for (std::size_t i = 0; i < cached.switchCases.size(); ++i) {
        const vm::SwitchCase &c = cached.switchCases[i];
        const vm::SwitchCase &f = fresh.switchCases[i];
        if (c.tpl != f.tpl || c.pc != f.pc || c.block != f.block ||
            c.isHeader != f.isHeader) {
            os << "switch case " << i
               << " differs from a fresh translation";
            return os.str();
        }
    }
    return {};
}

} // namespace

bool
auditMachineDecoded(const vm::Machine &machine,
                    DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        const std::string &name = machine.program().methods[m].name;
        for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
            const vm::DecodedMethod *cached = machine.cachedDecoded(m, v);
            if (cached == nullptr)
                continue;
            const vm::CompiledMethod *cm = machine.versionAt(m, v);
            // Re-translate under the cached stream's own fusion tuple:
            // a fuse-option change is a cache *key* difference (the
            // machine drops the slot), not staleness.
            const vm::DecodedMethod fresh = vm::translateMethod(
                *cached->code, *cached->info, *cm, cached->fuse);
            const std::string diff = firstStreamDiff(*cached, fresh);
            if (!diff.empty()) {
                reportError(diagnostics, "stale-template", name,
                            /*has_version=*/true, v,
                            "cached template stream is stale: " + diff +
                                " (version mutated without "
                                "invalidateDecoded)");
            }
        }
    }
    return diagnostics.errorCount() == before;
}

bool
auditMutationJournal(const vm::Machine &machine,
                     DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();
    const std::vector<vm::PlanMutationEvent> &journal =
        machine.mutationJournal();
    std::size_t findings = 0;
    for (std::size_t i = 0; i < journal.size(); ++i) {
        const vm::PlanMutationEvent &event = journal[i];
        if (event.sanitize)
            continue;
        bool discharged = false;
        for (std::size_t j = i + 1; j < journal.size(); ++j) {
            if (journal[j].sanitize &&
                journal[j].method == event.method &&
                journal[j].version == event.version) {
                discharged = true;
                break;
            }
        }
        if (discharged)
            continue;
        if (findings++ >= kMaxPerCategory)
            break;
        std::ostringstream os;
        os << "versionForUpdate escape (journal entry " << i
           << ") was never followed by invalidateDecoded for this "
              "version";
        reportError(diagnostics, "escape-unsanitized",
                    machine.program().methods[event.method].name,
                    /*has_version=*/true, event.version, os.str());
    }
    return diagnostics.errorCount() == before;
}

bool
auditCloneJournal(const vm::Machine &machine,
                  DiagnosticList &diagnostics)
{
    const std::size_t before = diagnostics.errorCount();

    // Compile() appends exactly one journal entry per version, in
    // order; index them for the cross-check.
    std::map<std::pair<bytecode::MethodId, std::uint32_t>, bool>
        recorded;
    for (const vm::CompileEvent &event : machine.compileJournal())
        recorded[{event.method, event.version}] = event.cloneApplied;

    std::size_t findings = 0;
    for (bytecode::MethodId m = 0; m < machine.numMethods(); ++m) {
        const std::string &name = machine.program().methods[m].name;
        for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
            if (findings >= kMaxPerCategory)
                return diagnostics.errorCount() == before;
            const vm::CompiledMethod *cm = machine.versionAt(m, v);
            const auto it = recorded.find({m, v});
            if (it == recorded.end()) {
                reportError(diagnostics, "clone-journal", name,
                            /*has_version=*/true, v,
                            "installed version was never recorded in "
                            "the compile journal — it did not come "
                            "through Machine::compile()");
                ++findings;
                continue;
            }
            if (cm->cloneApplied != it->second) {
                std::ostringstream os;
                os << "installed version's cloneApplied is "
                   << (cm->cloneApplied ? "true" : "false")
                   << " but its compile was recorded with "
                   << (it->second ? "true" : "false")
                   << " — a cloned body that bypassed the pass "
                      "pipeline (or a clone flag cleared in place)";
                reportError(diagnostics, "clone-journal", name,
                            /*has_version=*/true, v, os.str());
                ++findings;
                continue;
            }
            if (cm->cloneApplied && !cm->inlinedBody) {
                reportError(diagnostics, "clone-journal", name,
                            /*has_version=*/true, v,
                            "clone-applied version carries no "
                            "synthesized body");
                ++findings;
            }
        }
    }
    return diagnostics.errorCount() == before;
}

} // namespace pep::analysis
