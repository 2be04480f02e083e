/**
 * @file
 * pep-lint: static checker for .pepasm programs and their profiling
 * instrumentation. Assembles each input file, runs the multi-diagnostic
 * bytecode verifier, the dataflow lints (dead stores, unreachable code,
 * abstract stack/constant findings), and the instrumentation-plan
 * checker over every (DAG mode, numbering scheme, placement)
 * configuration the profiling pipeline can produce, plus the
 * engine-equivalence proof of every method's template streams (the
 * static verification `pep_verify --static-only` runs).
 *
 * Usage:
 *   pep_lint [options] <program.pepasm>...
 *     --json          emit diagnostics as a JSON array
 *     --werror        exit nonzero on warnings too
 *     --no-plan       skip the instrumentation-plan checker and the
 *                     template-stream proof
 *     --no-passes     skip the dataflow lints
 *     --quiet         print errors only (text mode)
 *     --max-paths N   path-enumeration budget for the semantic proof
 *                     (default 4096)
 *
 * Findings are emitted in a deterministic order — sorted by (file,
 * method, version, pass, check, location) — so CI diffs are stable
 * regardless of pass scheduling.
 *
 * Exit status: 0 clean, 1 diagnostics at the failing severity, 2 usage
 * or file errors.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hh"
#include "bytecode/assembler.hh"

namespace {

struct Options
{
    std::vector<std::string> files;
    bool json = false;
    bool werror = false;
    bool quiet = false;
    pep::analysis::LintOptions lint;
};

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            options.json = true;
        } else if (arg == "--werror") {
            options.werror = true;
        } else if (arg == "--quiet") {
            options.quiet = true;
        } else if (arg == "--no-plan") {
            options.lint.runPlanChecks = false;
        } else if (arg == "--no-passes") {
            options.lint.runMethodPasses = false;
        } else if (arg == "--max-paths") {
            if (i + 1 >= argc)
                return false;
            options.lint.simulateLimit = static_cast<std::uint64_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "pep-lint: unknown option '%s'\n",
                         arg.c_str());
            return false;
        } else {
            options.files.push_back(arg);
        }
    }
    return !options.files.empty();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        std::fprintf(
            stderr,
            "usage: pep_lint [--json] [--werror] [--quiet] [--no-plan]"
            " [--no-passes] [--max-paths N]"
            " <program.pepasm>...\n");
        return 2;
    }

    using pep::analysis::Diagnostic;
    using pep::analysis::Severity;

    bool io_error = false;
    std::size_t errors = 0, warnings = 0;
    std::vector<std::pair<std::string, Diagnostic>> findings;

    for (const std::string &path : options.files) {
        std::string source;
        if (!readFile(path, source)) {
            std::fprintf(stderr, "pep-lint: cannot read '%s'\n",
                         path.c_str());
            io_error = true;
            continue;
        }

        pep::analysis::DiagnosticList diagnostics;
        pep::bytecode::AssembleResult assembled =
            pep::bytecode::assemble(source);
        if (!assembled.ok) {
            diagnostics.report(Severity::Error, "assemble", "",
                               assembled.error);
        } else {
            diagnostics = pep::analysis::lintProgram(assembled.program,
                                                     options.lint);
        }

        errors += diagnostics.errorCount();
        warnings += diagnostics.warningCount();
        for (const Diagnostic &d : diagnostics.all())
            findings.emplace_back(path, d);
    }

    // Deterministic output order regardless of pass scheduling.
    std::stable_sort(
        findings.begin(), findings.end(),
        [](const std::pair<std::string, Diagnostic> &a,
           const std::pair<std::string, Diagnostic> &b) {
            if (a.first != b.first)
                return a.first < b.first;
            return pep::analysis::diagnosticLess(a.second, b.second);
        });

    if (options.json) {
        // One top-level array; each entry gains a "file" key.
        std::printf("[");
        bool first = true;
        for (const auto &[path, d] : findings) {
            std::vector<Diagnostic> one{d};
            std::string body = pep::analysis::diagnosticsToJson(one);
            // Reuse the single-entry rendering, injecting the file.
            const std::size_t brace = body.find('{');
            const std::size_t end = body.rfind('}');
            std::printf("%s\n  {\"file\": \"%s\", %s}",
                        first ? "" : ",", path.c_str(),
                        body.substr(brace + 1, end - brace - 1)
                            .c_str());
            first = false;
        }
        std::printf("\n]\n");
    } else {
        for (const auto &[path, d] : findings) {
            if (options.quiet && d.severity != Severity::Error)
                continue;
            std::printf("%s: %s\n", path.c_str(),
                        pep::analysis::formatDiagnostic(d).c_str());
        }
        if (!options.quiet) {
            std::printf("pep-lint: %zu file(s), %zu error(s), "
                        "%zu warning(s)\n",
                        options.files.size(), errors, warnings);
        }
    }

    if (io_error)
        return 2;
    if (errors > 0 || (options.werror && warnings > 0))
        return 1;
    return 0;
}
