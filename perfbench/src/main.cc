/**
 * @file
 * The repository benchmark (see perfbench/README.md):
 *
 *   pep_perfbench --workload <replay-suite|server-hot|server-diverse>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 [--trace-out <file>] [--commit <rev>]
 *
 * Prints progress and a metadata line, then, as the last line of
 * standard output, one JSON object with `correct`, `attempted`,
 * `failed` and `metrics`. With --trace 0 the metrics are the
 * end-to-end ones; with --trace 1 they are the per-layer ones, taken
 * from the ablation ladder, and the spans go to --trace-out. Exits 1
 * when a correctness check fails and 2 on a usage or configuration
 * error (no result line then).
 *
 * The configuration is pinned in code: threaded engine, no fusion, no
 * compile passes, k = 1. The run refuses to start when an environment
 * variable that could change it (PEP_ENGINE, PEP_FUSE, PEP_OPT,
 * PEP_KITER, PEP_BENCH_*) is set.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hh"

extern char **environ;

using namespace pep;
using namespace pep::perfbench;

namespace {

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "pep_perfbench: %s\nusage: pep_perfbench --workload "
                 "<replay-suite|server-hot|server-diverse> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--commit <rev>]\n",
                 message);
    return 2;
}

/** The first configuration-changing variable set, or empty. */
std::string
configurationOverride()
{
    static const char *const kExact[] = {"PEP_ENGINE=", "PEP_FUSE=",
                                         "PEP_OPT=", "PEP_KITER="};
    for (char **entry = environ; entry && *entry; ++entry) {
        const std::string var = *entry;
        if (var.rfind("PEP_BENCH_", 0) == 0)
            return var.substr(0, var.find('='));
        for (const char *prefix : kExact) {
            if (var.rfind(prefix, 0) == 0)
                return var.substr(0, var.find('='));
        }
    }
    return {};
}

std::string
metaJson(const Options &options)
{
    return std::string("{\"workload\": ") +
           jsonString(options.workload) +
           ", \"seed\": " + std::to_string(options.seed) +
           ", \"seconds\": " + std::to_string(options.seconds) +
           ", \"trace\": " + (options.trace ? "1" : "0") +
           ", \"host_cores\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"commit\": " + jsonString(options.commit) +
           ", \"engine\": \"threaded\", \"fuse\": \"none\", "
           "\"opt_passes\": \"none\", \"k\": 1}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            have_seed = end && *end == '\0' && *value;
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            have_seconds = end && *end == '\0' && options.seconds > 0.0;
        } else if (flag == "--trace") {
            have_trace = !std::strcmp(value, "0") ||
                         !std::strcmp(value, "1");
            options.trace = !std::strcmp(value, "1");
        } else if (flag == "--trace-out") {
            options.traceOut = value;
        } else if (flag == "--commit") {
            options.commit = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (> 0) and "
                     "--trace (0 or 1) are required");
    const bool replay = options.workload == "replay-suite";
    const bool hot = options.workload == "server-hot";
    const bool diverse = options.workload == "server-diverse";
    if (!replay && !hot && !diverse)
        return usage(("unknown workload " + options.workload).c_str());
    if (const std::string var = configurationOverride(); !var.empty()) {
        std::fprintf(stderr,
                     "pep_perfbench: %s is set; the benchmark pins its "
                     "configuration and refuses to run under it\n",
                     var.c_str());
        return 2;
    }

    const std::string meta = metaJson(options);
    std::printf("meta %s\n", meta.c_str());
    std::fflush(stdout);

    Tracer tracer(options.trace);
    Report report;
    if (replay)
        runReplaySuite(options, tracer, report);
    else
        runServer(options, diverse, tracer, report);

    if (options.trace && !options.traceOut.empty() &&
        !tracer.writeJson(options.traceOut, meta)) {
        std::fprintf(stderr, "pep_perfbench: cannot write %s\n",
                     options.traceOut.c_str());
        return 2;
    }
    std::printf("%s\n", report.resultJson().c_str());
    return report.correct() ? 0 : 1;
}
