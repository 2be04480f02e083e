#include "common/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/harness.hh"

// Configure-time facts about this build, passed in by bench/CMakeLists.
#ifndef PEP_BENCH_COMPILER
#define PEP_BENCH_COMPILER "unknown"
#endif
#ifndef PEP_BENCH_BUILD_TYPE
#define PEP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PEP_BENCH_COMMIT
#define PEP_BENCH_COMMIT "unknown"
#endif

namespace pep::bench {

namespace {

/** Version of the document layout below. */
constexpr const char *kSchema = "pep-bench-report/1";

double
medianOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

} // namespace

SampleStats
sampleStats(std::vector<double> values)
{
    SampleStats stats;
    stats.n = values.size();
    if (values.empty())
        return stats;
    stats.median = medianOf(values);
    stats.min = *std::min_element(values.begin(), values.end());
    for (double &v : values)
        v = std::fabs(v - stats.median);
    stats.mad = medianOf(std::move(values));
    return stats;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

Report::Report(std::string binary) : binary_(std::move(binary)) {}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics_[name] = Metric{value, unit, {}};
}

void
Report::samples(const std::string &name,
                const std::vector<double> &values,
                const std::string &unit)
{
    const SampleStats stats = sampleStats(values);
    metrics_[name] = Metric{stats.median, unit, stats};
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "%s: check failed: %s\n", binary_.c_str(),
                     what.c_str());
    }
    return ok;
}

std::string
Report::json() const
{
    const char *only = std::getenv("PEP_BENCH_ONLY");
    std::string out = "{\n  \"schema\": " + jsonString(kSchema) + ",\n";
    out += "  \"meta\": {\"binary\": " + jsonString(binary_) +
           ", \"host_cores\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + jsonString(PEP_BENCH_COMPILER) +
           ", \"build_type\": " + jsonString(PEP_BENCH_BUILD_TYPE) +
           ", \"commit\": " + jsonString(PEP_BENCH_COMMIT) +
           ", \"scale\": " + jsonNumber(benchScale()) +
           ", \"only\": " + (only ? jsonString(only) : "null") + "},\n";
    out += std::string("  \"correct\": ") +
           (correct() ? "true" : "false") + ",\n";
    out += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
    out += "  \"failed\": " + std::to_string(failed_) + ",\n";
    out += "  \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
               jsonNumber(metric.value) +
               ", \"unit\": " + jsonString(metric.unit);
        if (metric.stats.n > 0) {
            out += ", \"n\": " + std::to_string(metric.stats.n) +
                   ", \"min\": " + jsonNumber(metric.stats.min) +
                   ", \"mad\": " + jsonNumber(metric.stats.mad);
        }
        out += "}";
    }
    return out + "\n  }\n}\n";
}

int
Report::write(const std::string &path) const
{
    bool written = false;
    if (FILE *file = std::fopen(path.c_str(), "w")) {
        const std::string text = json();
        written = std::fwrite(text.data(), 1, text.size(), file) ==
                  text.size();
        written = std::fclose(file) == 0 && written;
    }
    if (!written) {
        std::fprintf(stderr, "%s: cannot write %s\n", binary_.c_str(),
                     path.c_str());
        return 1;
    }
    std::printf("%s: %llu of %llu checks passed; wrote %s\n",
                binary_.c_str(),
                static_cast<unsigned long long>(attempted_ - failed_),
                static_cast<unsigned long long>(attempted_),
                path.c_str());
    return correct() ? 0 : 1;
}

} // namespace pep::bench
