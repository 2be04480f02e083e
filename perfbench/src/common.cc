#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pep::perfbench {

vm::SimParams
pinnedParams(std::uint64_t seed)
{
    vm::SimParams params;
    params.engine = vm::EngineKind::Threaded;
    params.fuse = vm::FuseOptions{};
    params.rngSeed = seed;
    return params;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
relativeIqr(std::vector<double> values)
{
    const std::size_t n = values.size();
    if (n < 2)
        return 0.0;
    std::sort(values.begin(), values.end());
    // statistics.quantiles(method="exclusive"): position j*(n+1)/4.
    const auto quantile = [&](int j) {
        const double pos = j * static_cast<double>(n + 1) / 4.0;
        const double clamped =
            std::clamp(pos, 1.0, static_cast<double>(n));
        const std::size_t lo = static_cast<std::size_t>(clamped) - 1;
        const std::size_t hi = std::min(lo + 1, n - 1);
        const double frac = clamped - std::floor(clamped);
        return values[lo] + frac * (values[hi] - values[lo]);
    };
    const double mid = median(values);
    return mid != 0.0 ? (quantile(3) - quantile(1)) / std::fabs(mid)
                      : 0.0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(status);
    return kb / 1024.0;
}

std::string
serializeEdges(const profile::EdgeProfileSet &set)
{
    std::string out;
    char line[96];
    for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
        const auto &counts = set.perMethod[m].counts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
            for (std::size_t i = 0; i < counts[b].size(); ++i) {
                if (counts[b][i] == 0)
                    continue;
                std::snprintf(line, sizeof line, "%zu %zu %zu %llu\n", m,
                              b, i,
                              static_cast<unsigned long long>(
                                  counts[b][i]));
                out += line;
            }
        }
    }
    return out;
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

namespace {

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

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics_[name] = Metric{value, unit};
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
    }
}

std::string
Report::resultJson() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics_) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
               jsonNumber(metric.value) +
               ", \"unit\": " + jsonString(metric.unit) + "}";
    }
    return out + "}}";
}

void
reportLayerCosts(const std::vector<LayerCost> &costs, Report &report)
{
    std::printf("  layer costs (median, IQR/median, min, max):\n");
    for (const LayerCost &cost : costs) {
        const auto [lo, hi] =
            std::minmax_element(cost.values.begin(), cost.values.end());
        std::printf("    %-32s %12.4f %-3s %.4f  [%.4f, %.4f]\n", cost.name,
                    median(cost.values), cost.unit,
                    relativeIqr(cost.values), *lo, *hi);
        report.set(cost.name, median(cost.values), cost.unit);
    }
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope
Tracer::span(const std::string &name, const std::string &id)
{
    if (!enabled_)
        return Scope(*this, -1);
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = secondsSince(origin_);
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return Scope(*this, index);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end =
        secondsSince(tracer_.origin_);
    tracer_.open_.pop_back();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] += spans_[i].end - spans_[i].start;
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.end - span.start;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

bool
Tracer::writeJson(const std::string &path, const std::string &meta) const
{
    FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"meta\": %s,\n \"self_seconds\": {",
                 meta.c_str());
    bool first = true;
    for (const auto &[name, seconds] : selfSeconds()) {
        std::fprintf(out, "%s\n  %s: %s", first ? "" : ",",
                     jsonString(name).c_str(),
                     jsonNumber(seconds).c_str());
        first = false;
    }
    std::fprintf(out, "},\n \"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(out,
                     "%s\n  {\"name\": %s, \"id\": %s, \"start\": %s, "
                     "\"end\": %s, \"parent\": %d}",
                     i ? "," : "", jsonString(span.name).c_str(),
                     jsonString(span.id).c_str(),
                     jsonNumber(span.start).c_str(),
                     jsonNumber(span.end).c_str(), span.parent);
    }
    std::fprintf(out, "\n ]}\n");
    return std::fclose(out) == 0;
}

} // namespace pep::perfbench
