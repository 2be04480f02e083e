#ifndef PEP_PERFBENCH_COMMON_HH
#define PEP_PERFBENCH_COMMON_HH

/**
 * @file
 * Plumbing shared by the benchmark's workloads: run options, the
 * metric report, the span tracer, timing and order statistics, and
 * edge-profile serialization for exact comparisons.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vm/machine.hh"

namespace pep::perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty: nowhere). */
    std::string traceOut;
    /** Source revision recorded in the metadata. */
    std::string commit = "unknown";
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** PEP's sampling configuration everywhere in the benchmark: the
 *  paper's PEP(64,17), simplified Arnold-Grove. */
constexpr std::uint32_t kPepSamples = 64;
constexpr std::uint32_t kPepStride = 17;

/** The pinned configuration: threaded engine, no fusion, no compile
 *  passes (the benchmark never registers one), and the seed as the VM's
 *  Irnd seed. k stays at PepOptions' default of 1. */
vm::SimParams pinnedParams(std::uint64_t seed);

/** An ExecutionHooks that does nothing: the cost of hook fan-out. */
class NoopHooks final : public vm::ExecutionHooks
{
};

/** What a ladder rung attaches to its machines; each adds one layer to
 *  the one before it. */
enum class Layer
{
    None,
    NoopHook,
    PepInstrOnly, ///< PEP instrumentation with NeverSample
    Pep,          ///< PEP(64,17)
};

/** Median of a non-empty sample (mean of the middle pair if even). */
double median(std::vector<double> values);

/** Interquartile range as a share of the median, using the same
 *  "exclusive" quartile method as Python's statistics.quantiles. */
double relativeIqr(std::vector<double> values);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/** Peak resident set of this process (VmHWM) in MiB. */
double peakRssMb();

/** Serialize an edge profile set (non-zero counts only). */
std::string serializeEdges(const profile::EdgeProfileSet &set);

/** The metrics of one run plus its correctness tally. */
class Report
{
  public:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    void set(const std::string &name, double value,
             const std::string &unit);

    /** Count one checked operation; record a failure if !ok. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    /** The result line: correct, attempted, failed and metrics. */
    std::string resultJson() const;

  private:
    std::map<std::string, Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * In-memory span recorder for the traced run. A span is opened around
 * one call into a layer's public API and carries its name, start and
 * end (seconds since the tracer was built), its parent span and a
 * workload/program id. Spans stay in memory until writeJson(). A
 * disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string id;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, int index) : tracer_(tracer), index_(index)
        {
        }
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

    explicit Tracer(bool enabled);

    /** Open a span as a child of the innermost open span. */
    [[nodiscard]] Scope span(const std::string &name,
                             const std::string &id);

    /** Seconds per span name, minus the time of child spans. */
    std::map<std::string, double> selfSeconds() const;

    /** Write the spans, their self times and `meta` (a JSON object)
     *  to `path`. Returns false if the file cannot be written. */
    bool writeJson(const std::string &path,
                   const std::string &meta) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** A per-layer metric with one value per ladder round. */
struct LayerCost
{
    const char *name;
    const char *unit;
    std::vector<double> values;
};

/** Print each cost's median, IQR/median, minimum and maximum over the
 *  rounds, and report its median. */
void reportLayerCosts(const std::vector<LayerCost> &costs, Report &report);

/** JSON string literal for `text`. */
std::string jsonString(const std::string &text);

/** Run a workload; failures go to the report, not to the exit code. */
void runReplaySuite(const Options &options, Tracer &tracer,
                    Report &report);
void runServer(const Options &options, bool diverse, Tracer &tracer,
               Report &report);

} // namespace pep::perfbench

#endif // PEP_PERFBENCH_COMMON_HH
