#ifndef PEP_BENCH_COMMON_REPORT_HH
#define PEP_BENCH_COMMON_REPORT_HH

/**
 * @file
 * The one result writer of the bench binaries. A report is a flat set
 * of named metrics plus a tally of correctness checks, written as one
 * JSON object that mirrors perfbench's result line:
 *
 *   {"schema": ..., "meta": {...}, "correct": true, "attempted": 3,
 *    "failed": 0, "metrics": {"name": {"value": 1.5, "unit": "x"}}}
 *
 * `meta` records the binary, the host's core count, the compiler, the
 * build type, the source commit at configure time, PEP_BENCH_SCALE
 * and PEP_BENCH_ONLY. Nested rows are flattened into dotted names
 * ("coop.k4.overhead"). Non-finite values are written as null.
 */

#include <cstdint>
#include <map>
#include <string>

namespace pep::bench {

/** JSON string literal for `text`. */
std::string jsonString(const std::string &text);

class Report
{
  public:
    /** `binary` names the program in `meta` and in messages. */
    explicit Report(std::string binary);

    /** Record one value. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Count one checked gate; report and count a failure if !ok.
     *  Returns ok. */
    bool check(bool ok, const std::string &what);

    bool correct() const { return failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** The whole report as a JSON document. */
    std::string json() const;

    /** Write json() to `path`. Returns the binary's exit status: 0
     *  when the file was written and every check passed, else 1. */
    int write(const std::string &path) const;

  private:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    std::string binary_;
    std::map<std::string, Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace pep::bench

#endif // PEP_BENCH_COMMON_REPORT_HH
