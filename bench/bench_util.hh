/**
 * @file
 * Shared helpers for the per-table/per-figure bench binaries. Every
 * bench regenerates one table or figure from the paper's evaluation
 * and prints the corresponding rows/series; EXPERIMENTS.md records
 * paper-vs-measured for each.
 *
 * Benches accept three optional flags, parsed by BenchReporter:
 *   --json PATH      write this run's machine-readable timing/
 *                    throughput records to PATH as a JSON document,
 *                    replacing any previous contents (the perf
 *                    trajectory's BENCH_*.json files);
 *   --jobs N         EvalEngine parallelism for benches that evaluate
 *                    through the engine (0 = one thread per core);
 *   --strategy NAME  dse search strategy for the ParetoEngine-backed
 *                    figure benches (default "exhaustive", which
 *                    reproduces the historical sweeps byte for byte).
 */

#ifndef MADMAX_BENCH_BENCH_UTIL_HH
#define MADMAX_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "config/json.hh"
#include "util/strfmt.hh"

namespace madmax::bench
{

/** Print a figure/table banner with the paper reference. */
inline void
banner(const std::string &what, const std::string &claim)
{
    std::cout << std::string(72, '=') << "\n" << what << "\n";
    if (!claim.empty())
        std::cout << "paper: " << claim << "\n";
    std::cout << std::string(72, '=') << "\n";
}

/** Accuracy of a model estimate vs. a measured value, as the paper
 *  reports it (100% minus relative error). */
inline std::string
accuracy(double ours, double reference)
{
    if (reference == 0.0)
        return "n/a";
    double acc = 1.0 - std::abs(ours - reference) / std::abs(reference);
    return strfmt("%.2f%%", acc * 100.0);
}

/** Monotonic stopwatch for wall-clock records. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds since construction. */
    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Machine-readable bench output. Parses --json PATH and --jobs N from
 * argv; record() calls accumulate named (value, unit) entries, and
 * write() (also invoked by the destructor) dumps
 *
 *   {"bench": "<name>", "jobs": N,
 *    "records": [{"name": ..., "value": ..., "unit": ...}, ...]}
 *
 * to PATH. Without --json, record() still accumulates but nothing is
 * written, so benches can call it unconditionally.
 */
class BenchReporter
{
  public:
    BenchReporter(const std::string &bench_name, int argc, char **argv)
        : name_(bench_name)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                path_ = argv[++i];
            } else if (arg == "--jobs" && i + 1 < argc) {
                try {
                    jobs_ = std::stoi(argv[++i]);
                } catch (const std::exception &) {
                    jobs_ = -1;
                }
                if (jobs_ < 0) {
                    // (Benches have no try/catch around main, so a
                    // negative value must not reach EvalEngine's
                    // throwing validation either.)
                    std::cerr << "error: --jobs needs a non-negative "
                                 "integer, got '"
                              << argv[i] << "'\n";
                    std::exit(1);
                }
                jobsSet_ = true;
            } else if (arg == "--strategy" && i + 1 < argc) {
                strategy_ = argv[++i];
            } else {
                // Benches have no try/catch around main; exit with a
                // usage error instead of an uncaught-exception abort.
                std::cerr << "error: unknown or incomplete flag '"
                          << arg
                          << "' (supported: --json PATH, --jobs N, "
                             "--strategy NAME)\n";
                std::exit(1);
            }
        }
        if (!path_.empty()) {
            // Fail on an unwritable path now, not in the destructor
            // (which must swallow errors) after minutes of bench
            // work. Probe in append mode so an existing record file
            // survives if this run dies before write().
            std::ofstream probe(path_, std::ios::app);
            if (!probe) {
                std::cerr << "error: cannot write --json file: "
                          << path_ << "\n";
                std::exit(1);
            }
        }
    }

    ~BenchReporter()
    {
        try {
            write();
        } catch (...) {
            // Destructors must not throw; an unwritable path was
            // already reported by an explicit write() if any.
        }
    }

    /** EvalEngine parallelism requested via --jobs (default 1). */
    int jobs() const { return jobs_; }

    /** True if --jobs was given explicitly (vs. the default). */
    bool jobsSpecified() const { return jobsSet_; }

    /** dse search strategy requested via --strategy. */
    const std::string &strategy() const { return strategy_; }

    void record(const std::string &record_name, double value,
                const std::string &unit)
    {
        JsonValue entry;
        entry.set("name", record_name);
        entry.set("value", value);
        entry.set("unit", unit);
        records_.append(std::move(entry));
    }

    void write()
    {
        if (path_.empty() || written_)
            return;
        JsonValue doc;
        doc.set("bench", name_);
        doc.set("jobs", jobs_);
        doc.set("records", records_);
        std::ofstream out(path_);
        if (!out) {
            // Path was probed at construction; this is a late failure
            // (e.g. disk full). Report without throwing — write() is
            // also reached from the destructor.
            std::cerr << "error: cannot write --json file: " << path_
                      << "\n";
            return;
        }
        out << doc.dump(2) << "\n";
        written_ = true;
        std::cout << "wrote " << path_ << "\n";
    }

  private:
    std::string name_;
    std::string path_;
    std::string strategy_ = "exhaustive";
    int jobs_ = 1;
    bool jobsSet_ = false;
    bool written_ = false;
    JsonValue records_ = JsonValue(JsonValue::Array{});
};

} // namespace madmax::bench

#endif // MADMAX_BENCH_BENCH_UTIL_HH
