// xtbench — the repository benchmark. One binary runs one workload (or the
// traced per-layer run) against the real library and the `extractocol
// --serve` daemon, checks every output against a per-app content digest,
// and prints its metrics; xtbench/run.py builds it and forwards the result.
//
// Shared pieces: options, the generated corpus with its correctness
// reference, exact order statistics over raw samples, and the result record.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "text/json.hpp"

namespace xtbench {

namespace xt = extractocol;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Path of the `extractocol` CLI binary (the daemon under test).
    std::string extractocol;
    /// Committed accuracy profile the set-up gate requires.
    std::string accuracy_profile;
    /// Directory for this run's scratch files and result record.
    std::string out_dir;
    std::string commit;
    std::string source_digest;
    /// Analyzer jobs for the cold workloads (default: nproc).
    unsigned jobs = 0;
    unsigned nproc = 0;
    unsigned hardware_threads = 0;
    /// Self-test hook: perturbs one app's expected digest so the run must
    /// report wrong outputs and exit non-zero.
    bool corrupt_digest = false;
};

/// Exact order statistics over raw samples (never histogram buckets).
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    [[nodiscard]] std::size_t size() const { return values_.size(); }
    /// Nearest-rank percentile, p in (0, 1]: the smallest sample with at
    /// least p·n samples at or below it. `beyond` receives the number of
    /// samples strictly after that rank.
    [[nodiscard]] double percentile(double p, std::size_t* beyond = nullptr) const;
    [[nodiscard]] double median() const { return percentile(0.5); }

private:
    std::vector<double> values_;
};

/// One corpus app as the program sees it: the generated .xapk text, plus
/// the expected content digest of its report.
struct App {
    std::string name;
    std::string text;
    std::size_t statements = 0;
    std::string digest;
};

struct Corpus {
    std::vector<App> apps;
    [[nodiscard]] std::size_t total_bytes() const;
    [[nodiscard]] std::size_t total_statements() const;
};

/// Generates every corpus app's .xapk text (input generation: untimed).
Corpus generate_corpus();

/// Correctness set-up, shared by every workload:
///   * scores jobs-1 reports under the paper's per-app configuration with
///     src/eval and requires the committed accuracy profile exactly;
///   * records each app's digest from a jobs-1 run of `options`.
/// Returns false, with the reason in `why`, when the profile does not match;
/// on success `why` holds the fleet precision and recall.
bool prepare_reference(Corpus& corpus, const xt::core::AnalyzerOptions& options,
                       const std::string& profile_path, std::string* why);

/// Content digest of a report: transactions, dependencies and audit. Leaves
/// out the app name (variants rename it), timings and counters, and the
/// counter-derived unmodeled-API table, which is not a function of the input
/// under concurrency and is stripped on the cache path.
std::string report_digest(const xt::core::AnalysisReport& report);
/// Same digest from a rendered report (AnalysisReport::to_json(), as the
/// daemon sends it).
std::string rendered_digest(const xt::text::Json& rendered);

/// Seeded permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng);

/// User + system CPU seconds of this process (all threads).
double self_cpu_seconds();
/// Peak resident set (VmHWM) from a /proc/<pid>/status file, in MiB.
double peak_rss_mb(const std::string& status_path);
/// Returns freed heap to the system and restarts this process's VmHWM at
/// its current resident set, so a later peak_rss_mb("/proc/self/status")
/// covers only what runs after the call. False if the reset failed.
bool reset_self_peak_rss();

/// Result of one run: metrics by name, and the correctness tally.
struct Outcome {
    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /// Lines for the human-readable report (sample counts, flags).
    std::vector<std::string> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    /// Counts one checked operation; a false `ok` is a failure.
    void check(bool ok, const std::string& what);
    /// Counts `ok` passed and `bad` failed operations of one kind.
    void tally(std::uint64_t ok, std::uint64_t bad, const std::string& what);
    /// Adds latency_p50_ms / latency_p99_ms from raw samples (seconds),
    /// flagging the run as too short when fewer than ten samples lie beyond
    /// the 99th percentile.
    void latency(const Samples& seconds, const std::string& what);
};

/// Default analyzer options of the CLI and the daemon, at `jobs`.
xt::core::AnalyzerOptions analyzer_options(unsigned jobs);

Outcome run_batch_cold(const Options& options, const Corpus& corpus);
Outcome run_app_cold(const Options& options, const Corpus& corpus);
Outcome run_daemon_mixed(const Options& options, const Corpus& corpus);
Outcome run_traced(const Options& options, const Corpus& corpus);

}  // namespace xtbench
