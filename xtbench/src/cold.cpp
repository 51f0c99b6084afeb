// The two cold workloads: no cache, the analyzer in this process.
//
//   batch_cold — closed loop of whole-corpus passes through
//                Analyzer::analyze_batch (apps run in parallel);
//   app_cold   — closed loop of one app at a time through
//                Analyzer::analyze_xapk (only in-app parallelism).
//
// A run is kRounds rounds. Each round sets up a fresh Analyzer (construction
// plus one warm-up pass: one set-up sample), then runs timed passes on it for
// seconds / kRounds. Spreading the set-ups over the run lets setup_s see the
// same host conditions as the timed passes. The previous round's Analyzer is
// destroyed before the set-up clock starts, and the peak-RSS mark is reset
// after each set-up, so peak_rss_mb covers the timed passes only.
#include <algorithm>
#include <functional>
#include <optional>

#include "bench.hpp"

namespace xtbench {

using namespace extractocol;

namespace {

constexpr int kRounds = 7;

/// Per-run accumulators shared by both cold workloads.
struct ColdTally {
    Samples pass_rate;  // apps per second of each timed pass
    Samples latency;    // seconds per app
    double cpu_seconds = 0;
    std::size_t ops = 0;
};

/// One pass over the corpus in a fresh seeded order, every output checked
/// against its digest. Returns the seconds spent in the analyzer; with a
/// tally, the pass is also recorded there as a timed pass.
using Pass = std::function<double(const core::Analyzer&, ColdTally*)>;

void run_rounds(const Options& options, Outcome& out, const Pass& pass,
                const std::string& latency_what) {
    ColdTally tally;
    Samples setup;
    double peak_rss = 0;
    for (int round = 0; round < kRounds; ++round) {
        std::optional<core::Analyzer> analyzer;
        auto start = Clock::now();
        analyzer.emplace(analyzer_options(options.jobs));
        double built = seconds_between(start, Clock::now());
        setup.add(built + pass(*analyzer, nullptr));

        out.check(reset_self_peak_rss(), "cannot reset the peak RSS mark");
        auto deadline = after(Clock::now(), options.seconds / kRounds);
        do {
            pass(*analyzer, &tally);
        } while (Clock::now() < deadline);
        peak_rss = std::max(peak_rss, peak_rss_mb("/proc/self/status"));
    }

    out.metric("throughput_ops_s", tally.pass_rate.median(), "1/s");
    out.latency(tally.latency, latency_what);
    out.metric("cpu_ms_per_op", tally.cpu_seconds * 1e3 / static_cast<double>(tally.ops), "ms");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    out.metric("setup_s", setup.median(), "s");
    out.note("rounds=" + std::to_string(kRounds) +
             ", timed passes=" + std::to_string(tally.pass_rate.size()) +
             ", timed ops=" + std::to_string(tally.ops));
}

}  // namespace

Outcome run_batch_cold(const Options& options, const Corpus& corpus) {
    Outcome out;
    std::mt19937_64 rng(options.seed);
    const std::size_t n = corpus.apps.size();
    Pass pass = [&](const core::Analyzer& analyzer, ColdTally* tally) {
        std::vector<std::size_t> order = shuffled(n, rng);
        std::vector<core::BatchInput> inputs;
        inputs.reserve(n);
        for (std::size_t i : order) inputs.push_back({corpus.apps[i].name, corpus.apps[i].text});
        double cpu_before = self_cpu_seconds();
        auto start = Clock::now();
        std::vector<core::BatchItem> items = analyzer.analyze_batch(std::move(inputs));
        double wall = seconds_between(start, Clock::now());
        double cpu = self_cpu_seconds() - cpu_before;
        for (std::size_t k = 0; k < items.size(); ++k) {
            const App& app = corpus.apps[order[k]];
            const core::BatchItem& item = items[k];
            out.check(item.ok() && report_digest(*item.report) == app.digest,
                      app.name + ": batch report differs from the jobs-1 reference");
            // Each app's own wall time inside the batch, as the analyzer
            // measured it (analyze_batch returns no other per-app timing).
            if (tally != nullptr && item.ok()) {
                tally->latency.add(item.report->stats.analysis_seconds);
            }
        }
        if (tally != nullptr) {
            tally->cpu_seconds += cpu;
            tally->pass_rate.add(static_cast<double>(n) / wall);
            tally->ops += n;
        }
        return wall;
    };
    run_rounds(options, out, pass, "per-app analysis_seconds inside the batch");
    return out;
}

Outcome run_app_cold(const Options& options, const Corpus& corpus) {
    Outcome out;
    std::mt19937_64 rng(options.seed);
    const std::size_t n = corpus.apps.size();
    Pass pass = [&](const core::Analyzer& analyzer, ColdTally* tally) {
        double pass_wall = 0;
        for (std::size_t i : shuffled(n, rng)) {
            const App& app = corpus.apps[i];
            double cpu_before = self_cpu_seconds();
            auto start = Clock::now();
            Result<core::AnalysisReport> result = analyzer.analyze_xapk(app.text);
            double wall = seconds_between(start, Clock::now());
            double cpu = self_cpu_seconds() - cpu_before;
            pass_wall += wall;
            out.check(result.ok() && report_digest(result.value()) == app.digest,
                      app.name + ": report differs from the jobs-1 reference");
            if (tally != nullptr) {
                tally->cpu_seconds += cpu;
                tally->latency.add(wall);
            }
        }
        if (tally != nullptr) {
            tally->pass_rate.add(static_cast<double>(n) / pass_wall);
            tally->ops += n;
        }
        return pass_wall;
    };
    run_rounds(options, out, pass, "per-app analyze_xapk wall time");
    return out;
}

}  // namespace xtbench
