// Work-attribution profiler and pool-contention observatory.
//
// Covers the three attribution layers of obs/profiler:
//   * per-DP-site rows written by the analyzer and per-app-method rows
//     charged by the taint engine / signature interpreter / fuzzer through
//     the run scope, with the `--profile` table holding the same
//     determinism bar as the report (counts only — byte-identical for every
//     --jobs value);
//   * the run manifest's `profile` block, which also carries the per-site
//     wall-clock fields and zeroes them under normalization;
//   * the support::parallel batch-stats hook feeding `parallel.*`
//     contention histograms (queue wait, busy, utilization, imbalance).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "support/parallel.hpp"
#include "text/json.hpp"

using namespace extractocol;

namespace {

core::AnalysisReport analyze(const xir::Program& program, bool open_source,
                             unsigned jobs) {
    core::AnalyzerOptions options;
    options.async_heuristic = !open_source;
    options.jobs = jobs;
    return core::Analyzer(options).analyze(program);
}

/// Enables the profiler, clears it, runs one corpus app, disables again.
void profile_app(const corpus::CorpusApp& app, unsigned jobs) {
    obs::Profiler& profiler = obs::Profiler::global();
    profiler.clear();
    profiler.set_enabled(true);
    core::AnalysisReport report = analyze(app.program, app.spec.open_source, jobs);
    profiler.set_enabled(false);
    ASSERT_FALSE(report.transactions.empty()) << app.spec.name;
}

}  // namespace

TEST(Profiler, DisabledProfilerCollectsNothing) {
    obs::Profiler& profiler = obs::Profiler::global();
    profiler.clear();
    profiler.set_enabled(false);

    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    core::AnalysisReport report = analyze(app.program, app.spec.open_source, 1);
    ASSERT_FALSE(report.transactions.empty());

    EXPECT_TRUE(profiler.sites().empty());
    EXPECT_TRUE(profiler.methods().empty());
}

TEST(Profiler, AttributesWorkToSitesAndMethods) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    profile_app(app, 1);

    obs::Profiler& profiler = obs::Profiler::global();
    auto sites = profiler.sites();
    auto methods = profiler.methods();
    ASSERT_FALSE(sites.empty());
    ASSERT_FALSE(methods.empty());

    // The key format every site row uses.
    EXPECT_EQ(obs::profile_site_key("app", "URL.openConnection", "com.a.B.run", 3, 1, 2),
              "app|URL.openConnection @ com.a.B.run (3:1:2)");
    std::uint64_t taint_total = 0;
    std::uint64_t sig_total = 0;
    std::uint64_t contexts = 0;
    for (const auto& s : sites) {
        // Canonical key shape: "app|dp @ location (m:b:i)".
        EXPECT_NE(s.site.find('|'), std::string::npos) << s.site;
        EXPECT_NE(s.site.find(" @ "), std::string::npos) << s.site;
        taint_total += s.taint_steps;
        sig_total += s.sig_steps;
        contexts += s.contexts;
    }
    EXPECT_GT(taint_total, 0u) << "slicing charged no taint steps";
    EXPECT_GT(sig_total, 0u) << "signature builds charged no interpreter steps";
    EXPECT_GT(contexts, 0u);

    std::uint64_t method_interp = 0;
    for (const auto& m : methods) {
        EXPECT_NE(m.method.find('|'), std::string::npos) << m.method;
        method_interp += m.interp_stmts;
    }
    EXPECT_GT(method_interp, 0u) << "no per-method interpreter attribution";

    // The snapshot is sorted by attributed cost descending.
    for (std::size_t i = 1; i < sites.size(); ++i) {
        EXPECT_GE(sites[i - 1].total_steps(), sites[i].total_steps());
    }

    // The manifest summary reports the same aggregate totals.
    text::Json summary = profiler.summary_json();
    EXPECT_EQ(summary.find("taint_steps")->as_int(),
              static_cast<std::int64_t>(taint_total));
    EXPECT_EQ(summary.find("sig_steps")->as_int(), static_cast<std::int64_t>(sig_total));
    EXPECT_EQ(summary.find("sites")->as_int(), static_cast<std::int64_t>(sites.size()));
    EXPECT_EQ(summary.find("methods")->as_int(),
              static_cast<std::int64_t>(methods.size()));
}

TEST(Profiler, TableIsByteIdenticalAcrossJobCounts) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());

    profile_app(app, 1);
    std::string baseline_table = obs::Profiler::global().table();
    text::Json baseline_summary = obs::Profiler::global().summary_json();
    EXPECT_NE(baseline_table.find("profile: hot DP sites"), std::string::npos);
    EXPECT_NE(baseline_table.find("profile: hot app methods"), std::string::npos);

    for (unsigned jobs : {2u, 8u}) {
        profile_app(app, jobs);
        EXPECT_EQ(obs::Profiler::global().table(), baseline_table)
            << "profile table diverged at jobs=" << jobs;
        EXPECT_EQ(obs::Profiler::global().summary_json().dump_pretty(),
                  baseline_summary.dump_pretty())
            << "profile summary diverged at jobs=" << jobs;
    }
}

TEST(Profiler, ManifestProfileBlockCarriesTimings) {
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    profile_app(app, 2);
    obs::RunTelemetry telemetry;
    telemetry.set_profile(obs::Profiler::global());

    // Unnormalized: every site row, with measured wall time.
    text::Json doc = telemetry.manifest_json();
    const text::Json* profile = doc.find("profile");
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(*profile->find("totals"), obs::Profiler::global().summary_json());
    EXPECT_GT(profile->find("totals")->find("taint_steps")->as_int(), 0);
    const text::Json* sites = profile->find("sites");
    ASSERT_NE(sites, nullptr);
    ASSERT_EQ(sites->items().size(), obs::Profiler::global().sites().size());
    ASSERT_FALSE(sites->items().empty());
    bool timed = false;
    for (const auto& row : sites->items()) {
        ASSERT_NE(row.find("site"), nullptr);
        ASSERT_NE(row.find("slice_seconds"), nullptr);
        ASSERT_NE(row.find("sig_seconds"), nullptr);
        if (row.find("slice_seconds")->as_double() > 0.0 ||
            row.find("sig_seconds")->as_double() > 0.0) {
            timed = true;
        }
    }
    EXPECT_TRUE(timed) << "site rows carry no wall-clock attribution";
    const text::Json* methods = profile->find("methods");
    ASSERT_NE(methods, nullptr);
    EXPECT_EQ(methods->items().size(), obs::Profiler::global().methods().size());
    EXPECT_FALSE(methods->items().empty());

    // Normalized: the seconds are zero, the counts are untouched.
    text::Json normalized = telemetry.manifest_json(true);
    const text::Json* norm_sites = normalized.find("profile")->find("sites");
    ASSERT_EQ(norm_sites->items().size(), sites->items().size());
    for (std::size_t i = 0; i < sites->items().size(); ++i) {
        const text::Json& row = norm_sites->items()[i];
        EXPECT_EQ(row.find("slice_seconds")->as_double(), 0.0);
        EXPECT_EQ(row.find("sig_seconds")->as_double(), 0.0);
        for (const char* count : {"site", "taint_steps", "sig_steps", "contexts"}) {
            EXPECT_EQ(*row.find(count), *sites->items()[i].find(count)) << count;
        }
    }
    EXPECT_EQ(*normalized.find("profile")->find("methods"), *methods);

    // The deterministic table must NOT leak timings.
    std::string table = obs::Profiler::global().table();
    EXPECT_EQ(table.find("seconds"), std::string::npos);

    // Round-trips through the JSON parser.
    auto reparsed = text::parse_json(doc.dump_pretty());
    ASSERT_TRUE(reparsed.ok());
}

TEST(Profiler, MethodChargesFoldThroughTheRunScope) {
    obs::Profiler& profiler = obs::Profiler::global();
    profiler.clear();
    auto global_steps = [&](const std::string& key) -> std::uint64_t {
        for (const auto& m : profiler.methods()) {
            if (m.method == key) return m.total_steps();
        }
        return 0;
    };

    // Outside any scope a charge lands in the process table.
    obs::charge_method("app|A.outside", 1, 0);
    EXPECT_EQ(global_steps("app|A.outside"), 1u);
    {
        obs::RunScope run;
        obs::charge_method("app|A.run", 2, 0);
        {
            // A pool task joined to the run charges the run, not the process.
            support::ThreadPool pool(1);
            pool.for_each_index(4, [&](std::size_t) {
                obs::RunScope::Join join(run);
                obs::charge_method("app|A.run", 0, 3);
            });
        }
        {
            obs::RunScope inner;
            obs::charge_method("app|A.inner", 5, 0);
        }
        // The inner scope folded into this one on close, not into the
        // process table.
        EXPECT_EQ(global_steps("app|A.run"), 0u);
        EXPECT_EQ(global_steps("app|A.inner"), 0u);
        std::vector<obs::MethodProfile> rows = run.profile().methods();
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[0].method, "app|A.run");
        EXPECT_EQ(rows[0].taint_steps, 2u);
        EXPECT_EQ(rows[0].interp_stmts, 12u);
        EXPECT_EQ(rows[1].method, "app|A.inner");

        obs::SiteProfile site;
        site.site = obs::profile_site_key("app", "dp", "A.run", 0, 0, 0);
        site.taint_steps = 7;
        run.profile().merge_site(site);
        EXPECT_TRUE(profiler.sites().empty());
    }
    // Closing the run folds its rows into the process table once.
    EXPECT_EQ(global_steps("app|A.run"), 14u);
    EXPECT_EQ(global_steps("app|A.inner"), 5u);
    EXPECT_EQ(global_steps("app|A.outside"), 1u);
    ASSERT_EQ(profiler.sites().size(), 1u);
    EXPECT_EQ(profiler.sites()[0].taint_steps, 7u);
    profiler.clear();
}

TEST(Profiler, ContentionHistogramsPopulateUnderParallelism) {
    obs::install_contention_metrics();
    obs::MetricsSnapshot base = obs::MetricsRegistry::global().snapshot();

    // Deliberately imbalanced batch on a real pool: index 0 does ~2ms of
    // work, the rest ~0, so busy time varies across participants.
    support::ThreadPool pool(3);
    std::atomic<unsigned> ran{0};
    pool.for_each_index(16, [&ran](std::size_t i) {
        ++ran;
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    EXPECT_EQ(ran.load(), 16u);

    obs::MetricsSnapshot now = obs::MetricsRegistry::global().snapshot();
    const obs::HistogramStats* queue_wait = now.histogram("parallel.queue_wait_ms");
    const obs::HistogramStats* busy = now.histogram("parallel.busy_ms");
    const obs::HistogramStats* claimed = now.histogram("parallel.claimed_indices");
    const obs::HistogramStats* utilization = now.histogram("parallel.utilization");
    const obs::HistogramStats* imbalance = now.histogram("parallel.imbalance");
    const obs::HistogramStats* batch_ms = now.histogram("parallel.batch_ms");
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(busy, nullptr);
    ASSERT_NE(claimed, nullptr);
    ASSERT_NE(utilization, nullptr);
    ASSERT_NE(imbalance, nullptr);
    ASSERT_NE(batch_ms, nullptr);

    auto delta_count = [&base](const obs::HistogramStats* stats,
                               const char* name) -> std::uint64_t {
        const obs::HistogramStats* before = base.histogram(name);
        return stats->count - (before != nullptr ? before->count : 0);
    };
    // One sample per participant (4 = 3 workers + caller) for the per-worker
    // histograms, one per batch for imbalance/batch_ms. Workers that never
    // woke in time still count if they entered the batch, so >= caller-only.
    EXPECT_GE(delta_count(queue_wait, "parallel.queue_wait_ms"), 1u);
    EXPECT_GE(delta_count(busy, "parallel.busy_ms"), 1u);
    EXPECT_GE(delta_count(claimed, "parallel.claimed_indices"), 1u);
    EXPECT_GE(delta_count(utilization, "parallel.utilization"), 1u);
    EXPECT_EQ(delta_count(imbalance, "parallel.imbalance"), 1u);
    EXPECT_EQ(delta_count(batch_ms, "parallel.batch_ms"), 1u);
    EXPECT_GE(batch_ms->max, 2.0) << "batch wall time must cover the slow index";
    EXPECT_GE(imbalance->max, 1.0) << "imbalance is max/mean busy, >= 1 by definition";

    // The full end-to-end surface: an analyzer run at jobs > 1 feeds the
    // same histograms through its internal pool.
    obs::MetricsSnapshot pre = obs::MetricsRegistry::global().snapshot();
    corpus::CorpusApp app = corpus::build_app(corpus::open_source_apps().front());
    core::AnalysisReport report = analyze(app.program, app.spec.open_source, 4);
    ASSERT_FALSE(report.transactions.empty());
    obs::MetricsSnapshot post = obs::MetricsRegistry::global().snapshot();
    EXPECT_GT(post.histogram("parallel.queue_wait_ms")->count,
              pre.histogram("parallel.queue_wait_ms")->count);
    EXPECT_GT(post.histogram("parallel.imbalance")->count,
              pre.histogram("parallel.imbalance")->count);
}

TEST(Profiler, BatchStatsHookAccountsEveryIndex) {
    // Bypass the metrics layer: a direct hook sees per-participant claimed
    // counts that sum to exactly n, and non-negative timings.
    static std::vector<support::BatchStats> captured;
    captured.clear();
    support::set_batch_stats_hook(
        [](const support::BatchStats& stats) { captured.push_back(stats); });

    {
        support::ThreadPool pool(2);
        pool.for_each_index(9, [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
        pool.for_each_index(0, [](std::size_t) {});  // empty: no batch, no stats
    }
    // Restore the metrics observer for any later test in this binary.
    obs::install_contention_metrics();

    ASSERT_EQ(captured.size(), 1u) << "empty batches must not report stats";
    EXPECT_EQ(captured[0].n, 9u);
    EXPECT_GE(captured[0].wall_ms, 0.0);
    ASSERT_FALSE(captured[0].participants.empty());
    std::size_t claimed = 0;
    for (const auto& w : captured[0].participants) {
        EXPECT_GE(w.queue_wait_ms, 0.0);
        EXPECT_GE(w.busy_ms, 0.0);
        claimed += w.claimed;
    }
    EXPECT_EQ(claimed, 9u) << "every index must be attributed to a participant";
}

TEST(Profiler, RegistryLockMetricsAlwaysPresent) {
    // The synthetic lock-accounting gauges appear in every snapshot (even
    // contention-free ones) so the exported key set stays jobs-independent.
    obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    bool waits = false;
    bool wait_us = false;
    for (const auto& [name, value] : snap.gauges) {
        if (name == "obs.registry.lock_waits") waits = true;
        if (name == "obs.registry.lock_wait_us") wait_us = true;
    }
    EXPECT_TRUE(waits);
    EXPECT_TRUE(wait_us);
}
