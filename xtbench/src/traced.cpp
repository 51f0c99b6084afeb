// The traced run: per-layer metrics from spans the benchmark records around
// its own calls into each layer's public API. No tracing runs inside the
// program; the pipeline of Analyzer::analyze is recomposed here from the
// layers' public calls, and each app's recomposition must reproduce the
// Analyzer report's DP sites, contexts, built signatures and raw dependency
// edges, or the run fails.
//
// A pass visits every corpus app in seeded order and runs, per app:
//   1. Analyzer::analyze_xapk at jobs 1, untraced (the reference time);
//   2. the recomposed pipeline with spans on, then with spans off (the
//      difference is the tracing overhead);
//   3. Analyzer::analyze_xapk at jobs = nproc (in-app speedup, CPU use);
//   4. the cache layer on that report: key_for, codec encode/decode,
//      store, load.
// Then one memtrack pass (peak heap per statement) and a daemon phase:
// pings, priming misses, then passes of hits with ~10% renamed variants,
// each hit also replayed in-process to split the round trip.
// Every per-layer metric is the median of its per-pass values.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "bench.hpp"
#include "cache/cache.hpp"
#include "cache/codec.hpp"
#include "daemon.hpp"
#include "semantics/deobfuscate.hpp"
#include "sig/builder.hpp"
#include "slicing/slicer.hpp"
#include "support/memtrack.hpp"
#include "support/strings.hpp"
#include "txn/dependency.hpp"
#include "xapk/serialize.hpp"

namespace xtbench {

using namespace extractocol;

namespace {

/// Daemon phase: one renamed variant (a cache miss) per this many hits.
constexpr std::size_t kVariantEvery = 10;

// ---------------------------------------------------------------- spans --

struct SpanRecord {
    std::string_view name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
};

/// In-memory span store; written out once at the end of the run. While
/// disabled, spans cost nothing and record nothing.
class Tracer {
public:
    bool enabled = true;

    std::int32_t open(std::string_view name, std::int32_t parent, std::uint64_t request) {
        if (!enabled) return -1;
        spans_.push_back({name, now_ns(), 0, parent, request});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }
    void close(std::int32_t id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    }
    [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
    [[nodiscard]] std::size_t mark() const { return spans_.size(); }

    /// Total seconds of spans named `name` recorded since `from`.
    [[nodiscard]] double seconds(std::string_view name, std::size_t from) const {
        std::int64_t ns = 0;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            if (spans_[i].name == name) ns += spans_[i].end_ns - spans_[i].start_ns;
        }
        return static_cast<double>(ns) * 1e-9;
    }

    bool write_chrome_trace(const std::string& path) const {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            char line[320];
            std::snprintf(line, sizeof line,
                          "%s\n{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                          "\"request\":%llu}}",
                          i == 0 ? "" : ",", static_cast<int>(s.name.size()), s.name.data(),
                          static_cast<double>(s.start_ns) * 1e-3,
                          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                          static_cast<unsigned long long>(s.request));
            out << line;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<SpanRecord> spans_;
};

class Scope {
public:
    Scope(Tracer& tracer, std::string_view name, std::int32_t parent, std::uint64_t request)
        : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t id() const { return id_; }

private:
    Tracer& tracer_;
    std::int32_t id_;
};

// ------------------------------------------------- recomposed pipeline --

struct PipelineCounts {
    bool parsed = false;
    std::size_t dp_sites = 0;
    std::size_t contexts = 0;
    std::size_t built = 0;
    std::size_t raw_edges = 0;
    std::size_t slice_statements = 0;
    std::size_t taint_steps = 0;
    std::size_t sig_steps = 0;
    /// Slowest DP site's share of this app's slicing stage.
    double max_site_share = 0;
};

/// Analyzer::analyze_xapk's pipeline, rebuilt from the layers' public calls
/// with the analyzer's default options (no class scope, no step budget).
PipelineCounts recompose(const core::Analyzer& analyzer, const std::string& text,
                         Tracer& tracer, std::uint64_t request) {
    const core::AnalyzerOptions defaults;
    const semantics::SemanticModel& model = analyzer.model();
    PipelineCounts counts;
    Scope app(tracer, "app", -1, request);

    Result<xir::Program> parsed = [&] {
        Scope s(tracer, "xapk.parse", app.id(), request);
        return xapk::parse_xapk(text);
    }();
    if (!parsed.ok()) return counts;
    counts.parsed = true;

    const xir::Program* program = &parsed.value();
    xir::Program deobfuscated;
    {
        Scope s(tracer, "semantics.deobfuscate", app.id(), request);
        auto mapping = semantics::infer_deobfuscation(*program, model);
        if (!mapping.classes.empty()) {
            deobfuscated = *program;
            semantics::apply_deobfuscation(deobfuscated, mapping);
            program = &deobfuscated;
        }
    }

    std::optional<slicing::Slicer> slicer;
    std::vector<slicing::SlicedTransaction> sliced;
    {
        Scope stage(tracer, "slicing", app.id(), request);
        auto stage_start = Clock::now();
        slicing::SlicerOptions slicer_options;
        slicer_options.async_heuristic = defaults.async_heuristic;
        slicer_options.max_async_hops = defaults.max_async_hops;
        slicer_options.max_taint_steps = defaults.max_taint_steps;
        {
            Scope s(tracer, "slicing.setup", stage.id(), request);
            slicer.emplace(*program, model, slicer_options);
        }
        std::vector<xir::StmtRef> sites;
        {
            Scope s(tracer, "slicing.demarcation_sites", stage.id(), request);
            sites = slicer->demarcation_sites();
        }
        counts.dp_sites = sites.size();
        double max_site = 0;
        for (const xir::StmtRef& site : sites) {
            auto site_start = Clock::now();
            Scope s(tracer, "slicing.slice_site", stage.id(), request);
            std::size_t steps = 0;
            auto txns = slicer->slice_site(site, &steps);
            counts.taint_steps += steps;
            sliced.insert(sliced.end(), std::make_move_iterator(txns.begin()),
                          std::make_move_iterator(txns.end()));
            max_site = std::max(max_site, seconds_between(site_start, Clock::now()));
        }
        {
            Scope s(tracer, "slicing.union", stage.id(), request);
            std::set<xir::StmtRef> all;
            for (const auto& t : sliced) all.insert(t.combined_slice.begin(), t.combined_slice.end());
            counts.slice_statements = all.size();
        }
        double stage_seconds = seconds_between(stage_start, Clock::now());
        counts.max_site_share = stage_seconds > 0 ? max_site / stage_seconds : 0;
    }

    // The analyzer's intent filter (§5.1): intent-only contexts are dropped.
    std::erase_if(sliced, [](const slicing::SlicedTransaction& t) {
        return t.trigger_kind == xir::EventKind::kOnIntent &&
               !strings::starts_with(t.trigger, "unknown:");
    });
    counts.contexts = sliced.size();

    std::vector<slicing::SlicedTransaction> built;
    {
        Scope stage(tracer, "sig", app.id(), request);
        std::optional<sig::SignatureBuilder> builder;
        {
            Scope s(tracer, "sig.setup", stage.id(), request);
            builder.emplace(*program, slicer->callgraph(), model);
        }
        for (auto& t : sliced) {
            Scope s(tracer, "sig.build", stage.id(), request);
            sig::BuildRequest build_request;
            build_request.dp_site = t.dp_site;
            build_request.dp = t.dp;
            build_request.context = t.context;
            build_request.slice = &t.combined_slice;
            build_request.max_steps = defaults.max_sig_steps;
            sig::BuildStats stats;
            bool ok = builder->build(build_request, &stats).has_value();
            counts.sig_steps += stats.steps;
            if (ok) built.push_back(std::move(t));
        }
        counts.built = built.size();
    }
    {
        Scope s(tracer, "txn.analyze", app.id(), request);
        txn::DependencyAnalyzer deps(*program, slicer->callgraph(), model, slicer->engine());
        counts.raw_edges = deps.analyze(built).size();
    }
    return counts;
}

std::size_t counter_value(const core::AnalysisReport& report, std::string_view name) {
    for (const auto& [key, value] : report.stats.counters) {
        if (key == name) return value;
    }
    return 0;
}

/// The recomposition must agree with the analyzer on every count it shares.
bool matches_report(const PipelineCounts& c, const core::AnalysisReport& report) {
    std::size_t built = 0;
    for (const auto& site : report.audit.dp_sites) built += site.built;
    return c.parsed && c.dp_sites == report.stats.dp_sites &&
           c.contexts == report.stats.contexts && c.built == built &&
           c.raw_edges == counter_value(report, "txn.pairings") &&
           c.slice_statements == report.stats.slice_statements;
}

template <typename F>
double timed(Tracer& tracer, std::string_view name, std::uint64_t request, F&& body) {
    auto start = Clock::now();
    {
        Scope s(tracer, name, -1, request);
        body();
    }
    return seconds_between(start, Clock::now());
}

/// Per-pass values of every per-layer metric, reduced to medians at the end.
class PerPass {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        auto [it, inserted] = values_.try_emplace(name);
        if (inserted) order_.push_back(name);
        it->second.unit = unit;
        it->second.samples.add(value);
    }
    void emit(Outcome& out) const {
        for (const std::string& name : order_) {
            const Entry& e = values_.at(name);
            out.metric(name, e.samples.median(), e.unit);
        }
    }

private:
    struct Entry {
        Samples samples;
        std::string unit;
    };
    std::map<std::string, Entry> values_;
    std::vector<std::string> order_;
};

}  // namespace

Outcome run_traced(const Options& options, const Corpus& corpus) {
    Outcome out;
    std::mt19937_64 rng(options.seed);
    const std::size_t n = corpus.apps.size();
    const double stmts = static_cast<double>(corpus.total_statements());
    const double bytes = static_cast<double>(corpus.total_bytes());
    const core::Analyzer serial(analyzer_options(1));
    const core::Analyzer parallel(analyzer_options(options.jobs));
    Tracer tracer;
    PerPass layer;
    std::uint64_t request = 0;

    const std::string cache_dir = options.out_dir + "/trace-cache";
    std::filesystem::remove_all(cache_dir);
    cache::CacheOptions cache_options;
    cache_options.dir = cache_dir;
    cache::ReportCache report_cache(cache_options);

    auto run_start = Clock::now();
    auto passes_deadline = after(run_start, options.seconds * 0.55);
    std::size_t passes = 0;
    do {
        const std::size_t mark = tracer.mark();
        double j1_wall = 0, jn_wall = 0, jn_cpu = 0, traced_wall = 0, untraced_wall = 0;
        double max_share_sum = 0;
        std::size_t apps_with_sites = 0, taint_steps = 0, sig_steps = 0, built = 0,
                    contexts = 0, edges = 0, slice_statements = 0;
        double payload_kb = 0;
        for (std::size_t i : shuffled(n, rng)) {
            const App& app = corpus.apps[i];
            ++request;
            tracer.enabled = false;
            auto start = Clock::now();
            Result<core::AnalysisReport> result = serial.analyze_xapk(app.text);
            j1_wall += seconds_between(start, Clock::now());
            out.check(result.ok() && report_digest(result.value()) == app.digest,
                      app.name + ": jobs-1 report differs from the reference");
            if (!result.ok()) continue;
            core::AnalysisReport& report = result.value();

            // Untraced and traced recompositions of the same text; which
            // runs first alternates by request so warm-up favours neither.
            PipelineCounts plain, counts;
            auto recompose_timed = [&](bool traced) {
                tracer.enabled = traced;
                auto begin = Clock::now();
                (traced ? counts : plain) = recompose(serial, app.text, tracer, request);
                (traced ? traced_wall : untraced_wall) += seconds_between(begin, Clock::now());
            };
            recompose_timed(request % 2 == 0);
            recompose_timed(request % 2 != 0);
            out.check(matches_report(counts, report) && matches_report(plain, report),
                      app.name + ": recomposed pipeline disagrees with the Analyzer report");
            if (counts.dp_sites > 0) {
                max_share_sum += counts.max_site_share;
                ++apps_with_sites;
            }
            taint_steps += counts.taint_steps;
            sig_steps += counts.sig_steps;
            built += counts.built;
            contexts += counts.contexts;
            edges += counts.raw_edges;
            slice_statements += counts.slice_statements;

            tracer.enabled = false;
            double cpu_before = self_cpu_seconds();
            start = Clock::now();
            Result<core::AnalysisReport> wide = parallel.analyze_xapk(app.text);
            jn_wall += seconds_between(start, Clock::now());
            jn_cpu += self_cpu_seconds() - cpu_before;
            out.check(wide.ok() && report_digest(wide.value()) == app.digest,
                      app.name + ": jobs-N report differs from the reference");
            tracer.enabled = true;

            // The cache layer stores what the cached path serves: reports
            // without the per-run counter window.
            report.stats.counters.clear();
            report.audit.unmodeled_apis.clear();
            std::string key, payload;
            std::optional<core::AnalysisReport> loaded;
            Result<core::AnalysisReport> decoded = Error{"not decoded"};
            timed(tracer, "cache.key_for", request,
                  [&] { key = cache::ReportCache::key_for(app.text); });
            timed(tracer, "cache.codec.encode", request,
                  [&] { payload = cache::report_to_json(report).dump(); });
            timed(tracer, "cache.codec.decode", request, [&] {
                auto doc = text::parse_json(payload);
                if (doc.ok()) decoded = cache::report_from_json(doc.value());
            });
            timed(tracer, "cache.store", request, [&] { report_cache.store(key, report); });
            timed(tracer, "cache.load", request, [&] { loaded = report_cache.load(key); });
            payload_kb += static_cast<double>(payload.size()) / 1e3;
            out.check(decoded.ok() && report_digest(decoded.value()) == app.digest &&
                          loaded.has_value() && report_digest(*loaded) == app.digest,
                      app.name + ": cache round trip changed the report");
        }
        tracer.enabled = true;
        ++passes;

        auto ns_per_stmt = [&](std::string_view span) {
            return tracer.seconds(span, mark) * 1e9 / stmts;
        };
        double layers = 0;
        for (std::string_view span : {"xapk.parse", "semantics.deobfuscate", "slicing", "sig",
                                      "txn.analyze"}) {
            layers += tracer.seconds(span, mark);
        }
        layer.add("xapk.parse.ns_per_stmt", ns_per_stmt("xapk.parse"), "ns");
        layer.add("xapk.parse.mb_per_s", bytes / 1e6 / tracer.seconds("xapk.parse", mark),
                  "MB/s");
        layer.add("semantics.deobfuscate.ns_per_stmt", ns_per_stmt("semantics.deobfuscate"),
                  "ns");
        layer.add("slicing.setup.ns_per_stmt", ns_per_stmt("slicing.setup"), "ns");
        layer.add("slicing.slice_site.ns_per_stmt", ns_per_stmt("slicing.slice_site"), "ns");
        layer.add("slicing.slice_site.max_share",
                  apps_with_sites == 0 ? 0 : max_share_sum / static_cast<double>(apps_with_sites),
                  "ratio");
        layer.add("taint.steps_per_stmt", static_cast<double>(taint_steps) / stmts, "count");
        layer.add("slicing.slice_fraction", static_cast<double>(slice_statements) / stmts,
                  "ratio");
        layer.add("sig.build.ns_per_stmt", ns_per_stmt("sig.build"), "ns");
        layer.add("sig.build.steps_per_stmt", static_cast<double>(sig_steps) / stmts, "count");
        layer.add("sig.build.success_ratio",
                  contexts == 0 ? 0 : static_cast<double>(built) / static_cast<double>(contexts),
                  "ratio");
        layer.add("txn.analyze.ns_per_stmt", ns_per_stmt("txn.analyze"), "ns");
        layer.add("txn.analyze.share", tracer.seconds("txn.analyze", mark) / j1_wall, "ratio");
        layer.add("txn.edges", static_cast<double>(edges), "count");
        layer.add("core.analyze.ns_per_stmt", j1_wall * 1e9 / stmts, "ns");
        layer.add("core.residual.ns_per_stmt", (j1_wall - layers) * 1e9 / stmts, "ns");
        layer.add("core.inapp_speedup", j1_wall / jn_wall, "x");
        layer.add("process.cpu_utilization", jn_cpu / (jn_wall * options.jobs), "ratio");
        layer.add("trace.coverage", layers / j1_wall, "ratio");
        layer.add("trace.overhead", traced_wall / untraced_wall, "ratio");
        layer.add("cache.key_for.mb_per_s", bytes / 1e6 / tracer.seconds("cache.key_for", mark),
                  "MB/s");
        auto us_per_kb = [&](std::string_view span) {
            return tracer.seconds(span, mark) * 1e6 / payload_kb;
        };
        layer.add("cache.load.us_per_kb", us_per_kb("cache.load"), "us/KB");
        layer.add("cache.codec.decode.us_per_kb", us_per_kb("cache.codec.decode"), "us/KB");
        layer.add("cache.codec.encode.us_per_kb", us_per_kb("cache.codec.encode"), "us/KB");
        layer.add("cache.store.us_per_kb", us_per_kb("cache.store"), "us/KB");
    } while (Clock::now() < passes_deadline);

    // Peak tracked heap of one jobs-1 analysis per app, per statement.
    namespace memtrack = support::memtrack;
    if (memtrack::available()) {
        memtrack::set_enabled(true);
        double peak_sum = 0;
        for (const App& app : corpus.apps) {
            memtrack::reset_peak();
            std::uint64_t base = memtrack::live_bytes();
            Result<core::AnalysisReport> result = serial.analyze_xapk(app.text);
            std::uint64_t peak = memtrack::peak_bytes();
            peak_sum += static_cast<double>(peak > base ? peak - base : 0);
            out.check(result.ok(), app.name + ": memtrack pass failed to analyze");
        }
        memtrack::set_enabled(false);
        layer.add("core.analyze.peak_bytes_per_stmt", peak_sum / stmts, "B");
    } else {
        out.note("memtrack unavailable: core.analyze.peak_bytes_per_stmt not reported");
    }

    // ------------------------------------------------------ daemon phase --
    DaemonProcess daemon(options.extractocol, options.out_dir + "/trace-daemon", kDaemonJobs);
    Connection connection(daemon.socket_path(), 30.0);
    cache::CacheOptions daemon_cache_options;
    daemon_cache_options.dir = options.out_dir + "/trace-daemon/cache";
    cache::ReportCache daemon_cache(daemon_cache_options);  // in-process replay
    std::vector<std::string> hit_lines;
    for (const App& app : corpus.apps) hit_lines.push_back(xapk_request(app.text));
    std::string reply;
    std::uint64_t client_errors = 0;
    auto send = [&](std::string_view span, const std::string& line, const std::string* digest) {
        ++request;
        auto start = Clock::now();
        bool ok;
        {
            Scope s(tracer, span, -1, request);
            ok = connection.round_trip(line, reply);
        }
        double rtt = seconds_between(start, Clock::now());
        bool correct = ok && (digest == nullptr ? reply.find("\"ok\":true") != std::string::npos
                                                : reply_matches(reply, *digest));
        if (!correct) ++client_errors;
        out.check(correct, std::string(span) + " request failed or replied wrongly");
        return rtt;
    };

    Samples ping;
    for (int i = 0; i < 200; ++i) ping.add(send("daemon.ping", "{\"op\":\"ping\"}\n", nullptr));
    for (std::size_t i : shuffled(n, rng)) {
        send("daemon.prime", hit_lines[i], &corpus.apps[i].digest);
    }
    Samples miss;
    std::size_t variants = 0;
    auto daemon_deadline = after(run_start, options.seconds);
    do {
        double hit_rtt = 0, inproc = 0, request_kb = 0;
        std::vector<std::size_t> order = shuffled(n, rng);
        for (std::size_t k = 0; k < n; ++k) {
            const App& app = corpus.apps[order[k]];
            const std::string& line = hit_lines[order[k]];
            hit_rtt += send("daemon.hit", line, &app.digest);
            request_kb += static_cast<double>(line.size()) / 1e3;
            // The same hit's in-process work: request decode, keying, cache
            // load, response encode.
            std::string key;
            std::optional<core::AnalysisReport> loaded;
            inproc += timed(tracer, "inproc.parse_json", request,
                            [&] { (void)text::parse_json(line); });
            inproc += timed(tracer, "inproc.key_for", request,
                            [&] { key = cache::ReportCache::key_for(app.text); });
            inproc += timed(tracer, "inproc.load", request,
                            [&] { loaded = daemon_cache.load(key); });
            inproc += timed(tracer, "inproc.encode", request, [&] {
                text::Json response = text::Json::object();
                response.set("ok", text::Json(true));
                response.set("file", text::Json("<inline>"));
                response.set("cached", text::Json(true));
                if (loaded) response.set("report", loaded->to_json());
                (void)response.dump();
            });
            out.check(loaded.has_value(), app.name + ": primed entry missing from the cache");
            if (k % kVariantEvery == 0) {
                std::string name = app.name + " ~trace." + std::to_string(variants++);
                std::string variant = variant_request(line, name);
                miss.add(send("daemon.miss", variant, &app.digest));
            }
        }
        layer.add("daemon.hit.rtt_us_per_kb", hit_rtt * 1e6 / request_kb, "us/KB");
        layer.add("daemon.hit.residual_us_per_kb", (hit_rtt - inproc) * 1e6 / request_kb,
                  "us/KB");
    } while (Clock::now() < daemon_deadline);

    double hit_ratio = 0;
    std::int64_t daemon_errors = -1;
    if (connection.round_trip("{\"op\":\"status\"}\n", reply)) {
        auto status = text::parse_json(reply);
        const text::Json* doc = status.ok() ? status.value().find("status") : nullptr;
        const text::Json* stats = doc != nullptr ? doc->find("cache") : nullptr;
        const text::Json* requests = doc != nullptr ? doc->find("requests") : nullptr;
        if (stats != nullptr && stats->find("hits") != nullptr) {
            double hits = static_cast<double>(stats->find("hits")->as_int());
            double misses = static_cast<double>(stats->find("misses")->as_int());
            hit_ratio = hits / (hits + misses);
        }
        if (requests != nullptr && requests->find("errors") != nullptr) {
            daemon_errors = requests->find("errors")->as_int();
        }
    }
    out.check(daemon_errors >= 0, "status op did not report daemon errors");
    out.check(daemon.shutdown(), "daemon did not exit 0 on shutdown");

    layer.add("daemon.ping.rtt_us", ping.median() * 1e6, "us");
    layer.add("daemon.miss.rtt_ms", miss.median() * 1e3, "ms");
    layer.add("cache.hit_ratio", hit_ratio, "ratio");
    layer.add("daemon.errors",
              static_cast<double>(std::max<std::int64_t>(daemon_errors, 0) + client_errors),
              "count");
    layer.emit(out);

    std::string trace_path = options.out_dir + "/trace.json";
    out.check(tracer.write_chrome_trace(trace_path), "cannot write " + trace_path);
    out.note("traced passes=" + std::to_string(passes) + ", spans=" +
             std::to_string(tracer.spans().size()) + " -> " + trace_path);
    out.note("daemon phase: pings=" + std::to_string(ping.size()) +
             ", variant misses=" + std::to_string(miss.size()));
    return out;
}

}  // namespace xtbench
