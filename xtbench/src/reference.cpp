// Corpus generation and the correctness reference every workload checks
// against; plus the small shared helpers declared in bench.hpp.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "corpus/corpus.hpp"
#include "eval/eval.hpp"
#include "support/sha256.hpp"
#include "xapk/serialize.hpp"

namespace xtbench {

using namespace extractocol;

double Samples::percentile(double p, std::size_t* beyond) const {
    if (values_.empty()) {
        if (beyond != nullptr) *beyond = 0;
        return 0;
    }
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    if (beyond != nullptr) *beyond = sorted.size() - rank;
    return sorted[rank - 1];
}

std::size_t Corpus::total_bytes() const {
    std::size_t n = 0;
    for (const App& app : apps) n += app.text.size();
    return n;
}

std::size_t Corpus::total_statements() const {
    std::size_t n = 0;
    for (const App& app : apps) n += app.statements;
    return n;
}

namespace {

std::vector<std::string> corpus_names() {
    std::vector<std::string> names = corpus::open_source_apps();
    const auto& closed = corpus::closed_source_apps();
    names.insert(names.end(), closed.begin(), closed.end());
    return names;
}

/// Exact comparison of one integer-count object against the profile.
void diff_counts(const std::string& label, const text::Json* want, const text::Json& have,
                 std::string* why) {
    if (want == nullptr || !want->is_object()) {
        *why += label + " missing from profile; ";
        return;
    }
    for (const auto& [field, value] : want->members()) {
        const text::Json* now = have.find(field);
        if (now == nullptr || !now->is_int() || !value.is_int() ||
            now->as_int() != value.as_int()) {
            *why += label + "." + field + " differs from profile; ";
        }
    }
    for (const auto& [field, value] : have.members()) {
        if (want->find(field) == nullptr) *why += label + "." + field + " not in profile; ";
    }
}

text::Json digest_document(const text::Json& rendered) {
    text::Json doc = text::Json::object();
    for (const char* key : {"transactions", "dependencies"}) {
        const text::Json* part = rendered.find(key);
        doc.set(key, part != nullptr ? *part : text::Json());
    }
    text::Json audit = text::Json::object();
    if (const text::Json* full = rendered.find("audit"); full != nullptr && full->is_object()) {
        for (const auto& [key, value] : full->members()) {
            if (key != "unmodeled_apis") audit.set(key, value);
        }
    }
    doc.set("audit", std::move(audit));
    return doc;
}

}  // namespace

Corpus generate_corpus() {
    Corpus out;
    for (const std::string& name : corpus_names()) {
        corpus::CorpusApp app = corpus::build_app(name);
        App entry;
        entry.name = name;
        entry.text = xapk::write_xapk(app.program);
        entry.statements = app.program.total_statements();
        out.apps.push_back(std::move(entry));
    }
    return out;
}

bool prepare_reference(Corpus& corpus, const core::AnalyzerOptions& options,
                       const std::string& profile_path, std::string* why) {
    std::ifstream in(profile_path);
    if (!in) {
        *why = "cannot read accuracy profile " + profile_path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto profile = text::parse_json(buffer.str());
    if (!profile.ok() || profile.value().find("apps") == nullptr) {
        *why = "accuracy profile " + profile_path + " is not a profile document";
        return false;
    }
    const text::Json& want = profile.value();

    // The profile was recorded with the paper's configuration: the async
    // heuristic off for open-source apps, on for closed-source ones (§5.1).
    core::AnalyzerOptions open_options;
    open_options.async_heuristic = false;
    const core::Analyzer open_analyzer(open_options);
    const core::Analyzer closed_analyzer;
    const core::Analyzer analyzer(options);

    std::vector<eval::EvalResult> results;
    for (App& app : corpus.apps) {
        corpus::CorpusApp source = corpus::build_app(app.name);
        const core::Analyzer& paper =
            source.spec.open_source ? open_analyzer : closed_analyzer;
        auto scored = paper.analyze_xapk(app.text);
        auto reference = analyzer.analyze_xapk(app.text);
        if (!scored.ok() || !reference.ok()) {
            *why = app.name + " failed to analyze";
            return false;
        }
        results.push_back(eval::evaluate_report(scored.value(), source));
        app.digest = report_digest(reference.value());
    }
    eval::FleetEval fleet = eval::aggregate(results);
    const text::Json* want_apps = want.find("apps");
    for (const eval::EvalResult& r : results) {
        diff_counts(r.app, want_apps->find(r.app), r.counts.to_json(), why);
    }
    if (want_apps->members().size() != results.size()) *why += "profile app count differs; ";
    diff_counts("fleet", want.find("fleet"), fleet.counts.to_json(), why);
    if (!why->empty()) return false;
    const eval::Counts& c = fleet.counts;
    char line[120];
    std::snprintf(line, sizeof line, "precision %.3f, recall %.3f",
                  static_cast<double>(c.matched_signatures) / static_cast<double>(c.signatures),
                  static_cast<double>(c.matched_endpoints) / static_cast<double>(c.gt_endpoints));
    *why = line;
    return true;
}

std::string report_digest(const core::AnalysisReport& report) {
    return rendered_digest(report.to_json());
}

std::string rendered_digest(const text::Json& rendered) {
    if (!rendered.is_object()) return "not-a-report";
    return support::sha256_hex(digest_document(rendered).dump());
}

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        std::size_t j = static_cast<std::size_t>(rng() % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

double self_cpu_seconds() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb(const std::string& status_path) {
    std::ifstream in(status_path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    return 0;
}

bool reset_self_peak_rss() {
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    return static_cast<bool>(clear);
}

void Outcome::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 20) note("FAIL: " + what);
}

void Outcome::tally(std::uint64_t ok, std::uint64_t bad, const std::string& what) {
    attempted += ok + bad;
    failed += bad;
    if (bad > 0) note("FAIL: " + std::to_string(bad) + " x " + what);
}

void Outcome::latency(const Samples& seconds, const std::string& what) {
    std::size_t beyond50 = 0;
    std::size_t beyond99 = 0;
    double p50 = seconds.percentile(0.50, &beyond50);
    double p99 = seconds.percentile(0.99, &beyond99);
    metric("latency_p50_ms", p50 * 1e3, "ms");
    char line[200];
    std::snprintf(line, sizeof line, "latency (%s): n=%zu, p50 has %zu beyond, p99 has %zu beyond",
                  what.c_str(), seconds.size(), beyond50, beyond99);
    note(line);
    if (beyond99 >= 10) {
        metric("latency_p99_ms", p99 * 1e3, "ms");
    } else {
        note("TOO SHORT: latency_p99_ms needs 10 samples beyond p99 (have " +
             std::to_string(beyond99) + "); not reported");
    }
}

core::AnalyzerOptions analyzer_options(unsigned jobs) {
    core::AnalyzerOptions options;
    options.jobs = jobs;
    return options;
}

}  // namespace xtbench
