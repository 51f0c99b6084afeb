// Warm re-analysis: the persistent report cache's headline number. A fleet
// that re-analyzes its corpus after a small update (here ~5% of apps change)
// should pay cold analysis only for the changed apps and serve the rest's
// content byte-identically from the cache.
//
// Protocol: prime the cache over the full corpus, mutate 2 of the apps
// (endpoint path bump -> new serialized bytes -> new content key), then run
// the updated workload warm (32 hits + 2 misses) and cold (no cache). The
// table reports both wall times and the speedup; the default mode gates
// speedup >= 10x, checks that every unchanged app's warm report renders
// byte-identically to its primed cold report, and diffs the deterministic
// workload profile (apps, changed, hits, misses, transactions,
// dependencies) against the committed snapshot bench/BENCH_warm.json.
// `--update` re-snapshots in place; an explicit path argument writes there
// instead and skips the gates — the CI smoke mode.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/cache.hpp"
#include "text/json.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
#ifdef XT_BENCH_WARM_PATH
    const char* committed_path = XT_BENCH_WARM_PATH;
#else
    const char* committed_path = "BENCH_warm.json";
#endif
    bool update = false;
    const char* out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update") == 0) {
            update = true;
        } else {
            out_path = argv[i];
        }
    }
    const bool smoke = out_path != nullptr;

    std::printf("== Warm re-analysis: 5%%-changed corpus, cache vs cold ==\n\n");

    std::vector<std::string> names = corpus::open_source_apps();
    const auto& closed = corpus::closed_source_apps();
    names.insert(names.end(), closed.begin(), closed.end());

    // The "previous" fleet state: every corpus app as-is.
    std::vector<core::BatchInput> primed_inputs;
    primed_inputs.reserve(names.size());
    std::vector<corpus::AppSpec> specs;
    specs.reserve(names.size());
    for (const auto& name : names) {
        corpus::CorpusApp app = corpus::build_app(name);
        specs.push_back(app.spec);
        primed_inputs.push_back({name + ".xapk", xapk::write_xapk(app.program)});
    }

    // The "updated" fleet state: ~5% of apps ship a new release. An endpoint
    // path bump regenerates the program, so the serialized bytes — and with
    // them the content key — change, exactly like a real app update.
    const std::size_t kChanged = names.size() / 16 > 0 ? 2 : 1;
    std::vector<core::BatchInput> updated_inputs = primed_inputs;
    std::vector<std::size_t> changed_indices;
    for (std::size_t i = 0; changed_indices.size() < kChanged && i < specs.size();
         ++i) {
        if (specs[i].endpoints.empty()) continue;
        corpus::AppSpec spec = specs[i];
        spec.endpoints.front().path += "/v2";
        updated_inputs[i].text = xapk::write_xapk(corpus::generate(spec).program);
        changed_indices.push_back(i);
    }
    if (changed_indices.size() != kChanged) {
        std::fprintf(stderr, "error: could not mutate %zu corpus apps\n", kChanged);
        return 1;
    }

    namespace fs = std::filesystem;
    fs::path cache_dir = fs::temp_directory_path() /
                         ("xt_bench_warm_" + std::to_string(::getpid()));
    fs::remove_all(cache_dir);
    cache::CacheOptions cache_options;
    cache_options.dir = cache_dir.string();

    core::AnalyzerOptions options;
    options.jobs = 4;

    // Prime: the fleet's last full run, stored entry by entry.
    cache::ReportCache primer(cache_options);
    cache::CachedBatch primed =
        cache::analyze_batch_cached(core::Analyzer(options), &primer, primed_inputs);
    if (primed.misses != primed_inputs.size()) {
        std::fprintf(stderr, "error: prime run expected all misses\n");
        return 1;
    }
    for (const auto& item : primed.items) {
        if (!item.ok()) {
            std::fprintf(stderr, "ANALYSIS FAILURE priming %s: %s\n",
                         item.file.c_str(), item.error.c_str());
            return 1;
        }
    }

    const int kReps = smoke ? 1 : 3;  // best-of to shed scheduler noise

    // Warm: each rep starts from the primed state (drop the entries the
    // previous rep stored for the changed apps), so every rep pays the same
    // 32-hit + 2-miss workload. Fresh ReportCache per rep: the stats are the
    // run's own deltas, which the snapshot gates below.
    double warm_wall = 0;
    cache::CachedBatch warm;
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i : changed_indices) {
            fs::remove(cache_dir /
                       (cache::ReportCache::key_for(updated_inputs[i].text, options) +
                        ".xce"));
        }
        cache::ReportCache warm_cache(cache_options);
        auto start = std::chrono::steady_clock::now();
        cache::CachedBatch run =
            cache::analyze_batch_cached(core::Analyzer(options), &warm_cache, updated_inputs);
        double wall = seconds_since(start);
        if (rep == 0 || wall < warm_wall) {
            warm_wall = wall;
            warm = std::move(run);
        }
    }

    // Cold: the same updated workload with no cache at all.
    double cold_wall = 0;
    std::vector<core::BatchItem> cold;
    for (int rep = 0; rep < kReps; ++rep) {
        core::Analyzer analyzer(options);
        auto start = std::chrono::steady_clock::now();
        std::vector<core::BatchItem> run = analyzer.analyze_batch(updated_inputs);
        double wall = seconds_since(start);
        if (rep == 0 || wall < cold_wall) {
            cold_wall = wall;
            cold = std::move(run);
        }
    }

    const std::size_t expected_hits = updated_inputs.size() - kChanged;
    if (warm.hits != expected_hits || warm.misses != kChanged) {
        std::fprintf(stderr, "error: warm run hit %zu / missed %zu, expected %zu/%zu\n",
                     warm.hits, warm.misses, expected_hits, kChanged);
        return 1;
    }

    // Correctness before speed: every unchanged app's warm report renders
    // the primed cold report's JSON byte-for-byte; the changed apps agree
    // with the cold re-analysis textually.
    std::size_t transactions = 0;
    std::size_t dependencies = 0;
    for (std::size_t i = 0; i < warm.items.size(); ++i) {
        const core::BatchItem& item = warm.items[i];
        if (!item.ok()) {
            std::fprintf(stderr, "ANALYSIS FAILURE warm %s: %s\n", item.file.c_str(),
                         item.error.c_str());
            return 1;
        }
        transactions += item.report->transactions.size();
        dependencies += item.report->dependencies.size();
        bool changed = false;
        for (std::size_t c : changed_indices) changed = changed || c == i;
        if (changed) {
            if (warm.from_cache[i] != 0 ||
                item.report->to_text() != cold[i].report->to_text()) {
                std::fprintf(stderr, "WRONG OUTPUT: changed app %s\n",
                             item.file.c_str());
                return 1;
            }
        } else if (warm.from_cache[i] != 1 ||
                   item.report->to_json().dump_pretty() !=
                       primed.items[i].report->to_json().dump_pretty()) {
            std::fprintf(stderr,
                         "WRONG OUTPUT: warm replay of %s is not byte-identical\n",
                         item.file.c_str());
            return 1;
        }
    }

    double speedup = warm_wall > 0 ? cold_wall / warm_wall : 0;
    std::printf("%-22s  %10s  %10s\n", "run", "wall (ms)", "apps/sec");
    std::printf("%-22s  %10.1f  %10.1f\n", "cold (no cache)", cold_wall * 1000,
                cold_wall > 0 ? static_cast<double>(updated_inputs.size()) / cold_wall
                              : 0);
    std::printf("%-22s  %10.1f  %10.1f\n", "warm (32 hits/2 miss)",
                warm_wall * 1000,
                warm_wall > 0 ? static_cast<double>(updated_inputs.size()) / warm_wall
                              : 0);
    std::printf("\nwarm speedup: %.1fx (%zu/%zu apps replayed from cache)\n",
                speedup, warm.hits, updated_inputs.size());

    text::Json doc = text::Json::object();
    doc.set("schema", text::Json("extractocol.bench_warm/v1"));
    // Deterministic workload profile — identical on every machine; these
    // fields are gated against the committed snapshot.
    doc.set("apps", text::Json(static_cast<std::int64_t>(updated_inputs.size())));
    doc.set("changed", text::Json(static_cast<std::int64_t>(kChanged)));
    doc.set("hits", text::Json(static_cast<std::int64_t>(warm.hits)));
    doc.set("misses", text::Json(static_cast<std::int64_t>(warm.misses)));
    doc.set("transactions", text::Json(static_cast<std::int64_t>(transactions)));
    doc.set("dependencies", text::Json(static_cast<std::int64_t>(dependencies)));
    // Trajectory data, not gated.
    doc.set("cold_wall_seconds", text::Json(cold_wall));
    doc.set("warm_wall_seconds", text::Json(warm_wall));
    doc.set("speedup", text::Json(speedup));

    fs::remove_all(cache_dir);

    if (out_path != nullptr || update) {
        const char* target = out_path != nullptr ? out_path : committed_path;
        std::ofstream out(target);
        if (!out) {
            std::printf("cannot write %s\n", target);
            return 1;
        }
        out << doc.dump_pretty() << "\n";
        std::printf("\nwrote %s\n", target);
        return 0;
    }

    std::ifstream in(committed_path);
    if (!in) {
        std::fprintf(stderr,
                     "error: cannot read committed snapshot %s "
                     "(run with --update to create it)\n",
                     committed_path);
        return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto committed = text::parse_json(buffer.str());
    if (!committed.ok()) {
        std::fprintf(stderr, "error: %s is not valid JSON: %s\n", committed_path,
                     committed.error().message.c_str());
        return 1;
    }
    int drifted = 0;
    for (const char* field :
         {"apps", "changed", "hits", "misses", "transactions", "dependencies"}) {
        const text::Json* want = committed.value().find(field);
        const text::Json* got = doc.find(field);
        if (want == nullptr || !want->is_int()) {
            std::fprintf(stderr, "drift: committed snapshot lacks %s\n", field);
            ++drifted;
        } else if (want->as_int() != got->as_int()) {
            std::fprintf(stderr, "drift: %s = %lld, committed %lld\n", field,
                         static_cast<long long>(got->as_int()),
                         static_cast<long long>(want->as_int()));
            ++drifted;
        }
    }
    if (drifted > 0) {
        std::fprintf(stderr,
                     "\n%d field(s) drifted from %s.\n"
                     "If the change is intentional, re-snapshot with: "
                     "bench_warm_reanalysis --update\n",
                     drifted, committed_path);
        return 1;
    }
    // The headline gate: replaying 32/34 reports has to beat re-deriving
    // them. 10x is conservative — the warm run's only real work is 2 cold
    // apps plus JSON decodes — so a miss here means the cache stopped
    // paying, not that the machine was slow.
    if (speedup < 10.0) {
        std::fprintf(stderr,
                     "\nspeedup regression: warm ran at %.1fx of cold "
                     "(must be >= 10x)\n",
                     speedup);
        return 1;
    }
    std::printf("\nspeedup gate passed (>= 10x); snapshot matches %s\n",
                committed_path);
    return 0;
}
