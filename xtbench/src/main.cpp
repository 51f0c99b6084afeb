// xtbench entry point:
//
//   xtbench --workload <batch_cold|app_cold|daemon_mixed> --seed <n>
//           --seconds <s> --trace <0|1> --extractocol <cli binary>
//           --accuracy-profile <BENCH_accuracy.json> --out-dir <dir>
//           [--commit <id>] [--source-digest <hex>] [--jobs <n>]
//           [--corrupt-digest]
//
// Prints a human-readable report, writes <out-dir>/result.json (metrics plus
// the machine record), and ends stdout with one JSON line:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// Exit codes: 0 all outputs correct; 1 wrong outputs (result still printed)
// or a run error (no result); 2 usage error or refused configuration.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "daemon.hpp"
#include "text/json.hpp"

using namespace xtbench;
namespace text = extractocol::text;

namespace {

unsigned affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "xtbench: %s\nusage: xtbench --workload <batch_cold|app_cold|daemon_mixed> "
                 "--seed N --seconds S --trace 0|1 --extractocol PATH "
                 "--accuracy-profile PATH --out-dir DIR [--commit ID] [--source-digest HEX] "
                 "[--jobs N] [--corrupt-digest]\n",
                 why.c_str());
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options o;
    o.nproc = affinity_cpus();
    o.hardware_threads = std::thread::hardware_concurrency();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(arg + " needs a value");
            return argv[++i];
        };
        auto number = [&](const std::string& v) {
            char* end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !(d >= 0)) usage("bad number for " + arg);
            return d;
        };
        if (arg == "--workload") o.workload = value();
        else if (arg == "--seed") o.seed = static_cast<std::uint64_t>(number(value()));
        else if (arg == "--seconds") o.seconds = number(value());
        else if (arg == "--trace") o.trace = number(value()) != 0;
        else if (arg == "--extractocol") o.extractocol = value();
        else if (arg == "--accuracy-profile") o.accuracy_profile = value();
        else if (arg == "--out-dir") o.out_dir = value();
        else if (arg == "--commit") o.commit = value();
        else if (arg == "--source-digest") o.source_digest = value();
        else if (arg == "--jobs") o.jobs = static_cast<unsigned>(number(value()));
        else if (arg == "--corrupt-digest") o.corrupt_digest = true;
        else usage("unknown argument " + arg);
    }
    if (o.workload != "batch_cold" && o.workload != "app_cold" && o.workload != "daemon_mixed") {
        usage("unknown workload '" + o.workload + "'");
    }
    if (o.extractocol.empty() || o.accuracy_profile.empty() || o.out_dir.empty()) {
        usage("--extractocol, --accuracy-profile and --out-dir are required");
    }
    if (o.jobs == 0) o.jobs = o.nproc;
    return o;
}

/// Refuses thread counts the machine cannot run in parallel, so no result
/// can again be recorded with more workers than hardware threads.
void refuse_oversubscription(const Options& o) {
    unsigned limit = std::min(o.hardware_threads, o.nproc);
    unsigned daemon = (o.workload == "daemon_mixed" || o.trace) ? kDaemonJobs : 0;
    unsigned wanted = std::max(o.jobs, daemon);
    if (limit == 0 || wanted > limit) {
        std::fprintf(stderr,
                     "xtbench: refusing to run %s with %u threads on %u hardware threads "
                     "(nproc %u)\n",
                     o.workload.c_str(), wanted, o.hardware_threads, o.nproc);
        std::exit(2);
    }
}

text::Json machine_record(const Options& o) {
    text::Json m = text::Json::object();
    m.set("nproc", text::Json(static_cast<std::int64_t>(o.nproc)));
    m.set("hardware_threads", text::Json(static_cast<std::int64_t>(o.hardware_threads)));
    m.set("jobs", text::Json(static_cast<std::int64_t>(o.jobs)));
    m.set("compiler", text::Json(XTBENCH_COMPILER));
    m.set("build_type", text::Json(XTBENCH_BUILD_TYPE));
    m.set("commit", text::Json(o.commit.empty() ? "unknown" : o.commit));
    m.set("source_digest", text::Json(o.source_digest.empty() ? "unknown" : o.source_digest));
    return m;
}

}  // namespace

int main(int argc, char** argv) {
    Options options = parse_args(argc, argv);
    refuse_oversubscription(options);
    std::filesystem::create_directories(options.out_dir);

    std::printf("xtbench: workload=%s trace=%d seed=%llu seconds=%g\n", options.workload.c_str(),
                options.trace ? 1 : 0, static_cast<unsigned long long>(options.seed),
                options.seconds);
    text::Json machine = machine_record(options);
    std::printf("machine: %s\n", machine.dump().c_str());

    Outcome outcome;
    try {
        Corpus corpus = generate_corpus();
        std::string why;
        if (!prepare_reference(corpus, analyzer_options(1), options.accuracy_profile, &why)) {
            std::fprintf(stderr, "xtbench: accuracy gate failed: %s\n", why.c_str());
            return 1;
        }
        std::printf("accuracy gate: jobs-1 reports match %s (%s); reference digests for %zu "
                    "apps (%zu statements, %zu bytes)\n",
                    options.accuracy_profile.c_str(), why.c_str(), corpus.apps.size(),
                    corpus.total_statements(), corpus.total_bytes());
        if (options.corrupt_digest) corpus.apps.front().digest = "corrupted-on-purpose";
        std::fflush(stdout);

        if (options.trace) {
            outcome = run_traced(options, corpus);
        } else if (options.workload == "batch_cold") {
            outcome = run_batch_cold(options, corpus);
        } else if (options.workload == "app_cold") {
            outcome = run_app_cold(options, corpus);
        } else {
            outcome = run_daemon_mixed(options, corpus);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "xtbench: run error: %s\n", e.what());
        return 1;
    }

    if (outcome.attempted == 0) outcome.check(false, "no operation was attempted");
    double fail_ratio =
        static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);
    if (!options.trace) {
        // fail_ratio is 0 on a good run; the recorded metric is its
        // complement, which never is.
        outcome.metric("ok_ratio", 1.0 - fail_ratio, "ratio");
    }
    for (const auto& m : outcome.metrics) {
        if (!std::isfinite(m.value)) outcome.check(false, m.name + " is not finite");
    }
    bool correct = outcome.failed == 0;

    std::printf("\n%-36s %18s  %s\n", "metric", "value", "unit");
    for (const auto& m : outcome.metrics) {
        std::printf("%-36s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%-36s %18.6f  %s  (%llu failed / %llu attempted)\n", "fail_ratio", fail_ratio,
                "ratio", static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    for (const auto& line : outcome.notes) std::printf("  %s\n", line.c_str());

    text::Json recorded = text::Json::object();
    for (const auto& m : outcome.metrics) {
        double value = std::isfinite(m.value) ? m.value : 0.0;
        text::Json entry = text::Json::object();
        entry.set("value", text::Json(value));
        entry.set("unit", text::Json(m.unit));
        recorded.set(m.name, std::move(entry));
    }

    text::Json record = text::Json::object();
    record.set("workload", text::Json(options.workload));
    record.set("trace", text::Json(options.trace));
    record.set("seed", text::Json(static_cast<std::int64_t>(options.seed)));
    record.set("seconds", text::Json(options.seconds));
    record.set("machine", std::move(machine));
    record.set("correct", text::Json(correct));
    record.set("attempted", text::Json(static_cast<std::int64_t>(outcome.attempted)));
    record.set("failed", text::Json(static_cast<std::int64_t>(outcome.failed)));
    record.set("fail_ratio", text::Json(fail_ratio));
    record.set("metrics", recorded);
    text::Json notes = text::Json::array();
    for (const auto& line : outcome.notes) notes.push_back(text::Json(line));
    record.set("notes", std::move(notes));
    std::ofstream(options.out_dir + "/result.json") << record.dump_pretty() << "\n";

    text::Json result = text::Json::object();
    result.set("correct", text::Json(correct));
    result.set("attempted", text::Json(static_cast<std::int64_t>(outcome.attempted)));
    result.set("failed", text::Json(static_cast<std::int64_t>(outcome.failed)));
    result.set("metrics", std::move(recorded));
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
}
