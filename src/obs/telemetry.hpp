// Run telemetry (observability layer, part 3 — see metrics.hpp, trace.hpp).
//
// A batch run over many apps is the unit Extractocol's evaluation measures
// (PAPER.md §4) and the unit a fleet orchestrator schedules. RunTelemetry
// collects one AppRunRecord per input — terminal outcome, per-phase wall
// clock, budget consumption, peak memory — and aggregates them into fleet
// statistics (apps/sec throughput, per-app latency percentiles via
// HistogramStats). manifest_json() renders the whole run as a JSON ledger an
// orchestrator can store and diff across runs; the CLI's --run-manifest flag
// writes it.
//
// Determinism contract: every field of the manifest is byte-identical for
// any --jobs value EXCEPT resource measurements (wall clock, phase timings,
// throughput, latency, memory) and run metadata (timestamp, jobs).
// manifest_json(/*normalize_resources=*/true) zeroes exactly those fields,
// and tests/determinism_test.cpp enforces that the normalized rendering is
// byte-identical at --jobs 1/2/8 — including the poisoned-input batch case.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "text/json.hpp"

namespace extractocol::obs {

/// Telemetry record of one analyzed input. Deterministic fields (outcome,
/// steps, budget fraction, transaction counts) come straight from the
/// analysis; resource fields (wall clock, memory) are measurements.
struct AppRunRecord {
    std::string file;
    /// Terminal outcome: "complete" (every DP site complete), "partial"
    /// (some site degraded), "budget_exhausted" (the per-app step budget
    /// ran out), or "error" (the input failed and was contained).
    std::string outcome;
    /// The contained per-app failure message; non-empty iff outcome=="error".
    std::string error;
    double wall_seconds = 0;
    /// Per-phase wall times in pipeline order (name, seconds).
    std::vector<std::pair<std::string, double>> phase_seconds;
    /// Abstract steps charged against the per-app budget (taint worklist
    /// iterations + signature-builder statement executions).
    std::uint64_t steps_used = 0;
    /// steps_used / max_total_steps; 0 when the run was unlimited.
    double budget_fraction = 0;
    /// Peak tracked bytes attributed to this app (0 unless memtrack is
    /// enabled and apps ran sequentially — see DESIGN.md §11).
    std::uint64_t peak_bytes = 0;
    std::uint64_t transactions = 0;
    std::uint64_t dependencies = 0;
    /// Per-app accuracy block (eval::EvalResult::accuracy_json) — the schema
    /// v2 addition, present only when the run scored accuracy (--eval). The
    /// block is derived from deterministic inputs, so normalization leaves
    /// it untouched.
    std::optional<text::Json> accuracy;
};

/// Fleet-level aggregate of a run's AppRunRecords.
struct FleetStats {
    std::size_t apps = 0;
    std::size_t errors = 0;
    /// Outcome tally, sorted by outcome name.
    std::vector<std::pair<std::string, std::size_t>> outcomes;
    double wall_seconds = 0;     // whole-run wall clock
    double apps_per_second = 0;  // apps / wall_seconds
    /// Per-app latency distribution (milliseconds).
    HistogramStats latency_ms;
};

// --------------------------------------------- request-scoped telemetry --
// The --serve daemon's unit of attribution is one socket request, not one
// batch run: production debugging needs "what did request 4217 cost and did
// it hit the cache", which end-of-run aggregates cannot answer. Every
// daemon request becomes one RequestRecord (the access-journal line and the
// slow-request log), and RequestTelemetry folds the stream of records into
// the live counters/windows the status/metrics admin ops report.

/// Telemetry record of one daemon request. Deterministic skeleton (op,
/// outcome, cached, error) per driven workload; ids, latencies, and sizes
/// are measurements.
struct RequestRecord {
    /// Monotonic per-daemon id, assigned at arrival (1-based).
    std::uint64_t request_id = 0;
    /// Monotonic id of the connection that carried the request (1-based).
    std::uint64_t connection_id = 0;
    /// "file" | "xapk" | "ping" | "status" | "metrics" | "health" |
    /// "shutdown" | "invalid" (unparseable / unknown requests).
    std::string op;
    /// Input label for analysis ops (the file path, or "<inline>").
    std::string file;
    /// Content-addressed cache key (analysis ops through a cache only).
    std::string key;
    /// True when the response replayed a cached report.
    bool cached = false;
    /// "ok" | "error".
    std::string outcome;
    /// The response's error message; non-empty iff outcome=="error".
    std::string error;
    double wall_seconds = 0;
    /// Per-phase wall times of the run that served the request: the
    /// analysis phases on a miss, the single `cache.load` phase on a hit.
    std::vector<std::pair<std::string, double>> phase_seconds;
    /// Size of the serialized response line (newline included).
    std::uint64_t response_bytes = 0;
    /// Peak tracked bytes (0 unless memtrack is on; concurrent requests
    /// overlap, so treat as an upper bound — same caveat as batch mode).
    std::uint64_t peak_bytes = 0;

    /// The access-journal line (compact: one object, stable key order).
    [[nodiscard]] text::Json to_json() const;
};

/// Folds the daemon's request stream into live telemetry: lifetime tallies
/// for the status op, and windowed registry instruments (daemon.request_ms,
/// daemon.requests, daemon.cache.hits/misses) so status/metrics can report
/// last-minute percentiles and hit rates next to lifetime ones. All methods
/// are thread-safe; one instance lives for the daemon's lifetime.
class RequestTelemetry {
public:
    RequestTelemetry();

    /// Assigns the next monotonic request id (1-based).
    [[nodiscard]] std::uint64_t next_request_id();
    /// Folds one completed request in (tallies + windowed instruments).
    void record(const RequestRecord& record);

    [[nodiscard]] std::uint64_t served() const;
    [[nodiscard]] std::uint64_t errors() const;
    /// Per-op completion tally, sorted by op name.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> op_tally() const;
    [[nodiscard]] HistogramStats latency_lifetime_ms() const;
    [[nodiscard]] HistogramStats latency_window_ms() const;
    [[nodiscard]] std::uint64_t window_cache_hits() const;
    [[nodiscard]] std::uint64_t window_cache_misses() const;
    [[nodiscard]] double window_seconds() const;

private:
    std::atomic<std::uint64_t> next_id_{0};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> errors_{0};
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, std::uint64_t>> ops_;
    // Registry windowed instruments, acquired once (instances are global to
    // the process; per-daemon deltas come from the daemon's own tallies).
    WindowedHistogram* latency_ms_;
    WindowedCounter* requests_;
    WindowedCounter* request_errors_;
    WindowedCounter* cache_hits_;
    WindowedCounter* cache_misses_;
};

/// Collects per-app records during a batch run and renders the run ledger.
/// add() is thread-safe; records are kept in insertion order, so callers
/// that need input order (the CLI, the determinism tests) add sequentially
/// from the ordered batch result.
class RunTelemetry {
public:
    void set_jobs(unsigned jobs);
    void set_timestamp_unix_ms(std::uint64_t ms);
    void set_run_wall_seconds(double seconds);
    /// Attaches a metrics snapshot (typically the run's registry delta);
    /// rendered into the manifest with Prometheus-sanitized names.
    void set_metrics(MetricsSnapshot snapshot);
    /// Attaches the profiler's rows as the manifest's "profile" section:
    /// "totals" (Profiler::summary_json) plus every site and method row.
    /// Normalization zeroes the rows' seconds. Omitted when never set.
    void set_profile(const Profiler& profiler);
    /// Attaches the fleet accuracy block (eval::FleetEval::accuracy_json) as
    /// the manifest fleet's "accuracy" section. Omitted when never set.
    void set_fleet_accuracy(text::Json accuracy);
    /// Attaches the report-cache block (cache::ReportCache::stats_json) as
    /// the manifest's "cache" section — the cache index a warm fleet run is
    /// scheduled from. Omitted when the run used no cache. Normalization
    /// leaves it as is: entries hold content only, so their byte total is
    /// as deterministic per workload as the hit/miss/store counts.
    void set_cache(text::Json cache);

    void add(AppRunRecord record);

    [[nodiscard]] FleetStats fleet() const;

    /// The run ledger: schema tag, run metadata, per-app records, fleet
    /// aggregate, and the attached metrics section. With
    /// `normalize_resources` every wall-clock/memory/timestamp/jobs field is
    /// zeroed (histogram stats and gauge values included) so the rendering
    /// is byte-comparable across runs and --jobs values.
    [[nodiscard]] text::Json manifest_json(bool normalize_resources = false) const;

private:
    mutable std::mutex mutex_;
    unsigned jobs_ = 1;
    std::uint64_t timestamp_unix_ms_ = 0;
    double run_wall_seconds_ = 0;
    std::optional<MetricsSnapshot> metrics_;
    struct ProfileRows {
        text::Json totals;
        std::vector<SiteProfile> sites;
        std::vector<MethodProfile> methods;
    };
    std::optional<ProfileRows> profile_;
    std::optional<text::Json> fleet_accuracy_;
    std::optional<text::Json> cache_;
    std::vector<AppRunRecord> records_;
};

}  // namespace extractocol::obs
