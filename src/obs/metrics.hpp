// Pipeline metrics (observability layer, part 1 of 2 — see trace.hpp).
//
// A process-wide MetricsRegistry holds named instruments:
//   * Counter   — monotonically increasing event count (relaxed atomics);
//   * Gauge     — last-written signed value;
//   * Histogram — count/sum/min/max summary of observed samples.
//
// Hot-loop protocol: acquire the instrument ONCE outside the loop
// (`obs::Counter& c = obs::counter("taint.worklist_iterations");`) and call
// `c.add()` inside. Acquisition takes the registry lock and may allocate;
// `add()` is a single relaxed atomic increment, so instrumented loops stay
// within noise of uninstrumented ones and never allocate.
//
// Counters bumped inside an analysis land in that analysis's RunScope
// (a run-local registry, merged into the global one when the run ends), so
// each report's counters are exactly its own work.
//
// Metric names are dot-scoped by pipeline stage (`xapk.`, `slicer.`,
// `taint.`, `interp.`, `sig.`, `txn.`) and documented in DESIGN.md
// ("Observability"). Durations are histograms with an `_ms` suffix.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profiler.hpp"
#include "text/json.hpp"

namespace extractocol::obs {

class MetricsRegistry;

class Counter {
public:
    void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

private:
    friend class MetricsRegistry;
    Counter() = default;
    std::atomic<std::uint64_t> value_{0};
};

class Gauge {
public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

private:
    friend class MetricsRegistry;
    Gauge() = default;
    std::atomic<std::int64_t> value_{0};
};

struct HistogramStats {
    /// Bounded log2-spaced buckets for percentile estimates: bucket i counts
    /// samples in [kBucketBase * 2^(i-1), kBucketBase * 2^i), bucket 0 holds
    /// everything below kBucketBase, the last bucket is open-ended. With
    /// base 0.001 (1µs when samples are milliseconds) 40 buckets span ~15
    /// orders of magnitude in 320 bytes per instrument.
    static constexpr std::size_t kBucketCount = 40;
    static constexpr double kBucketBase = 0.001;

    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    std::array<std::uint64_t, kBucketCount> buckets{};

    [[nodiscard]] double mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Estimated q-quantile (q in [0,1]) from the bucket histogram: walks the
    /// cumulative counts to the target rank and returns that bucket's upper
    /// bound, clamped into [min, max] so estimates never leave the observed
    /// range. Exact for count<=1; a <=2x overestimate otherwise.
    [[nodiscard]] double percentile(double q) const;
    [[nodiscard]] double p50() const { return percentile(0.50); }
    [[nodiscard]] double p95() const { return percentile(0.95); }
    [[nodiscard]] double p99() const { return percentile(0.99); }

    /// Bucket index for a sample (shared by observe() and tests).
    [[nodiscard]] static std::size_t bucket_index(double sample);

    /// Folds another summary into this one: counts and bucket tallies add,
    /// min/max widen. The merge a sliding window performs over its live
    /// buckets on every read; also usable by any caller combining summaries.
    void merge_from(const HistogramStats& other);
};

class Histogram {
public:
    void observe(double sample);
    [[nodiscard]] HistogramStats stats() const;
    void reset();

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

private:
    friend class MetricsRegistry;
    Histogram() = default;
    mutable std::mutex mutex_;
    HistogramStats stats_;
};

// ------------------------------------------------ windowed instruments --
// A long-lived process (the --serve daemon) cannot answer "how is it going
// NOW" from lifetime instruments: a histogram that has accumulated for a
// week reports week-old p99s. Windowed instruments keep a ring of N
// fixed-duration buckets (default 12 x 5s = a one-minute sliding window);
// writes land in the bucket of the current time slice, reads merge every
// bucket still inside the window, and expired buckets are recycled lazily
// on the next write that lands in their slot. Both flavors also keep the
// plain lifetime aggregate, so one instrument answers "last minute" and
// "since start" together.
//
// The *_at overloads take an explicit timestamp so tests can drive the ring
// deterministically; production callers use the steady_clock defaults.

class WindowedCounter {
public:
    using Clock = std::chrono::steady_clock;

    void add(std::uint64_t n = 1) { add_at(n, Clock::now()); }
    void add_at(std::uint64_t n, Clock::time_point t);
    /// Total since construction/reset (a monotone counter).
    [[nodiscard]] std::uint64_t lifetime() const;
    /// Sum over the buckets still inside the sliding window.
    [[nodiscard]] std::uint64_t in_window() const { return in_window_at(Clock::now()); }
    [[nodiscard]] std::uint64_t in_window_at(Clock::time_point t) const;
    /// Width of the full window (bucket width x bucket count) in seconds.
    [[nodiscard]] double window_seconds() const;
    void reset();

    WindowedCounter(const WindowedCounter&) = delete;
    WindowedCounter& operator=(const WindowedCounter&) = delete;

private:
    friend class MetricsRegistry;
    WindowedCounter(Clock::duration bucket_width, std::size_t bucket_count);
    [[nodiscard]] std::int64_t tick_of(Clock::time_point t) const;

    struct Slot {
        std::int64_t tick = -1;  // -1 = never written
        std::uint64_t value = 0;
    };
    mutable std::mutex mutex_;
    Clock::duration width_;
    Clock::time_point epoch_;
    std::uint64_t lifetime_ = 0;
    std::vector<Slot> slots_;
};

class WindowedHistogram {
public:
    using Clock = std::chrono::steady_clock;

    void observe(double sample) { observe_at(sample, Clock::now()); }
    void observe_at(double sample, Clock::time_point t);
    /// Summary since construction/reset.
    [[nodiscard]] HistogramStats lifetime_stats() const;
    /// Merged summary of the buckets still inside the sliding window;
    /// count==0 (the null-percentile rendering contract) once the window
    /// has fully slid past the last sample.
    [[nodiscard]] HistogramStats window_stats() const {
        return window_stats_at(Clock::now());
    }
    [[nodiscard]] HistogramStats window_stats_at(Clock::time_point t) const;
    [[nodiscard]] double window_seconds() const;
    void reset();

    WindowedHistogram(const WindowedHistogram&) = delete;
    WindowedHistogram& operator=(const WindowedHistogram&) = delete;

private:
    friend class MetricsRegistry;
    WindowedHistogram(Clock::duration bucket_width, std::size_t bucket_count);
    [[nodiscard]] std::int64_t tick_of(Clock::time_point t) const;

    struct Slot {
        std::int64_t tick = -1;
        HistogramStats stats;
    };
    mutable std::mutex mutex_;
    Clock::duration width_;
    Clock::time_point epoch_;
    HistogramStats lifetime_;
    std::vector<Slot> slots_;
};

/// Sanitizes a dot-scoped instrument name for Prometheus exposition:
/// '.' becomes '_', any character outside [a-zA-Z0-9_:] becomes '_', and a
/// leading digit gains a '_' prefix. The single source of truth for metric
/// renaming — both the text exposition and the sanitized JSON rendering go
/// through here, so the two exports can never drift apart.
[[nodiscard]] std::string sanitize_metric_name(std::string_view name);

/// Naming convention of a metrics rendering: kDotted keeps the registry's
/// canonical dot-scoped names (the repo-internal JSON convention);
/// kPrometheus rewrites every name through sanitize_metric_name().
enum class NameStyle { kDotted, kPrometheus };

/// Canonical JSON rendering of histogram stats, shared by the snapshot
/// export and telemetry manifests. A histogram with zero samples renders
/// min/max/mean/p50/p95/p99 as JSON null — 0.0 would be indistinguishable
/// from a genuinely observed zero; `count` disambiguates.
[[nodiscard]] text::Json histogram_stats_json(const HistogramStats& stats);

/// Point-in-time copy of every instrument, sorted by name.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, HistogramStats>> histograms;

    [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
    [[nodiscard]] const HistogramStats* histogram(std::string_view name) const;

    /// Counters in `this` minus `base` (instruments absent from `base`
    /// count as 0); zero deltas are dropped. Gauges/histograms are copied
    /// from `this` unchanged (gauges are not cumulative; histogram counts
    /// absent from `base` keep their full stats).
    [[nodiscard]] MetricsSnapshot delta_since(const MetricsSnapshot& base) const;

    [[nodiscard]] text::Json to_json(NameStyle style = NameStyle::kDotted) const;
    /// Aligned human-readable table (one instrument per line).
    [[nodiscard]] std::string to_table() const;
    /// Prometheus text exposition format (version 0.0.4): counters and
    /// gauges as single samples, histograms as summaries with
    /// quantile="0.5/0.95/0.99" samples plus _sum and _count. Names are
    /// sanitized with sanitize_metric_name(); output order follows the
    /// snapshot's name sort, so the rendering is deterministic.
    [[nodiscard]] std::string to_prometheus() const;
};

/// Thread-safe instrument registry. Instruments live for the lifetime of the
/// registry; references returned by counter()/gauge()/histogram() are stable.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The process-wide registry used by the pipeline instrumentation.
    static MetricsRegistry& global();

    /// Default sliding-window geometry for windowed instruments: 12 buckets
    /// of 5 seconds = a one-minute window merged on read.
    static constexpr std::size_t kWindowBucketCount = 12;
    static constexpr std::chrono::seconds kWindowBucketWidth{5};

    /// Finds or creates the named instrument.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);
    /// Windowed instruments render into the snapshot twice: the lifetime
    /// aggregate under the instrument's own name (a counter / histogram) and
    /// the sliding-window merge under "<name>.window" (a gauge, since the
    /// windowed count can shrink / a histogram). Names must not collide with
    /// plain instruments — the daemon scopes its own under `daemon.`.
    WindowedCounter& windowed_counter(std::string_view name);
    WindowedHistogram& windowed_histogram(std::string_view name);

    /// The snapshot always ends with two synthetic gauges,
    /// `obs.registry.lock_waits` / `obs.registry.lock_wait_us`: how often
    /// (and for how long) instrument acquisition or snapshotting blocked on
    /// the registry mutex. Always present — even at zero — so the exported
    /// key set does not depend on scheduling.
    [[nodiscard]] MetricsSnapshot snapshot() const;
    /// Zeroes every instrument (registrations and references stay valid).
    void reset();

private:
    /// Locks mutex_, attributing any blocking wait to the lock-contention
    /// accumulators (try_lock first, so the uncontended path costs nothing).
    [[nodiscard]] std::unique_lock<std::mutex> acquire() const;

    mutable std::mutex mutex_;
    mutable std::atomic<std::uint64_t> lock_waits_{0};
    mutable std::atomic<std::uint64_t> lock_wait_ns_{0};
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
    std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
    std::vector<std::pair<std::string, std::unique_ptr<WindowedCounter>>>
        windowed_counters_;
    std::vector<std::pair<std::string, std::unique_ptr<WindowedHistogram>>>
        windowed_histograms_;
};

/// RAII per-run attribution window for counters and --profile method rows.
/// While a scope is active on a thread, obs::counter() and
/// obs::charge_method() on that thread resolve against the scope's own
/// registry and profile table, so a run's counters and rows are exactly the
/// work it did, whatever else the process runs at the same time. Pool tasks
/// of the run enter it with a Join. On close the scope adds its counters and
/// rows once into the enclosing scope on this thread, or into
/// MetricsRegistry::global() / Profiler::global() when there is none; gauges
/// and histograms are process state and always go to the global registry.
class RunScope {
public:
    RunScope();
    ~RunScope();
    RunScope(const RunScope&) = delete;
    RunScope& operator=(const RunScope&) = delete;

    /// This run's non-zero counters so far, sorted by name.
    [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;

    /// This run's profile table; the analyzer writes its site rows here.
    [[nodiscard]] Profiler& profile() { return profile_; }

    /// The registry obs::counter() resolves against on the calling thread.
    static MetricsRegistry& current();
    /// The table obs::charge_method() resolves against on the calling thread.
    static Profiler& current_profile();

    /// Attributes the current thread's counters to `scope` for the Join's
    /// lifetime (a pool task working for the run), then restores the
    /// thread's previous scope.
    class Join {
    public:
        explicit Join(RunScope& scope);
        ~Join();
        Join(const Join&) = delete;
        Join& operator=(const Join&) = delete;

    private:
        RunScope* prev_;
    };

private:
    MetricsRegistry registry_;
    Profiler profile_;
    RunScope* parent_;
};

// Shorthands used at instrumentation sites. Counters follow the innermost
// RunScope on the calling thread; gauges and histograms are always global.
inline Counter& counter(std::string_view name) {
    return RunScope::current().counter(name);
}
inline Gauge& gauge(std::string_view name) {
    return MetricsRegistry::global().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
    return MetricsRegistry::global().histogram(name);
}
/// Charges --profile work to one app method ("app|Cls.method", see
/// profile_method_key), resolved like counter(): the innermost RunScope on
/// the calling thread, else Profiler::global(). Callers check
/// Profiler::global().enabled() before collecting.
inline void charge_method(std::string_view method_key, std::uint64_t taint_steps,
                          std::uint64_t interp_stmts) {
    RunScope::current_profile().charge_method(method_key, taint_steps, interp_stmts);
}

}  // namespace extractocol::obs
