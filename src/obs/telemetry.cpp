#include "obs/telemetry.hpp"

#include <algorithm>

namespace extractocol::obs {

text::Json RequestRecord::to_json() const {
    text::Json obj = text::Json::object();
    obj.set("request", text::Json(static_cast<std::int64_t>(request_id)));
    obj.set("connection", text::Json(static_cast<std::int64_t>(connection_id)));
    obj.set("op", text::Json(op));
    if (!file.empty()) obj.set("file", text::Json(file));
    if (!key.empty()) obj.set("key", text::Json(key));
    obj.set("cached", text::Json(cached));
    obj.set("outcome", text::Json(outcome));
    if (!error.empty()) obj.set("error", text::Json(error));
    obj.set("wall_seconds", text::Json(wall_seconds));
    if (!phase_seconds.empty()) {
        text::Json phases = text::Json::array();
        for (const auto& [name, seconds] : phase_seconds) {
            text::Json p = text::Json::object();
            p.set("name", text::Json(name));
            p.set("seconds", text::Json(seconds));
            phases.push_back(std::move(p));
        }
        obj.set("phases", std::move(phases));
    }
    obj.set("response_bytes", text::Json(static_cast<std::int64_t>(response_bytes)));
    if (peak_bytes > 0) {
        obj.set("peak_bytes", text::Json(static_cast<std::int64_t>(peak_bytes)));
    }
    return obj;
}

RequestTelemetry::RequestTelemetry()
    : latency_ms_(&MetricsRegistry::global().windowed_histogram("daemon.request_ms")),
      requests_(&MetricsRegistry::global().windowed_counter("daemon.requests")),
      request_errors_(&MetricsRegistry::global().windowed_counter("daemon.request_errors")),
      cache_hits_(&MetricsRegistry::global().windowed_counter("daemon.cache.hits")),
      cache_misses_(&MetricsRegistry::global().windowed_counter("daemon.cache.misses")) {}

std::uint64_t RequestTelemetry::next_request_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void RequestTelemetry::record(const RequestRecord& record) {
    served_.fetch_add(1, std::memory_order_relaxed);
    if (record.outcome == "error") {
        errors_.fetch_add(1, std::memory_order_relaxed);
        request_errors_->add(1);
    }
    requests_->add(1);
    latency_ms_->observe(record.wall_seconds * 1000.0);
    // Only analysis ops travel through the cache; admin ops carry
    // cached=false and must not dilute the hit rate.
    if (record.op == "file" || record.op == "xapk") {
        if (record.cached) {
            cache_hits_->add(1);
        } else {
            cache_misses_->add(1);
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(ops_.begin(), ops_.end(),
                           [&](const auto& p) { return p.first == record.op; });
    if (it == ops_.end()) {
        ops_.emplace_back(record.op, 1);
        std::sort(ops_.begin(), ops_.end());
    } else {
        it->second += 1;
    }
}

std::uint64_t RequestTelemetry::served() const {
    return served_.load(std::memory_order_relaxed);
}

std::uint64_t RequestTelemetry::errors() const {
    return errors_.load(std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>> RequestTelemetry::op_tally() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ops_;
}

HistogramStats RequestTelemetry::latency_lifetime_ms() const {
    return latency_ms_->lifetime_stats();
}

HistogramStats RequestTelemetry::latency_window_ms() const {
    return latency_ms_->window_stats();
}

std::uint64_t RequestTelemetry::window_cache_hits() const {
    return cache_hits_->in_window();
}

std::uint64_t RequestTelemetry::window_cache_misses() const {
    return cache_misses_->in_window();
}

double RequestTelemetry::window_seconds() const {
    return latency_ms_->window_seconds();
}

void RunTelemetry::set_jobs(unsigned jobs) {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_ = jobs;
}

void RunTelemetry::set_timestamp_unix_ms(std::uint64_t ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    timestamp_unix_ms_ = ms;
}

void RunTelemetry::set_run_wall_seconds(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    run_wall_seconds_ = seconds;
}

void RunTelemetry::set_metrics(MetricsSnapshot snapshot) {
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_ = std::move(snapshot);
}

void RunTelemetry::set_profile(const Profiler& profiler) {
    ProfileRows rows{profiler.summary_json(), profiler.sites(), profiler.methods()};
    std::lock_guard<std::mutex> lock(mutex_);
    profile_ = std::move(rows);
}

void RunTelemetry::set_fleet_accuracy(text::Json accuracy) {
    std::lock_guard<std::mutex> lock(mutex_);
    fleet_accuracy_ = std::move(accuracy);
}

void RunTelemetry::set_cache(text::Json cache) {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_ = std::move(cache);
}

void RunTelemetry::add(AppRunRecord record) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

FleetStats RunTelemetry::fleet() const {
    std::lock_guard<std::mutex> lock(mutex_);
    FleetStats out;
    out.apps = records_.size();
    out.wall_seconds = run_wall_seconds_;
    if (run_wall_seconds_ > 0) {
        out.apps_per_second = static_cast<double>(records_.size()) / run_wall_seconds_;
    }
    for (const AppRunRecord& r : records_) {
        if (r.outcome == "error") out.errors += 1;
        auto it = std::find_if(out.outcomes.begin(), out.outcomes.end(),
                               [&](const auto& p) { return p.first == r.outcome; });
        if (it == out.outcomes.end()) {
            out.outcomes.emplace_back(r.outcome, 1);
        } else {
            it->second += 1;
        }
        // Re-derive the latency distribution from the records rather than
        // keeping a live Histogram: fleet() stays consistent with whatever
        // subset of records has been added so far.
        double ms = r.wall_seconds * 1000.0;
        HistogramStats& h = out.latency_ms;
        if (h.count == 0) {
            h.min = ms;
            h.max = ms;
        } else {
            h.min = std::min(h.min, ms);
            h.max = std::max(h.max, ms);
        }
        h.count += 1;
        h.sum += ms;
        h.buckets[HistogramStats::bucket_index(ms)] += 1;
    }
    std::sort(out.outcomes.begin(), out.outcomes.end());
    return out;
}

text::Json RunTelemetry::manifest_json(bool normalize_resources) const {
    FleetStats fs = fleet();

    std::vector<AppRunRecord> records;
    std::optional<MetricsSnapshot> metrics;
    std::optional<ProfileRows> profile;
    std::optional<text::Json> fleet_accuracy;
    std::optional<text::Json> cache;
    unsigned jobs = 1;
    std::uint64_t timestamp = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        records = records_;
        metrics = metrics_;
        profile = profile_;
        fleet_accuracy = fleet_accuracy_;
        cache = cache_;
        jobs = jobs_;
        timestamp = timestamp_unix_ms_;
    }

    if (normalize_resources) {
        timestamp = 0;
        jobs = 0;
        fs.wall_seconds = 0;
        fs.apps_per_second = 0;
        // Keep latency count (it equals the deterministic app count); zero
        // the measured values so percentiles render as 0.
        HistogramStats latency{};
        latency.count = fs.latency_ms.count;
        fs.latency_ms = latency;
        for (AppRunRecord& r : records) {
            r.wall_seconds = 0;
            for (auto& [name, seconds] : r.phase_seconds) seconds = 0;
            r.peak_bytes = 0;
        }
        if (profile) {
            for (SiteProfile& s : profile->sites) s.slice_seconds = s.sig_seconds = 0;
        }
        if (metrics) {
            // The registry is process-global: histogram counts and gauge
            // values accumulate across runs in the same process, so a
            // byte-comparable rendering must zero them entirely. Counters
            // survive because callers attach delta_since() snapshots, which
            // are deterministic per run at any --jobs value.
            for (auto& [name, value] : metrics->gauges) value = 0;
            for (auto& [name, stats] : metrics->histograms) stats = HistogramStats{};
        }
    }

    text::Json apps = text::Json::array();
    for (const AppRunRecord& r : records) {
        text::Json obj = text::Json::object();
        obj.set("file", text::Json(r.file));
        obj.set("outcome", text::Json(r.outcome));
        if (!r.error.empty()) obj.set("error", text::Json(r.error));
        obj.set("wall_seconds", text::Json(r.wall_seconds));
        text::Json phases = text::Json::array();
        for (const auto& [name, seconds] : r.phase_seconds) {
            text::Json p = text::Json::object();
            p.set("name", text::Json(name));
            p.set("seconds", text::Json(seconds));
            phases.push_back(std::move(p));
        }
        obj.set("phases", std::move(phases));
        obj.set("steps_used", text::Json(static_cast<std::int64_t>(r.steps_used)));
        obj.set("budget_fraction", text::Json(r.budget_fraction));
        obj.set("peak_bytes", text::Json(static_cast<std::int64_t>(r.peak_bytes)));
        obj.set("transactions", text::Json(static_cast<std::int64_t>(r.transactions)));
        obj.set("dependencies", text::Json(static_cast<std::int64_t>(r.dependencies)));
        // Accuracy blocks are deterministic scores, exempt from
        // normalization by the same argument as steps_used.
        if (r.accuracy) obj.set("accuracy", *r.accuracy);
        apps.push_back(std::move(obj));
    }

    text::Json outcomes = text::Json::object();
    for (const auto& [name, count] : fs.outcomes) {
        outcomes.set(name, text::Json(static_cast<std::int64_t>(count)));
    }
    text::Json fleet_obj = text::Json::object();
    fleet_obj.set("apps", text::Json(static_cast<std::int64_t>(fs.apps)));
    fleet_obj.set("errors", text::Json(static_cast<std::int64_t>(fs.errors)));
    fleet_obj.set("outcomes", std::move(outcomes));
    fleet_obj.set("wall_seconds", text::Json(fs.wall_seconds));
    fleet_obj.set("apps_per_second", text::Json(fs.apps_per_second));
    fleet_obj.set("latency_ms", histogram_stats_json(fs.latency_ms));
    if (fleet_accuracy) fleet_obj.set("accuracy", *fleet_accuracy);

    text::Json doc = text::Json::object();
    // v2: per-app and fleet "accuracy" blocks (optional, --eval runs only).
    // v1 consumers that only read the fields they know keep working.
    doc.set("schema", text::Json("extractocol.run_manifest/v2"));
    doc.set("generated_unix_ms", text::Json(static_cast<std::int64_t>(timestamp)));
    doc.set("jobs", text::Json(static_cast<std::int64_t>(jobs)));
    doc.set("fleet", std::move(fleet_obj));
    doc.set("apps", std::move(apps));
    if (profile) {
        text::Json site_rows = text::Json::array();
        for (const SiteProfile& s : profile->sites) {
            text::Json row = text::Json::object();
            row.set("site", text::Json(s.site));
            row.set("taint_steps", text::Json(static_cast<std::int64_t>(s.taint_steps)));
            row.set("sig_steps", text::Json(static_cast<std::int64_t>(s.sig_steps)));
            row.set("contexts", text::Json(static_cast<std::int64_t>(s.contexts)));
            row.set("slice_seconds", text::Json(s.slice_seconds));
            row.set("sig_seconds", text::Json(s.sig_seconds));
            site_rows.push_back(std::move(row));
        }
        text::Json method_rows = text::Json::array();
        for (const MethodProfile& m : profile->methods) {
            text::Json row = text::Json::object();
            row.set("method", text::Json(m.method));
            row.set("taint_steps", text::Json(static_cast<std::int64_t>(m.taint_steps)));
            row.set("interp_stmts", text::Json(static_cast<std::int64_t>(m.interp_stmts)));
            method_rows.push_back(std::move(row));
        }
        text::Json profile_doc = text::Json::object();
        profile_doc.set("totals", std::move(profile->totals));
        profile_doc.set("sites", std::move(site_rows));
        profile_doc.set("methods", std::move(method_rows));
        doc.set("profile", std::move(profile_doc));
    }
    // The cache block is the run's slice of the cache index: which lookups
    // hit, missed, corrupted, or evicted this run.
    if (cache) doc.set("cache", *cache);
    if (metrics) doc.set("metrics", metrics->to_json(NameStyle::kPrometheus));
    return doc;
}

}  // namespace extractocol::obs
