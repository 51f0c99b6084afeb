// Append-only JSONL journal (observability layer, part 4 — see metrics.hpp,
// trace.hpp, telemetry.hpp).
//
// A long-lived daemon needs a durable per-request record that survives the
// process: the --serve access journal appends one compact JSON object per
// line, so `jq`/`grep` audits work without any tooling and a crashed daemon
// leaves every completed request on disk. Rotation is size-based: when the
// next record would push the file past `max_bytes`, the current file is
// renamed to `<path>.1` (replacing any previous rotation) and a fresh file
// is started — the journal on disk is therefore bounded by ~2x max_bytes.
//
// Journal files are resource measurements (timestamps, latencies, monotonic
// ids), so they are exempt from the byte-determinism contracts the report
// stream holds — like the timings of a run manifest. The record *skeleton* (op,
// outcome, cached flags, count) is deterministic per driven workload and is
// what tests compare.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "text/json.hpp"

namespace extractocol::obs {

struct JournalOptions {
    std::string path;
    /// Rotate when the file would exceed this size (0 = never rotate).
    std::uint64_t max_bytes = 64ull << 20;
};

/// Thread-safe append-only JSONL writer with size-based rotation. Opens in
/// append mode, so a restarted daemon continues the existing journal.
class Journal {
public:
    explicit Journal(JournalOptions options);

    /// Appends one record as a single compact JSON line (rotating first if
    /// the line would push the file past max_bytes). Returns false on I/O
    /// failure, which is logged once per failure and otherwise harmless —
    /// observability must never take the serving path down.
    bool append(const text::Json& record);

    [[nodiscard]] const std::string& path() const { return options_.path; }
    /// Path the previous journal generation is rotated to ("<path>.1").
    [[nodiscard]] std::string rotated_path() const { return options_.path + ".1"; }

private:
    void rotate_locked();

    JournalOptions options_;
    std::mutex mutex_;
    std::ofstream out_;
    /// Bytes written to the current generation (not counting rotated-out).
    std::uint64_t bytes_ = 0;
};

}  // namespace extractocol::obs
