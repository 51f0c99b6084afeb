// Lossless AnalysisReport <-> JSON codec for the persistent cache.
//
// The public AnalysisReport::to_json() is a *rendering*: it flattens
// signature trees into regexes/schemas and drops fields the report can not
// be rebuilt from. A cache hit must serve the cold run's content
// byte-identically — to_text, to_json, audit, --explain, eval scoring — so
// this codec round-trips every content field: full Sig trees (kind, value
// type, provenance, members, repetition), transaction signatures,
// dependency edges, the deterministic stats (counter deltas included), and
// the per-DP-site audit. The measured fields of AnalysisStats
// (analysis_seconds, phases, peak_bytes) describe one run, not the report:
// no rendering shows them and they are never encoded. They decode as zero,
// and whoever serves the report measures its own run.
//
// Decoding is strict: unknown enum values, missing fields, type mismatches,
// and out-of-range dependency indices all fail with an error (the cache
// layer treats any decode failure as a corrupt entry and falls back to cold
// analysis). Field names are short — entries are written once per app and
// parsed on every hit.
#pragma once

#include "core/analyzer.hpp"
#include "support/result.hpp"
#include "text/json.hpp"

namespace extractocol::cache {

/// Encodes a report with full fidelity (see file comment).
[[nodiscard]] text::Json report_to_json(const core::AnalysisReport& report);

/// Strictly decodes a report_to_json document.
[[nodiscard]] Result<core::AnalysisReport> report_from_json(const text::Json& doc);

}  // namespace extractocol::cache
