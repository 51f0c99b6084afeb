// The evaluation corpus: 14 open-source and 20 closed-source app stand-ins
// mirroring Table 1's subjects. Each app is generated from an AppSpec that
// encodes the subject's protocol surface (endpoint counts per HTTP method,
// payload kinds, trigger events, library choice, token/DB dependencies,
// intent-routed and multi-hop-async messages). See DESIGN.md §2 for the
// substitution argument.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "corpus/spec.hpp"

namespace extractocol::corpus {

/// Names of the 14 open-source subjects (F-Droid apps in the paper).
const std::vector<std::string>& open_source_apps();

/// Names of the 20 closed-source subjects (Google-Play apps in the paper).
const std::vector<std::string>& closed_source_apps();

/// Builds one app by name; aborts on unknown names (programming error).
CorpusApp build_app(const std::string& name);

/// Spec lookup (without generating the program).
AppSpec app_spec(const std::string& name);

/// File-name slug of an app name ("radio reddit" -> "radio_reddit"):
/// lowercase alphanumerics, runs of anything else collapsed to '_'. The
/// naming convention of make_corpus's .xapk artifacts.
std::string app_slug(const std::string& name);

/// Resolves a corpus app from its exact name or its slug (e.g. the stem of
/// a make_corpus .xapk file); nullopt when no corpus app matches.
std::optional<std::string> resolve_app_name(const std::string& label);

}  // namespace extractocol::corpus
