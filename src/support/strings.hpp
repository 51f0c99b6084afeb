// Small string utilities shared by every module. All functions are pure and
// allocate only when they must return owned data.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace extractocol::strings {

/// Splits `s` on the single character `sep`. Adjacent separators yield empty
/// fields; an empty input yields one empty field (like Python's split with
/// an explicit separator).
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on `sep`, dropping empty fields.
std::vector<std::string> split_nonempty(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from, std::string_view to);

/// True if every character is an ASCII decimal digit (and s is non-empty).
bool is_all_digits(std::string_view s);

/// Percent-encodes characters outside [A-Za-z0-9_.~-] (RFC 3986 unreserved).
std::string percent_encode(std::string_view s);

/// Decodes %XX sequences; invalid sequences are passed through verbatim.
std::string percent_decode(std::string_view s);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view s);

}  // namespace extractocol::strings
