// URI parsing/printing for HTTP(S) URLs: scheme, host, port, path segments,
// query string key-value pairs, fragment. Transactions in the paper are
// keyed by URI signatures, and query strings carry the key-value structure
// that the Rk/Rv byte accounting (Table 2) measures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.hpp"

namespace extractocol::text {

struct QueryParam {
    std::string key;
    std::string value;
    bool operator==(const QueryParam&) const = default;
};

struct Uri {
    std::string scheme;             // "http" / "https"
    std::string host;
    std::optional<std::uint16_t> port;
    std::string path;               // always begins with '/' when non-empty
    std::vector<QueryParam> query;  // decoded, insertion order
    std::string fragment;

    [[nodiscard]] const std::string* query_value(std::string_view key) const;

    /// Re-serializes. Query values are percent-encoded.
    [[nodiscard]] std::string to_string() const;

    /// "scheme://host[:port]" part only.
    [[nodiscard]] std::string origin() const;

    bool operator==(const Uri&) const = default;
};

/// Parses an absolute http(s) URI.
Result<Uri> parse_uri(std::string_view input);

/// Parses just a query string ("a=1&b=2", no leading '?').
std::vector<QueryParam> parse_query(std::string_view query);

/// Serializes query params with percent-encoding.
std::string format_query(const std::vector<QueryParam>& params);

}  // namespace extractocol::text
