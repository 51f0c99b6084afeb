#include "text/uri.hpp"

#include <charconv>

#include "support/strings.hpp"

namespace extractocol::text {

const std::string* Uri::query_value(std::string_view key) const {
    for (const auto& p : query) {
        if (p.key == key) return &p.value;
    }
    return nullptr;
}

std::string Uri::origin() const {
    std::string out = scheme + "://" + host;
    if (port) out += ":" + std::to_string(*port);
    return out;
}

std::string Uri::to_string() const {
    std::string out = origin();
    out += path.empty() ? "/" : path;
    if (!query.empty()) {
        out += "?";
        out += format_query(query);
    }
    if (!fragment.empty()) {
        out += "#";
        out += fragment;
    }
    return out;
}

std::vector<QueryParam> parse_query(std::string_view query) {
    std::vector<QueryParam> out;
    if (query.empty()) return out;
    for (const auto& pair : strings::split(query, '&')) {
        if (pair.empty()) continue;
        auto eq = pair.find('=');
        if (eq == std::string::npos) {
            out.push_back({strings::percent_decode(pair), ""});
        } else {
            out.push_back({strings::percent_decode(pair.substr(0, eq)),
                           strings::percent_decode(pair.substr(eq + 1))});
        }
    }
    return out;
}

std::string format_query(const std::vector<QueryParam>& params) {
    std::vector<std::string> parts;
    parts.reserve(params.size());
    for (const auto& p : params) {
        parts.push_back(strings::percent_encode(p.key) + "=" +
                        strings::percent_encode(p.value));
    }
    return strings::join(parts, "&");
}

Result<Uri> parse_uri(std::string_view input) {
    Uri uri;
    auto scheme_end = input.find("://");
    if (scheme_end == std::string_view::npos) {
        return Error("uri missing scheme: " + std::string(input));
    }
    uri.scheme = strings::to_lower(input.substr(0, scheme_end));
    if (uri.scheme != "http" && uri.scheme != "https") {
        return Error("unsupported scheme: " + uri.scheme);
    }
    std::string_view rest = input.substr(scheme_end + 3);

    auto authority_end = rest.find_first_of("/?#");
    std::string_view authority = rest.substr(0, authority_end);
    if (authority.empty()) return Error("uri missing host");

    // RFC 3986 authority = [userinfo "@"] host [":" port]. Drop credentials
    // before the host:port split: a userinfo like "user:pw" would otherwise
    // poison the port parse ("invalid port: pw@host") or leak into the host.
    auto at = authority.rfind('@');
    if (at != std::string_view::npos) {
        authority = authority.substr(at + 1);
        if (authority.empty()) return Error("uri missing host");
    }

    auto colon = authority.rfind(':');
    if (colon != std::string_view::npos) {
        std::string_view port_text = authority.substr(colon + 1);
        std::uint16_t port = 0;
        auto [ptr, ec] =
            std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
        if (ec != std::errc() || ptr != port_text.data() + port_text.size()) {
            return Error("invalid port: " + std::string(port_text));
        }
        uri.port = port;
        uri.host = strings::to_lower(authority.substr(0, colon));
    } else {
        uri.host = strings::to_lower(authority);
    }
    if (uri.host.empty()) return Error("uri missing host");

    if (authority_end == std::string_view::npos) {
        uri.path = "/";
        return uri;
    }
    rest = rest.substr(authority_end);

    auto fragment_pos = rest.find('#');
    if (fragment_pos != std::string_view::npos) {
        uri.fragment = std::string(rest.substr(fragment_pos + 1));
        rest = rest.substr(0, fragment_pos);
    }
    auto query_pos = rest.find('?');
    if (query_pos != std::string_view::npos) {
        uri.query = parse_query(rest.substr(query_pos + 1));
        rest = rest.substr(0, query_pos);
    }
    uri.path = rest.empty() ? "/" : std::string(rest);
    return uri;
}

}  // namespace extractocol::text
