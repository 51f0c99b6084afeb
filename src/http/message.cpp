#include "http/message.hpp"

#include "support/strings.hpp"
#include "text/xml.hpp"

namespace extractocol::http {

std::string_view method_name(Method method) {
    switch (method) {
        case Method::kGet: return "GET";
        case Method::kPost: return "POST";
        case Method::kPut: return "PUT";
        case Method::kDelete: return "DELETE";
        case Method::kHead: return "HEAD";
        case Method::kPatch: return "PATCH";
    }
    return "GET";
}

Result<Method> parse_method(std::string_view name) {
    if (name == "GET") return Method::kGet;
    if (name == "POST") return Method::kPost;
    if (name == "PUT") return Method::kPut;
    if (name == "DELETE") return Method::kDelete;
    if (name == "HEAD") return Method::kHead;
    if (name == "PATCH") return Method::kPatch;
    return Error("unknown http method: " + std::string(name));
}

std::string_view body_kind_name(BodyKind kind) {
    switch (kind) {
        case BodyKind::kNone: return "none";
        case BodyKind::kQueryString: return "query";
        case BodyKind::kJson: return "json";
        case BodyKind::kXml: return "xml";
        case BodyKind::kText: return "text";
        case BodyKind::kBinary: return "binary";
    }
    return "none";
}

namespace {
const std::string* find_header(const std::vector<Header>& headers, std::string_view name) {
    for (const auto& h : headers) {
        if (strings::to_lower(h.name) == strings::to_lower(name)) return &h.value;
    }
    return nullptr;
}

text::Json headers_to_json(const std::vector<Header>& headers) {
    text::Json obj = text::Json::object();
    for (const auto& h : headers) obj.set(h.name, text::Json(h.value));
    return obj;
}
}  // namespace

const std::string* Request::header(std::string_view name) const {
    return find_header(headers, name);
}

const std::string* Response::header(std::string_view name) const {
    return find_header(headers, name);
}

std::string Request::start_line() const {
    return std::string(method_name(method)) + " " + uri.to_string();
}

BodyKind classify_body(std::string_view body) {
    auto trimmed = strings::trim(body);
    if (trimmed.empty()) return BodyKind::kNone;
    if (trimmed.front() == '{' || trimmed.front() == '[') {
        if (text::parse_json(trimmed).ok()) return BodyKind::kJson;
    }
    if (trimmed.front() == '<') {
        if (text::parse_xml(trimmed).ok()) return BodyKind::kXml;
    }
    // Query-string shape: k=v(&k=v)* with no spaces.
    bool query_shaped = strings::contains(trimmed, "=") &&
                        trimmed.find(' ') == std::string_view::npos;
    if (query_shaped) return BodyKind::kQueryString;
    for (unsigned char c : trimmed) {
        if (c < 0x09) return BodyKind::kBinary;
    }
    return BodyKind::kText;
}

text::Json Trace::to_json() const {
    text::Json doc = text::Json::object();
    doc.set("app", text::Json(app));
    text::Json txns = text::Json::array();
    for (const auto& t : transactions) {
        text::Json obj = text::Json::object();
        obj.set("method", text::Json(std::string(method_name(t.request.method))));
        obj.set("uri", text::Json(t.request.uri.to_string()));
        obj.set("request_headers", headers_to_json(t.request.headers));
        obj.set("request_body_kind",
                text::Json(std::string(body_kind_name(t.request.body_kind))));
        obj.set("request_body", text::Json(t.request.body));
        obj.set("status", text::Json(static_cast<std::int64_t>(t.response.status)));
        obj.set("response_headers", headers_to_json(t.response.headers));
        obj.set("response_body_kind",
                text::Json(std::string(body_kind_name(t.response.body_kind))));
        obj.set("response_body", text::Json(t.response.body));
        obj.set("trigger", text::Json(t.trigger));
        txns.push_back(std::move(obj));
    }
    doc.set("transactions", std::move(txns));
    return doc;
}

}  // namespace extractocol::http
