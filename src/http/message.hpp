// HTTP message and transaction models. An HTTP transaction — the unit the
// paper reconstructs — is a request (method, URI, headers, body) paired with
// its response (status, headers, body). Traces of concrete transactions are
// produced by the interpreter-based fuzzers and matched against signatures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.hpp"
#include "text/json.hpp"
#include "text/uri.hpp"

namespace extractocol::http {

enum class Method { kGet, kPost, kPut, kDelete, kHead, kPatch };

std::string_view method_name(Method method);
Result<Method> parse_method(std::string_view name);

/// Body payload classification used throughout the evaluation (Table 1
/// columns: query string / JSON / XML).
enum class BodyKind { kNone, kQueryString, kJson, kXml, kText, kBinary };

std::string_view body_kind_name(BodyKind kind);

struct Header {
    std::string name;
    std::string value;
    bool operator==(const Header&) const = default;
};

struct Request {
    Method method = Method::kGet;
    text::Uri uri;
    std::vector<Header> headers;
    BodyKind body_kind = BodyKind::kNone;
    std::string body;

    [[nodiscard]] const std::string* header(std::string_view name) const;
    [[nodiscard]] std::string start_line() const;
};

struct Response {
    int status = 200;
    std::vector<Header> headers;
    BodyKind body_kind = BodyKind::kNone;
    std::string body;

    [[nodiscard]] const std::string* header(std::string_view name) const;
};

/// One concrete transaction observed on the wire.
struct Transaction {
    Request request;
    Response response;
    /// Identifier of the event that triggered the request (fuzzer bookkeeping).
    std::string trigger;
};

/// A traffic trace: the transcript of one fuzzing session.
struct Trace {
    std::string app;
    std::vector<Transaction> transactions;

    /// Serializes to a JSON document (stable order).
    [[nodiscard]] text::Json to_json() const;
};

/// Guesses the body kind from content: JSON object/array, XML element,
/// query-string shaped text, or plain text.
BodyKind classify_body(std::string_view body);

}  // namespace extractocol::http
