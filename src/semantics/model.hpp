// The API semantic model (§3.2): machine-readable knowledge about the
// Android/Java APIs that protocol-processing code uses. One registry serves
// four consumers:
//
//  * the slicer — demarcation points (HTTP execute calls) and their
//    request/response operand roles (§3.1);
//  * the taint engine — per-API taint transfer rules (which operands flow
//    where), plus implicit-callback resolution for thread libraries (§3.4);
//  * the signature builder — a SigAction per API describing its effect in
//    the signature intermediate language (append, JSON put, encode ...);
//  * behavior characterization — consumption sinks (media player, DB, file)
//    and origin sources (microphone, camera, location) (§2).
//
// The model is extensible at runtime (paper: "an easy plugin for adding new
// API semantics"): register() adds entries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xir/callgraph.hpp"
#include "xir/ir.hpp"

namespace extractocol::semantics {

// ------------------------------------------------------------------ roles --

/// Position of a value in a call: receiver, return value, or i-th argument.
struct Role {
    enum class Pos { kBase, kReturn, kArg };
    Pos pos = Pos::kReturn;
    int arg_index = 0;

    static Role base() { return {Pos::kBase, 0}; }
    static Role ret() { return {Pos::kReturn, 0}; }
    static Role arg(int i) { return {Pos::kArg, i}; }
    bool operator==(const Role&) const = default;
};

/// Taint transfer: if `from` is tainted before the call, `to` is tainted
/// after it (forward direction; the backward engine inverts these).
struct FlowRule {
    Role from;
    Role to;
};

// ------------------------------------------------------------ sig actions --

/// Effect of an API call in the signature intermediate language. The
/// signature builder (src/sig) interprets these; the interpreter implements
/// the concrete counterparts.
enum class SigAction {
    kNone,
    // strings
    kStringBuilderInit,   // new StringBuilder([str])
    kAppend,              // sb.append(x) -> sb (returns base)
    kToString,            // sb.toString() / obj.toString()
    kStringConcat,        // String.concat / +
    kStringValueOf,       // String.valueOf(x)
    kStringTrim,          // identity-ish transforms (trim, toLowerCase...)
    kStringFormat,        // String.format(fmt, args...)
    kUrlEncode,           // URLEncoder.encode(s, cs)
    kStringToUnknown,     // substring/replace/split... -> unknown derived
    // JSON build / parse
    kJsonNewObject,       // new JSONObject() | new JSONObject(String)
    kJsonNewArray,        // new JSONArray()
    kJsonPut,             // obj.put(key, value)
    kJsonArrayPut,        // arr.put(value)
    kJsonGet,             // obj.get/getString/getInt/optString(key)
    kJsonGetObject,       // obj.getJSONObject(key)
    kJsonGetArray,        // obj.getJSONArray(key)
    kJsonArrayGet,        // arr.getJSONObject(i) / arr.get(i)
    kJsonArrayLength,
    kJsonToString,        // obj.toString()
    kGsonFromJson,        // gson.fromJson(str, cls) -> reflected POJO
    kGsonToJson,          // gson.toJson(pojo) -> string
    // XML
    kXmlParse,            // parser.parse(stream) -> document
    kXmlGetElement,       // element.getElementsByTagName / getChild
    kXmlGetAttribute,
    kXmlGetText,
    // HTTP objects
    kHttpRequestInit,     // new HttpGet(uri) etc. (method in metadata)
    kHttpSetEntity,       // request.setEntity(entity)
    kHttpSetHeader,       // request.setHeader(name, value)
    kStringEntityInit,    // new StringEntity(body)
    kFormEntityInit,      // new UrlEncodedFormEntity(list)
    kNameValuePairInit,   // new BasicNameValuePair(key, value)
    kGetEntity,           // response.getEntity()
    kGetContent,          // entity.getContent() -> stream
    kEntityToString,      // EntityUtils.toString(entity)
    kReadLine,            // reader.readLine()
    kUrlInit,             // new URL(string)
    kOpenConnection,      // url.openConnection()
    kSetRequestMethod,    // conn.setRequestMethod("POST")
    kGetOutputStream,     // conn.getOutputStream()
    kStreamWrite,         // out.write(bytes/string)
    kOkRequestBuilderInit,
    kOkUrl,               // builder.url(str)
    kOkMethod,            // builder.get()/post(body)
    kOkHeader,            // builder.header(k, v)
    kOkBuild,             // builder.build() -> Request
    kOkNewCall,           // client.newCall(request) -> Call
    kOkBodyString,        // response.body().string()
    kVolleyRequestInit,   // new StringRequest(method, url, listener, err)
    kVolleyAdd,           // queue.add(request)
    // containers
    kListInit,
    kListAdd,
    kListGet,
    kMapInit,
    kMapPut,
    kMapGet,
    // android platform
    kResourceGetString,   // resources.getString(id) -> constant from table
    kDbInsert,            // db.insert(table, null, contentValues)
    kDbUpdate,            // db.update(table, values, ...)
    kDbQuery,             // db.query(table, ...) -> cursor
    kCursorGetString,     // cursor.getString(columnIndexOrName)
    kContentValuesInit,
    kContentValuesPut,    // values.put(column, v)
    kPrefsGetString,      // SharedPreferences.getString(key, def)
    kPrefsPutString,      // editor.putString(key, v)
    kIntentPutExtra,      // intent.putExtra — unsupported flow (limitation)
    kMediaSetDataSource,  // mediaPlayer.setDataSource(uri) — consumer
    kImageLoad,           // imageView-ish load(uri) — consumer
    kFileWrite,           // fileOutput.write — consumer
    kMicRead,             // AudioRecord.read — origin source
    kCameraRead,          // camera frame — origin source
    kLocationGet,         // location.getLatitude()... — origin source
    kUserInput,           // editText.getText() — origin source
    kThreadExecute,       // AsyncTask.execute(args...) — implicit call flow
    kSocketInit,          // new Socket(host, port) — §4 extension: raw text
                          // protocols over sockets, parsed as HTTP when the
                          // written stream is HTTP-shaped
};

/// What the value feeding this API ends up driving (for "how network data is
/// consumed" characterization, §2/Table 4) .
enum class ConsumerKind { kNone, kMediaPlayer, kImageView, kFile, kDatabase, kUi };

/// Where a value originates (for "where network-bound data comes from").
enum class SourceKind { kNone, kMicrophone, kCamera, kLocation, kUserInput, kPrefs, kResource };

struct ApiModel {
    std::string cls;
    std::string method;
    std::vector<FlowRule> flows;
    SigAction action = SigAction::kNone;
    ConsumerKind consumer = ConsumerKind::kNone;
    SourceKind source = SourceKind::kNone;
    /// For kHttpRequestInit: the HTTP method this constructor implies.
    std::string http_method;
};

// ------------------------------------------------------------ demarcation --

/// Response delivered asynchronously into a callback: the listener object is
/// `arg_index`-th argument; its class's `method` receives the response as
/// parameter `param_index` (0-based among declared params, after `this`).
struct CallbackRoute {
    int arg_index = 0;
    std::string method;
    int param_index = 0;
};

/// An HTTP "execute" API: the boundary between request-construction code and
/// response-processing code (§3.1).
struct DemarcationSpec {
    std::string cls;
    std::string method;
    std::optional<Role> request;               // where the request object sits
    std::optional<Role> response;              // synchronous response position
    std::optional<CallbackRoute> response_callback;  // async delivery
    std::string library;                       // provenance label
};

// -------------------------------------------------------------- registry --

class SemanticModel {
public:
    /// Builds the default model: org.apache.http, java.net, okhttp3, volley,
    /// retrofit, org.json, gson, XML, containers, strings, android platform.
    static SemanticModel standard();

    void register_api(ApiModel model);
    void register_demarcation(DemarcationSpec spec);

    [[nodiscard]] const ApiModel* api(std::string_view cls, std::string_view method) const;
    /// All modeled classes / the models for one class (used by the
    /// de-obfuscation matcher).
    [[nodiscard]] std::vector<std::string> modeled_classes() const;
    [[nodiscard]] std::vector<const ApiModel*> apis_for_class(std::string_view cls) const;
    [[nodiscard]] const DemarcationSpec* demarcation(std::string_view cls,
                                                     std::string_view method) const;

    /// True if the model knows this API at all — as a semantic entry OR as a
    /// demarcation point (DP "execute" calls live in a separate table, so an
    /// unmodeled-API audit that only checked api() would flag every DP).
    [[nodiscard]] bool is_modeled(std::string_view cls, std::string_view method) const {
        return api(cls, method) != nullptr || demarcation(cls, method) != nullptr;
    }
    [[nodiscard]] const std::vector<DemarcationSpec>& demarcations() const {
        return demarcations_;
    }

    /// Number of registered demarcation points (the paper quotes "39
    /// demarcation points from 16 classes").
    [[nodiscard]] std::size_t demarcation_count() const { return demarcations_.size(); }

    /// CallbackResolver for the call-graph builder: connects AsyncTask-style
    /// execute() calls and volley/retrofit listeners to app callback methods.
    [[nodiscard]] xir::CallbackResolver callback_resolver() const;

    /// True if `cls` belongs to the modeled library namespace (used by the
    /// obfuscation detector: library names absent from the model suggest an
    /// obfuscated bundled library).
    [[nodiscard]] bool is_known_library_class(std::string_view cls) const;

private:
    // Keyed by the stable FNV-1a hash of "Cls.method" so lookups on the hot
    // analysis paths never build a concatenated string. Entries carry their
    // own cls/method, which lookups re-verify; the (never yet observed)
    // 64-bit collision case falls back to the overflow lists.
    std::unordered_map<std::uint64_t, ApiModel> apis_;
    std::unordered_map<std::uint64_t, DemarcationSpec> dps_;
    std::vector<ApiModel> api_overflow_;
    std::vector<DemarcationSpec> dp_overflow_;
    std::vector<DemarcationSpec> demarcations_;
};

}  // namespace extractocol::semantics
