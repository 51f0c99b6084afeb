#include "semantics/model.hpp"

#include <set>

#include "support/strings.hpp"

namespace extractocol::semantics {

namespace {

FlowRule flow(Role from, Role to) { return {from, to}; }

/// Receiver-chained mutator: args taint the base and base taints the return
/// (StringBuilder.append and friends, which return `this`).
std::vector<FlowRule> chained(int argc) {
    std::vector<FlowRule> rules;
    for (int i = 0; i < argc; ++i) rules.push_back(flow(Role::arg(i), Role::base()));
    rules.push_back(flow(Role::base(), Role::ret()));
    return rules;
}

/// Constructor-style: args taint the base.
std::vector<FlowRule> into_base(int argc) {
    std::vector<FlowRule> rules;
    for (int i = 0; i < argc; ++i) rules.push_back(flow(Role::arg(i), Role::base()));
    return rules;
}

/// Accessor: base taints the return.
std::vector<FlowRule> from_base() { return {flow(Role::base(), Role::ret())}; }

/// Static transform: args taint the return.
std::vector<FlowRule> args_to_ret(int argc) {
    std::vector<FlowRule> rules;
    for (int i = 0; i < argc; ++i) rules.push_back(flow(Role::arg(i), Role::ret()));
    return rules;
}

/// Stable key of "cls.method" — bytewise identical to fnv1a of the
/// concatenated string, computed without building it.
std::uint64_t qualified_key(std::string_view cls, std::string_view method) {
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::string_view s) {
        for (char c : s) {
            h ^= static_cast<std::uint8_t>(c);
            h *= 1099511628211ull;
        }
    };
    mix(cls);
    mix(".");
    mix(method);
    return h;
}

}  // namespace

void SemanticModel::register_api(ApiModel model) {
    std::uint64_t key = qualified_key(model.cls, model.method);
    auto it = apis_.find(key);
    if (it != apis_.end() &&
        (it->second.cls != model.cls || it->second.method != model.method)) {
        api_overflow_.push_back(std::move(model));
        return;
    }
    apis_[key] = std::move(model);
}

void SemanticModel::register_demarcation(DemarcationSpec spec) {
    std::uint64_t key = qualified_key(spec.cls, spec.method);
    auto it = dps_.find(key);
    if (it != dps_.end() &&
        (it->second.cls != spec.cls || it->second.method != spec.method)) {
        dp_overflow_.push_back(spec);
    } else {
        dps_[key] = spec;
    }
    demarcations_.push_back(std::move(spec));
}

const ApiModel* SemanticModel::api(std::string_view cls, std::string_view method) const {
    auto it = apis_.find(qualified_key(cls, method));
    if (it != apis_.end() && it->second.cls == cls && it->second.method == method) {
        return &it->second;
    }
    for (const auto& model : api_overflow_) {
        if (model.cls == cls && model.method == method) return &model;
    }
    return nullptr;
}

std::vector<std::string> SemanticModel::modeled_classes() const {
    std::set<std::string> names;
    for (const auto& [key, model] : apis_) names.insert(model.cls);
    return {names.begin(), names.end()};
}

std::vector<const ApiModel*> SemanticModel::apis_for_class(std::string_view cls) const {
    std::vector<const ApiModel*> out;
    for (const auto& [key, model] : apis_) {
        if (model.cls == cls) out.push_back(&model);
    }
    return out;
}

const DemarcationSpec* SemanticModel::demarcation(std::string_view cls,
                                                  std::string_view method) const {
    auto it = dps_.find(qualified_key(cls, method));
    if (it != dps_.end() && it->second.cls == cls && it->second.method == method) {
        return &it->second;
    }
    for (const auto& spec : dp_overflow_) {
        if (spec.cls == cls && spec.method == method) return &spec;
    }
    return nullptr;
}

bool SemanticModel::is_known_library_class(std::string_view cls) const {
    static const char* kPrefixes[] = {
        "java.",           "javax.",        "android.",       "org.apache.http",
        "org.json",        "org.w3c.dom",   "okhttp3.",       "com.android.volley",
        "retrofit2.",      "com.google.gson", "com.loopj.",   "com.squareup.picasso",
        "rx.",             "com.fasterxml.jackson",
    };
    for (const char* prefix : kPrefixes) {
        if (strings::starts_with(cls, prefix)) return true;
    }
    return false;
}

xir::CallbackResolver SemanticModel::callback_resolver() const {
    // Captures `this` by value semantics via copy of needed tables? The model
    // outlives analyses in this codebase; capture by pointer.
    const SemanticModel* model = this;
    return [model](const xir::Program& program, const xir::Method& caller,
                   const xir::Invoke& invoke) -> std::vector<xir::MethodRef> {
        std::vector<xir::MethodRef> targets;
        const std::string& method = invoke.callee.method_name;

        auto declared_type = [&](xir::LocalId local) -> std::string {
            if (local < caller.locals.size()) return caller.locals[local].type;
            return "";
        };
        auto arg_type = [&](std::size_t index) -> std::string {
            if (index < invoke.args.size() && invoke.args[index].is_local()) {
                return declared_type(invoke.args[index].local);
            }
            return "";
        };
        auto add_if_present = [&](const std::string& cls, const char* name) {
            if (cls.empty()) return;
            xir::MethodRef ref{cls, name};
            if (program.resolve_virtual(ref)) {
                targets.push_back(program.resolve_virtual(ref)->ref());
            }
        };

        // AsyncTask.execute(params...) -> doInBackground -> onPostExecute.
        // The receiver's *declared* type is the app subclass.
        if (method == "execute" && invoke.base) {
            std::string receiver = declared_type(*invoke.base);
            const xir::Class* cls = program.find_class(receiver);
            bool is_async_task = false;
            while (cls) {
                if (cls->super == "android.os.AsyncTask") is_async_task = true;
                cls = program.find_class(cls->super);
            }
            if (is_async_task || (program.find_class(receiver) &&
                                  program.find_class(receiver)->super ==
                                      "android.os.AsyncTask")) {
                add_if_present(receiver, "doInBackground");
                add_if_present(receiver, "onPostExecute");
            }
        }
        // Thread.start() / FutureTask.run -> run() on the declared type.
        if ((method == "start" || method == "run") && invoke.base) {
            std::string receiver = declared_type(*invoke.base);
            const xir::Class* cls = program.find_class(receiver);
            if (cls && (cls->super == "java.lang.Thread" ||
                        cls->super == "java.util.concurrent.FutureTask")) {
                add_if_present(receiver, "run");
            }
        }
        // Listener-style delivery registered in the DP table: connect the
        // callsite to the listener's callback method.
        if (const DemarcationSpec* dp =
                model->demarcation(invoke.callee.class_name, method)) {
            if (dp->response_callback) {
                std::string listener =
                    arg_type(static_cast<std::size_t>(dp->response_callback->arg_index));
                add_if_present(listener, dp->response_callback->method.c_str());
            }
        }
        // rx.Observable.subscribe(observer) -> observer.onNext.
        if (method == "subscribe" &&
            strings::starts_with(invoke.callee.class_name, "rx.")) {
            add_if_present(arg_type(0), "onNext");
        }
        return targets;
    };
}

SemanticModel SemanticModel::standard() {
    SemanticModel m;
    using R = Role;
    auto api = [&m](std::string cls, std::string method, std::vector<FlowRule> flows,
                    SigAction action) {
        ApiModel model;
        model.cls = std::move(cls);
        model.method = std::move(method);
        model.flows = std::move(flows);
        model.action = action;
        m.register_api(std::move(model));
    };

    // ---------------------------------------------------------- strings --
    api("java.lang.StringBuilder", "<init>", into_base(1), SigAction::kStringBuilderInit);
    api("java.lang.StringBuilder", "append", chained(1), SigAction::kAppend);
    api("java.lang.StringBuilder", "toString", from_base(), SigAction::kToString);
    api("java.lang.StringBuffer", "<init>", into_base(1), SigAction::kStringBuilderInit);
    api("java.lang.StringBuffer", "append", chained(1), SigAction::kAppend);
    api("java.lang.StringBuffer", "toString", from_base(), SigAction::kToString);
    api("java.lang.String", "concat",
        {flow(R::base(), R::ret()), flow(R::arg(0), R::ret())}, SigAction::kStringConcat);
    api("java.lang.String", "valueOf", args_to_ret(1), SigAction::kStringValueOf);
    api("java.lang.String", "trim", from_base(), SigAction::kStringTrim);
    api("java.lang.String", "toLowerCase", from_base(), SigAction::kStringTrim);
    api("java.lang.String", "toUpperCase", from_base(), SigAction::kStringTrim);
    api("java.lang.String", "toString", from_base(), SigAction::kToString);
    api("java.lang.String", "format", args_to_ret(6), SigAction::kStringFormat);
    api("java.lang.String", "substring", from_base(), SigAction::kStringToUnknown);
    api("java.lang.String", "replace", from_base(), SigAction::kStringToUnknown);
    api("java.lang.Integer", "toString", args_to_ret(1), SigAction::kStringValueOf);
    api("java.lang.Integer", "parseInt", args_to_ret(1), SigAction::kStringToUnknown);
    api("java.net.URLEncoder", "encode", args_to_ret(1), SigAction::kUrlEncode);

    // ------------------------------------------------------------- JSON --
    for (const char* cls : {"org.json.JSONObject"}) {
        api(cls, "<init>", into_base(1), SigAction::kJsonNewObject);
        api(cls, "put", chained(2), SigAction::kJsonPut);
        api(cls, "get", from_base(), SigAction::kJsonGet);
        api(cls, "getString", from_base(), SigAction::kJsonGet);
        api(cls, "getInt", from_base(), SigAction::kJsonGet);
        api(cls, "getBoolean", from_base(), SigAction::kJsonGet);
        api(cls, "optString", from_base(), SigAction::kJsonGet);
        api(cls, "getJSONObject", from_base(), SigAction::kJsonGetObject);
        api(cls, "getJSONArray", from_base(), SigAction::kJsonGetArray);
        api(cls, "toString", from_base(), SigAction::kJsonToString);
    }
    api("org.json.JSONArray", "<init>", into_base(1), SigAction::kJsonNewArray);
    api("org.json.JSONArray", "put", chained(1), SigAction::kJsonArrayPut);
    api("org.json.JSONArray", "get", from_base(), SigAction::kJsonArrayGet);
    api("org.json.JSONArray", "getString", from_base(), SigAction::kJsonArrayGet);
    api("org.json.JSONArray", "getJSONObject", from_base(), SigAction::kJsonArrayGet);
    api("org.json.JSONArray", "length", from_base(), SigAction::kJsonArrayLength);
    api("com.google.gson.Gson", "<init>", {}, SigAction::kNone);
    api("com.google.gson.Gson", "fromJson", args_to_ret(1), SigAction::kGsonFromJson);
    api("com.google.gson.Gson", "toJson", args_to_ret(1), SigAction::kGsonToJson);
    api("com.fasterxml.jackson.databind.ObjectMapper", "readValue", args_to_ret(1),
        SigAction::kGsonFromJson);
    api("com.fasterxml.jackson.databind.ObjectMapper", "writeValueAsString",
        args_to_ret(1), SigAction::kGsonToJson);

    // -------------------------------------------------------------- XML --
    api("javax.xml.parsers.DocumentBuilder", "parse", args_to_ret(1), SigAction::kXmlParse);
    api("org.w3c.dom.Document", "getElementsByTagName", from_base(),
        SigAction::kXmlGetElement);
    api("org.w3c.dom.Element", "getElementsByTagName", from_base(),
        SigAction::kXmlGetElement);
    api("org.w3c.dom.NodeList", "item", from_base(), SigAction::kListGet);
    api("org.w3c.dom.Element", "getAttribute", from_base(), SigAction::kXmlGetAttribute);
    api("org.w3c.dom.Element", "getTextContent", from_base(), SigAction::kXmlGetText);

    // -------------------------------------------------- org.apache.http --
    const char* kApacheRequests[][2] = {{"HttpGet", "GET"},
                                        {"HttpPost", "POST"},
                                        {"HttpPut", "PUT"},
                                        {"HttpDelete", "DELETE"}};
    for (const auto& [short_name, verb] : kApacheRequests) {
        std::string cls = std::string("org.apache.http.client.methods.") + short_name;
        ApiModel init;
        init.cls = cls;
        init.method = "<init>";
        init.flows = into_base(1);
        init.action = SigAction::kHttpRequestInit;
        init.http_method = verb;
        m.register_api(std::move(init));
        api(cls, "setEntity", into_base(1), SigAction::kHttpSetEntity);
        api(cls, "setHeader", into_base(2), SigAction::kHttpSetHeader);
        api(cls, "addHeader", into_base(2), SigAction::kHttpSetHeader);
    }
    api("org.apache.http.entity.StringEntity", "<init>", into_base(1),
        SigAction::kStringEntityInit);
    api("org.apache.http.client.entity.UrlEncodedFormEntity", "<init>", into_base(1),
        SigAction::kFormEntityInit);
    api("org.apache.http.message.BasicNameValuePair", "<init>", into_base(2),
        SigAction::kNameValuePairInit);
    api("org.apache.http.HttpResponse", "getEntity", from_base(), SigAction::kGetEntity);
    api("org.apache.http.HttpEntity", "getContent", from_base(), SigAction::kGetContent);
    api("org.apache.http.util.EntityUtils", "toString", args_to_ret(1),
        SigAction::kEntityToString);
    api("org.apache.http.StatusLine", "getStatusCode", from_base(), SigAction::kNone);
    api("org.apache.http.HttpResponse", "getStatusLine", from_base(), SigAction::kNone);

    // ------------------------------------------------------ java.net/io --
    api("java.net.URL", "<init>", into_base(1), SigAction::kUrlInit);
    api("java.net.URL", "openConnection", from_base(), SigAction::kOpenConnection);
    api("java.net.HttpURLConnection", "setRequestMethod", into_base(1),
        SigAction::kSetRequestMethod);
    api("java.net.HttpURLConnection", "setRequestProperty", into_base(2),
        SigAction::kHttpSetHeader);
    api("java.net.HttpURLConnection", "getOutputStream", from_base(),
        SigAction::kGetOutputStream);
    api("java.io.OutputStream", "write", into_base(1), SigAction::kStreamWrite);
    api("java.io.OutputStreamWriter", "write", into_base(1), SigAction::kStreamWrite);
    api("java.io.InputStreamReader", "<init>", into_base(1), SigAction::kNone);
    api("java.io.BufferedReader", "<init>", into_base(1), SigAction::kNone);
    api("java.io.BufferedReader", "readLine", from_base(), SigAction::kReadLine);

    // ----------------------------------------------------------- okhttp --
    api("okhttp3.Request$Builder", "<init>", {}, SigAction::kOkRequestBuilderInit);
    api("okhttp3.Request$Builder", "url", chained(1), SigAction::kOkUrl);
    api("okhttp3.Request$Builder", "header", chained(2), SigAction::kOkHeader);
    api("okhttp3.Request$Builder", "addHeader", chained(2), SigAction::kOkHeader);
    api("okhttp3.Request$Builder", "get", chained(0), SigAction::kOkMethod);
    api("okhttp3.Request$Builder", "post", chained(1), SigAction::kOkMethod);
    api("okhttp3.Request$Builder", "put", chained(1), SigAction::kOkMethod);
    api("okhttp3.Request$Builder", "delete", chained(0), SigAction::kOkMethod);
    api("okhttp3.Request$Builder", "build", from_base(), SigAction::kOkBuild);
    api("okhttp3.RequestBody", "create", args_to_ret(2), SigAction::kStringEntityInit);
    api("okhttp3.OkHttpClient", "newCall", args_to_ret(1), SigAction::kOkNewCall);
    api("okhttp3.Response", "body", from_base(), SigAction::kGetEntity);
    api("okhttp3.ResponseBody", "string", from_base(), SigAction::kOkBodyString);

    // ----------------------------------------------------------- volley --
    api("com.android.volley.toolbox.Volley", "newRequestQueue", {}, SigAction::kNone);
    api("com.android.volley.toolbox.StringRequest", "<init>",
        {flow(R::arg(1), R::base())}, SigAction::kVolleyRequestInit);
    api("com.android.volley.toolbox.JsonObjectRequest", "<init>",
        {flow(R::arg(1), R::base()), flow(R::arg(2), R::base())},
        SigAction::kVolleyRequestInit);
    api("com.android.volley.RequestQueue", "add", into_base(1), SigAction::kVolleyAdd);

    // ------------------------------------------------------- containers --
    for (const char* cls : {"java.util.ArrayList", "java.util.LinkedList", "java.util.List"}) {
        api(cls, "<init>", {}, SigAction::kListInit);
        api(cls, "add", into_base(1), SigAction::kListAdd);
        api(cls, "get", from_base(), SigAction::kListGet);
        api(cls, "size", from_base(), SigAction::kNone);
    }
    for (const char* cls : {"java.util.HashMap", "java.util.Map"}) {
        api(cls, "<init>", {}, SigAction::kMapInit);
        api(cls, "put", into_base(2), SigAction::kMapPut);
        api(cls, "get", from_base(), SigAction::kMapGet);
    }

    // -------------------------------------------------- android platform --
    {
        ApiModel res;
        res.cls = "android.content.res.Resources";
        res.method = "getString";
        res.action = SigAction::kResourceGetString;
        res.source = SourceKind::kResource;
        m.register_api(std::move(res));
    }
    api("android.database.sqlite.SQLiteDatabase", "insert", into_base(3),
        SigAction::kDbInsert);
    api("android.database.sqlite.SQLiteDatabase", "update", into_base(4),
        SigAction::kDbUpdate);
    api("android.database.sqlite.SQLiteDatabase", "query", from_base(), SigAction::kDbQuery);
    api("android.database.Cursor", "getString", from_base(), SigAction::kCursorGetString);
    api("android.database.Cursor", "moveToNext", from_base(), SigAction::kNone);
    api("android.content.ContentValues", "<init>", {}, SigAction::kContentValuesInit);
    api("android.content.ContentValues", "put", into_base(2), SigAction::kContentValuesPut);
    {
        ApiModel prefs;
        prefs.cls = "android.content.SharedPreferences";
        prefs.method = "getString";
        prefs.flows = from_base();
        prefs.action = SigAction::kPrefsGetString;
        prefs.source = SourceKind::kPrefs;
        m.register_api(std::move(prefs));
    }
    api("android.content.SharedPreferences$Editor", "putString", into_base(2),
        SigAction::kPrefsPutString);
    api("android.content.Intent", "putExtra", into_base(2), SigAction::kIntentPutExtra);
    {
        ApiModel media;
        media.cls = "android.media.MediaPlayer";
        media.method = "setDataSource";
        media.flows = into_base(1);
        media.action = SigAction::kMediaSetDataSource;
        media.consumer = ConsumerKind::kMediaPlayer;
        m.register_api(std::move(media));
    }
    {
        ApiModel mic;
        mic.cls = "android.media.AudioRecord";
        mic.method = "read";
        mic.flows = from_base();
        mic.action = SigAction::kMicRead;
        mic.source = SourceKind::kMicrophone;
        m.register_api(std::move(mic));
    }
    for (const char* getter : {"getLatitude", "getLongitude"}) {
        ApiModel loc;
        loc.cls = "android.location.Location";
        loc.method = getter;
        loc.flows = from_base();
        loc.action = SigAction::kLocationGet;
        loc.source = SourceKind::kLocation;
        m.register_api(std::move(loc));
    }
    {
        ApiModel input;
        input.cls = "android.widget.EditText";
        input.method = "getText";
        input.flows = from_base();
        input.action = SigAction::kUserInput;
        input.source = SourceKind::kUserInput;
        m.register_api(std::move(input));
    }

    // ------------------------------------------------ raw sockets (§4) --
    // The paper lists direct java.net.Socket use as unsupported but notes it
    // "can be handled by modeling socket APIs because Extractocol already
    // parses text-based protocols" — this is that extension.
    api("java.net.Socket", "<init>", into_base(2), SigAction::kSocketInit);
    api("java.net.Socket", "getOutputStream", from_base(), SigAction::kGetOutputStream);

    // ------------------------------------------------ demarcation points --
    auto dp_sync = [&m](std::string cls, std::string method, Role request, Role response,
                        std::string library) {
        DemarcationSpec spec;
        spec.cls = std::move(cls);
        spec.method = std::move(method);
        spec.request = request;
        spec.response = response;
        spec.library = std::move(library);
        m.register_demarcation(std::move(spec));
    };
    auto dp_async = [&m](std::string cls, std::string method, std::optional<Role> request,
                         CallbackRoute route, std::string library) {
        DemarcationSpec spec;
        spec.cls = std::move(cls);
        spec.method = std::move(method);
        spec.request = request;
        spec.response_callback = route;
        spec.library = std::move(library);
        m.register_demarcation(std::move(spec));
    };
    auto dp_request_only = [&m](std::string cls, std::string method, Role request,
                                std::string library) {
        DemarcationSpec spec;
        spec.cls = std::move(cls);
        spec.method = std::move(method);
        spec.request = request;
        spec.library = std::move(library);
        m.register_demarcation(std::move(spec));
    };

    // org.apache.http — execute on the interface and common impls.
    for (const char* cls :
         {"org.apache.http.client.HttpClient", "org.apache.http.impl.client.DefaultHttpClient",
          "android.net.http.AndroidHttpClient"}) {
        dp_sync(cls, "execute", Role::arg(0), Role::ret(), "org.apache.http");
    }
    // java.net.
    dp_sync("java.net.HttpURLConnection", "getInputStream", Role::base(), Role::ret(),
            "java.net");
    dp_sync("java.net.URL", "openStream", Role::base(), Role::ret(), "java.net");
    dp_sync("java.net.Socket", "getInputStream", Role::base(), Role::ret(),
            "java.net.socket");
    // okhttp3.
    dp_sync("okhttp3.Call", "execute", Role::base(), Role::ret(), "okhttp3");
    dp_async("okhttp3.Call", "enqueue", Role::base(), CallbackRoute{0, "onResponse", 1},
             "okhttp3");
    // volley: the request constructor carries both the URL (backward) and the
    // response listener (forward).
    dp_async("com.android.volley.toolbox.StringRequest", "<init>", Role::base(),
             CallbackRoute{2, "onResponse", 0}, "volley");
    dp_async("com.android.volley.toolbox.JsonObjectRequest", "<init>", Role::base(),
             CallbackRoute{3, "onResponse", 0}, "volley");
    // retrofit2.
    dp_sync("retrofit2.Call", "execute", Role::base(), Role::ret(), "retrofit2");
    dp_async("retrofit2.Call", "enqueue", Role::base(), CallbackRoute{0, "onResponse", 1},
             "retrofit2");
    // loopj async http client (string-URL style).
    dp_async("com.loopj.android.http.AsyncHttpClient", "get", Role::arg(0),
             CallbackRoute{1, "onSuccess", 0}, "loopj");
    dp_async("com.loopj.android.http.AsyncHttpClient", "post", Role::arg(0),
             CallbackRoute{1, "onSuccess", 0}, "loopj");
    // android.media / image loading: URI-consuming GET generators.
    dp_request_only("android.media.MediaPlayer", "setDataSource", Role::arg(0),
                    "android.media");
    dp_request_only("com.squareup.picasso.Picasso", "load", Role::arg(0), "picasso");

    return m;
}

}  // namespace extractocol::semantics
