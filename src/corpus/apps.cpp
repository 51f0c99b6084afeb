// The 34 evaluation-subject stand-ins (Table 1). Each spec mirrors the
// protocol surface the paper reports for the real app: endpoint counts by
// HTTP method, request payload kinds, response payload kinds, trigger
// events (the fuzz-coverage model), HTTP library, and the dependency /
// intent / async-chain structure exercised by the case studies.
#include "corpus/corpus.hpp"

#include <cctype>
#include <cstdlib>

#include "support/log.hpp"

namespace extractocol::corpus {

namespace {

using EK = xir::EventKind;
using Body = EndpointSpec::Body;
using Resp = EndpointSpec::Response;
using M = http::Method;

// ----------------------------------------------------------- shorthands --

ParamSpec pc(std::string key, std::string value) {
    return {std::move(key), ParamSpec::Value::kConst, std::move(value)};
}
ParamSpec pd(std::string key) { return {std::move(key), ParamSpec::Value::kDynamicInt, ""}; }
ParamSpec pu(std::string key) { return {std::move(key), ParamSpec::Value::kUserInput, ""}; }
ParamSpec pr(std::string key, std::string res_id) {
    return {std::move(key), ParamSpec::Value::kResource, std::move(res_id)};
}
ParamSpec pt(std::string key, std::string token_ref) {
    return {std::move(key), ParamSpec::Value::kToken, std::move(token_ref)};
}

FieldSpec fs(std::string key) { return {std::move(key), FieldSpec::Kind::kString, {}, true}; }
FieldSpec fi(std::string key) { return {std::move(key), FieldSpec::Kind::kInt, {}, true}; }
FieldSpec fb(std::string key) { return {std::move(key), FieldSpec::Kind::kBool, {}, true}; }
FieldSpec fo(std::string key, std::vector<FieldSpec> children) {
    return {std::move(key), FieldSpec::Kind::kObject, std::move(children), true};
}
FieldSpec fa(std::string key, std::vector<FieldSpec> children) {
    return {std::move(key), FieldSpec::Kind::kArray, std::move(children), true};
}
/// On the wire but never read by app code.
FieldSpec funread(std::string key) {
    return {std::move(key), FieldSpec::Kind::kString, {}, false};
}
/// Read and stashed in the session (login tokens).
FieldSpec fstore(std::string key) {
    FieldSpec f = fs(std::move(key));
    f.store_to_static = true;
    return f;
}
/// Read, stored, and URL-shaped (ad/media URIs).
FieldSpec furl_store(std::string key) {
    FieldSpec f = fstore(std::move(key));
    f.is_url = true;
    return f;
}
FieldSpec fdb(std::string key, std::string table, bool url = false) {
    FieldSpec f = fs(std::move(key));
    f.store_to_db = std::move(table);
    f.is_url = url;
    return f;
}

EndpointSpec ep(std::string name, M method, HttpLib lib, std::string host,
                std::string path) {
    EndpointSpec e;
    e.name = std::move(name);
    e.method = method;
    e.lib = lib;
    e.host = std::move(host);
    e.path = std::move(path);
    return e;
}

// ------------------------------------------------------------- bulk gen --

struct Bulk {
    std::string prefix;
    std::string host;
    M method = M::kGet;
    int count = 0;
    EK trigger = EK::kOnClick;
    HttpLib lib = HttpLib::kApache;
    Body body = Body::kNone;
    Resp resp = Resp::kNone;
    int resp_fields = 3;
    bool query_params = true;
    bool via_intent = false;
    int async_hops = 0;
};

/// Spells an index as letters (0->a, 1->b, ... 26->aa) so endpoint paths are
/// textual, as in real REST APIs — numeric segments would be collapsed by
/// trace-side URI grouping.
std::string alpha(int index) {
    std::string out;
    do {
        out.insert(out.begin(), static_cast<char>('a' + index % 26));
        index = index / 26;
    } while (index-- > 0);
    return out;
}

/// Adds `count` endpoints with distinct paths / keywords following one
/// template — how large apps reach Table-1-scale endpoint counts. Response
/// shapes repeat in groups of ~5 (real APIs share response schemas, which is
/// why Table 1's unique-response counts sit well below endpoint counts).
void add_bulk(AppSpec& spec, const Bulk& b) {
    for (int i = 0; i < b.count; ++i) {
        EndpointSpec e = ep(b.prefix + "_" + std::to_string(i), b.method, b.lib, b.host,
                            "/api/" + b.prefix + "/" + alpha(i));
        e.trigger = b.trigger;
        e.via_intent = b.via_intent;
        e.async_hops = b.async_hops;
        if (b.query_params) {
            e.query = {pd("page"), pc(b.prefix + "_flag" + alpha(i), "1")};
        }
        if (b.body == Body::kQueryString) {
            e.body = Body::kQueryString;
            e.body_params = {pu(b.prefix + "_field" + alpha(i)), pd("count")};
        } else if (b.body == Body::kJson) {
            e.body = Body::kJson;
            e.body_fields = {fs(b.prefix + "_key" + alpha(i)), fi("seq"), fb("sync")};
        }
        if (b.resp != Resp::kNone) {
            e.response = b.resp;
            int group = i % std::max(1, (b.count + 4) / 5);
            for (int j = 0; j < b.resp_fields; ++j) {
                e.response_fields.push_back(
                    fs(b.prefix + "_g" + std::to_string(group) + "_r" +
                       std::to_string(j)));
            }
            e.response_fields.push_back(fi("status"));
            // One wire-only key per group (the Fig. 7 read-vs-wire gap).
            e.response_fields.push_back(
                funread("srv_extra" + std::to_string(group)));
        }
        spec.endpoints.push_back(std::move(e));
    }
}

// ======================================================= open source =====

AppSpec spec_adblock_plus() {
    AppSpec s{"Adblock Plus", "org.adblockplus", true, true, {}, 40};
    {
        auto e = ep("filter_list", M::kGet, HttpLib::kUrlConnection,
                    "easylist.adblockplus.org", "/easylist.txt");
        e.query = {pc("format", "xml")};
        e.response = Resp::kXml;
        e.response_fields = {fs("filter"), fs("version")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("update_check", M::kGet, HttpLib::kUrlConnection,
                    "update.adblockplus.org", "/check");
        e.query = {pd("build")};
        e.trigger = EK::kOnTimer;  // timer-triggered update check (§5.1)
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("report_issue", M::kPost, HttpLib::kApache,
                    "reports.adblockplus.org", "/submit");
        e.body = Body::kQueryString;
        e.body_params = {pu("comment"), pc("type", "filter"), pd("version")};
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_anarxiv() {
    AppSpec s{"AnarXiv", "org.anarxiv", true, false, {}, 35};
    for (const char* feed : {"query", "export"}) {
        auto e = ep(std::string("arxiv_") + feed, M::kGet, HttpLib::kUrlConnection,
                    "export.arxiv.org", std::string("/api/") + feed);
        e.query = {pu("search_query"), pd("start"), pd("max_results")};
        e.response = Resp::kXml;
        e.response_fields = {fs("entry"), fs("title"), fs("summary")};
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_blippex() {
    AppSpec s{"blippex", "com.blippex", true, true, {}, 30};
    auto e = ep("search", M::kGet, HttpLib::kApache, "api.blippex.org", "/search");
    e.query = {pu("q"), pd("page")};
    e.response = Resp::kJson;
    e.response_fields = {fa("results", {fs("url"), fs("title"), fi("dwell")}),
                         fi("total"), funread("took_ms")};
    s.endpoints.push_back(e);
    return s;
}

AppSpec spec_diaspora() {
    AppSpec s{"Diaspora WebClient", "com.github.dfa.diaspora", true, false, {}, 30};
    auto e = ep("stream", M::kGet, HttpLib::kOkHttp, "pod.diaspora.software",
                "/stream.json");
    e.query = {pd("max_time")};
    e.response = Resp::kJson;
    e.response_fields = {fa("posts", {fs("author"), fs("text"), fi("id")}),
                         funread("meta")};
    s.endpoints.push_back(e);
    return s;
}

AppSpec spec_diode() {
    // The Fig. 3 subject: one AsyncTask builds nine URI variants (frontpage /
    // search / subreddit × count/after/before suffixes); plus a tail of
    // simple subreddit fetches.
    AppSpec s{"Diode", "in.shick.diode", true, false, {}, 330};
    {
        auto e = ep("subreddit_feed", M::kGet, HttpLib::kApache, "www.reddit.com",
                    "/r/pics/.json");
        e.path_alternatives = {"/.json", "/search/.json"};
        e.query = {pu("q"), pc("sort", "hot"), pd("count"), pu("after")};
        e.response = Resp::kJson;
        e.response_fields = {
            fo("data", {fa("children", {fs("title"), fs("permalink"), fi("score")}),
                        fs("after")}),
            funread("kind")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("comments", M::kGet, HttpLib::kApache, "www.reddit.com",
                    "/comments/article.json");
        e.dynamic_path_id = true;
        e.query = {pd("limit")};
        e.response = Resp::kJson;
        e.response_fields = {fa("comments", {fs("body"), fs("author")})};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("user_about", M::kGet, HttpLib::kApache, "www.reddit.com",
                    "/user/about.json");
        e.response = Resp::kJson;
        e.response_fields = {fo("data", {fs("name"), fi("link_karma")})};
        s.endpoints.push_back(e);
    }
    Bulk tail;
    tail.prefix = "listing";
    tail.host = "www.reddit.com";
    tail.count = 21;
    tail.query_params = true;
    add_bulk(s, tail);
    return s;
}

AppSpec spec_ifixit() {
    AppSpec s{"iFixIt", "com.dozuki.ifixit", true, false, {}, 60};
    Bulk guides;
    guides.prefix = "guides";
    guides.host = "www.ifixit.com";
    guides.count = 12;
    guides.resp = Resp::kJson;
    add_bulk(s, guides);
    Bulk extra_get;
    extra_get.prefix = "categories";
    extra_get.host = "www.ifixit.com";
    extra_get.count = 3;
    extra_get.resp = Resp::kJson;
    extra_get.resp_fields = 2;
    add_bulk(s, extra_get);
    {
        auto e = ep("login", M::kPost, HttpLib::kApache, "www.ifixit.com", "/api/2.0/auth");
        e.trigger = EK::kOnLogin;
        e.body = Body::kQueryString;
        e.body_params = {pu("email"), pu("password")};
        e.response = Resp::kJson;
        e.response_fields = {fstore("authToken"), fi("userid")};
        s.endpoints.push_back(e);
    }
    for (int i = 0; i < 2; ++i) {
        auto e = ep("comment_" + std::to_string(i), M::kPost, HttpLib::kApache,
                    "www.ifixit.com", "/api/2.0/comment/" + std::to_string(i));
        e.body = Body::kQueryString;
        e.body_params = {pu("text"), pt("auth", "login.authToken")};
        s.endpoints.push_back(e);
    }
    Bulk posts;
    posts.prefix = "edits";
    posts.host = "www.ifixit.com";
    posts.method = M::kPost;
    posts.count = 4;
    posts.body = Body::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    return s;
}

AppSpec spec_lightning() {
    AppSpec s{"Lightning", "acr.browser.lightning", true, false, {}, 35};
    {
        auto e = ep("suggestions", M::kGet, HttpLib::kUrlConnection,
                    "suggestqueries.google.com", "/complete/search");
        e.query = {pu("q"), pc("output", "toolbar")};
        e.response = Resp::kXml;
        e.response_fields = {fs("suggestion")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("homepage", M::kGet, HttpLib::kUrlConnection, "www.google.com", "/");
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_qbittorrent() {
    AppSpec s{"qBittorrent", "com.qbittorrent.client", true, false, {}, 45};
    Bulk gets;
    gets.prefix = "list";
    gets.host = "nas.local:8080";
    gets.count = 3;
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    Bulk cmds;
    cmds.prefix = "command";
    cmds.host = "nas.local:8080";
    cmds.method = M::kPost;
    cmds.count = 13;
    cmds.body = Body::kQueryString;
    cmds.query_params = false;
    add_bulk(s, cmds);
    return s;
}

AppSpec spec_radio_reddit() {
    // The Table 3 subject: six transactions with login-token dependencies
    // and a MediaPlayer stream whose URI comes from a prior JSON response.
    AppSpec s{"radio reddit", "com.radioreddit", true, false, {}, 45};
    {
        auto e = ep("info", M::kGet, HttpLib::kApache, "www.reddit.com", "/api/info.json");
        e.response = Resp::kJson;
        e.response_fields = {fs("kind"), fo("data", {fs("id")})};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("status", M::kGet, HttpLib::kApache, "www.radioreddit.com",
                    "/api/status.json");
        e.path_alternatives = {"/api/hiphop/status.json", "/api/rock/status.json"};
        e.response = Resp::kJson;
        // 18 wire keywords, 16 read by the app — "album" and "score" stay
        // unprocessed (Fig. 8).
        e.response_fields = {
            furl_store("relay"), fs("all_listeners"), fs("listeners"), fs("playlist"),
            fb("online"),
            fo("songs", {fa("song", {fs("artist"), fs("title"), fs("reddit_title"),
                                     fs("redditor"), fs("genre"), fs("id"),
                                     fs("preview_url"), fs("download_url"),
                                     fs("reddit_url")})}),
            funread("album"), funread("score")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("login", M::kPost, HttpLib::kApache, "ssl.reddit.com", "/api/login");
        e.trigger = EK::kOnLogin;
        s.https = false;  // app mixes http/https; login uses https host
        e.body = Body::kQueryString;
        e.body_params = {pu("user"), pu("passwd"), pc("api_type", "json")};
        e.response = Resp::kJson;
        e.response_fields = {
            fo("json", {fo("data", {fstore("modhash"), fstore("cookie")}),
                        fb("need_https")})};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("save", M::kPost, HttpLib::kApache, "www.reddit.com", "/api/save");
        e.path_alternatives = {"/api/unsave"};
        e.body = Body::kQueryString;
        e.body_params = {pd("id"), pt("uh", "login.modhash")};
        e.headers = {pt("cookie", "login.cookie")};
        e.response = Resp::kJson;
        e.response_fields = {fb("success")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("vote", M::kPost, HttpLib::kApache, "www.reddit.com", "/api/vote");
        e.body = Body::kQueryString;
        e.body_params = {pd("id"), pd("dir"), pt("uh", "login.modhash")};
        e.headers = {pt("cookie", "login.cookie")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("stream", M::kGet, HttpLib::kApache, "", "");
        e.uri_from = "static:status.relay";
        e.consumer = EndpointSpec::Consumer::kMediaPlayer;
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_reddinator() {
    AppSpec s{"Reddinator", "au.com.wallaceit.reddinator", true, false, {}, 40};
    Bulk gets;
    gets.prefix = "widget";
    gets.host = "www.reddit.com";
    gets.count = 3;
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    Bulk posts;
    posts.prefix = "action";
    posts.host = "www.reddit.com";
    posts.method = M::kPost;
    posts.count = 3;
    posts.body = Body::kQueryString;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    return s;
}

AppSpec spec_twister() {
    AppSpec s{"Twister", "com.twister", true, false, {}, 40};
    Bulk rpc;
    rpc.prefix = "rpc";
    rpc.host = "127.0.0.1:28332";
    rpc.method = M::kPost;
    rpc.count = 11;
    rpc.body = Body::kQueryString;
    rpc.resp = Resp::kJson;
    rpc.query_params = false;
    add_bulk(s, rpc);
    // Three of the POSTs have responses the app never parses.
    for (int i = 8; i < 11; ++i) {
        s.endpoints[static_cast<std::size_t>(i)].response = Resp::kNone;
        s.endpoints[static_cast<std::size_t>(i)].response_fields.clear();
    }
    return s;
}

AppSpec spec_tzm() {
    AppSpec s{"TZM", "com.zeitgeist.tzm", true, true, {}, 30};
    {
        auto e = ep("news", M::kGet, HttpLib::kApache, "www.thezeitgeistmovement.com",
                    "/feed.json");
        e.response = Resp::kJson;
        e.response_fields = {fa("articles", {fs("title"), fs("link")})};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("chapters", M::kGet, HttpLib::kApache,
                    "www.thezeitgeistmovement.com", "/chapters");
        e.query = {pu("country")};
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_wallabag() {
    AppSpec s{"Wallabag", "fr.gaulupeau.apps.wallabag", true, false, {}, 30};
    auto e = ep("feed", M::kGet, HttpLib::kUrlConnection, "wallabag.example.org",
                "/feed");
    e.query = {pu("user_id"), pr("token", "wallabag_token"), pc("type", "home")};
    e.response = Resp::kXml;
    e.response_fields = {fs("item"), fs("title"), fs("link")};
    s.endpoints.push_back(e);
    return s;
}

AppSpec spec_weather_notification() {
    // The §3.4 async example: a location callback builds part of the query
    // string; a later event issues the request.
    AppSpec s{"Weather Notification", "ru.gelin.android.weather", true, false, {}, 35};
    {
        auto e = ep("weather", M::kGet, HttpLib::kUrlConnection, "api.openweathermap.org",
                    "/data/2.5/weather");
        e.query = {pr("appid", "owm_api_key")};
        e.async_hops = 1;  // lat/units fragment crosses one async hop
        e.response = Resp::kXml;
        e.response_fields = {fs("temperature"), fs("humidity"), fs("city")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("forecast", M::kGet, HttpLib::kUrlConnection,
                    "api.openweathermap.org", "/data/2.5/forecast");
        e.query = {pu("q"), pr("appid", "owm_api_key")};
        e.response = Resp::kXml;
        e.response_fields = {fs("day"), fs("temp_min"), fs("temp_max")};
        s.endpoints.push_back(e);
    }
    return s;
}

// ===================================================== closed source =====

AppSpec shopping_app(std::string name, std::string package, std::string host,
                     int get_click, int get_custom, int post_custom, int post_action,
                     int put_action, int delete_action, int intent_messages) {
    AppSpec s{std::move(name), std::move(package), false, true, {}, 120};
    Bulk browse;
    browse.prefix = "browse";
    browse.host = host;
    browse.count = get_click;
    browse.resp = Resp::kJson;
    add_bulk(s, browse);
    Bulk detail;
    detail.prefix = "detail";
    detail.host = host;
    detail.count = get_custom;
    detail.trigger = EK::kOnCustomUi;
    detail.resp = Resp::kJson;
    add_bulk(s, detail);
    Bulk social;
    social.prefix = "social";
    social.host = host;
    social.method = M::kPost;
    social.count = post_custom;
    social.trigger = EK::kOnCustomUi;
    social.body = Body::kJson;
    social.resp = Resp::kJson;
    social.query_params = false;
    add_bulk(s, social);
    Bulk checkout;
    checkout.prefix = "checkout";
    checkout.host = host;
    checkout.method = M::kPost;
    checkout.count = post_action;
    checkout.trigger = EK::kOnAction;  // purchases: no fuzzer reaches these
    checkout.body = Body::kQueryString;
    checkout.resp = Resp::kJson;
    checkout.query_params = false;
    add_bulk(s, checkout);
    Bulk updates;
    updates.prefix = "update";
    updates.host = host;
    updates.method = M::kPut;
    updates.count = put_action;
    updates.trigger = EK::kOnAction;
    updates.body = Body::kJson;
    updates.resp = Resp::kJson;
    updates.query_params = false;
    add_bulk(s, updates);
    Bulk removals;
    removals.prefix = "remove";
    removals.host = host;
    removals.method = M::kDelete;
    removals.count = delete_action;
    removals.trigger = EK::kOnAction;
    removals.lib = HttpLib::kOkHttp;
    removals.query_params = false;
    add_bulk(s, removals);
    Bulk ads;  // ad-library messages routed through intents: Extractocol miss
    ads.prefix = "adtrack";
    ads.host = "ads.example-network.com";
    ads.count = intent_messages;
    ads.trigger = EK::kOnCustomUi;
    ads.via_intent = true;
    add_bulk(s, ads);
    return s;
}

AppSpec spec_5miles() {
    return shopping_app("5miles", "com.fivemiles", "api.5milesapp.com",
                        /*get_click=*/6, /*get_custom=*/18, /*post_custom=*/12,
                        /*post_action=*/39, 0, 0, /*intent=*/1);
}

AppSpec spec_ac_app() {
    AppSpec s{"AC App for Android", "com.acapp", false, false, {}, 90};
    Bulk gets;
    gets.prefix = "page";
    gets.host = "api.acapp.example.com";
    gets.count = 9;
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    Bulk posts;
    posts.prefix = "submit";
    posts.host = "api.acapp.example.com";
    posts.method = M::kPost;
    posts.count = 15;
    posts.body = Body::kQueryString;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    posts.trigger = EK::kOnCustomUi;
    add_bulk(s, posts);
    return s;
}

AppSpec spec_aol() {
    AppSpec s{"AOL: Mail, News & Video", "com.aol.mobile", false, false, {}, 90};
    Bulk feeds;
    feeds.prefix = "feed";
    feeds.host = "api.aol.com";
    feeds.count = 9;
    feeds.resp = Resp::kJson;
    feeds.resp_fields = 4;
    add_bulk(s, feeds);
    return s;
}

AppSpec spec_accuweather() {
    AppSpec s{"AccuWeather", "com.accuweather.android", false, false, {}, 100};
    Bulk gets;  // all custom UI: PUMA finds nothing (auto column 0)
    gets.prefix = "conditions";
    gets.host = "api.accuweather.com";
    gets.count = 14;
    gets.trigger = EK::kOnCustomUi;
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    {
        auto e = ep("geo", M::kGet, HttpLib::kApache, "api.accuweather.com",
                    "/locations/v1/geoposition");
        e.trigger = EK::kOnCustomUi;
        e.async_hops = 1;  // location-service fragment
        e.query = {pr("apikey", "accu_api_key")};
        e.response = Resp::kJson;
        e.response_fields = {fs("Key"), fs("LocalizedName")};
        s.endpoints.push_back(e);
    }
    Bulk posts;
    posts.prefix = "alerts";
    posts.host = "api.accuweather.com";
    posts.method = M::kPost;
    posts.count = 3;
    posts.trigger = EK::kOnCustomUi;
    posts.body = Body::kQueryString;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    return s;
}

AppSpec spec_buzzfeed() {
    AppSpec s{"Buzzfeed", "com.buzzfeed.android", false, false, {}, 110};
    Bulk gets;
    gets.prefix = "buzz";
    gets.host = "api.buzzfeed.com";
    gets.count = 5;  // reachable by all
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    Bulk timer_gets;  // server-push/timer refreshes: only static analysis sees
    timer_gets.prefix = "refresh";
    timer_gets.host = "api.buzzfeed.com";
    timer_gets.count = 11;
    timer_gets.trigger = EK::kOnTimer;
    timer_gets.resp = Resp::kJson;
    add_bulk(s, timer_gets);
    Bulk posts;
    posts.prefix = "react";
    posts.host = "api.buzzfeed.com";
    posts.method = M::kPost;
    posts.count = 5;
    posts.body = Body::kQueryString;
    posts.query_params = false;
    add_bulk(s, posts);
    Bulk action_posts;
    action_posts.prefix = "share";
    action_posts.host = "api.buzzfeed.com";
    action_posts.method = M::kPost;
    action_posts.count = 7;
    action_posts.trigger = EK::kOnAction;
    action_posts.body = Body::kQueryString;
    action_posts.resp = Resp::kJson;
    action_posts.query_params = false;
    add_bulk(s, action_posts);
    return s;
}

AppSpec spec_flipboard() {
    return shopping_app("Flipboard", "flipboard.app", "fbprod.flipboard.com",
                        /*get_click=*/0, /*get_custom=*/23, /*post_custom=*/13,
                        /*post_action=*/28, 0, 0, /*intent=*/1);
}

AppSpec spec_geek() {
    AppSpec s{"GEEK", "com.contextlogic.geek", false, true, {}, 110};
    Bulk posts;  // API entirely POST-based
    posts.prefix = "api";
    posts.host = "api.geek.com";
    posts.method = M::kPost;
    posts.count = 48;
    posts.trigger = EK::kOnCustomUi;
    posts.body = Body::kQueryString;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    Bulk hidden;
    hidden.prefix = "batch";
    hidden.host = "api.geek.com";
    hidden.method = M::kPost;
    hidden.count = 49;
    hidden.trigger = EK::kOnServerPush;
    hidden.body = Body::kQueryString;
    hidden.resp = Resp::kJson;
    hidden.query_params = false;
    add_bulk(s, hidden);
    {
        // One GET visible only to manual fuzzing (intent-routed web view).
        auto e = ep("webview", M::kGet, HttpLib::kApache, "www.geek.com", "/terms");
        e.trigger = EK::kOnCustomUi;
        e.via_intent = true;
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_kayak() {
    // The §5.3 reverse-engineering subject. Endpoint categories follow
    // Table 5; the three Table-6 signatures are explicit. The app-gating
    // User-Agent header is on every request; an out-of-scope ad library
    // exercises the com.kayak class-scope filter.
    AppSpec s{"KAYAK", "com.kayak", false, true, {}, 120};
    auto ua = pc("User-Agent", "kayakandroidphone/8.1");

    Bulk trips;
    trips.prefix = "trips";
    trips.host = "www.kayak.com";
    trips.count = 11;
    trips.trigger = EK::kOnCustomUi;
    add_bulk(s, trips);
    for (int i = 0; i < 11; ++i) {
        auto& e = s.endpoints[static_cast<std::size_t>(i)];
        e.path = "/trips/v2/edit/trip/" + alpha(i);
        e.headers = {ua};
    }
    {
        auto e = ep("authajax", M::kPost, HttpLib::kApache, "www.kayak.com",
                    "/k/authajax");
        e.headers = {ua};
        e.body = Body::kQueryString;
        e.body_params = {pc("action", "registerandroid"), pu("uuid"), pu("hash"),
                         pu("model"), pc("platform", "android"), pu("os"), pu("locale"),
                         pu("tz")};
        e.response = Resp::kJson;
        e.response_fields = {fstore("sid")};
        e.trigger = EK::kOnCreate;
        s.endpoints.push_back(e);
    }
    for (int i = 0; i < 3; ++i) {
        auto e = ep("auth_extra_" + std::to_string(i), M::kPost, HttpLib::kApache,
                    "www.kayak.com", "/k/authajax/refresh" + std::to_string(i));
        e.headers = {ua};
        e.body = Body::kQueryString;
        e.body_params = {pt("_sid_", "authajax.sid"), pd("seq")};
        e.trigger = EK::kOnTimer;
        s.endpoints.push_back(e);
    }
    for (int i = 0; i < 2; ++i) {
        auto e = ep("fbauth_" + std::to_string(i), M::kPost, HttpLib::kApache,
                    "www.kayak.com", i == 0 ? "/k/run/fbauth/login" : "/k/run/fbauth/link");
        e.headers = {ua};
        e.trigger = EK::kOnLogin;
        e.body = Body::kQueryString;
        e.body_params = {pu("fb_token")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("flight_start", M::kGet, HttpLib::kApache, "www.kayak.com",
                    "/api/search/V8/flight/start");
        e.headers = {ua};
        e.query = {pu("cabin"), pd("travelers"), pu("origin"), pu("nearbyO"),
                   pu("destination"), pu("nearbyD"), pu("depart_date"),
                   pu("depart_time"), pu("depart_date_flex"), pt("_sid_", "authajax.sid")};
        e.response = Resp::kJson;
        e.response_fields = {fstore("searchid"), fi("count")};
        e.trigger = EK::kOnCustomUi;
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("flight_poll", M::kGet, HttpLib::kApache, "www.kayak.com",
                    "/api/search/V8/flight/poll");
        e.headers = {ua};
        e.query = {pt("searchid", "flight_start.searchid"), pd("nc"), pd("c"), pu("s"),
                   pc("d", "up"), pu("currency"), pc("includeopaques", "true"),
                   pc("includeSplit", "false")};
        e.response = Resp::kJson;
        e.response_fields = {fa("legs", {fs("airline"), fs("price"), fs("depart")}),
                             fb("done"), funread("adslots")};
        e.trigger = EK::kOnCustomUi;
        s.endpoints.push_back(e);
    }
    for (int i = 0; i < 4; ++i) {
        auto e = ep("flight_misc_" + std::to_string(i), M::kGet, HttpLib::kApache,
                    "www.kayak.com", "/api/search/V8/flight/detail" + std::to_string(i));
        e.headers = {ua};
        e.query = {pt("searchid", "flight_start.searchid")};
        e.response = Resp::kJson;
        e.response_fields = {fs("detail" + std::to_string(i))};
        e.trigger = EK::kOnCustomUi;
        s.endpoints.push_back(e);
    }
    for (int i = 0; i < 2; ++i) {
        auto e = ep("hotel_" + std::to_string(i), M::kGet, HttpLib::kApache,
                    "www.kayak.com",
                    i == 0 ? "/api/search/V8/hotel/detail" : "/api/search/V8/hotel/poll");
        e.headers = {ua};
        e.query = {pu("city"), pd("rooms")};
        e.response = Resp::kJson;
        e.response_fields = {fs("hotel"), fs("rate")};
        e.trigger = EK::kOnCustomUi;
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("car_poll", M::kGet, HttpLib::kApache, "www.kayak.com",
                    "/api/search/V8/car/poll");
        e.headers = {ua};
        e.query = {pu("pickup"), pu("dropoff")};
        e.response = Resp::kJson;
        e.response_fields = {fs("car"), fs("price")};
        e.trigger = EK::kOnCustomUi;
        s.endpoints.push_back(e);
    }
    Bulk mobile;
    mobile.prefix = "mobileapis";
    mobile.host = "www.kayak.com";
    mobile.count = 12;
    mobile.trigger = EK::kOnCustomUi;
    mobile.resp = Resp::kJson;
    add_bulk(s, mobile);
    for (std::size_t i = s.endpoints.size() - 12; i < s.endpoints.size(); ++i) {
        s.endpoints[i].path = "/h/mobileapis/directory/" +
                              s.endpoints[i].name.substr(s.endpoints[i].name.rfind('_') + 1);
        s.endpoints[i].headers = {ua};
    }
    {
        auto e = ep("mobileads", M::kGet, HttpLib::kApache, "www.kayak.com",
                    "/s/mobileads/banner");
        e.headers = {ua};
        e.response = Resp::kJson;
        e.response_fields = {fs("imageUrl"), fs("clickUrl")};
        e.trigger = EK::kOnCustomUi;
        s.endpoints.push_back(e);
    }
    for (int i = 0; i < 4; ++i) {
        auto e = ep("k_misc_" + std::to_string(i), M::kPost, HttpLib::kApache,
                    "www.kayak.com", "/k/cookie" + std::to_string(i));
        e.headers = {ua};
        e.body = Body::kQueryString;
        e.body_params = {pd("v")};
        e.trigger = EK::kOnTimer;
        s.endpoints.push_back(e);
    }
    // Out-of-scope third-party analytics (dropped by class_scope=com.kayak in
    // the §5.3 study; the generator puts it in another package via a second
    // app merged below — here approximated with a distinct prefix endpoint).
    return s;
}

AppSpec spec_letgo() {
    return shopping_app("Letgo", "com.letgo", "api.letgo.com",
                        /*get_click=*/10, /*get_custom=*/28, /*post_custom=*/4,
                        /*post_action=*/6, /*put=*/2, /*delete=*/3, /*intent=*/2);
}

AppSpec spec_linkedin() {
    AppSpec s = shopping_app("LinkedIn", "com.linkedin.android", "api.linkedin.com",
                             /*get_click=*/16, /*get_custom=*/22, /*post_custom=*/8,
                             /*post_action=*/41, 0, 0, /*intent=*/3);
    // Job applications are real-world actions — already modeled by kOnAction.
    return s;
}

AppSpec spec_lucktastic() {
    AppSpec s{"Lucktastic", "com.lucktastic", false, true, {}, 110};
    Bulk gets;
    gets.prefix = "offers";
    gets.host = "api.lucktastic.com";
    gets.count = 14;
    gets.trigger = EK::kOnServerPush;  // contest pushes
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    Bulk click_gets;
    click_gets.prefix = "wall";
    click_gets.host = "api.lucktastic.com";
    click_gets.count = 2;
    click_gets.trigger = EK::kOnCustomUi;
    click_gets.resp = Resp::kJson;
    add_bulk(s, click_gets);
    Bulk posts;
    posts.prefix = "redeem";
    posts.host = "api.lucktastic.com";
    posts.method = M::kPost;
    posts.count = 9;
    posts.trigger = EK::kOnCustomUi;
    posts.body = Body::kJson;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    // Heavy ad/analytics SDK use: intent-routed + multi-hop async messages
    // (chartboost/tapjoy/vungle-style) that static analysis misses.
    Bulk ad_intents;
    ad_intents.prefix = "adsdk";
    ad_intents.host = "track.ads-network.com";
    ad_intents.method = M::kPost;
    ad_intents.count = 6;
    ad_intents.trigger = EK::kOnCustomUi;
    ad_intents.via_intent = true;
    add_bulk(s, ad_intents);
    {
        auto e = ep("analytics_beacon", M::kGet, HttpLib::kApache,
                    "beacon.analytics-net.com", "/v1/events");
        e.trigger = EK::kOnCustomUi;
        e.async_hops = 2;  // beyond the one-hop limit: URI degrades to (.*)
        s.endpoints.push_back(e);
    }
    Bulk put_del;
    put_del.prefix = "profile";
    put_del.host = "api.lucktastic.com";
    put_del.method = M::kPut;
    put_del.count = 2;
    put_del.trigger = EK::kOnAction;
    put_del.body = Body::kJson;
    put_del.query_params = false;
    add_bulk(s, put_del);
    Bulk dels;
    dels.prefix = "optout";
    dels.host = "api.lucktastic.com";
    dels.method = M::kDelete;
    dels.count = 4;
    dels.trigger = EK::kOnAction;
    dels.query_params = false;
    add_bulk(s, dels);
    return s;
}

AppSpec spec_musicdownloader() {
    AppSpec s{"MusicDownloader", "com.musicdl", false, true, {}, 60};
    Bulk gets;
    gets.prefix = "track";
    gets.host = "api.musicdl.example.com";
    gets.count = 3;
    gets.trigger = EK::kOnCustomUi;
    gets.resp = Resp::kJson;
    add_bulk(s, gets);
    // Most traffic goes through a 2-hop async download manager chain whose
    // URLs static analysis cannot reconstruct.
    Bulk hidden;
    hidden.prefix = "mirror";
    hidden.host = "cdn.musicdl.example.com";
    hidden.count = 7;
    hidden.trigger = EK::kOnCustomUi;
    hidden.async_hops = 2;
    hidden.query_params = false;
    add_bulk(s, hidden);
    return s;
}

AppSpec spec_offerup() {
    return shopping_app("Offerup", "com.offerup", "api.offerup.com",
                        /*get_click=*/0, /*get_custom=*/33, /*post_custom=*/8,
                        /*post_action=*/15, /*put=*/8, /*delete=*/3, /*intent=*/2);
}

AppSpec spec_pandora() {
    AppSpec s{"Pandora Radio", "com.pandora.android", false, false, {}, 110};
    Bulk stations;
    stations.prefix = "station";
    stations.host = "tuner.pandora.com";
    stations.count = 7;
    stations.resp = Resp::kJson;
    add_bulk(s, stations);
    Bulk rpc;
    rpc.prefix = "method";
    rpc.host = "tuner.pandora.com";
    rpc.method = M::kPost;
    rpc.count = 33;
    rpc.trigger = EK::kOnCustomUi;
    rpc.body = Body::kQueryString;
    rpc.resp = Resp::kJson;
    rpc.query_params = false;
    add_bulk(s, rpc);
    Bulk timers;
    timers.prefix = "heartbeat";
    timers.host = "stats.pandora.com";
    timers.method = M::kPost;
    timers.count = 20;
    timers.trigger = EK::kOnTimer;
    timers.body = Body::kQueryString;
    timers.query_params = false;
    add_bulk(s, timers);
    return s;
}

AppSpec spec_pinterest() {
    AppSpec s{"Pinterest", "com.pinterest", false, true, {}, 140};
    Bulk feed;
    feed.prefix = "feed";
    feed.host = "api.pinterest.com";
    feed.count = 26;
    feed.resp = Resp::kJson;
    feed.resp_fields = 5;
    add_bulk(s, feed);
    Bulk boards;
    boards.prefix = "board";
    boards.host = "api.pinterest.com";
    boards.count = 34;
    boards.trigger = EK::kOnCustomUi;
    boards.resp = Resp::kJson;
    boards.resp_fields = 5;
    add_bulk(s, boards);
    Bulk pins;
    pins.prefix = "pin";
    pins.host = "api.pinterest.com";
    pins.method = M::kPost;
    pins.count = 36;
    pins.trigger = EK::kOnCustomUi;
    pins.body = Body::kJson;
    pins.resp = Resp::kJson;
    pins.resp_fields = 4;
    pins.query_params = false;
    add_bulk(s, pins);
    Bulk edits;
    edits.prefix = "edit";
    edits.host = "api.pinterest.com";
    edits.method = M::kPut;
    edits.count = 32;
    edits.trigger = EK::kOnAction;
    edits.body = Body::kJson;
    edits.resp = Resp::kJson;
    edits.query_params = false;
    add_bulk(s, edits);
    Bulk dels;
    dels.prefix = "unpin";
    dels.host = "api.pinterest.com";
    dels.method = M::kDelete;
    dels.count = 20;
    dels.trigger = EK::kOnAction;
    dels.query_params = false;
    add_bulk(s, dels);
    return s;
}

AppSpec spec_ted() {
    // The Table 4 / Fig. 1 subject: resource-table api-key, DB-mediated
    // thumbnail/video fetches, an ad chain ending in the media player, and a
    // Facebook share.
    AppSpec s{"TED", "com.ted.android", false, true, {}, 110};
    {
        auto e = ep("speakers", M::kGet, HttpLib::kApache, "app-api.ted.com",
                    "/v1/speakers.json");
        e.query = {pc("limit", "2000"), pr("api-key", "ted_api_key"), pu("filter")};
        e.response = Resp::kJson;
        e.response_fields = {fa("speakers", {fdb("name", "speakers"),
                                             fdb("description", "speakers")}),
                             funread("counts")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("fb_share", M::kGet, HttpLib::kApache, "graph.facebook.com",
                    "/me/photos");
        e.query = {pu("access_token")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("ad_query", M::kGet, HttpLib::kApache, "app-api.ted.com",
                    "/v1/talks/android_ad.json");
        e.dynamic_path_id = true;
        e.query = {pr("api-key", "ted_api_key")};
        e.response = Resp::kJson;
        e.response_fields = {
            fo("companions", {fo("on_page", {fi("height"), fi("width")}),
                              fo("preroll", {fi("height"), fi("width")})}),
            furl_store("url")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("ad_manifest", M::kGet, HttpLib::kApache, "", "");
        e.uri_from = "static:ad_query.url";
        e.response = Resp::kXml;
        FieldSpec video = fs("video_url");
        video.store_to_static = true;
        video.is_url = true;
        e.response_fields = {video, fs("duration")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("ad_video", M::kGet, HttpLib::kApache, "", "");
        e.uri_from = "static:ad_manifest.video_url";
        e.consumer = EndpointSpec::Consumer::kMediaPlayer;
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("talk_catalog", M::kGet, HttpLib::kApache, "app-api.ted.com",
                    "/v1/talk_catalogs/android_v1.json");
        e.query = {pr("api-key", "ted_api_key"), pc("fields", "duration_in_seconds"),
                   pu("filter")};
        e.response = Resp::kJson;
        e.response_fields = {
            fa("talks", {fdb("thumbnail", "talks", /*url=*/true),
                         fdb("video", "talks", /*url=*/true), fi("duration_in_seconds")}),
            funread("updated_at")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("thumbnail", M::kGet, HttpLib::kApache, "", "");
        e.uri_from = "db:talks.thumbnail";
        e.consumer = EndpointSpec::Consumer::kImageLoader;
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("talk_video", M::kGet, HttpLib::kApache, "", "");
        e.uri_from = "db:talks.video";
        e.consumer = EndpointSpec::Consumer::kMediaPlayer;
        s.endpoints.push_back(e);
    }
    // The remaining GET surface (language lists, playlists...).
    Bulk rest;
    rest.prefix = "catalog";
    rest.host = "app-api.ted.com";
    rest.count = 8;
    rest.trigger = EK::kOnCustomUi;
    rest.resp = Resp::kJson;
    add_bulk(s, rest);
    {
        auto e = ep("rate_talk", M::kPost, HttpLib::kApache, "app-api.ted.com",
                    "/v1/talks/rate.json");
        e.dynamic_path_id = true;
        e.body = Body::kQueryString;
        e.body_params = {pd("rating"), pr("api-key", "ted_api_key")};
        e.response = Resp::kJson;
        e.response_fields = {fb("ok")};
        s.endpoints.push_back(e);
    }
    {
        auto e = ep("event_log", M::kPost, HttpLib::kApache, "pixel.ted.com", "/collect");
        e.trigger = EK::kOnTimer;
        e.body = Body::kQueryString;
        e.body_params = {pd("ts"), pu("session")};
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_tophatter() {
    return shopping_app("Tophatter", "com.tophatter", "api.tophatter.com",
                        /*get_click=*/0, /*get_custom=*/33, /*post_custom=*/14,
                        /*post_action=*/18, /*put=*/1, /*delete=*/4, /*intent=*/1);
}

AppSpec spec_tumblr() {
    AppSpec s{"Tumblr", "com.tumblr", false, true, {}, 100};
    Bulk dash;
    dash.prefix = "dashboard";
    dash.host = "api.tumblr.com";
    dash.count = 12;
    dash.resp = Resp::kJson;
    add_bulk(s, dash);
    Bulk posts;
    posts.prefix = "post";
    posts.host = "api.tumblr.com";
    posts.method = M::kPost;
    posts.count = 8;
    posts.trigger = EK::kOnCustomUi;
    posts.body = Body::kJson;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    {
        auto e = ep("unfollow", M::kDelete, HttpLib::kOkHttp, "api.tumblr.com",
                    "/v2/user/follow");
        e.trigger = EK::kOnAction;
        s.endpoints.push_back(e);
    }
    return s;
}

AppSpec spec_watchespn() {
    AppSpec s{"WatchESPN", "com.espn.watchespn", false, false, {}, 100};
    Bulk channels;
    channels.prefix = "channel";
    channels.host = "watch.api.espn.com";
    channels.count = 17;
    channels.resp = Resp::kJson;
    add_bulk(s, channels);
    Bulk streams;  // stream refreshes triggered by timers/server events
    streams.prefix = "stream";
    streams.host = "watch.api.espn.com";
    streams.count = 16;
    streams.trigger = EK::kOnTimer;
    streams.resp = Resp::kJson;
    add_bulk(s, streams);
    return s;
}

AppSpec spec_wish_local() {
    AppSpec s{"Wish Local", "com.wishlocal", false, true, {}, 110};
    Bulk posts;
    posts.prefix = "api";
    posts.host = "api.wishlocal.com";
    posts.method = M::kPost;
    posts.count = 48;
    posts.trigger = EK::kOnCustomUi;
    posts.body = Body::kQueryString;
    posts.resp = Resp::kJson;
    posts.query_params = false;
    add_bulk(s, posts);
    Bulk actions;
    actions.prefix = "order";
    actions.host = "api.wishlocal.com";
    actions.method = M::kPost;
    actions.count = 58;
    actions.trigger = EK::kOnAction;
    actions.body = Body::kQueryString;
    actions.resp = Resp::kJson;
    actions.query_params = false;
    add_bulk(s, actions);
    {
        auto e = ep("deeplink", M::kGet, HttpLib::kApache, "www.wishlocal.com", "/dl");
        e.trigger = EK::kOnCustomUi;
        e.via_intent = true;
        s.endpoints.push_back(e);
    }
    return s;
}

}  // namespace

const std::vector<std::string>& open_source_apps() {
    static const std::vector<std::string> names = {
        "Adblock Plus", "AnarXiv",     "blippex",   "Diaspora WebClient",
        "Diode",        "iFixIt",      "Lightning", "qBittorrent",
        "radio reddit", "Reddinator",  "Twister",   "TZM",
        "Wallabag",     "Weather Notification",
    };
    return names;
}

const std::vector<std::string>& closed_source_apps() {
    static const std::vector<std::string> names = {
        "5miles",        "AC App for Android", "AOL: Mail, News & Video",
        "AccuWeather",   "Buzzfeed",           "Flipboard",
        "GEEK",          "KAYAK",              "Letgo",
        "LinkedIn",      "Lucktastic",         "MusicDownloader",
        "Offerup",       "Pandora Radio",      "Pinterest",
        "TED",           "Tophatter",          "Tumblr",
        "WatchESPN",     "Wish Local",
    };
    return names;
}

AppSpec app_spec(const std::string& name) {
    if (name == "Adblock Plus") return spec_adblock_plus();
    if (name == "AnarXiv") return spec_anarxiv();
    if (name == "blippex") return spec_blippex();
    if (name == "Diaspora WebClient") return spec_diaspora();
    if (name == "Diode") return spec_diode();
    if (name == "iFixIt") return spec_ifixit();
    if (name == "Lightning") return spec_lightning();
    if (name == "qBittorrent") return spec_qbittorrent();
    if (name == "radio reddit") return spec_radio_reddit();
    if (name == "Reddinator") return spec_reddinator();
    if (name == "Twister") return spec_twister();
    if (name == "TZM") return spec_tzm();
    if (name == "Wallabag") return spec_wallabag();
    if (name == "Weather Notification") return spec_weather_notification();
    if (name == "5miles") return spec_5miles();
    if (name == "AC App for Android") return spec_ac_app();
    if (name == "AOL: Mail, News & Video") return spec_aol();
    if (name == "AccuWeather") return spec_accuweather();
    if (name == "Buzzfeed") return spec_buzzfeed();
    if (name == "Flipboard") return spec_flipboard();
    if (name == "GEEK") return spec_geek();
    if (name == "KAYAK") return spec_kayak();
    if (name == "Letgo") return spec_letgo();
    if (name == "LinkedIn") return spec_linkedin();
    if (name == "Lucktastic") return spec_lucktastic();
    if (name == "MusicDownloader") return spec_musicdownloader();
    if (name == "Offerup") return spec_offerup();
    if (name == "Pandora Radio") return spec_pandora();
    if (name == "Pinterest") return spec_pinterest();
    if (name == "TED") return spec_ted();
    if (name == "Tophatter") return spec_tophatter();
    if (name == "Tumblr") return spec_tumblr();
    if (name == "WatchESPN") return spec_watchespn();
    if (name == "Wish Local") return spec_wish_local();
    log::error() << "unknown corpus app: " << name;
    std::abort();
}

CorpusApp build_app(const std::string& name) { return generate(app_spec(name)); }

std::string app_slug(const std::string& name) {
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
        } else if (!out.empty() && out.back() != '_') {
            out.push_back('_');
        }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    return out;
}

std::optional<std::string> resolve_app_name(const std::string& label) {
    auto scan = [&label](const std::vector<std::string>& names)
        -> std::optional<std::string> {
        for (const auto& n : names) {
            if (n == label) return n;
        }
        for (const auto& n : names) {
            if (app_slug(n) == label) return n;
        }
        return std::nullopt;
    };
    if (auto n = scan(open_source_apps())) return n;
    return scan(closed_source_apps());
}

}  // namespace extractocol::corpus
