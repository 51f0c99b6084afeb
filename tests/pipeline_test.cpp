// End-to-end pipeline tests: spec -> generated app -> Extractocol analysis
// -> signatures validated against interpreter-captured traffic.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/matcher.hpp"
#include "corpus/spec.hpp"
#include "interp/interpreter.hpp"
#include "xapk/obfuscate.hpp"
#include "xapk/serialize.hpp"

using namespace extractocol;
using corpus::AppSpec;
using corpus::EndpointSpec;
using corpus::FieldSpec;
using corpus::HttpLib;
using corpus::ParamSpec;

namespace {

AppSpec tiny_spec() {
    AppSpec spec;
    spec.name = "tinyapp";
    spec.package = "com.tiny";
    spec.open_source = true;
    spec.https = false;

    EndpointSpec feed;
    feed.name = "feed";
    feed.method = http::Method::kGet;
    feed.lib = HttpLib::kApache;
    feed.host = "api.tiny.com";
    feed.path = "/v1/feed.json";
    feed.query = {{"page", ParamSpec::Value::kDynamicInt, ""},
                  {"q", ParamSpec::Value::kUserInput, ""}};
    feed.response = EndpointSpec::Response::kJson;
    feed.response_fields = {
        {"items", FieldSpec::Kind::kArray, {{"title", FieldSpec::Kind::kString, {}, true, false},
                                            {"id", FieldSpec::Kind::kInt, {}, true, false}},
         true, false},
        {"next", FieldSpec::Kind::kString, {}, true, false},
        {"unread_key", FieldSpec::Kind::kString, {}, false, false},
    };
    spec.endpoints.push_back(feed);

    EndpointSpec login;
    login.name = "login";
    login.method = http::Method::kPost;
    login.lib = HttpLib::kApache;
    login.host = "api.tiny.com";
    login.path = "/v1/login";
    login.body = EndpointSpec::Body::kQueryString;
    login.body_params = {{"user", ParamSpec::Value::kUserInput, ""},
                         {"passwd", ParamSpec::Value::kUserInput, ""},
                         {"api_type", ParamSpec::Value::kConst, "json"}};
    login.response = EndpointSpec::Response::kJson;
    login.response_fields = {
        {"token", FieldSpec::Kind::kString, {}, true, true},  // stored to static
    };
    login.trigger = xir::EventKind::kOnLogin;
    spec.endpoints.push_back(login);

    EndpointSpec vote;
    vote.name = "vote";
    vote.method = http::Method::kPost;
    vote.lib = HttpLib::kApache;
    vote.host = "api.tiny.com";
    vote.path = "/v1/vote";
    vote.body = EndpointSpec::Body::kQueryString;
    vote.body_params = {{"id", ParamSpec::Value::kDynamicInt, ""},
                        {"uh", ParamSpec::Value::kToken, "login.token"}};
    spec.endpoints.push_back(vote);
    return spec;
}

}  // namespace

class PipelineTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        app_ = new corpus::CorpusApp(corpus::generate(tiny_spec()));
        core::AnalyzerOptions options;
        options.async_heuristic = true;
        report_ = new core::AnalysisReport(core::Analyzer(options).analyze(app_->program));
    }
    static void TearDownTestSuite() {
        delete app_;
        delete report_;
        app_ = nullptr;
        report_ = nullptr;
    }
    static corpus::CorpusApp* app_;
    static core::AnalysisReport* report_;
};

corpus::CorpusApp* PipelineTest::app_ = nullptr;
core::AnalysisReport* PipelineTest::report_ = nullptr;

TEST_F(PipelineTest, FindsAllThreeTransactions) {
    ASSERT_EQ(report_->transactions.size(), 3u) << report_->to_text();
    std::size_t gets = 0;
    std::size_t posts = 0;
    for (const auto& t : report_->transactions) {
        if (t.signature.method == http::Method::kGet) ++gets;
        if (t.signature.method == http::Method::kPost) ++posts;
    }
    EXPECT_EQ(gets, 1u);
    EXPECT_EQ(posts, 2u);
}

TEST_F(PipelineTest, UriSignaturesHaveExpectedShape) {
    bool found_feed = false;
    for (const auto& t : report_->transactions) {
        if (t.uri_regex.find("api\\.tiny\\.com/v1/feed\\.json") != std::string::npos) {
            found_feed = true;
            EXPECT_NE(t.uri_regex.find("page="), std::string::npos) << t.uri_regex;
            EXPECT_NE(t.uri_regex.find("[0-9]+"), std::string::npos) << t.uri_regex;
            EXPECT_NE(t.uri_regex.find("q="), std::string::npos) << t.uri_regex;
        }
    }
    EXPECT_TRUE(found_feed) << report_->to_text();
}

TEST_F(PipelineTest, ResponseSignatureCoversOnlyReadKeys) {
    const core::ReportTransaction* feed = nullptr;
    for (const auto& t : report_->transactions) {
        if (t.uri_regex.find("feed") != std::string::npos) feed = &t;
    }
    ASSERT_NE(feed, nullptr);
    ASSERT_TRUE(feed->signature.has_response_body) << report_->to_text();
    auto keywords = feed->signature.response_body.keywords();
    auto has = [&](const char* k) {
        return std::find(keywords.begin(), keywords.end(), k) != keywords.end();
    };
    EXPECT_TRUE(has("items"));
    EXPECT_TRUE(has("title"));
    EXPECT_TRUE(has("id"));
    EXPECT_TRUE(has("next"));
    EXPECT_FALSE(has("unread_key"));  // present on the wire, never read
}

TEST_F(PipelineTest, PairCountMatchesGroundTruth) {
    std::size_t expected = 0;
    for (const auto& gt : app_->ground_truth) {
        if (gt.paired) ++expected;
    }
    EXPECT_EQ(report_->pair_count(), expected);
}

TEST_F(PipelineTest, InterTransactionDependencyTokenFlow) {
    // login response "token" must feed vote's "uh" body field.
    bool found = false;
    for (const auto& d : report_->dependencies) {
        const auto& from = report_->transactions[d.from];
        const auto& to = report_->transactions[d.to];
        if (from.uri_regex.find("login") != std::string::npos &&
            to.uri_regex.find("vote") != std::string::npos &&
            d.response_field == "token" && d.request_field == "body:uh") {
            found = true;
            EXPECT_FALSE(d.via.empty());  // mediated by the session static
        }
    }
    EXPECT_TRUE(found) << report_->to_text();
}

TEST_F(PipelineTest, SignaturesMatchInterpreterTraffic) {
    auto server = app_->make_server();
    interp::Interpreter interpreter(app_->program, *server);
    http::Trace trace = interpreter.fuzz(interp::FuzzMode::kManual);
    ASSERT_EQ(trace.transactions.size(), 3u);

    core::TraceMatcher matcher(*report_);
    auto summary = matcher.evaluate(trace);
    EXPECT_EQ(summary.matched, 3u) << report_->to_text();
    EXPECT_EQ(summary.signatures_hit, 3u);
}

TEST_F(PipelineTest, AutoFuzzMissesLoginDependentTraffic) {
    auto server = app_->make_server();
    interp::Interpreter interpreter(app_->program, *server);
    http::Trace trace = interpreter.fuzz(interp::FuzzMode::kAuto);
    // Auto fuzzing cannot log in; only feed + vote fire (vote with null token).
    std::size_t logins = 0;
    for (const auto& t : trace.transactions) {
        if (t.request.uri.path == "/v1/login") ++logins;
    }
    EXPECT_EQ(logins, 0u);
}

TEST_F(PipelineTest, ObfuscationInvariance) {
    auto [obfuscated, map] = xapk::obfuscate(app_->program);
    core::AnalysisReport obf_report = core::Analyzer().analyze(obfuscated);
    ASSERT_EQ(obf_report.transactions.size(), report_->transactions.size());
    // Compare sorted URI regexes: identifier renaming must not change them.
    auto uris = [](const core::AnalysisReport& r) {
        std::vector<std::string> out;
        for (const auto& t : r.transactions) out.push_back(t.uri_regex);
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(uris(*report_), uris(obf_report));
}

TEST_F(PipelineTest, XapkRoundTripPreservesAnalysis) {
    std::string text = xapk::write_xapk(app_->program);
    core::Analyzer analyzer;
    auto reparsed = analyzer.analyze_xapk(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    EXPECT_EQ(reparsed.value().transactions.size(), report_->transactions.size());
}
