#include <gtest/gtest.h>

#include "http/message.hpp"

using namespace extractocol;
using namespace extractocol::http;

TEST(Method, NamesRoundTrip) {
    for (Method m : {Method::kGet, Method::kPost, Method::kPut, Method::kDelete,
                     Method::kHead, Method::kPatch}) {
        auto parsed = parse_method(method_name(m));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), m);
    }
    EXPECT_FALSE(parse_method("YEET").ok());
}

TEST(BodyKind, ClassifyJson) {
    EXPECT_EQ(classify_body(R"({"a":1})"), BodyKind::kJson);
    EXPECT_EQ(classify_body("  [1,2] "), BodyKind::kJson);
    EXPECT_EQ(classify_body("{not json"), BodyKind::kText);
}

TEST(BodyKind, ClassifyXml) {
    EXPECT_EQ(classify_body("<a><b/></a>"), BodyKind::kXml);
    EXPECT_EQ(classify_body("<broken"), BodyKind::kText);
}

TEST(BodyKind, ClassifyQueryString) {
    EXPECT_EQ(classify_body("a=1&b=2"), BodyKind::kQueryString);
    EXPECT_EQ(classify_body("user=x&passwd=y"), BodyKind::kQueryString);
    EXPECT_EQ(classify_body("has spaces = not query"), BodyKind::kText);
}

TEST(BodyKind, ClassifyEmptyAndBinary) {
    EXPECT_EQ(classify_body(""), BodyKind::kNone);
    EXPECT_EQ(classify_body("   "), BodyKind::kNone);
    EXPECT_EQ(classify_body(std::string("\x01\x02payload", 9)), BodyKind::kBinary);
}

TEST(Headers, CaseInsensitiveLookup) {
    Request r;
    r.headers.push_back({"User-Agent", "test/1.0"});
    ASSERT_NE(r.header("user-agent"), nullptr);
    EXPECT_EQ(*r.header("USER-AGENT"), "test/1.0");
    EXPECT_EQ(r.header("cookie"), nullptr);
}

TEST(Request, StartLine) {
    Request r;
    r.method = Method::kPost;
    r.uri = text::parse_uri("https://h/p?x=1").value();
    EXPECT_EQ(r.start_line(), "POST https://h/p?x=1");
}

TEST(Trace, JsonRendering) {
    Trace trace;
    trace.app = "demo";
    Transaction t;
    t.request.method = Method::kPost;
    t.request.uri = text::parse_uri("http://api/login").value();
    t.request.headers.push_back({"Cookie", "sid=1"});
    t.request.body = "user=a&passwd=b";
    t.request.body_kind = BodyKind::kQueryString;
    t.response.status = 201;
    t.response.body = R"({"token":"x"})";
    t.response.body_kind = BodyKind::kJson;
    t.trigger = "login:login";
    trace.transactions.push_back(t);

    text::Json doc = trace.to_json();
    EXPECT_EQ(doc.find("app")->as_string(), "demo");
    const text::Json* txns = doc.find("transactions");
    ASSERT_NE(txns, nullptr);
    ASSERT_EQ(txns->items().size(), 1u);
    const text::Json& rt = txns->items()[0];
    EXPECT_EQ(rt.find("method")->as_string(), "POST");
    EXPECT_EQ(rt.find("uri")->as_string(), "http://api/login");
    EXPECT_EQ(rt.find("request_headers")->find("Cookie")->as_string(), "sid=1");
    EXPECT_EQ(rt.find("request_body")->as_string(), "user=a&passwd=b");
    EXPECT_EQ(rt.find("request_body_kind")->as_string(), "query");
    EXPECT_EQ(rt.find("status")->as_int(), 201);
    EXPECT_EQ(rt.find("response_body_kind")->as_string(), "json");
    EXPECT_EQ(rt.find("trigger")->as_string(), "login:login");
}
