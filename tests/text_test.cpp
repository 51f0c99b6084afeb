#include <gtest/gtest.h>

#include "text/json.hpp"
#include "text/regex.hpp"
#include "text/uri.hpp"
#include "text/xml.hpp"

using namespace extractocol::text;

// ----------------------------------------------------------------- JSON --

TEST(Json, ParseScalars) {
    EXPECT_TRUE(parse_json("null").value().is_null());
    EXPECT_EQ(parse_json("true").value().as_bool(), true);
    EXPECT_EQ(parse_json("-17").value().as_int(), -17);
    EXPECT_DOUBLE_EQ(parse_json("2.5").value().as_double(), 2.5);
    EXPECT_EQ(parse_json("\"hi\"").value().as_string(), "hi");
}

TEST(Json, ParseNested) {
    auto doc = parse_json(R"({"a":[1,{"b":"x"}],"c":{"d":null}})");
    ASSERT_TRUE(doc.ok());
    const Json& v = doc.value();
    ASSERT_TRUE(v.is_object());
    const Json* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->is_array());
    EXPECT_EQ(a->items()[0].as_int(), 1);
    EXPECT_EQ(a->items()[1].find("b")->as_string(), "x");
}

TEST(Json, MemberOrderPreserved) {
    auto doc = parse_json(R"({"z":1,"a":2,"m":3})").value();
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "z");
    EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(Json, RoundTrip) {
    const char* text = R"({"key":"val","n":5,"arr":[true,null],"o":{"x":1.5}})";
    auto doc = parse_json(text).value();
    auto again = parse_json(doc.dump()).value();
    EXPECT_EQ(doc, again);
}

TEST(Json, EscapesRoundTrip) {
    Json v(std::string("quote\" slash\\ nl\n tab\t"));
    auto again = parse_json(v.dump());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().as_string(), v.as_string());
}

TEST(Json, UnicodeEscape) {
    auto doc = parse_json(R"("aAb")");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().as_string(), "aAb");
}

TEST(Json, Errors) {
    EXPECT_FALSE(parse_json("{").ok());
    EXPECT_FALSE(parse_json("[1,]").ok());
    EXPECT_FALSE(parse_json("{\"a\" 1}").ok());
    EXPECT_FALSE(parse_json("12 34").ok());
    EXPECT_FALSE(parse_json("'single'").ok());
    EXPECT_FALSE(parse_json("").ok());
}

TEST(Json, SetAndFind) {
    Json obj = Json::object();
    obj.set("a", 1);
    obj.set("a", 2);  // replaces
    ASSERT_EQ(obj.members().size(), 1u);
    EXPECT_EQ(obj.find("a")->as_int(), 2);
    EXPECT_EQ(obj.find("zzz"), nullptr);
}

// ------------------------------------------------------------------ XML --

TEST(Xml, ParseBasic) {
    auto doc = parse_xml("<root a=\"1\"><child>text</child><child/></root>");
    ASSERT_TRUE(doc.ok());
    const XmlElement& root = *doc.value();
    EXPECT_EQ(root.name, "root");
    ASSERT_NE(root.attribute("a"), nullptr);
    EXPECT_EQ(*root.attribute("a"), "1");
    EXPECT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0]->text, "text");
}

TEST(Xml, PrologAndComments) {
    auto doc = parse_xml("<?xml version=\"1.0\"?><!-- hi --><r><!-- inner --><c/></r>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value()->children.size(), 1u);
}

TEST(Xml, Entities) {
    auto doc = parse_xml("<r a=\"x&amp;y\">1 &lt; 2</r>");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(*doc.value()->attribute("a"), "x&y");
    EXPECT_EQ(doc.value()->text, "1 < 2");
}

TEST(Xml, Errors) {
    EXPECT_FALSE(parse_xml("<a><b></a></b>").ok());
    EXPECT_FALSE(parse_xml("<a").ok());
    EXPECT_FALSE(parse_xml("plain").ok());
    EXPECT_FALSE(parse_xml("<a></a><b></b>").ok());
}

// ------------------------------------------------------------------ URI --

TEST(Uri, ParseFull) {
    auto uri = parse_uri("https://api.example.com:8443/v1/talks/99.json?a=1&b=two#frag");
    ASSERT_TRUE(uri.ok());
    const Uri& u = uri.value();
    EXPECT_EQ(u.scheme, "https");
    EXPECT_EQ(u.host, "api.example.com");
    ASSERT_TRUE(u.port.has_value());
    EXPECT_EQ(*u.port, 8443);
    EXPECT_EQ(u.path, "/v1/talks/99.json");
    ASSERT_EQ(u.query.size(), 2u);
    EXPECT_EQ(u.query[0].key, "a");
    EXPECT_EQ(*u.query_value("b"), "two");
    EXPECT_EQ(u.fragment, "frag");
}

TEST(Uri, Minimal) {
    auto uri = parse_uri("http://host").value();
    EXPECT_EQ(uri.path, "/");
    EXPECT_TRUE(uri.query.empty());
    EXPECT_EQ(uri.to_string(), "http://host/");
}

TEST(Uri, QueryDecoding) {
    auto uri = parse_uri("http://h/p?q=a%20b&empty=&noval").value();
    EXPECT_EQ(*uri.query_value("q"), "a b");
    EXPECT_EQ(*uri.query_value("empty"), "");
    EXPECT_EQ(*uri.query_value("noval"), "");
}

TEST(Uri, RoundTrip) {
    auto uri = parse_uri("https://h:99/a/b?x=1%202&y=z").value();
    auto again = parse_uri(uri.to_string()).value();
    EXPECT_EQ(uri, again);
}

TEST(Uri, Errors) {
    EXPECT_FALSE(parse_uri("ftp://host/x").ok());
    EXPECT_FALSE(parse_uri("nota uri").ok());
    EXPECT_FALSE(parse_uri("http://").ok());
    EXPECT_FALSE(parse_uri("http://host:notaport/").ok());
}

TEST(Uri, UserinfoStripped) {
    // RFC 3986 authority = [userinfo "@"] host [":" port]. Credentials are
    // dropped; they must poison neither the host nor the port parse.
    auto uri = parse_uri("http://user:pw@api.example.com:8080/v1?a=1").value();
    EXPECT_EQ(uri.host, "api.example.com");
    ASSERT_TRUE(uri.port.has_value());
    EXPECT_EQ(*uri.port, 8080);
    EXPECT_EQ(uri.path, "/v1");

    EXPECT_EQ(parse_uri("https://alice@host/p").value().host, "host");
    // '@' may legally occur inside userinfo; the host starts after the last.
    EXPECT_EQ(parse_uri("http://a@b@host/p").value().host, "host");
    // Userinfo with nothing after it is still a missing host.
    EXPECT_FALSE(parse_uri("http://user:pw@").ok());
    EXPECT_FALSE(parse_uri("http://user:pw@/path").ok());
}

TEST(Uri, UserinfoRoundTrip) {
    // to_string() never re-emits credentials; re-parsing its output is
    // stable (the round trip converges after the first parse).
    auto uri = parse_uri("http://user:pw@h:99/a/b?x=1%202&y=z#f").value();
    EXPECT_EQ(uri.to_string(), "http://h:99/a/b?x=1%202&y=z#f");
    auto again = parse_uri(uri.to_string()).value();
    EXPECT_EQ(uri, again);
}

TEST(Uri, HostCaseNormalized) {
    EXPECT_EQ(parse_uri("HTTP://ExAmPlE.com/P").value().host, "example.com");
    EXPECT_EQ(parse_uri("HTTP://ExAmPlE.com/P").value().path, "/P");
}

// ---------------------------------------------------------------- Regex --

TEST(Regex, LiteralMatch) {
    auto re = Regex::compile("abc").value();
    EXPECT_TRUE(re.full_match("abc"));
    EXPECT_FALSE(re.full_match("ab"));
    EXPECT_FALSE(re.full_match("abcd"));
}

TEST(Regex, DotStar) {
    auto re = Regex::compile("a.*z").value();
    EXPECT_TRUE(re.full_match("az"));
    EXPECT_TRUE(re.full_match("a-lots-of-stuff-z"));
    EXPECT_FALSE(re.full_match("a-lots"));
}

TEST(Regex, Classes) {
    auto re = Regex::compile("[0-9]+").value();
    EXPECT_TRUE(re.full_match("42"));
    EXPECT_FALSE(re.full_match(""));
    EXPECT_FALSE(re.full_match("4a"));
    auto neg = Regex::compile("[^/]+").value();
    EXPECT_TRUE(neg.full_match("abc"));
    EXPECT_FALSE(neg.full_match("a/b"));
}

TEST(Regex, Alternation) {
    auto re = Regex::compile("(save|unsave)").value();
    EXPECT_TRUE(re.full_match("save"));
    EXPECT_TRUE(re.full_match("unsave"));
    EXPECT_FALSE(re.full_match("saved"));
}

TEST(Regex, QuestAndPlus) {
    auto re = Regex::compile("ab?c+").value();
    EXPECT_TRUE(re.full_match("ac"));
    EXPECT_TRUE(re.full_match("abccc"));
    EXPECT_FALSE(re.full_match("abb"));
}

TEST(Regex, EscapedMeta) {
    auto re = Regex::compile("a\\.b\\*").value();
    EXPECT_TRUE(re.full_match("a.b*"));
    EXPECT_FALSE(re.full_match("axb*"));
}

TEST(Regex, PaperStyleUriSignature) {
    auto re = Regex::compile(
                  "http://www\\.reddit\\.com/search/\\.json\\?q=(.*)&sort=(.*)")
                  .value();
    EXPECT_TRUE(re.full_match("http://www.reddit.com/search/.json?q=cats&sort=top"));
    EXPECT_FALSE(re.full_match("http://www.reddit.com/r/pics/.json"));
}

TEST(Regex, Groups) {
    auto re = Regex::compile("(id=)(.*)(&uh=)(.*)").value();
    auto m = re.full_match_info("id=t3_abc&uh=hash123");
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->groups.size(), 5u);
    auto group_text = [&](int g, std::string_view subject) {
        auto [begin, end] = m->groups[static_cast<std::size_t>(g)];
        return std::string(subject.substr(begin, end - begin));
    };
    EXPECT_EQ(group_text(2, "id=t3_abc&uh=hash123"), "t3_abc");
    EXPECT_EQ(group_text(4, "id=t3_abc&uh=hash123"), "hash123");
}

TEST(Regex, ByteAccounting) {
    auto re = Regex::compile("id=(.*)&uh=(.*)").value();
    auto m = re.full_match_info("id=abc&uh=xy");
    ASSERT_TRUE(m.has_value());
    // Constants: "id=" (3) + "&uh=" (4) = 7; wildcards: "abc" + "xy" = 5.
    EXPECT_EQ(m->accounting.literal_bytes, 7u);
    EXPECT_EQ(m->accounting.wildcard_bytes, 5u);
}

TEST(Regex, Search) {
    auto re = Regex::compile("talks/[0-9]+").value();
    auto m = re.search("GET https://x/v1/talks/42/ad.json");
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->begin, 17u);
    EXPECT_EQ(m->end, 25u);
    EXPECT_FALSE(Regex::compile("zzz").value().search("abc").has_value());
}

TEST(Regex, StarOnGroup) {
    auto re = Regex::compile("a(bc)*d").value();
    EXPECT_TRUE(re.full_match("ad"));
    EXPECT_TRUE(re.full_match("abcbcd"));
    EXPECT_FALSE(re.full_match("abcbd"));
}

TEST(Regex, EmptyPattern) {
    auto re = Regex::compile("").value();
    EXPECT_TRUE(re.full_match(""));
    EXPECT_FALSE(re.full_match("x"));
}

TEST(Regex, Escape) {
    std::string escaped = Regex::escape("a.b?c(d)|e*");
    auto re = Regex::compile(escaped).value();
    EXPECT_TRUE(re.full_match("a.b?c(d)|e*"));
    EXPECT_FALSE(re.full_match("aXb?c(d)|e*"));
}

TEST(Regex, CompileErrors) {
    EXPECT_FALSE(Regex::compile("(").ok());
    EXPECT_FALSE(Regex::compile("a)").ok());
    EXPECT_FALSE(Regex::compile("[a").ok());
    EXPECT_FALSE(Regex::compile("*a").ok());
    EXPECT_FALSE(Regex::compile("a\\").ok());
}

TEST(Regex, NoCatastrophicBacktracking) {
    // (a*)*b against aaaa...a — exponential for backtrackers, linear here.
    auto re = Regex::compile("(a*)*b").value();
    std::string subject(2000, 'a');
    EXPECT_FALSE(re.full_match(subject));
}
