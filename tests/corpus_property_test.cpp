// Corpus-wide property suites: invariants that must hold for every app in
// the corpus — container round-trips, obfuscation invariance of the
// analysis, report self-consistency, and JSON round-trips over generated
// documents.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "interp/interpreter.hpp"
#include "semantics/model.hpp"
#include "support/hash.hpp"
#include "xapk/obfuscate.hpp"
#include "text/regex.hpp"
#include "xapk/serialize.hpp"
#include "xir/callgraph.hpp"

using namespace extractocol;

namespace {

std::string safe_name(const std::string& name) {
    std::string out = name;
    for (auto& c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return out;
}

std::vector<std::string> all_apps() {
    std::vector<std::string> names = corpus::open_source_apps();
    for (const auto& n : corpus::closed_source_apps()) names.push_back(n);
    return names;
}

core::AnalysisReport analyze_like_paper(const corpus::CorpusApp& app,
                                        const xir::Program& program) {
    core::AnalyzerOptions options;
    options.async_heuristic = !app.spec.open_source;
    return core::Analyzer(options).analyze(program);
}

std::multiset<std::string> transaction_digests(const core::AnalysisReport& report) {
    std::multiset<std::string> out;
    for (const auto& t : report.transactions) {
        out.insert(std::string(http::method_name(t.signature.method)) + "|" +
                   t.uri_regex + "|" + t.body_regex + "|" + t.response_regex);
    }
    return out;
}

}  // namespace

class CorpusProperty : public ::testing::TestWithParam<std::string> {};

// Property: CallGraph::edges_at(site) is exactly the caller's out-edges
// filtered to that site, in the same order — empty for every statement that
// is not a resolved call. (Multi-edge sites: xir_test.)
TEST_P(CorpusProperty, CallGraphEdgesAtMatchesFilteredEdgesFrom) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    const xir::Program& p = app.program;
    auto model = semantics::SemanticModel::standard();
    xir::CallGraph cg(p, model.callback_resolver());
    auto same = [](const xir::CallEdge& a, const xir::CallEdge& b) {
        return a.site == b.site && a.caller == b.caller && a.callee == b.callee &&
               a.kind == b.kind;
    };
    for (std::uint32_t mi = 0; mi < p.method_table().size(); ++mi) {
        const xir::Method& m = p.method_at(mi);
        for (xir::BlockId b = 0; b < m.blocks.size(); ++b) {
            for (std::uint32_t i = 0; i < m.blocks[b].statements.size(); ++i) {
                xir::StmtRef site{mi, b, i};
                std::vector<xir::CallEdge> expected;
                for (const auto& e : cg.edges_from(mi)) {
                    if (e.site == site) expected.push_back(e);
                }
                auto got = cg.edges_at(site);
                ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                                       expected.end(), same))
                    << p.method_at(mi).ref().qualified() << " b" << b << " #" << i;
                if (!std::holds_alternative<xir::Invoke>(m.blocks[b].statements[i])) {
                    EXPECT_TRUE(got.empty());
                }
            }
        }
    }
}

// Property: write(parse(write(p))) == write(p), and the parsed program is
// analysis-equivalent to the original.
TEST_P(CorpusProperty, XapkRoundTripIsIdentity) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    std::string once = xapk::write_xapk(app.program);
    auto parsed = xapk::parse_xapk(once);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(xapk::write_xapk(parsed.value()), once);
}

// Property (§5.1): ProGuard-style identifier renaming must not change any
// signature the analysis produces.
TEST_P(CorpusProperty, ObfuscationInvariance) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    auto baseline = transaction_digests(analyze_like_paper(app, app.program));
    auto [obfuscated, map] = xapk::obfuscate(app.program);
    auto renamed = transaction_digests(analyze_like_paper(app, obfuscated));
    EXPECT_EQ(baseline, renamed) << GetParam();
}

// Property: every emitted URI regex compiles in our engine, and dependency
// edges index real transactions.
TEST_P(CorpusProperty, ReportSelfConsistency) {
    corpus::CorpusApp app = corpus::build_app(GetParam());
    core::AnalysisReport report = analyze_like_paper(app, app.program);
    for (const auto& t : report.transactions) {
        EXPECT_TRUE(text::Regex::compile(t.uri_regex).ok()) << t.uri_regex;
        if (!t.body_regex.empty()) {
            EXPECT_TRUE(text::Regex::compile(t.body_regex).ok()) << t.body_regex;
        }
        EXPECT_FALSE(t.triggers.empty());
    }
    for (const auto& d : report.dependencies) {
        ASSERT_LT(d.from, report.transactions.size());
        ASSERT_LT(d.to, report.transactions.size());
    }
    EXPECT_LE(report.pair_count(), report.transactions.size());
    // Slices are a strict subset of the program.
    EXPECT_LT(report.stats.slice_statements, report.stats.total_statements);
}

INSTANTIATE_TEST_SUITE_P(AllApps, CorpusProperty, ::testing::ValuesIn(all_apps()),
                         [](const auto& info) { return safe_name(info.param); });

// ------------------------- generated-document properties -------------------

namespace {

text::Json random_json(SplitMix64& rng, int depth) {
    switch (depth <= 0 ? rng.next_below(4) : rng.next_below(6)) {
        case 0: return text::Json(nullptr);
        case 1: return text::Json(static_cast<std::int64_t>(rng.next()) % 100000);
        case 2: return text::Json(rng.next_below(2) == 0);
        case 3: {
            std::string s;
            for (std::size_t i = rng.next_below(12); i-- > 0;) {
                s.push_back("abz019 \"\\\n\t{}:,"[rng.next_below(15)]);
            }
            return text::Json(std::move(s));
        }
        case 4: {
            text::Json arr = text::Json::array();
            for (std::size_t i = rng.next_below(4); i-- > 0;) {
                arr.push_back(random_json(rng, depth - 1));
            }
            return arr;
        }
        default: {
            text::Json obj = text::Json::object();
            for (std::size_t i = rng.next_below(4); i-- > 0;) {
                obj.set("k" + std::to_string(rng.next_below(8)),
                        random_json(rng, depth - 1));
            }
            return obj;
        }
    }
}

}  // namespace

TEST(JsonProperty, DumpParseRoundTripOnGeneratedDocuments) {
    SplitMix64 rng(0x15a5);
    for (int round = 0; round < 300; ++round) {
        text::Json doc = random_json(rng, 3);
        auto parsed = text::parse_json(doc.dump());
        ASSERT_TRUE(parsed.ok()) << doc.dump();
        EXPECT_EQ(parsed.value(), doc) << doc.dump();
        // Pretty form parses back to the same document too.
        auto pretty = text::parse_json(doc.dump_pretty());
        ASSERT_TRUE(pretty.ok());
        EXPECT_EQ(pretty.value(), doc);
    }
}

TEST(TraceProperty, JsonRenderingCoversEveryCorpusTrace) {
    // The fuzzing traces of a few representative apps render one JSON row
    // per transaction carrying its URI and response body (make_corpus
    // writes traces this way).
    for (const char* name : {"radio reddit", "TED", "Diode"}) {
        corpus::CorpusApp app = corpus::build_app(name);
        auto server = app.make_server();
        interp::Interpreter interpreter(app.program, *server);
        http::Trace trace = interpreter.fuzz(interp::FuzzMode::kManual);
        text::Json doc = trace.to_json();
        const text::Json* rows = doc.find("transactions");
        ASSERT_NE(rows, nullptr);
        ASSERT_EQ(rows->items().size(), trace.transactions.size());
        for (std::size_t i = 0; i < trace.transactions.size(); ++i) {
            EXPECT_EQ(rows->items()[i].find("uri")->as_string(),
                      trace.transactions[i].request.uri.to_string());
            EXPECT_EQ(rows->items()[i].find("response_body")->as_string(),
                      trace.transactions[i].response.body);
        }
    }
}
