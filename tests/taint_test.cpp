#include <gtest/gtest.h>

#include "semantics/model.hpp"
#include "taint/engine.hpp"
#include "xir/builder.hpp"
#include "xir/callgraph.hpp"

using namespace extractocol;
using namespace extractocol::xir;
using namespace extractocol::taint;
constexpr auto in_str = extractocol::support::intern::str;

namespace {

struct Fixture {
    Program program;
    semantics::SemanticModel model = semantics::SemanticModel::standard();
    std::unique_ptr<CallGraph> cg;
    std::unique_ptr<TaintEngine> engine;

    explicit Fixture(Program p, EngineOptions options = {}) : program(std::move(p)) {
        cg = std::make_unique<CallGraph>(program, model.callback_resolver());
        engine = std::make_unique<TaintEngine>(program, *cg, model, options);
    }

    StmtRef find_call(const char* method_sig, const char* callee_method) const {
        MethodRef ref{std::string(method_sig).substr(0, std::string(method_sig).rfind('.')),
                      std::string(method_sig).substr(std::string(method_sig).rfind('.') + 1)};
        auto mi = program.method_index(ref);
        EXPECT_TRUE(mi.has_value()) << method_sig;
        const Method& m = program.method_at(*mi);
        for (BlockId b = 0; b < m.blocks.size(); ++b) {
            const auto& stmts = m.blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                if (const auto* call = std::get_if<Invoke>(&stmts[i])) {
                    if (call->callee.method_name == callee_method) return {*mi, b, i};
                }
            }
        }
        ADD_FAILURE() << "call not found: " << callee_method << " in " << method_sig;
        return {};
    }
};

/// onClick: url pieces -> StringBuilder -> HttpGet -> execute; response ->
/// EntityUtils.toString -> JSONObject -> getString("token") -> static field.
Program make_http_app() {
    ProgramBuilder pb("taintapp");
    auto cls = pb.add_class("com.t.Main");
    auto mb = cls.method("onClick");
    LocalId sb = mb.local("sb", "java.lang.StringBuilder");
    mb.new_object(sb, "java.lang.StringBuilder");
    mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://api.t.com/login?u=")});
    LocalId user = mb.local("user", "java.lang.String");
    mb.assign(user, cs("alice"));
    mb.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(user)});
    LocalId url = mb.local("url", "java.lang.String");
    mb.vcall(url, sb, "java.lang.StringBuilder.toString");
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("client", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("resp", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    LocalId entity = mb.local("entity", "org.apache.http.HttpEntity");
    mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
    LocalId body = mb.local("body", "java.lang.String");
    mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
    LocalId json = mb.local("json", "org.json.JSONObject");
    mb.new_object(json, "org.json.JSONObject");
    mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
    LocalId token = mb.local("token", "java.lang.String");
    mb.vcall(token, json, "org.json.JSONObject.getString", {cs("token")});
    mb.store_static("com.t.State", "sToken", Operand(token));
    mb.ret();
    pb.register_event({"com.t.Main", "onClick"}, EventKind::kOnClick, "click");
    return pb.build();
}

}  // namespace

TEST(TaintForward, ResponseFlowsToStaticViaJson) {
    Fixture fx(make_http_app());
    StmtRef dp = fx.find_call("com.t.Main.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    ASSERT_TRUE(call.dst.has_value());

    auto result = fx.engine->run(Direction::kForward,
                                 {{dp, AccessPath::of_local(*call.dst)}});
    // The getString call and the static store must be in the forward slice.
    StmtRef get_string = fx.find_call("com.t.Main.onClick", "getString");
    EXPECT_TRUE(result.contains(get_string));
    // Token static became tainted, with the json field recorded.
    bool static_tainted = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.static_class) == "com.t.State" && in_str(g.key) == "sToken") {
            static_tainted = true;
        }
    }
    EXPECT_TRUE(static_tainted);
}

TEST(TaintForward, FieldSensitiveJsonKeys) {
    // json.put("a", tainted); json.getString("b") must NOT be tainted.
    ProgramBuilder pb("fieldsens");
    auto cls = pb.add_class("com.t.F");
    auto mb = cls.method("go");
    LocalId src = mb.local("src", "java.lang.String");
    mb.assign(src, cs("seed"));
    LocalId json = mb.local("json", "org.json.JSONObject");
    mb.new_object(json, "org.json.JSONObject");
    mb.special(json, "org.json.JSONObject.<init>", {cnull()});
    mb.vcall(std::nullopt, json, "org.json.JSONObject.put", {cs("a"), Operand(src)});
    LocalId a = mb.local("a", "java.lang.String");
    LocalId b = mb.local("b", "java.lang.String");
    mb.vcall(a, json, "org.json.JSONObject.getString", {cs("a")});
    mb.vcall(b, json, "org.json.JSONObject.getString", {cs("b")});
    mb.store_static("com.t.S", "A", Operand(a));
    mb.store_static("com.t.S", "B", Operand(b));
    mb.ret();
    pb.register_event({"com.t.F", "go"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());

    // Seed: src tainted after its assignment (stmt index 0 in block 0).
    auto mi = fx.program.method_index({"com.t.F", "go"});
    auto result = fx.engine->run(Direction::kForward,
                                 {{StmtRef{*mi, 0, 0}, AccessPath::of_local(src)}});
    bool a_tainted = false, b_tainted = false;
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.key) == "A") a_tainted = true;
        if (g.is_static() && in_str(g.key) == "B") b_tainted = true;
    }
    EXPECT_TRUE(a_tainted);
    EXPECT_FALSE(b_tainted);
}

TEST(TaintBackward, RequestSliceFindsUriConstruction) {
    Fixture fx(make_http_app());
    StmtRef dp = fx.find_call("com.t.Main.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    ASSERT_TRUE(call.args[0].is_local());

    auto result = fx.engine->run(Direction::kBackward,
                                 {{dp, AccessPath::of_local(call.args[0].local)}});
    // Backward slice must include the StringBuilder init, append, toString,
    // HttpGet <init>, and the constant assignment feeding append.
    EXPECT_TRUE(result.contains(fx.find_call("com.t.Main.onClick", "<init>")));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.Main.onClick", "append")));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.Main.onClick", "toString")));
    // The response-processing statements must NOT be in the backward slice.
    EXPECT_FALSE(result.contains(fx.find_call("com.t.Main.onClick", "getString")));
}

TEST(TaintBackward, CrossesHelperMethods) {
    // onClick calls buildUrl(); the backward slice from the DP must descend
    // into the helper and mark its append statements.
    ProgramBuilder pb("helper");
    auto cls = pb.add_class("com.t.H");
    {
        auto mb = cls.method("buildUrl");
        mb.returns("java.lang.String");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://h/")});
        mb.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("feed.json")});
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        mb.ret(Operand(url));
    }
    {
        auto mb = cls.method("onClick");
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, mb.self(), "com.t.H.buildUrl");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    pb.register_event({"com.t.H", "onClick"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());
    StmtRef dp = fx.find_call("com.t.H.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    auto result = fx.engine->run(Direction::kBackward,
                                 {{dp, AccessPath::of_local(call.args[0].local)}});
    EXPECT_TRUE(result.contains(fx.find_call("com.t.H.buildUrl", "append")));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.H.buildUrl", "toString")));
}

TEST(TaintCrossEvent, GlobalsGatedByHeuristic) {
    // Event A stores a static; event B reads it into a request. With the
    // async heuristic enabled the flow links; disabled, it does not.
    ProgramBuilder pb("xevent");
    auto cls = pb.add_class("com.t.X");
    {
        auto mb = cls.method("onLocation");
        LocalId city = mb.local("city", "java.lang.String");
        mb.assign(city, cs("seoul"));
        mb.store_static("com.t.X", "sCity", Operand(city));
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        LocalId city = mb.local("city", "java.lang.String");
        mb.load_static(city, "com.t.X", "sCity");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://w/?q=")});
        mb.vcall(sb, sb, "java.lang.StringBuilder.append", {Operand(city)});
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
        LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute",
                 {Operand(req)});
        mb.ret();
    }
    pb.register_event({"com.t.X", "onLocation"}, EventKind::kOnLocation, "loc");
    pb.register_event({"com.t.X", "onClick"}, EventKind::kOnClick, "click");
    Program p = pb.build();

    auto locate_store = [&](const Program& prog) -> StmtRef {
        auto mi = prog.method_index({"com.t.X", "onLocation"});
        return {*mi, 0, 1};  // the store_static statement
    };

    {
        Fixture fx(p, EngineOptions{.cross_event_globals = true});
        StmtRef dp = fx.find_call("com.t.X.onClick", "execute");
        const auto& call = std::get<Invoke>(fx.program.statement(dp));
        auto result = fx.engine->run(Direction::kBackward,
                                     {{dp, AccessPath::of_local(call.args[0].local)}});
        EXPECT_TRUE(result.contains(locate_store(fx.program)));
    }
    {
        Fixture fx(p, EngineOptions{.cross_event_globals = false});
        StmtRef dp = fx.find_call("com.t.X.onClick", "execute");
        const auto& call = std::get<Invoke>(fx.program.statement(dp));
        auto result = fx.engine->run(Direction::kBackward,
                                     {{dp, AccessPath::of_local(call.args[0].local)}});
        EXPECT_FALSE(result.contains(locate_store(fx.program)));
    }
}

TEST(TaintForward, KillOnReassignment) {
    ProgramBuilder pb("kill");
    auto cls = pb.add_class("com.t.K");
    auto mb = cls.method("go");
    LocalId x = mb.local("x", "java.lang.String");
    mb.assign(x, cs("tainted"));
    mb.assign(x, cs("clean"));  // redefinition kills
    mb.store_static("com.t.K", "S", Operand(x));
    mb.ret();
    pb.register_event({"com.t.K", "go"}, EventKind::kOnClick, "c");
    Fixture fx(pb.build());
    auto mi = fx.program.method_index({"com.t.K", "go"});
    auto result = fx.engine->run(Direction::kForward,
                                 {{StmtRef{*mi, 0, 0}, AccessPath::of_local(x)}});
    EXPECT_TRUE(result.globals.empty());
}

TEST(TaintForward, CallEventsReportTaintedArgs) {
    Fixture fx(make_http_app());
    StmtRef dp = fx.find_call("com.t.Main.onClick", "execute");
    const auto& call = std::get<Invoke>(fx.program.statement(dp));
    auto result = fx.engine->run(Direction::kForward,
                                 {{dp, AccessPath::of_local(*call.dst)}});
    // getEntity is invoked on the tainted response: base_tainted event.
    StmtRef get_entity = fx.find_call("com.t.Main.onClick", "getEntity");
    bool seen = false;
    for (const auto& ev : result.call_events) {
        if (ev.stmt == get_entity) {
            seen = true;
            EXPECT_TRUE(ev.base_tainted);
        }
    }
    EXPECT_TRUE(seen);
}

// ---- per-run method state is built on first touch ----

namespace {

/// The first statement of method `ref` satisfying `pred`, in block order.
template <typename Pred>
StmtRef find_stmt(const Program& program, const MethodRef& ref, Pred pred) {
    auto mi = program.method_index(ref);
    EXPECT_TRUE(mi.has_value()) << ref.qualified();
    const Method& m = program.method_at(*mi);
    for (BlockId b = 0; b < m.blocks.size(); ++b) {
        const auto& stmts = m.blocks[b].statements;
        for (std::uint32_t i = 0; i < stmts.size(); ++i) {
            if (pred(stmts[i])) return {*mi, b, i};
        }
    }
    ADD_FAILURE() << "statement not found in " << ref.qualified();
    return {};
}

bool stores_static(const Statement& stmt, const char* field) {
    const auto* store = std::get_if<StoreStatic>(&stmt);
    return store != nullptr && store->field == field;
}

bool has_static(const TaintResult& result, const char* field) {
    for (const auto& g : result.globals) {
        if (g.is_static() && in_str(g.key) == field) return true;
    }
    return false;
}

/// A helper returning a built URL, a static crossing two events, JSON
/// parsing, a branch and a loop — followed by `unreachable` methods that
/// nothing calls (each a StringBuilder chain, a branch, a static store of
/// its own and a call to its predecessor).
Program make_layered_app(int unreachable) {
    ProgramBuilder pb("layered");
    auto cls = pb.add_class("com.t.L");
    {
        auto mb = cls.method("buildUrl");
        mb.returns("java.lang.String");
        LocalId base = mb.param("base", "java.lang.String");
        LocalId sb = mb.local("sb", "java.lang.StringBuilder");
        mb.new_object(sb, "java.lang.StringBuilder");
        mb.special(sb, "java.lang.StringBuilder.<init>", {Operand(base)});
        LocalId i = mb.local("i", "int");
        mb.assign(i, ci(0));
        mb.while_loop(lt(Operand(i), ci(3)), [&](MethodBuilder& body) {
            body.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("/p")});
            body.binop(i, BinaryOp::Op::kAdd, Operand(i), ci(1));
        });
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, sb, "java.lang.StringBuilder.toString");
        mb.ret(Operand(url));
    }
    {
        auto mb = cls.method("onCreate");
        LocalId token = mb.local("token", "java.lang.String");
        mb.assign(token, cs("secret"));
        mb.store_static("com.t.L", "sToken", Operand(token));
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        LocalId base = mb.local("base", "java.lang.String");
        mb.assign(base, cs("http://l/"));
        LocalId url = mb.local("url", "java.lang.String");
        mb.vcall(url, mb.self(), "com.t.L.buildUrl", {Operand(base)});
        LocalId token = mb.local("token", "java.lang.String");
        mb.load_static(token, "com.t.L", "sToken");
        LocalId full = mb.local("full", "java.lang.String");
        mb.concat(full, Operand(url), Operand(token));
        LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
        mb.new_object(req, "org.apache.http.client.methods.HttpGet");
        mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(full)});
        LocalId client = mb.local("client", "org.apache.http.client.HttpClient");
        LocalId resp = mb.local("resp", "org.apache.http.HttpResponse");
        mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
        LocalId entity = mb.local("entity", "org.apache.http.HttpEntity");
        mb.vcall(entity, resp, "org.apache.http.HttpResponse.getEntity");
        LocalId body = mb.local("body", "java.lang.String");
        mb.scall(body, "org.apache.http.util.EntityUtils.toString", {Operand(entity)});
        LocalId json = mb.local("json", "org.json.JSONObject");
        mb.new_object(json, "org.json.JSONObject");
        mb.special(json, "org.json.JSONObject.<init>", {Operand(body)});
        LocalId name = mb.local("name", "java.lang.String");
        mb.vcall(name, json, "org.json.JSONObject.getString", {cs("name")});
        mb.if_then_else(
            eq(Operand(name), cnull()),
            [&](MethodBuilder& then) { then.store_static("com.t.L", "sName", cs("none")); },
            [&](MethodBuilder& other) {
                other.store_static("com.t.L", "sName", Operand(name));
            });
        mb.ret();
    }
    pb.register_event({"com.t.L", "onCreate"}, EventKind::kOnCreate, "create");
    pb.register_event({"com.t.L", "onClick"}, EventKind::kOnClick, "click");
    if (unreachable > 0) {
        auto extra = pb.add_class("com.t.Unreached");
        for (int k = 0; k < unreachable; ++k) {
            auto mb = extra.method("u" + std::to_string(k));
            mb.returns("java.lang.String");
            LocalId s = mb.param("s", "java.lang.String");
            LocalId sb = mb.local("sb", "java.lang.StringBuilder");
            mb.new_object(sb, "java.lang.StringBuilder");
            mb.special(sb, "java.lang.StringBuilder.<init>", {Operand(s)});
            mb.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("x")});
            LocalId out = mb.local("out", "java.lang.String");
            mb.vcall(out, sb, "java.lang.StringBuilder.toString");
            mb.if_then(ne(Operand(out), cnull()), [&](MethodBuilder& then) {
                then.store_static("com.t.Unreached", "f" + std::to_string(k), Operand(out));
            });
            if (k > 0) {
                mb.vcall(std::nullopt, mb.self(),
                         "com.t.Unreached.u" + std::to_string(k - 1), {Operand(out)});
            }
            mb.ret(Operand(out));
        }
    }
    return pb.build();
}

void expect_same_result(const TaintResult& a, const TaintResult& b, const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(a.statements, b.statements);
    EXPECT_EQ(a.methods, b.methods);
    EXPECT_EQ(a.globals, b.globals);
    EXPECT_EQ(a.steps_used, b.steps_used);
    EXPECT_EQ(a.truncated, b.truncated);
    ASSERT_EQ(a.call_events.size(), b.call_events.size());
    for (std::size_t i = 0; i < a.call_events.size(); ++i) {
        EXPECT_EQ(a.call_events[i].stmt, b.call_events[i].stmt);
        EXPECT_EQ(a.call_events[i].base_tainted, b.call_events[i].base_tainted);
        EXPECT_EQ(a.call_events[i].dst_tainted, b.call_events[i].dst_tainted);
        EXPECT_EQ(a.call_events[i].args_tainted, b.call_events[i].args_tainted);
    }
}

}  // namespace

TEST(TaintLazyState, BoundarySeedInUnreachedMethod) {
    // Nothing calls check(); a seed at its entry block must still flow
    // through its branch into the static store.
    ProgramBuilder pb("orphan");
    auto cls = pb.add_class("com.t.O");
    LocalId p = 0;
    {
        auto mb = cls.method("check");
        p = mb.param("p", "java.lang.String");
        LocalId copy = mb.local("copy", "java.lang.String");
        mb.assign(copy, Operand(p));
        mb.if_then(ne(Operand(copy), cnull()), [&](MethodBuilder& then) {
            then.store_static("com.t.O", "sSeen", Operand(copy));
        });
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        mb.store_static("com.t.O", "sOther", cs("x"));
        mb.ret();
    }
    pb.register_event({"com.t.O", "onClick"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());
    auto mi = fx.program.method_index({"com.t.O", "check"});
    ASSERT_TRUE(mi.has_value());
    const Method& check = fx.program.method_at(*mi);
    ASSERT_GT(check.blocks.size(), 1u);

    TaintSeed seed{StmtRef{*mi, 0, 0}, AccessPath::of_local(p), /*at_block_boundary=*/true};
    auto result = fx.engine->run(Direction::kForward, {seed});
    EXPECT_EQ(result.methods, std::set<std::uint32_t>{*mi});
    EXPECT_TRUE(result.contains(
        find_stmt(fx.program, {"com.t.O", "check"},
                  [](const Statement& s) { return stores_static(s, "sSeen"); })));
    EXPECT_TRUE(has_static(result, "sSeen"));
    EXPECT_FALSE(has_static(result, "sOther"));
    EXPECT_FALSE(result.truncated);
}

TEST(TaintLazyState, CallSiteCreatedCalleeRequeuesSubscribersWhenSummaryGrows) {
    // onClick stores a tainted static, then calls get() before any taint
    // has reached get(): the call site builds get()'s state with an empty
    // summary. get() then reads the static, its return summary grows, and
    // the call site must be revisited so the result reaches sOut.
    ProgramBuilder pb("subscribers");
    auto cls = pb.add_class("com.t.S");
    {
        auto mb = cls.method("get");
        mb.returns("java.lang.String");
        LocalId v = mb.local("v", "java.lang.String");
        mb.load_static(v, "com.t.S", "sIn");
        mb.ret(Operand(v));
    }
    {
        auto mb = cls.method("onClick");
        LocalId a = mb.local("a", "java.lang.String");
        mb.assign(a, cs("seed"));
        mb.store_static("com.t.S", "sIn", Operand(a));
        LocalId r = mb.local("r", "java.lang.String");
        mb.vcall(r, mb.self(), "com.t.S.get");
        mb.store_static("com.t.S", "sOut", Operand(r));
        mb.ret();
    }
    pb.register_event({"com.t.S", "onClick"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());
    auto on_click = fx.program.method_index({"com.t.S", "onClick"});
    auto get = fx.program.method_index({"com.t.S", "get"});
    ASSERT_TRUE(on_click && get);

    const auto& assign =
        std::get<AssignConst>(fx.program.statement(StmtRef{*on_click, 0, 0}));
    auto result = fx.engine->run(Direction::kForward,
                                 {{StmtRef{*on_click, 0, 0}, AccessPath::of_local(assign.dst)}});
    EXPECT_TRUE(has_static(result, "sIn"));
    EXPECT_TRUE(has_static(result, "sOut"));
    EXPECT_TRUE(result.contains(fx.find_call("com.t.S.onClick", "get")));
    EXPECT_TRUE(result.contains(
        find_stmt(fx.program, {"com.t.S", "onClick"},
                  [](const Statement& s) { return stores_static(s, "sOut"); })));
    EXPECT_EQ(result.methods, (std::set<std::uint32_t>{*on_click, *get}));
}

TEST(TaintLazyState, BackwardFlowReachesCallerFirstTouchedThroughLocalSeeds) {
    // The backward seed sits in send(); its parameter demand is the first
    // thing that touches onClick, through a caller-side local seed.
    ProgramBuilder pb("callerseed");
    auto cls = pb.add_class("com.t.B");
    {
        auto mb = cls.method("send");
        LocalId p = mb.param("p", "java.lang.String");
        LocalId url = mb.local("url", "java.lang.String");
        mb.concat(url, Operand(p), cs("/x"));
        mb.store_static("com.t.B", "sUrl", Operand(url));
        mb.ret();
    }
    {
        auto mb = cls.method("onClick");
        LocalId host = mb.local("host", "java.lang.String");
        mb.assign(host, cs("http://b"));
        LocalId unrelated = mb.local("unrelated", "java.lang.String");
        mb.assign(unrelated, cs("n/a"));
        mb.vcall(std::nullopt, mb.self(), "com.t.B.send", {Operand(host)});
        mb.store_static("com.t.B", "sOther", Operand(unrelated));
        mb.ret();
    }
    pb.register_event({"com.t.B", "onClick"}, EventKind::kOnClick, "click");
    Fixture fx(pb.build());
    auto send = fx.program.method_index({"com.t.B", "send"});
    auto on_click = fx.program.method_index({"com.t.B", "onClick"});
    ASSERT_TRUE(send && on_click);

    StmtRef store = find_stmt(fx.program, {"com.t.B", "send"},
                              [](const Statement& s) { return stores_static(s, "sUrl"); });
    const auto& stmt = std::get<StoreStatic>(fx.program.statement(store));
    auto result = fx.engine->run(Direction::kBackward,
                                 {{store, AccessPath::of_local(stmt.src.local)}});
    EXPECT_EQ(result.methods, (std::set<std::uint32_t>{*on_click, *send}));
    StmtRef call = fx.find_call("com.t.B.onClick", "send");
    EXPECT_TRUE(result.contains(call));
    // The constant feeding the argument is in the slice; the unrelated one
    // is not.
    EXPECT_TRUE(result.contains(StmtRef{*on_click, 0, 0}));
    EXPECT_FALSE(result.contains(StmtRef{*on_click, 0, 1}));
}

TEST(TaintLazyState, UnreachableMethodsLeaveEveryResultFieldUnchanged) {
    Fixture base(make_layered_app(0));
    // Seeds: forward from every call result, backward from every local
    // call argument and receiver, and a forward entry seed on buildUrl.
    std::vector<std::pair<Direction, std::vector<TaintSeed>>> runs;
    const auto& methods = base.program.method_table();
    for (std::uint32_t mi = 0; mi < methods.size(); ++mi) {
        for (BlockId b = 0; b < methods[mi]->blocks.size(); ++b) {
            const auto& stmts = methods[mi]->blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                const auto* call = std::get_if<Invoke>(&stmts[i]);
                if (call == nullptr) continue;
                StmtRef ref{mi, b, i};
                if (call->dst) {
                    runs.push_back({Direction::kForward,
                                    {{ref, AccessPath::of_local(*call->dst)}}});
                }
                std::vector<TaintSeed> backward;
                if (call->base) backward.push_back({ref, AccessPath::of_local(*call->base)});
                for (const auto& arg : call->args) {
                    if (arg.is_local()) backward.push_back({ref, AccessPath::of_local(arg.local)});
                }
                if (!backward.empty()) runs.push_back({Direction::kBackward, backward});
            }
        }
    }
    auto build_url = base.program.method_index({"com.t.L", "buildUrl"});
    ASSERT_TRUE(build_url.has_value());
    // buildUrl is an instance method, so local 1 is its `base` parameter.
    runs.push_back({Direction::kForward,
                    {{StmtRef{*build_url, 0, 0}, AccessPath::of_local(1), true}}});
    ASSERT_GT(runs.size(), 10u);

    std::vector<TaintResult> expected;
    for (const auto& [direction, seeds] : runs) {
        expected.push_back(base.engine->run(direction, seeds));
    }
    for (int k : {1, 7, 40}) {
        Fixture grown(make_layered_app(k));
        ASSERT_EQ(grown.program.method_table().size(), methods.size() + k);
        for (std::size_t r = 0; r < runs.size(); ++r) {
            const auto& [direction, seeds] = runs[r];
            expect_same_result(expected[r], grown.engine->run(direction, seeds),
                               "k=" + std::to_string(k) + " run " + std::to_string(r));
        }
    }
}
