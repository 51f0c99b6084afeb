#include <gtest/gtest.h>

#include "semantics/deobfuscate.hpp"
#include "semantics/model.hpp"
#include "xapk/obfuscate.hpp"
#include "xir/builder.hpp"

using namespace extractocol;
using namespace extractocol::semantics;
using namespace extractocol::xir;

TEST(SemanticModel, DemarcationSurface) {
    auto model = SemanticModel::standard();
    // The paper quotes 39 DPs from 16 classes; our model covers the same
    // library families at somewhat smaller scale.
    EXPECT_GE(model.demarcation_count(), 12u);
    ASSERT_NE(model.demarcation("org.apache.http.client.HttpClient", "execute"), nullptr);
    ASSERT_NE(model.demarcation("okhttp3.Call", "execute"), nullptr);
    ASSERT_NE(model.demarcation("okhttp3.Call", "enqueue"), nullptr);
    ASSERT_NE(model.demarcation("java.net.HttpURLConnection", "getInputStream"), nullptr);
    ASSERT_NE(model.demarcation("com.android.volley.toolbox.StringRequest", "<init>"),
              nullptr);
    ASSERT_NE(model.demarcation("android.media.MediaPlayer", "setDataSource"), nullptr);
    EXPECT_EQ(model.demarcation("java.lang.String", "concat"), nullptr);
}

TEST(SemanticModel, ApiLookup) {
    auto model = SemanticModel::standard();
    const ApiModel* append = model.api("java.lang.StringBuilder", "append");
    ASSERT_NE(append, nullptr);
    EXPECT_EQ(append->action, SigAction::kAppend);
    const ApiModel* http_get =
        model.api("org.apache.http.client.methods.HttpGet", "<init>");
    ASSERT_NE(http_get, nullptr);
    EXPECT_EQ(http_get->http_method, "GET");
    EXPECT_EQ(model.api("com.example.NotAnApi", "foo"), nullptr);
}

TEST(SemanticModel, SourceAndConsumerTags) {
    auto model = SemanticModel::standard();
    EXPECT_EQ(model.api("android.media.MediaPlayer", "setDataSource")->consumer,
              ConsumerKind::kMediaPlayer);
    EXPECT_EQ(model.api("android.widget.EditText", "getText")->source,
              SourceKind::kUserInput);
    EXPECT_EQ(model.api("android.location.Location", "getLatitude")->source,
              SourceKind::kLocation);
}

TEST(SemanticModel, KnownLibraryClassifier) {
    auto model = SemanticModel::standard();
    EXPECT_TRUE(model.is_known_library_class("org.apache.http.HttpResponse"));
    EXPECT_TRUE(model.is_known_library_class("okhttp3.Call"));
    EXPECT_TRUE(model.is_known_library_class("java.lang.String"));
    EXPECT_FALSE(model.is_known_library_class("a.b.c"));
    EXPECT_FALSE(model.is_known_library_class("com.example.app.Main"));
}

TEST(SemanticModel, RegisterIsExtensible) {
    auto model = SemanticModel::standard();
    ApiModel custom;
    custom.cls = "com.custom.HttpLib";
    custom.method = "fire";
    custom.action = SigAction::kNone;
    model.register_api(custom);
    EXPECT_NE(model.api("com.custom.HttpLib", "fire"), nullptr);

    DemarcationSpec dp;
    dp.cls = "com.custom.HttpLib";
    dp.method = "fire";
    dp.request = Role::arg(0);
    dp.library = "custom";
    std::size_t before = model.demarcation_count();
    model.register_demarcation(dp);
    EXPECT_EQ(model.demarcation_count(), before + 1);
    EXPECT_NE(model.demarcation("com.custom.HttpLib", "fire"), nullptr);
}

namespace {

/// App that bundles (and will obfuscate) an HTTP + JSON library surface.
Program make_library_user() {
    ProgramBuilder pb("libuser");
    auto cls = pb.add_class("com.app.Main");
    auto mb = cls.method("go");
    LocalId sb = mb.local("sb", "java.lang.StringBuilder");
    mb.new_object(sb, "java.lang.StringBuilder");
    mb.special(sb, "java.lang.StringBuilder.<init>", {cs("http://h/x")});
    mb.vcall(sb, sb, "java.lang.StringBuilder.append", {cs("?q=1")});
    LocalId url = mb.local("url", "java.lang.String");
    mb.vcall(url, sb, "java.lang.StringBuilder.toString");
    LocalId req = mb.local("req", "org.apache.http.client.methods.HttpGet");
    mb.new_object(req, "org.apache.http.client.methods.HttpGet");
    mb.special(req, "org.apache.http.client.methods.HttpGet.<init>", {Operand(url)});
    LocalId client = mb.local("c", "org.apache.http.client.HttpClient");
    LocalId resp = mb.local("r", "org.apache.http.HttpResponse");
    mb.vcall(resp, client, "org.apache.http.client.HttpClient.execute", {Operand(req)});
    mb.ret();
    pb.register_event({"com.app.Main", "go"}, EventKind::kOnClick, "click");
    return pb.build();
}

}  // namespace

TEST(Deobfuscation, CleanAppNeedsNoMapping) {
    auto model = SemanticModel::standard();
    Program p = make_library_user();
    auto mapping = infer_deobfuscation(p, model);
    EXPECT_TRUE(mapping.classes.empty());
}

TEST(Deobfuscation, RecoversRenamedStringBuilder) {
    auto model = SemanticModel::standard();
    Program p = make_library_user();
    xapk::ObfuscateOptions options;
    options.rename_libraries = true;
    auto [obf, map] = xapk::obfuscate(p, options);

    // The library names are gone from the program.
    bool saw_canonical = false;
    for (const Method* m : obf.method_table()) {
        for (const auto& local : m->locals) {
            if (local.type == "java.lang.StringBuilder") saw_canonical = true;
        }
    }
    EXPECT_FALSE(saw_canonical);

    auto mapping = infer_deobfuscation(obf, model);
    // StringBuilder's chained-append shape must be recognized.
    bool found_sb = false;
    for (const auto& [obf_name, canonical] : mapping.classes) {
        if (canonical == "java.lang.StringBuilder" ||
            canonical == "java.lang.StringBuffer") {
            found_sb = true;
        }
    }
    EXPECT_TRUE(found_sb);
}

TEST(Deobfuscation, ApplyRestoresAnalyzableNames) {
    auto model = SemanticModel::standard();
    Program p = make_library_user();
    xapk::ObfuscateOptions options;
    options.rename_libraries = true;
    auto [obf, map] = xapk::obfuscate(p, options);
    auto mapping = infer_deobfuscation(obf, model);
    apply_deobfuscation(obf, mapping);

    // After de-obfuscation, at least the builder chain is recognizable again.
    bool append_restored = false;
    for (const Method* m : obf.method_table()) {
        for (const auto& block : m->blocks) {
            for (const auto& stmt : block.statements) {
                if (const auto* call = std::get_if<Invoke>(&stmt)) {
                    if (model.api(call->callee.class_name, call->callee.method_name) &&
                        model.api(call->callee.class_name, call->callee.method_name)
                                ->action == SigAction::kAppend) {
                        append_restored = true;
                    }
                }
            }
        }
    }
    EXPECT_TRUE(append_restored);
}

TEST(CallbackResolver, VolleyListener) {
    ProgramBuilder pb("volleyapp");
    auto listener = pb.add_class("com.app.FeedListener");
    {
        auto cb = listener.method("onResponse");
        cb.param("body", "java.lang.String");
        cb.ret();
    }
    auto main = pb.add_class("com.app.Main");
    {
        auto mb = main.method("onClick");
        LocalId l = mb.local("l", "com.app.FeedListener");
        mb.new_object(l, "com.app.FeedListener");
        LocalId req = mb.local("req", "com.android.volley.toolbox.StringRequest");
        mb.new_object(req, "com.android.volley.toolbox.StringRequest");
        mb.special(req, "com.android.volley.toolbox.StringRequest.<init>",
                   {ci(0), cs("http://h/"), Operand(l), cnull()});
        mb.ret();
    }
    pb.register_event({"com.app.Main", "onClick"}, EventKind::kOnClick, "c");
    Program p = pb.build();
    auto model = SemanticModel::standard();
    CallGraph cg(p, model.callback_resolver());
    auto cb_index = p.method_index({"com.app.FeedListener", "onResponse"});
    ASSERT_TRUE(cb_index.has_value());
    EXPECT_FALSE(cg.edges_to(*cb_index).empty());
}
