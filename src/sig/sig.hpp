// The signature intermediate language of Fig. 4:
//
//   sig_pat ::= term | concat(term, term) | rep{term} | term ∨ term
//   term    ::= constant | struct_str | unknown
//   struct_str ::= json(obj) | xml(obj)
//   obj     ::= key_value*      key_value ::= (key, value)
//   value   ::= constant | obj | array      constant ::= num int | str string
//
// Sig is a value-semantic tree with normalization (constant folding of
// adjacent concat literals, alternation dedup) plus the three renderings the
// paper uses: regular expressions, JSON-schema-like trees, and DTDs for XML.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "text/json.hpp"

namespace extractocol::sig {

/// Why an unknown leaf is unknown — the imprecision taxonomy (DESIGN.md §9).
/// Every place the builder/interpreter gives up stamps the reason it did, so
/// the audit layer can attribute wildcard bytes to analysis gaps instead of
/// reporting one undifferentiated `.*`.
enum class UnknownReason : std::uint8_t {
    kUnspecified,        // legacy / genuinely free value
    kUnmodeledApi,       // call to an API with no semantics/model entry
    kDerivedString,      // substring/replace/encode of a dynamic value
    kLoopWidened,        // value grown in a loop, widened to rep{}
    kDisjunctionCapped,  // alternation exceeded the arm cap
    kTaintDepthCutoff,   // interpreter depth / recursion limit hit
    kReflection,         // gson-style reflective (de)serialization
    kDynamicInput,       // user input / sensor / location at runtime
    kExternalState,      // database / SharedPreferences cell not in slice
    kResourceValue,      // value lives in the resource table, not the code
    kResponseOpaque,     // response byte range the app never inspects
    kBudgetExhausted,    // analysis step budget ran out mid-build
};

/// Stable snake_case name used in counters, audit tables, and JSON.
[[nodiscard]] const char* unknown_reason_name(UnknownReason reason);

class Sig {
public:
    enum class Kind {
        kConst,       // string literal
        kUnknown,     // wildcard with a type hint
        kConcat,      // juxtaposition
        kAlt,         // disjunction
        kRep,         // Kleene repetition of the single child
        kJsonObject,  // ordered key/value members
        kJsonArray,   // item signatures; `repeated` marks rep{}
        kXmlElement,  // tag + attributes + children (+ text)
    };

    /// Type hint for unknowns — drives the regex class ([0-9]+ vs .*).
    enum class ValueType { kString, kInt, kBool, kAny };

    Kind kind = Kind::kUnknown;
    ValueType value_type = ValueType::kAny;   // kUnknown
    std::string text;                         // kConst; kXmlElement: tag name
    std::vector<Sig> children;                // kConcat/kAlt/kRep(1)/kJsonArray/kXml children
    std::vector<std::pair<std::string, Sig>> members;  // kJsonObject / kXml attributes
    std::vector<Sig> xml_text;                // kXmlElement character data (0 or 1)
    bool repeated = false;                    // kJsonArray: items repeat

    // ------------------------------------------------------- provenance --
    // Where this segment came from (DP site, IR instruction, API symbol,
    // "loop"...) and — for unknowns — why the analysis gave up. Both fields
    // are metadata: operator== ignores them, so normalization (constant
    // folding, alternation dedup, widening fixpoints) and every rendering
    // are byte-identical to a provenance-free tree.
    UnknownReason reason = UnknownReason::kUnspecified;
    std::string origin;

    Sig() = default;

    // ------------------------------------------------------ constructors --
    static Sig constant(std::string value);
    static Sig unknown(ValueType type = ValueType::kAny,
                       UnknownReason reason = UnknownReason::kUnspecified,
                       std::string origin = {});
    static Sig concat(Sig a, Sig b);
    static Sig concat_all(std::vector<Sig> parts);
    static Sig alt(Sig a, Sig b);
    static Sig rep(Sig body);
    static Sig json_object();
    static Sig json_array();
    static Sig xml_element(std::string tag);

    [[nodiscard]] bool is_const() const { return kind == Kind::kConst; }
    [[nodiscard]] bool is_unknown() const { return kind == Kind::kUnknown; }
    /// True if this signature contains no constants at all (pure wildcard).
    [[nodiscard]] bool is_pure_wildcard() const;

    /// Structural equality. Provenance (`reason`/`origin`) is deliberately
    /// NOT compared: two segments with the same pattern are the same pattern
    /// no matter where they came from, and dedup/folding must not change
    /// when provenance is attached.
    bool operator==(const Sig& other) const;

    /// Sets (or merges) a JSON-object member.
    void set_member(const std::string& key, Sig value);
    [[nodiscard]] const Sig* member(const std::string& key) const;
    [[nodiscard]] Sig* member(const std::string& key);

    // -------------------------------------------------------- renderings --
    /// Regular expression (anchored use). JSON/XML sub-trees render as the
    /// regex of their canonical serialization.
    [[nodiscard]] std::string to_regex() const;

    /// Human-readable pattern: constants verbatim, unknowns as (.*) / [0-9]+,
    /// the paper's display style e.g. "(user=).*(&passwd=)(&api_type=json)".
    [[nodiscard]] std::string to_display() const;

    /// JSON-schema-like description for kJsonObject/kJsonArray trees.
    [[nodiscard]] text::Json to_json_schema() const;

    /// DTD for XML signature trees (paper §1: "Document Type Definition for
    /// XML ... JSON schema for JSON bodies").
    [[nodiscard]] std::string to_dtd() const;

    /// Provenance tree: every segment with its kind, pattern, origin tag and
    /// (for unknowns) reason code — the per-transaction `provenance` object
    /// of the report JSON and the data behind `extractocol --explain`.
    [[nodiscard]] text::Json to_provenance_json() const;

    /// Counts unknown leaves by reason into `out` (keyed by
    /// unknown_reason_name); returns the number of unknown leaves visited.
    std::size_t count_unknown_reasons(
        std::vector<std::pair<std::string, std::size_t>>& out) const;

    // --------------------------------------------------------- analytics --
    /// All constant keywords (JSON keys, XML tags/attributes, query-string
    /// keys) contained in this signature — the Fig. 7 metric.
    [[nodiscard]] std::vector<std::string> keywords() const;

private:
    void collect_keywords(std::vector<std::string>& out, bool in_structure) const;
};

/// Normalized merge used at CFG confluence points: equal → either; otherwise
/// a deduplicated alternation (Fig. 4's ∨).
Sig merge_alt(Sig a, Sig b);

/// Alternation arm cap: past this many distinct branches the disjunction
/// stops carrying information and Sig::alt collapses it to an unknown with
/// reason kDisjunctionCapped. Sized well above anything the corpus produces,
/// so capping is an audit-visible safety valve, not a precision change.
inline constexpr std::size_t kMaxAltArms = 24;

/// Stamps `reason`/`origin` on every unknown leaf that does not yet carry a
/// reason (leaves with a recorded reason keep their more specific one).
void tag_unknowns(Sig& s, UnknownReason reason, const std::string& origin);

/// Loop-header widening: if `grown` extends `base` by a suffix, returns
/// concat(base, rep(suffix)); otherwise falls back to alternation. This is
/// the "identify the loop variant part ... mark the part can be repeated"
/// rule (§3.2).
Sig widen_loop(const Sig& base, const Sig& grown);

}  // namespace extractocol::sig
