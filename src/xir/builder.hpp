// Fluent construction API for xir programs. The synthetic app corpus uses
// this DSL to express protocol-processing code the way decompiled Android
// apps look (StringBuilder chains, branchy URI construction, JSON parsing
// loops) without hand-writing statement vectors.
//
// Builders are index-based handles into the ProgramBuilder, so they stay
// valid as classes/methods are appended.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "xir/ir.hpp"

namespace extractocol::xir {

class ProgramBuilder;
class ClassBuilder;

/// Comparison used by structured control flow.
struct Cond {
    Operand lhs;
    CmpOp op = CmpOp::kEq;
    Operand rhs;
};

inline Cond eq(Operand a, Operand b) { return {std::move(a), CmpOp::kEq, std::move(b)}; }
inline Cond ne(Operand a, Operand b) { return {std::move(a), CmpOp::kNe, std::move(b)}; }
inline Cond lt(Operand a, Operand b) { return {std::move(a), CmpOp::kLt, std::move(b)}; }
inline Cond ge(Operand a, Operand b) { return {std::move(a), CmpOp::kGe, std::move(b)}; }

/// Constant-operand helpers.
inline Operand cs(std::string s) { return Operand(Constant::of_string(std::move(s))); }
inline Operand ci(std::int64_t v) { return Operand(Constant::of_int(v)); }
inline Operand cb(bool v) { return Operand(Constant::of_bool(v)); }
inline Operand cnull() { return Operand(Constant::null()); }

class MethodBuilder {
public:
    MethodBuilder(ProgramBuilder& pb, std::uint32_t class_index, std::uint32_t method_index);

    MethodBuilder& set_static();
    MethodBuilder& returns(Type type);

    /// Declares the next parameter; call in order. Returns its local id.
    LocalId param(std::string name, Type type);
    /// The receiver local ($0) for instance methods.
    LocalId self();
    /// Creates (or returns the existing) named local.
    LocalId local(std::string name, Type type);
    /// Creates an anonymous temporary.
    LocalId temp(Type type);

    // --- straight-line statements (emitted into the current block) ---
    MethodBuilder& assign(LocalId dst, Operand value);
    MethodBuilder& new_object(LocalId dst, std::string class_name);
    MethodBuilder& load_field(LocalId dst, LocalId base, std::string field);
    MethodBuilder& store_field(LocalId base, std::string field, Operand src);
    MethodBuilder& load_static(LocalId dst, std::string cls, std::string field);
    MethodBuilder& store_static(std::string cls, std::string field, Operand src);
    MethodBuilder& binop(LocalId dst, BinaryOp::Op op, Operand lhs, Operand rhs);
    /// String concat convenience: dst = lhs ++ rhs.
    MethodBuilder& concat(LocalId dst, Operand lhs, Operand rhs);

    /// Virtual call: [dst =] base.Cls.method(args). `sig` is "Cls.method".
    MethodBuilder& vcall(std::optional<LocalId> dst, LocalId base, std::string sig,
                         std::vector<Operand> args = {});
    /// Static call: [dst =] Cls.method(args).
    MethodBuilder& scall(std::optional<LocalId> dst, std::string sig,
                         std::vector<Operand> args = {});
    /// Constructor call: base.Cls.<init>(args).
    MethodBuilder& special(LocalId base, std::string sig, std::vector<Operand> args = {});

    /// Call returning a fresh temp of `type`; returns the temp id.
    LocalId vcall_r(Type type, LocalId base, std::string sig, std::vector<Operand> args = {});
    LocalId scall_r(Type type, std::string sig, std::vector<Operand> args = {});

    MethodBuilder& ret(std::optional<Operand> value = std::nullopt);

    // --- structured control flow ---
    using BodyFn = std::function<void(MethodBuilder&)>;
    MethodBuilder& if_then(const Cond& cond, const BodyFn& then_body);
    MethodBuilder& if_then_else(const Cond& cond, const BodyFn& then_body,
                                const BodyFn& else_body);
    /// while (cond) body — produces a loop header (back edge), which the
    /// signature builder detects for `rep` marking.
    MethodBuilder& while_loop(const Cond& cond, const BodyFn& body);

    /// Finalizes: ensures every block is terminated. Called by ProgramBuilder
    /// but safe to call manually.
    void finish();

    [[nodiscard]] MethodRef ref() const;

private:
    Method& m();
    BlockId new_block();
    void set_current(BlockId b);
    void emit(Statement stmt);
    /// True if the current block already ends with a terminator.
    bool current_terminated();

    ProgramBuilder* pb_;
    std::uint32_t class_index_;
    std::uint32_t method_index_;
    BlockId current_ = 0;
    std::uint32_t next_temp_ = 0;
};

class ClassBuilder {
public:
    ClassBuilder(ProgramBuilder& pb, std::uint32_t class_index);

    ClassBuilder& super(std::string name);
    ClassBuilder& field(std::string name, Type type);
    /// Adds a method and returns its builder.
    MethodBuilder method(std::string name);

    [[nodiscard]] const std::string& name() const;

private:
    ProgramBuilder* pb_;
    std::uint32_t class_index_;
};

class ProgramBuilder {
public:
    explicit ProgramBuilder(std::string app_name);

    ClassBuilder add_class(std::string name, std::string super = "");
    void add_resource(std::string id, std::string value);
    void register_event(MethodRef handler, EventKind kind, std::string label);

    /// Finalizes all methods, reindexes, and verifies; aborts on malformed IR
    /// (builder misuse is a programming error, not input error).
    Program build();

    [[nodiscard]] Program& program() { return program_; }

private:
    friend class ClassBuilder;
    friend class MethodBuilder;
    Program program_;
};

}  // namespace extractocol::xir
