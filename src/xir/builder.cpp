#include "xir/builder.hpp"

#include <cassert>
#include <cstdlib>

#include "support/log.hpp"
#include "support/strings.hpp"
#include "xir/verify.hpp"

namespace extractocol::xir {

namespace {
MethodRef split_sig(const std::string& sig) {
    auto dot = sig.rfind('.');
    assert(dot != std::string::npos && "method sig must be Cls.method");
    return {sig.substr(0, dot), sig.substr(dot + 1)};
}
}  // namespace

// -------------------------------------------------------- MethodBuilder --

MethodBuilder::MethodBuilder(ProgramBuilder& pb, std::uint32_t class_index,
                             std::uint32_t method_index)
    : pb_(&pb), class_index_(class_index), method_index_(method_index) {
    Method& method = m();
    if (method.blocks.empty()) method.blocks.emplace_back();
    if (!method.is_static && method.locals.empty()) {
        method.locals.push_back({"this", method.class_name});
        method.param_count = 1;
    }
}

Method& MethodBuilder::m() {
    return pb_->program_.classes[class_index_].methods[method_index_];
}

MethodBuilder& MethodBuilder::set_static() {
    Method& method = m();
    assert(method.locals.empty() || method.locals[0].name == "this");
    if (!method.locals.empty() && method.locals[0].name == "this") {
        method.locals.erase(method.locals.begin());
        method.param_count -= 1;
    }
    method.is_static = true;
    return *this;
}

MethodBuilder& MethodBuilder::returns(Type type) {
    m().return_type = std::move(type);
    return *this;
}

LocalId MethodBuilder::param(std::string name, Type type) {
    Method& method = m();
    // Params must precede other locals.
    assert(method.locals.size() == method.param_count && "declare params first");
    method.locals.push_back({std::move(name), std::move(type)});
    method.param_count += 1;
    return static_cast<LocalId>(method.locals.size() - 1);
}

LocalId MethodBuilder::self() {
    assert(!m().is_static);
    return 0;
}

LocalId MethodBuilder::local(std::string name, Type type) {
    Method& method = m();
    for (LocalId i = 0; i < method.locals.size(); ++i) {
        if (method.locals[i].name == name) return i;
    }
    method.locals.push_back({std::move(name), std::move(type)});
    return static_cast<LocalId>(method.locals.size() - 1);
}

LocalId MethodBuilder::temp(Type type) {
    return local("%t" + std::to_string(next_temp_++), std::move(type));
}

BlockId MethodBuilder::new_block() {
    m().blocks.emplace_back();
    return static_cast<BlockId>(m().blocks.size() - 1);
}

void MethodBuilder::set_current(BlockId b) { current_ = b; }

bool MethodBuilder::current_terminated() {
    const auto& stmts = m().blocks[current_].statements;
    return !stmts.empty() && is_terminator(stmts.back());
}

void MethodBuilder::emit(Statement stmt) {
    assert(!current_terminated() && "emitting past a terminator");
    m().blocks[current_].statements.push_back(std::move(stmt));
}

MethodBuilder& MethodBuilder::assign(LocalId dst, Operand value) {
    if (value.is_local()) {
        emit(AssignCopy{dst, value.local});
    } else {
        emit(AssignConst{dst, std::move(value.constant)});
    }
    return *this;
}

MethodBuilder& MethodBuilder::new_object(LocalId dst, std::string class_name) {
    emit(NewObject{dst, std::move(class_name)});
    return *this;
}

MethodBuilder& MethodBuilder::load_field(LocalId dst, LocalId base, std::string field) {
    emit(LoadField{dst, base, std::move(field)});
    return *this;
}

MethodBuilder& MethodBuilder::store_field(LocalId base, std::string field, Operand src) {
    emit(StoreField{base, std::move(field), std::move(src)});
    return *this;
}

MethodBuilder& MethodBuilder::load_static(LocalId dst, std::string cls, std::string field) {
    emit(LoadStatic{dst, std::move(cls), std::move(field)});
    return *this;
}

MethodBuilder& MethodBuilder::store_static(std::string cls, std::string field, Operand src) {
    emit(StoreStatic{std::move(cls), std::move(field), std::move(src)});
    return *this;
}

MethodBuilder& MethodBuilder::binop(LocalId dst, BinaryOp::Op op, Operand lhs, Operand rhs) {
    emit(BinaryOp{dst, op, std::move(lhs), std::move(rhs)});
    return *this;
}

MethodBuilder& MethodBuilder::concat(LocalId dst, Operand lhs, Operand rhs) {
    return binop(dst, BinaryOp::Op::kConcat, std::move(lhs), std::move(rhs));
}

MethodBuilder& MethodBuilder::vcall(std::optional<LocalId> dst, LocalId base,
                                    std::string sig, std::vector<Operand> args) {
    Invoke call;
    call.dst = dst;
    call.kind = InvokeKind::kVirtual;
    call.callee = split_sig(sig);
    call.base = base;
    call.args = std::move(args);
    emit(std::move(call));
    return *this;
}

MethodBuilder& MethodBuilder::scall(std::optional<LocalId> dst, std::string sig,
                                    std::vector<Operand> args) {
    Invoke call;
    call.dst = dst;
    call.kind = InvokeKind::kStatic;
    call.callee = split_sig(sig);
    call.args = std::move(args);
    emit(std::move(call));
    return *this;
}

MethodBuilder& MethodBuilder::special(LocalId base, std::string sig,
                                      std::vector<Operand> args) {
    Invoke call;
    call.kind = InvokeKind::kSpecial;
    call.callee = split_sig(sig);
    call.base = base;
    call.args = std::move(args);
    emit(std::move(call));
    return *this;
}

LocalId MethodBuilder::vcall_r(Type type, LocalId base, std::string sig,
                               std::vector<Operand> args) {
    LocalId dst = temp(std::move(type));
    vcall(dst, base, std::move(sig), std::move(args));
    return dst;
}

LocalId MethodBuilder::scall_r(Type type, std::string sig, std::vector<Operand> args) {
    LocalId dst = temp(std::move(type));
    scall(dst, std::move(sig), std::move(args));
    return dst;
}

MethodBuilder& MethodBuilder::ret(std::optional<Operand> value) {
    emit(Return{std::move(value)});
    return *this;
}

MethodBuilder& MethodBuilder::if_then(const Cond& cond, const BodyFn& then_body) {
    return if_then_else(cond, then_body, [](MethodBuilder&) {});
}

MethodBuilder& MethodBuilder::if_then_else(const Cond& cond, const BodyFn& then_body,
                                           const BodyFn& else_body) {
    BlockId then_block = new_block();
    BlockId else_block = new_block();
    BlockId join_block = new_block();
    emit(If{cond.lhs, cond.op, cond.rhs, then_block, else_block});

    set_current(then_block);
    then_body(*this);
    if (!current_terminated()) emit(Goto{join_block});

    set_current(else_block);
    else_body(*this);
    if (!current_terminated()) emit(Goto{join_block});

    set_current(join_block);
    return *this;
}

MethodBuilder& MethodBuilder::while_loop(const Cond& cond, const BodyFn& body) {
    BlockId header = new_block();
    emit(Goto{header});

    set_current(header);
    BlockId body_block = new_block();
    BlockId exit_block = new_block();
    emit(If{cond.lhs, cond.op, cond.rhs, body_block, exit_block});

    set_current(body_block);
    body(*this);
    if (!current_terminated()) emit(Goto{header});  // the back edge

    set_current(exit_block);
    return *this;
}

void MethodBuilder::finish() {
    Method& method = m();
    for (auto& block : method.blocks) {
        if (block.statements.empty() || !is_terminator(block.statements.back())) {
            block.statements.push_back(Return{});
        }
    }
}

MethodRef MethodBuilder::ref() const {
    const Method& method =
        const_cast<MethodBuilder*>(this)->m();  // NOLINT: logically const access
    return method.ref();
}

// --------------------------------------------------------- ClassBuilder --

ClassBuilder::ClassBuilder(ProgramBuilder& pb, std::uint32_t class_index)
    : pb_(&pb), class_index_(class_index) {}

ClassBuilder& ClassBuilder::super(std::string name) {
    pb_->program_.classes[class_index_].super = std::move(name);
    return *this;
}

ClassBuilder& ClassBuilder::field(std::string name, Type type) {
    pb_->program_.classes[class_index_].fields.push_back({std::move(name), std::move(type)});
    return *this;
}

MethodBuilder ClassBuilder::method(std::string name) {
    Class& cls = pb_->program_.classes[class_index_];
    Method method;
    method.name = std::move(name);
    method.class_name = cls.name;
    cls.methods.push_back(std::move(method));
    return MethodBuilder(*pb_, class_index_,
                         static_cast<std::uint32_t>(cls.methods.size() - 1));
}

const std::string& ClassBuilder::name() const {
    return pb_->program_.classes[class_index_].name;
}

// ------------------------------------------------------- ProgramBuilder --

ProgramBuilder::ProgramBuilder(std::string app_name) {
    program_.app_name = std::move(app_name);
}

ClassBuilder ProgramBuilder::add_class(std::string name, std::string super) {
    Class cls;
    cls.name = std::move(name);
    cls.super = std::move(super);
    program_.classes.push_back(std::move(cls));
    return ClassBuilder(*this, static_cast<std::uint32_t>(program_.classes.size() - 1));
}

void ProgramBuilder::add_resource(std::string id, std::string value) {
    program_.resources.emplace_back(std::move(id), std::move(value));
}

void ProgramBuilder::register_event(MethodRef handler, EventKind kind, std::string label) {
    program_.events.push_back({std::move(handler), kind, std::move(label)});
}

Program ProgramBuilder::build() {
    for (auto& cls : program_.classes) {
        for (auto& method : cls.methods) {
            for (auto& block : method.blocks) {
                if (block.statements.empty() || !is_terminator(block.statements.back())) {
                    block.statements.push_back(Return{});
                }
            }
            if (method.blocks.empty()) {
                method.blocks.emplace_back();
                method.blocks[0].statements.push_back(Return{});
            }
        }
    }
    program_.reindex();
    if (auto status = verify(program_); !status.ok()) {
        log::error() << "ProgramBuilder produced malformed IR: " << status.error().message;
        std::abort();  // builder misuse is a bug in this repository, not input
    }
    return std::move(program_);
}

}  // namespace extractocol::xir
