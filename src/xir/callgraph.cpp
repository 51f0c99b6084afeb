#include "xir/callgraph.hpp"

#include <algorithm>
#include <deque>

namespace extractocol::xir {

CallGraph::CallGraph(const Program& program, const CallbackResolver& resolver)
    : program_(&program) {
    const auto& methods = program.method_table();
    out_.resize(methods.size());
    in_.resize(methods.size());

    for (std::uint32_t mi = 0; mi < methods.size(); ++mi) {
        const Method& method = *methods[mi];
        for (BlockId b = 0; b < method.blocks.size(); ++b) {
            const auto& stmts = method.blocks[b].statements;
            for (std::uint32_t i = 0; i < stmts.size(); ++i) {
                const auto* invoke = std::get_if<Invoke>(&stmts[i]);
                if (!invoke) continue;
                StmtRef site{mi, b, i};

                // Direct resolution. For virtual calls, dispatch on the
                // *declared* type of the receiver local, walking the
                // hierarchy; for static/special, exact class.
                const Method* target = nullptr;
                if (invoke->kind == InvokeKind::kVirtual && invoke->base) {
                    MethodRef ref = invoke->callee;
                    const auto& base_type = method.locals[*invoke->base].type;
                    if (program.find_class(base_type)) {
                        // Prefer dispatching on the receiver's declared type
                        // (models runtime dispatch when a subclass local is
                        // typed by the subclass, the common decompiled shape).
                        MethodRef dyn{base_type, invoke->callee.method_name};
                        if (const Method* m = program.resolve_virtual(dyn)) {
                            target = m;
                        }
                    }
                    if (!target) target = program.resolve_virtual(ref);
                } else {
                    target = program.find_method(invoke->callee);
                    if (!target) target = program.resolve_virtual(invoke->callee);
                }
                if (target) {
                    auto callee_index = program.method_index(target->ref());
                    if (callee_index) {
                        CallEdge edge{site, mi, *callee_index, CallEdgeKind::kDirect};
                        out_[mi].push_back(edge);
                        in_[*callee_index].push_back(edge);
                    }
                }

                // Implicit callback edges (thread libraries).
                if (resolver) {
                    for (const MethodRef& cb : resolver(program, method, *invoke)) {
                        auto callee_index = program.method_index(cb);
                        if (!callee_index) continue;
                        CallEdge edge{site, mi, *callee_index, CallEdgeKind::kImplicit};
                        out_[mi].push_back(edge);
                        in_[*callee_index].push_back(edge);
                    }
                }
            }
        }
    }

    for (const auto& event : program.events) {
        if (auto index = program.method_index(event.handler)) {
            if (std::find(roots_.begin(), roots_.end(), *index) == roots_.end()) {
                roots_.push_back(*index);
            }
        }
    }
}

const std::vector<CallEdge>& CallGraph::edges_from(std::uint32_t method_index) const {
    return out_[method_index];
}

const std::vector<CallEdge>& CallGraph::edges_to(std::uint32_t method_index) const {
    return in_[method_index];
}

std::span<const CallEdge> CallGraph::edges_at(const StmtRef& site) const {
    const auto& out = out_[site.method_index];
    struct BySite {
        bool operator()(const CallEdge& e, const StmtRef& s) const { return e.site < s; }
        bool operator()(const StmtRef& s, const CallEdge& e) const { return s < e.site; }
    };
    auto [first, last] = std::equal_range(out.begin(), out.end(), site, BySite{});
    return {first, last};
}

std::vector<std::uint32_t> CallGraph::reachable_from(
    const std::vector<std::uint32_t>& seeds) const {
    std::vector<bool> seen(out_.size(), false);
    std::deque<std::uint32_t> queue;
    for (auto s : seeds) {
        if (s < seen.size() && !seen[s]) {
            seen[s] = true;
            queue.push_back(s);
        }
    }
    std::vector<std::uint32_t> order;
    while (!queue.empty()) {
        std::uint32_t m = queue.front();
        queue.pop_front();
        order.push_back(m);
        for (const CallEdge& edge : out_[m]) {
            if (!seen[edge.callee]) {
                seen[edge.callee] = true;
                queue.push_back(edge.callee);
            }
        }
    }
    return order;
}

std::vector<std::vector<CallEdge>> CallGraph::contexts_reaching(
    std::uint32_t target, std::size_t max_depth, std::size_t max_paths) const {
    std::vector<std::vector<CallEdge>> paths;

    // DFS backwards from target to any root, then reverse each path.
    std::vector<CallEdge> trail;
    std::vector<bool> on_path(out_.size(), false);

    auto is_root = [&](std::uint32_t m) {
        return std::find(roots_.begin(), roots_.end(), m) != roots_.end();
    };

    std::function<void(std::uint32_t)> dfs = [&](std::uint32_t current) {
        if (paths.size() >= max_paths) return;
        if (is_root(current)) {
            std::vector<CallEdge> path(trail.rbegin(), trail.rend());
            paths.push_back(std::move(path));
            // A root may itself be called from elsewhere; still record and
            // keep exploring callers for additional contexts.
        }
        if (trail.size() >= max_depth) return;
        on_path[current] = true;
        for (const CallEdge& edge : in_[current]) {
            if (on_path[edge.caller]) continue;  // keep contexts acyclic
            trail.push_back(edge);
            dfs(edge.caller);
            trail.pop_back();
            if (paths.size() >= max_paths) break;
        }
        on_path[current] = false;
    };
    dfs(target);

    // If the target is unreachable from any root (dead code or root-less
    // program), report the empty context so callers can still analyze it.
    if (paths.empty()) paths.push_back({});
    return paths;
}

}  // namespace extractocol::xir
