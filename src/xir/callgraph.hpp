// Call graph over a Program. Direct edges come from Invoke statements
// resolved against the class hierarchy; *implicit* edges (thread libraries
// such as AsyncTask/Volley/retrofit whose `execute` hands control to a
// callback, §3.4 "Implicit call flow") are injected by a resolver hook so
// xir does not depend on the semantic model.
#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "xir/ir.hpp"

namespace extractocol::xir {

enum class CallEdgeKind {
    kDirect,    // ordinary resolved invoke
    kImplicit,  // thread-library callback (AsyncTask.execute -> doInBackground...)
};

struct CallEdge {
    StmtRef site;                   // the Invoke statement
    std::uint32_t caller = 0;       // method index
    std::uint32_t callee = 0;       // method index
    CallEdgeKind kind = CallEdgeKind::kDirect;
};

/// Hook that maps one Invoke (in `caller`) to zero or more app-defined
/// callback targets. Used by the semantic model to wire AsyncTask-style
/// implicit flows.
using CallbackResolver = std::function<std::vector<MethodRef>(
    const Program& program, const Method& caller, const Invoke& invoke)>;

class CallGraph {
public:
    /// Builds the graph. `resolver` may be null (no implicit edges).
    CallGraph(const Program& program, const CallbackResolver& resolver);

    [[nodiscard]] const Program& program() const { return *program_; }

    /// Outgoing edges per caller method index.
    [[nodiscard]] const std::vector<CallEdge>& edges_from(std::uint32_t method_index) const;
    /// Incoming edges per callee method index.
    [[nodiscard]] const std::vector<CallEdge>& edges_to(std::uint32_t method_index) const;

    /// The edge(s) departing a specific call site (virtual dispatch may fan
    /// out): a view into edges_from(site.method_index), which holds each
    /// caller's edges in site order with a site's direct edge first.
    [[nodiscard]] std::span<const CallEdge> edges_at(const StmtRef& site) const;

    /// All methods transitively reachable from the given roots.
    [[nodiscard]] std::vector<std::uint32_t> reachable_from(
        const std::vector<std::uint32_t>& roots) const;

    /// Acyclic call paths from any event-handler root to `target` method,
    /// bounded by `max_depth` and `max_paths`. Each path is the sequence of
    /// call edges taken. These paths are the "calling contexts" that realize
    /// the paper's disjoint sub-slices (Fig. 5).
    [[nodiscard]] std::vector<std::vector<CallEdge>> contexts_reaching(
        std::uint32_t target, std::size_t max_depth = 24,
        std::size_t max_paths = 512) const;

    /// Method indices registered as event handlers (analysis roots).
    [[nodiscard]] const std::vector<std::uint32_t>& roots() const { return roots_; }

private:
    const Program* program_;
    std::vector<std::vector<CallEdge>> out_;
    std::vector<std::vector<CallEdge>> in_;
    std::vector<std::uint32_t> roots_;
};

}  // namespace extractocol::xir
