// Bi-directional inter-procedural taint engine (§3.1).
//
// Forward propagation follows FlowDroid-style rules (assignments propagate
// RHS->LHS, calls bind actuals to formals, returns flow back to call sites,
// API calls apply semantic-model flow rules). Backward propagation applies
// the *inverted* rules the paper describes: "a tainted LHS taints RHS in an
// assignment statement, and the taint information of callee's arguments is
// propagated to caller's arguments", walking the CFG in reverse.
//
// The engine is flow-sensitive inside methods, context-insensitive across
// them (summary facts merge over call sites), field-sensitive to depth k,
// and treats three heap channels specially so that implicit data flows
// across asynchronous events are found (§3.4):
//   * static fields       — "static:Cls.field" global locations
//   * SQLite databases    — "db:table.column" global locations
//   * SharedPreferences   — "prefs:key" global locations
// Cross-event propagation through these channels is the async-event
// heuristic; it can be disabled (the paper disables it for open-source apps
// in §5.1).
//
// Memory layout (DESIGN.md §13): taint facts are POD AccessPaths over
// interned symbols; per-run fact sets live in a bump arena; dense per-run
// bookkeeping (queued blocks, slice statements/methods, event-root
// reachability) is bit-packed and propagated with bulk word-ORs. A run
// builds a method's state on first touch, so its set-up and tear-down cost
// follows the methods it reaches, not the size of the program.
#pragma once

#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "semantics/model.hpp"
#include "support/arena.hpp"
#include "support/bitset.hpp"
#include "support/intern.hpp"
#include "taint/access_path.hpp"
#include "xir/callgraph.hpp"
#include "xir/ir.hpp"

namespace extractocol::taint {

enum class Direction { kForward, kBackward };

struct TaintSeed {
    xir::StmtRef stmt;
    /// Forward: tainted immediately *after* `stmt`. Backward: tainted
    /// immediately *before* `stmt`.
    AccessPath path;
    /// When set, the fact holds at the *entry* of `stmt.block` (forward) /
    /// its exit (backward); `stmt.index` is ignored. Used to seed callback
    /// parameters at method entry.
    bool at_block_boundary = false;
};

using PathSet = std::unordered_set<AccessPath, AccessPathHash>;
/// Long-lived per-run fact sets allocate their nodes from the run's arena
/// (they only grow during a run and die together at its end).
using ArenaPathSet =
    std::unordered_set<AccessPath, AccessPathHash, std::equal_to<AccessPath>,
                       support::ArenaAllocator<AccessPath>>;

/// Reported whenever an Invoke statement touches tainted data; consumers
/// (transaction dependency analysis) use it to locate where tainted values
/// are inserted into requests (JSON keys, name-value pairs, headers...).
struct CallTaintEvent {
    xir::StmtRef stmt;
    bool base_tainted = false;
    bool dst_tainted = false;
    std::vector<bool> args_tainted;
};

struct TaintResult {
    /// Statements that operate on tainted data — the program slice.
    std::set<xir::StmtRef> statements;
    /// Tainted global locations (statics / db cells / prefs keys).
    PathSet globals;
    /// Methods containing at least one slice statement.
    std::set<std::uint32_t> methods;
    /// Tainted-call observations, in discovery order (deduplicated).
    std::vector<CallTaintEvent> call_events;
    /// Worklist iterations this run consumed — deterministic for a given
    /// program + seeds, the currency of analysis budgets.
    std::size_t steps_used = 0;
    /// True when the run stopped at EngineOptions::max_steps.
    bool truncated = false;

    [[nodiscard]] bool contains(const xir::StmtRef& ref) const {
        return statements.count(ref) > 0;
    }
};

struct EngineOptions {
    /// The async-event heuristic: allow taint to cross event-handler
    /// boundaries through statics / db / prefs. Paper §5.1 disables this for
    /// open-source apps and enables it for closed-source apps.
    bool cross_event_globals = true;
    /// Maximum asynchronous-event boundaries one fact may cross. The paper's
    /// implementation "only detects dependencies across one hop" (§4);
    /// raising this is the multiple-iterations extension it suggests.
    unsigned max_global_hops = 1;
    /// Safety valve on worklist iterations (0 = unlimited).
    std::size_t max_steps = 2'000'000;
};

class TaintEngine {
public:
    TaintEngine(const xir::Program& program, const xir::CallGraph& callgraph,
                const semantics::SemanticModel& model, EngineOptions options = {});

    [[nodiscard]] TaintResult run(Direction direction, const std::vector<TaintSeed>& seeds);

    /// The semantic model of the API an Invoke at `ref` calls, resolved once
    /// when the engine is built; null for app calls, unmodeled APIs and
    /// statements that are not calls.
    [[nodiscard]] const semantics::ApiModel* api_at(const xir::StmtRef& ref) const {
        return api_of_[flat_stmt(ref)];
    }

private:
    struct MethodState;  // per-run state of one method, created on first touch
    struct Run;          // per-run mutable state, defined in the .cpp

    const xir::Program* program_;
    const xir::CallGraph* callgraph_;
    const semantics::SemanticModel* model_;
    EngineOptions options_;

    /// Static/db/prefs access indices: interned location key prefix ->
    /// blocks that read (forward) or write (backward) it.
    std::unordered_map<support::intern::Symbol,
                       std::vector<std::pair<std::uint32_t, xir::BlockId>>>
        global_readers_;
    std::unordered_map<support::intern::Symbol,
                       std::vector<std::pair<std::uint32_t, xir::BlockId>>>
        global_writers_;
    /// Event-root reachability: method -> bitset over method indices of the
    /// event roots reaching it (gates cross-event global propagation).
    std::vector<support::DenseBitset> event_roots_of_;

    /// Dense numbering of (method, block) and statements, precomputed once:
    /// flat block id = block_base_[mi] + b; flat statement id =
    /// stmt_block_start_[flat block] + stmt index. The per-run worklist
    /// membership and slice sets are bitsets over these universes.
    std::vector<std::uint32_t> block_base_;       // per method
    std::vector<std::uint32_t> stmt_block_start_; // per flat block
    std::vector<std::uint32_t> flat_block_method_;
    std::vector<xir::BlockId> flat_block_id_;
    std::vector<std::uint32_t> stmt_owner_block_; // per flat statement
    /// SemanticModel::api() of each flat statement's callee, looked up once
    /// here so no run resolves a callee by name (null = none, see api_at).
    std::vector<const semantics::ApiModel*> api_of_;
    /// Intra-method CFG edges over flat block ids, CSR-packed: the
    /// successors of flat block fb are succ_ids_[succ_start_[fb] ..
    /// succ_start_[fb + 1]), likewise for predecessors (ascending).
    std::vector<std::uint32_t> succ_start_;
    std::vector<xir::BlockId> succ_ids_;
    std::vector<std::uint32_t> pred_start_;
    std::vector<xir::BlockId> pred_ids_;
    std::uint32_t total_blocks_ = 0;
    std::uint32_t total_stmts_ = 0;

    void build_indices();

    [[nodiscard]] std::uint32_t flat_stmt(const xir::StmtRef& ref) const {
        return stmt_block_start_[block_base_[ref.method_index] + ref.block] + ref.index;
    }
};

}  // namespace extractocol::taint
