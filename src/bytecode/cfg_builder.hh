#ifndef PEP_BYTECODE_CFG_BUILDER_HH
#define PEP_BYTECODE_CFG_BUILDER_HH

/**
 * @file
 * Builds a control-flow graph from a method's bytecode. The CFG is the
 * input to PEP's instrumentation pass and to the interpreter's edge
 * events.
 *
 * Successor ordering conventions (relied on throughout the repository):
 *  - conditional branch: successor 0 = taken target, successor 1 =
 *    fall-through;
 *  - tableswitch: successors 0..k-1 = case targets in table order,
 *    successor k = default target;
 *  - goto / fall-through / return: single successor (return's successor
 *    is the synthetic exit block).
 */

#include <cstdint>
#include <vector>

#include "bytecode/method.hh"
#include "cfg/analysis.hh"
#include "cfg/graph.hh"

namespace pep::bytecode {

/** How a basic block transfers control. */
enum class TerminatorKind : std::uint8_t
{
    Fallthrough, ///< last instruction is not a terminator; next pc is a
                 ///< leader (branch target)
    Goto,
    Cond,
    Switch,
    Return,
    None,        ///< entry/exit pseudo blocks
};

/** CFG plus the bytecode-level annotations profiling needs. */
struct MethodCfg
{
    cfg::Graph graph;

    /** First/last pc of each code block (entry/exit hold no pcs). */
    std::vector<Pc> firstPc;
    std::vector<Pc> lastPc;

    /** Terminator kind of each block. */
    std::vector<TerminatorKind> terminator;

    /** Owning block of each pc. */
    std::vector<cfg::BlockId> blockOfPc;

    /** True if some retreating edge targets the block (a loop header). */
    std::vector<bool> isLoopHeader;

    /** The retreating ("back") edges. */
    std::vector<cfg::EdgeRef> backEdges;

    /** True if the CFG is reducible. */
    bool reducible = true;

    /**
     * The method's one dense edge numbering: prefix sums of per-block
     * successor counts (numBlocks + 1 entries, so the last entry is
     * numEdges()). Edge (src, index) has id edgeBase[src] + index; it
     * indexes InstrumentationPlan::flatEdgeActions, is burned into the
     * threaded engine's templates (Template::flatBase), and is what
     * ExecutionHooks::onEdge receives as `flat_id`.
     */
    std::vector<std::uint32_t> edgeBase;

    /** Dense id of a CFG edge. */
    std::uint32_t
    flatEdgeId(cfg::EdgeRef edge) const
    {
        return edgeBase[edge.src] + edge.index;
    }

    /** Total number of CFG edges. */
    std::uint32_t numEdges() const { return edgeBase.back(); }

    /** True for blocks that hold bytecode (not entry/exit). */
    bool
    isCodeBlock(cfg::BlockId b) const
    {
        return terminator[b] != TerminatorKind::None;
    }

    /** The pc of a block's branch instruction (Cond/Switch blocks). */
    Pc
    branchPc(cfg::BlockId b) const
    {
        return lastPc[b];
    }

    /** Number of loop headers. */
    std::size_t numLoopHeaders() const;
};

/**
 * Build the CFG for a verified method. The method must already pass the
 * verifier; malformed code panics here.
 */
MethodCfg buildCfg(const Method &method);

} // namespace pep::bytecode

#endif // PEP_BYTECODE_CFG_BUILDER_HH
