#include "analysis/verify/engine_equiv.hh"

#include <sstream>
#include <vector>

#include "bytecode/cfg_builder.hh"
#include "vm/compiled_method.hh"
#include "vm/decoded_method.hh"
#include "vm/machine.hh"

namespace pep::analysis {

namespace {

using bytecode::Opcode;
using bytecode::TerminatorKind;

/** Caps repeated same-kind findings so a broken version stays readable. */
constexpr std::size_t kMaxPerCategory = 8;

/**
 * The abstract effect of leaving a basic block through one successor:
 * which dense flat-edge id the profilers see, where control lands, and
 * whether the transfer fires loop-header events. Derived independently
 * from the bytecode (reference semantics, what the switch engine does)
 * and from the template stream (what the threaded engine does); the
 * two must agree memberwise.
 */
struct ExitEffect
{
    std::uint32_t flatId = 0;
    bool toExit = false;       ///< method exit (Return/Ireturn)
    bytecode::Pc targetPc = 0; ///< meaningful when !toExit
    bool headerEvent = false;  ///< target is a loop-header leader
};

class EquivChecker
{
  public:
    EquivChecker(const EngineEquivInput &input,
                 DiagnosticList &diagnostics)
        : in_(input), diags_(diagnostics), cfg_(input.info->cfg),
          code_(*input.code), cm_(*input.cm), dm_(*input.decoded)
    {
    }

    bool
    run()
    {
        const std::size_t before = diags_.errorCount();
        if (!checkStreamShape())
            return diags_.errorCount() == before;
        sumTemplateCharges();
        checkTraceShape();
        for (cfg::BlockId b = 0; b < cfg_.graph.numBlocks(); ++b) {
            if (cfg_.isCodeBlock(b))
                checkBlock(b);
        }
        checkTraces();
        return diags_.errorCount() == before;
    }

  private:
    // ---- reporting helpers -------------------------------------------

    Diagnostic &
    stamp(Diagnostic &d, const char *check)
    {
        d.check = check;
        d.hasVersion = in_.hasVersion;
        d.version = in_.version;
        return d;
    }

    void
    error(const char *check, const std::string &message)
    {
        stamp(diags_.report(Severity::Error, "engine-equiv",
                            in_.methodName, message),
              check);
    }

    void
    errorAtPc(const char *check, bytecode::Pc pc,
              const std::string &message)
    {
        stamp(diags_.reportAtPc(Severity::Error, "engine-equiv",
                                in_.methodName, pc, message),
              check);
    }

    void
    errorAtEdge(const char *check, cfg::EdgeRef edge,
                const std::string &message)
    {
        stamp(diags_.reportAtEdge(Severity::Error, "engine-equiv",
                                  in_.methodName, edge, message),
              check);
    }

    /** Report unless the category already hit its cap. */
    bool
    capped(std::size_t &counter)
    {
        if (counter == kMaxPerCategory) {
            stamp(diags_.report(Severity::Note, "engine-equiv",
                                in_.methodName,
                                "further findings of this kind "
                                "suppressed"),
                  "capped");
        }
        return counter++ >= kMaxPerCategory;
    }

    // ---- prerequisites ------------------------------------------------

    /** The pc->template map must cover the code and stay in bounds;
     *  everything below indexes through it. */
    bool
    checkStreamShape()
    {
        const std::size_t n = code_.code.size();
        if (dm_.pcToTemplate.size() != n) {
            std::ostringstream os;
            os << "pcToTemplate has " << dm_.pcToTemplate.size()
               << " entries for " << n << " instructions";
            error("stream-shape", os.str());
            return false;
        }
        for (bytecode::Pc pc = 0; pc < n; ++pc) {
            if (dm_.pcToTemplate[pc] >= dm_.stream.size()) {
                std::ostringstream os;
                os << "pcToTemplate[" << pc << "] = "
                   << dm_.pcToTemplate[pc] << " is out of the stream's "
                   << dm_.stream.size() << " templates";
                error("stream-shape", os.str());
                return false;
            }
        }
        for (const vm::Template &t : dm_.stream) {
            if (t.block >= cfg_.graph.numBlocks()) {
                std::ostringstream os;
                os << "template at pc " << t.pc
                   << " names nonexistent block " << t.block;
                error("stream-shape", os.str());
                return false;
            }
        }
        return true;
    }

    // ---- per-block charge sums ---------------------------------------

    /** Segment charges are folded onto segment-leader templates, and a
     *  segment never crosses a block boundary (every block leader is a
     *  segment leader), so summing per owning block is exact. Trace
     *  batching moves whole-block sums onto the trace head, so blocks
     *  inside a trace are excluded here and compared at trace
     *  granularity by checkTraces() instead. */
    void
    sumTemplateCharges()
    {
        tplCost_.assign(cfg_.graph.numBlocks(), 0);
        tplNinstr_.assign(cfg_.graph.numBlocks(), 0);
        fallEdgeTpl_.assign(cfg_.graph.numBlocks(), -1);
        for (std::size_t i = 0; i < dm_.stream.size(); ++i) {
            const vm::Template &t = dm_.stream[i];
            tplCost_[t.block] += t.cost;
            tplNinstr_[t.block] += t.ninstr;
            if ((t.op == vm::kTopFallEdge || t.op == vm::kTopTraceFall) &&
                fallEdgeTpl_[t.block] < 0)
                fallEdgeTpl_[t.block] = static_cast<std::int64_t>(i);
        }
    }

    /** The switch engine's cost of one block (scaled per-instruction
     *  sums) and its instruction count. */
    std::uint64_t
    refBlockCost(cfg::BlockId b) const
    {
        std::uint64_t cost = 0;
        for (bytecode::Pc pc = cfg_.firstPc[b]; pc <= cfg_.lastPc[b];
             ++pc) {
            cost += cm_.scaledCost[static_cast<std::size_t>(
                code_.code[pc].op)];
        }
        return cost;
    }

    bool
    inTrace(cfg::BlockId b) const
    {
        return b < dm_.blockTrace.size() && dm_.blockTrace[b] >= 0;
    }

    /** traces / blockTrace must describe each other before the charge
     *  comparisons lean on them. */
    void
    checkTraceShape()
    {
        tracesUsable_ = true;
        if (dm_.traces.empty() && dm_.blockTrace.empty())
            return;
        if (dm_.blockTrace.size() != cfg_.graph.numBlocks()) {
            std::ostringstream os;
            os << "blockTrace has " << dm_.blockTrace.size()
               << " entries for " << cfg_.graph.numBlocks() << " blocks";
            error("trace-shape", os.str());
            tracesUsable_ = false;
            return;
        }
        std::vector<std::int32_t> expect(cfg_.graph.numBlocks(), -1);
        for (std::size_t ti = 0; ti < dm_.traces.size(); ++ti) {
            if (dm_.traces[ti].size() < 2) {
                std::ostringstream os;
                os << "trace " << ti << " has "
                   << dm_.traces[ti].size()
                   << " blocks (a trace straightens at least two)";
                error("trace-shape", os.str());
                tracesUsable_ = false;
            }
            for (cfg::BlockId b : dm_.traces[ti]) {
                if (b >= cfg_.graph.numBlocks() || expect[b] != -1) {
                    std::ostringstream os;
                    os << "trace " << ti
                       << " member block " << b
                       << " is out of range or already in a trace";
                    error("trace-shape", os.str());
                    tracesUsable_ = false;
                    continue;
                }
                expect[b] = static_cast<std::int32_t>(ti);
            }
        }
        for (cfg::BlockId b = 0;
             tracesUsable_ && b < cfg_.graph.numBlocks(); ++b) {
            if (dm_.blockTrace[b] != expect[b]) {
                std::ostringstream os;
                os << "blockTrace[" << b << "] = " << dm_.blockTrace[b]
                   << " but the trace list implies " << expect[b];
                error("trace-shape", os.str());
                tracesUsable_ = false;
            }
        }
    }

    /**
     * Trace-granularity charge equivalence: the head leader carries the
     * whole chain's switch-engine cost, interior leaders carry zero,
     * and every interior guard's stashed refund equals the
     * switch-engine cost of the unexecuted suffix — so a mispredicted
     * exit leaves the clock exactly where per-instruction charging
     * would have.
     */
    void
    checkTraces()
    {
        if (!tracesUsable_)
            return;
        for (std::size_t ti = 0; ti < dm_.traces.size(); ++ti) {
            const std::vector<cfg::BlockId> &chain = dm_.traces[ti];
            std::uint64_t total_cost = 0;
            std::uint64_t total_ninstr = 0;
            std::vector<std::uint64_t> member_cost(chain.size());
            std::vector<std::uint64_t> member_ninstr(chain.size());
            for (std::size_t i = 0; i < chain.size(); ++i) {
                member_cost[i] = refBlockCost(chain[i]);
                member_ninstr[i] =
                    cfg_.lastPc[chain[i]] - cfg_.firstPc[chain[i]] + 1;
                total_cost += member_cost[i];
                total_ninstr += member_ninstr[i];
            }
            const cfg::BlockId head = chain[0];
            if ((tplCost_[head] != total_cost ||
                 tplNinstr_[head] != total_ninstr) &&
                !capped(costMismatches_)) {
                std::ostringstream os;
                os << "trace " << ti << " head block " << head
                   << " charges " << tplCost_[head] << " cycles / "
                   << tplNinstr_[head]
                   << " instructions but the chain's bytecode cost is "
                   << total_cost << " / " << total_ninstr;
                errorAtPc("trace-cost", cfg_.firstPc[head], os.str());
            }
            std::uint64_t suffix_cost = total_cost;
            std::uint64_t suffix_ninstr = total_ninstr;
            for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
                suffix_cost -= member_cost[i];
                suffix_ninstr -= member_ninstr[i];
                const cfg::BlockId b = chain[i + 1];
                if ((tplCost_[b] != 0 || tplNinstr_[b] != 0) &&
                    !capped(costMismatches_)) {
                    std::ostringstream os;
                    os << "trace " << ti << " interior block " << b
                       << " still charges " << tplCost_[b]
                       << " cycles (interior charges must be batched "
                          "onto the head)";
                    errorAtPc("trace-cost", cfg_.firstPc[b], os.str());
                }
                const cfg::BlockId exit_block = chain[i];
                if (cfg_.terminator[exit_block] != TerminatorKind::Cond)
                    continue;
                const vm::Template &gt = dm_.stream[dm_.pcToTemplate[
                    cfg_.lastPc[exit_block]]];
                if (!vm::isGuardTop(gt.op)) {
                    std::ostringstream os;
                    os << "trace " << ti << " interior branch of block "
                       << exit_block
                       << " is not a guard template (top "
                       << static_cast<unsigned>(gt.op) << ")";
                    errorAtPc("trace-guard", cfg_.lastPc[exit_block],
                              os.str());
                    continue;
                }
                if ((gt.swFirst != suffix_cost ||
                     gt.swCount != suffix_ninstr) &&
                    !capped(costMismatches_)) {
                    std::ostringstream os;
                    os << "guard of block " << exit_block
                       << " refunds " << gt.swFirst << " cycles / "
                       << gt.swCount
                       << " instructions but the unexecuted suffix "
                          "costs "
                       << suffix_cost << " / " << suffix_ninstr;
                    errorAtPc("trace-guard", cfg_.lastPc[exit_block],
                              os.str());
                }
            }
        }
    }

    // ---- one block ----------------------------------------------------

    void
    checkBlock(cfg::BlockId b)
    {
        const bytecode::Pc first = cfg_.firstPc[b];
        const bytecode::Pc last = cfg_.lastPc[b];
        const bytecode::Instr &term = code_.code[last];

        // Cycle charges and instruction counts. The switch engine
        // charges scaledCost per instruction; the threaded engine
        // charges the folded sums. Equal per block => equal on every
        // execution (both engines execute whole blocks between edges).
        if (!tracesUsable_ || !inTrace(b)) {
            const std::uint64_t ref_cost = refBlockCost(b);
            const std::uint64_t ref_ninstr = last - first + 1;
            if (ref_cost != tplCost_[b] && !capped(costMismatches_)) {
                std::ostringstream os;
                os << "block " << b << " bytecode cost " << ref_cost
                   << " != template segment sum " << tplCost_[b];
                errorAtPc("segment-cost", first, os.str());
            }
            if (ref_ninstr != tplNinstr_[b] &&
                !capped(costMismatches_)) {
                std::ostringstream os;
                os << "block " << b << " holds " << ref_ninstr
                   << " instructions but templates charge "
                   << tplNinstr_[b];
                errorAtPc("segment-cost", first, os.str());
            }
        }

        // Reference (bytecode) exits.
        std::vector<ExitEffect> ref;
        const TerminatorKind kind = cfg_.terminator[b];
        switch (kind) {
          case TerminatorKind::Cond:
            ref.push_back(refExit(b, 0, static_cast<bytecode::Pc>(term.a)));
            ref.push_back(refExit(b, 1, last + 1));
            break;
          case TerminatorKind::Switch: {
            for (std::size_t i = 0; i < term.table.size(); ++i) {
                ref.push_back(refExit(
                    b, static_cast<std::uint32_t>(i),
                    static_cast<bytecode::Pc>(term.table[i])));
            }
            ref.push_back(refExit(
                b, static_cast<std::uint32_t>(term.table.size()),
                static_cast<bytecode::Pc>(term.b)));
            break;
          }
          case TerminatorKind::Goto:
            ref.push_back(refExit(b, 0, static_cast<bytecode::Pc>(term.a)));
            break;
          case TerminatorKind::Return: {
            ExitEffect e;
            e.flatId = cfg_.flatEdgeId({b, 0});
            e.toExit = true;
            ref.push_back(e);
            break;
          }
          case TerminatorKind::Fallthrough:
            ref.push_back(refExit(b, 0, last + 1));
            break;
          case TerminatorKind::None:
            return; // not a code block; filtered by the caller
        }

        // The CFG the profilers index by must agree with the bytecode
        // the engines execute (successor lists in convention order).
        checkCfgShape(b, ref);

        // Template exits, plus the layout/baseline reads on branches.
        std::vector<ExitEffect> tpl;
        if (!templateExits(b, kind, term, tpl))
            return; // shape errors already reported

        if (ref.size() != tpl.size()) {
            std::ostringstream os;
            os << "block " << b << " has " << ref.size()
               << " bytecode exits but " << tpl.size()
               << " template exits";
            errorAtPc("control-exit", last, os.str());
            return;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            compareExit(b, static_cast<std::uint32_t>(i), ref[i],
                        tpl[i]);
        }
    }

    ExitEffect
    refExit(cfg::BlockId b, std::uint32_t index, bytecode::Pc target)
    {
        ExitEffect e;
        e.flatId = cfg_.flatEdgeId({b, index});
        e.targetPc = target;
        e.headerEvent = target < in_.info->headerLeaderPc.size() &&
                        in_.info->headerLeaderPc[target];
        return e;
    }

    /** Successor lists must mirror the bytecode's target order — the
     *  flat ids both engines fire are positions in these lists. */
    void
    checkCfgShape(cfg::BlockId b, const std::vector<ExitEffect> &ref)
    {
        const auto &succs = cfg_.graph.succs(b);
        if (succs.size() != ref.size()) {
            std::ostringstream os;
            os << "block " << b << " has " << succs.size()
               << " CFG successors but " << ref.size()
               << " bytecode exits";
            errorAtPc("cfg-shape", cfg_.lastPc[b], os.str());
            return;
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (ref[i].toExit)
                continue; // Return's successor is the synthetic exit
            const cfg::BlockId target_block =
                cfg_.blockOfPc[ref[i].targetPc];
            if (succs[i] != target_block && !capped(cfgMismatches_)) {
                std::ostringstream os;
                os << "successor " << i << " of block " << b << " is "
                   << succs[i] << " but the bytecode targets pc "
                   << ref[i].targetPc << " in block " << target_block;
                errorAtEdge("cfg-shape",
                            {b, static_cast<std::uint32_t>(i)},
                            os.str());
            }
        }
    }

    /** Resolve a transfer's target template and prove the dispatch
     *  lands on the target pc's template. */
    void
    checkTransfer(cfg::BlockId b, std::uint32_t target_tpl,
                  bytecode::Pc target_pc, const char *what)
    {
        if (target_tpl != dm_.pcToTemplate[target_pc] &&
            !capped(transferMismatches_)) {
            std::ostringstream os;
            os << what << " of block " << b << " dispatches to template "
               << target_tpl << " but pc " << target_pc
               << " lives at template " << dm_.pcToTemplate[target_pc];
            errorAtPc("control-exit", cfg_.lastPc[b], os.str());
        }
    }

    /** Build the template stream's exits for one block and check the
     *  terminator template's layout/baseline reads. Returns false when
     *  the stream's shape around the terminator is too broken to
     *  compare exits. */
    bool
    templateExits(cfg::BlockId b, TerminatorKind kind,
                  const bytecode::Instr &term, std::vector<ExitEffect> &out)
    {
        const bytecode::Pc last = cfg_.lastPc[b];
        const vm::Template &tt = dm_.stream[dm_.pcToTemplate[last]];
        // A fused template spans fuseLen constituent pcs starting at
        // its pc; the terminator must be one of them.
        if (!(tt.pc <= last && last < tt.pc + tt.fuseLen) ||
            tt.block != b) {
            std::ostringstream os;
            os << "terminator template of block " << b
               << " carries pc " << tt.pc << " block " << tt.block;
            errorAtPc("control-exit", last, os.str());
            return false;
        }

        const auto push = [&](std::uint32_t index, bytecode::Pc pc,
                              bool header) {
            ExitEffect e;
            e.flatId = tt.flatBase + index;
            e.targetPc = pc;
            e.headerEvent = header;
            out.push_back(e);
        };

        switch (kind) {
          case TerminatorKind::Cond: {
            // Acceptable forms: the plain conditional-branch template,
            // a fused compare-and-branch superinstruction, or (inside
            // a trace) a guard — all carry the same exit fields.
            const bool plain_cond =
                tt.op < bytecode::kNumOpcodes &&
                bytecode::isCondBranch(static_cast<Opcode>(tt.op));
            if (!plain_cond && !vm::isGuardTop(tt.op) &&
                !vm::isFusedBranchTop(tt.op)) {
                errorAtPc("control-exit", last,
                          "terminator template is not a conditional "
                          "branch");
                return false;
            }
            checkBranchReads(b, tt, last);
            push(0, tt.takenPc, tt.flags & vm::kTplTakenHeader);
            push(1, tt.fallPc, tt.flags & vm::kTplFallHeader);
            checkTransfer(b, tt.taken, tt.takenPc, "taken exit");
            checkTransfer(b, tt.fall, tt.fallPc, "fall exit");
            return true;
          }
          case TerminatorKind::Switch: {
            if (static_cast<Opcode>(tt.op) != Opcode::Tableswitch) {
                errorAtPc("control-exit", last,
                          "terminator template is not a Tableswitch");
                return false;
            }
            checkBranchReads(b, tt, last);
            if (tt.a != term.a) {
                std::ostringstream os;
                os << "switch low bound " << tt.a
                   << " != bytecode's " << term.a;
                errorAtPc("control-exit", last, os.str());
            }
            if (tt.swCount != term.table.size()) {
                std::ostringstream os;
                os << "switch template has " << tt.swCount
                   << " cases, bytecode has " << term.table.size();
                errorAtPc("control-exit", last, os.str());
                return false;
            }
            const std::size_t end = static_cast<std::size_t>(tt.swFirst) +
                                    tt.swCount + 1;
            if (end > dm_.switchCases.size()) {
                errorAtPc("control-exit", last,
                          "switch-case slice is out of bounds");
                return false;
            }
            for (std::uint32_t i = 0; i <= tt.swCount; ++i) {
                const vm::SwitchCase &sc =
                    dm_.switchCases[tt.swFirst + i];
                push(i, sc.pc, sc.isHeader != 0);
                checkTransfer(b, sc.tpl, sc.pc, "switch exit");
            }
            return true;
          }
          case TerminatorKind::Goto:
            push(0, tt.takenPc, tt.flags & vm::kTplTakenHeader);
            checkTransfer(b, tt.taken, tt.takenPc, "goto exit");
            return true;
          case TerminatorKind::Return: {
            ExitEffect e;
            e.flatId = tt.flatBase;
            e.toExit = true;
            out.push_back(e);
            return true;
          }
          case TerminatorKind::Fallthrough: {
            if (static_cast<Opcode>(tt.op) == Opcode::Invoke) {
                // Invoke ends the block: its template fires the edge.
                if (!(tt.flags & vm::kTplEndsBlock)) {
                    errorAtPc("control-exit", last,
                              "block-ending Invoke template lacks "
                              "kTplEndsBlock: the threaded engine "
                              "would fire no block-end edge");
                    return false;
                }
                push(0, tt.fallPc, tt.flags & vm::kTplFallHeader);
                checkTransfer(b, tt.fall, tt.fallPc, "invoke fall");
                return true;
            }
            // Plain fall-through: the injected FallEdge template.
            if (fallEdgeTpl_[b] < 0) {
                errorAtPc("control-exit", last,
                          "fall-through block has no FallEdge "
                          "template: the threaded engine would fire "
                          "no block-end edge");
                return false;
            }
            const vm::Template &fe = dm_.stream[static_cast<std::size_t>(
                fallEdgeTpl_[b])];
            ExitEffect e;
            e.flatId = fe.flatBase;
            e.targetPc = fe.fallPc;
            e.headerEvent = fe.flags & vm::kTplFallHeader;
            out.push_back(e);
            checkTransfer(b, fe.fall, fe.fallPc, "fall edge");
            return true;
          }
          case TerminatorKind::None:
            return false;
        }
        return false;
    }

    /** Layout and baseline-counter reads on Cond/Switch terminators:
     *  the template's baked copies must equal the version's live state
     *  (miss penalties and one-time counters fire identically). */
    void
    checkBranchReads(cfg::BlockId b, const vm::Template &tt,
                     bytecode::Pc last)
    {
        if (tt.layout != cm_.layoutFor(b) && !capped(layoutMismatches_)) {
            std::ostringstream os;
            os << "template layout " << tt.layout
               << " != installed branchLayout " << cm_.layoutFor(b)
               << " (stale template: layout misses diverge)";
            errorAtPc("layout", last, os.str());
        }
        const bool tpl_baseline = tt.flags & vm::kTplBaselineEdge;
        if (tpl_baseline != cm_.baselineEdgeInstr &&
            !capped(baselineMismatches_)) {
            std::ostringstream os;
            os << "template baseline-edge flag "
               << (tpl_baseline ? "set" : "clear")
               << " but the version's baselineEdgeInstr is "
               << (cm_.baselineEdgeInstr ? "true" : "false");
            errorAtPc("baseline", last, os.str());
        }
    }

    void
    compareExit(cfg::BlockId b, std::uint32_t index,
                const ExitEffect &ref, const ExitEffect &tpl)
    {
        if (ref.flatId != tpl.flatId && !capped(exitMismatches_)) {
            std::ostringstream os;
            os << "flat edge id " << tpl.flatId
               << " under the threaded engine but " << ref.flatId
               << " under switch dispatch";
            errorAtEdge("control-exit", {b, index}, os.str());
        }
        if (ref.toExit != tpl.toExit && !capped(exitMismatches_)) {
            errorAtEdge("control-exit", {b, index},
                        "one engine leaves the method, the other "
                        "transfers");
            return;
        }
        if (!ref.toExit && ref.targetPc != tpl.targetPc &&
            !capped(exitMismatches_)) {
            std::ostringstream os;
            os << "threaded engine transfers to pc " << tpl.targetPc
               << ", switch dispatch to pc " << ref.targetPc;
            errorAtEdge("control-exit", {b, index}, os.str());
        }
        if (ref.headerEvent != tpl.headerEvent &&
            !capped(headerMismatches_)) {
            std::ostringstream os;
            os << "loop-header events "
               << (tpl.headerEvent ? "fire" : "do not fire")
               << " under the threaded engine but "
               << (ref.headerEvent ? "fire" : "do not fire")
               << " under switch dispatch";
            errorAtEdge("yieldpoint", {b, index}, os.str());
        }
    }

    const EngineEquivInput &in_;
    DiagnosticList &diags_;
    const bytecode::MethodCfg &cfg_;
    const bytecode::Method &code_;
    const vm::CompiledMethod &cm_;
    const vm::DecodedMethod &dm_;

    std::vector<std::uint64_t> tplCost_;
    std::vector<std::uint64_t> tplNinstr_;
    std::vector<std::int64_t> fallEdgeTpl_;
    bool tracesUsable_ = true;

    std::size_t costMismatches_ = 0;
    std::size_t cfgMismatches_ = 0;
    std::size_t transferMismatches_ = 0;
    std::size_t layoutMismatches_ = 0;
    std::size_t baselineMismatches_ = 0;
    std::size_t exitMismatches_ = 0;
    std::size_t headerMismatches_ = 0;
};

} // namespace

bool
checkEngineEquivalence(const EngineEquivInput &input,
                       DiagnosticList &diagnostics)
{
    EquivChecker checker(input, diagnostics);
    return checker.run();
}

} // namespace pep::analysis
