/**
 * @file
 * Tests of the pre-decoded threaded execution engine (docs/ENGINE.md):
 * translator edge cases over hand-written and random CFG shapes, the
 * switch/threaded observable byte-identity contract, park/resume
 * round-trips through mid-block scheduler switches, the one edge
 * event both engines fire (same edges, same dense ids), the clean
 * relayout-plus-invalidateDecoded path, and the translation-cache
 * counters.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/assembler.hh"
#include "common/fixtures.hh"
#include "vm/cost_model.hh"
#include "vm/decoded_method.hh"
#include "vm/engine.hh"
#include "vm/inliner.hh"
#include "vm/interpreter.hh"
#include "vm/machine.hh"

namespace pep::vm {
namespace {

SimParams
engineParams(EngineKind kind)
{
    SimParams params;
    params.engine = kind;
    params.tickCycles = 20'000; // fast ticks: exercise promotion
    return params;
}

/** Translate one method exactly as Machine::decodedFor would for a
 *  full-opt version with no layout information. */
struct Translated
{
    MethodInfo info;
    CompiledMethod cm;
    DecodedMethod decoded;

    explicit Translated(const bytecode::Method &method)
        : info(buildMethodInfo(method))
    {
        const CostModel cost;
        cm.level = OptLevel::Opt2;
        cm.scaledCost.resize(bytecode::kNumOpcodes);
        for (std::size_t op = 0; op < bytecode::kNumOpcodes; ++op)
            cm.scaledCost[op] =
                cost.instrCost(static_cast<bytecode::Opcode>(op));
        cm.branchLayout.assign(info.cfg.graph.numBlocks(), -1);
        decoded = translateMethod(method, info, cm);
    }
};

/** Structural invariants every translation must satisfy. */
void
expectWellFormed(const bytecode::Method &method,
                 const Translated &t)
{
    // Every pc maps to a template that pre-decodes that instruction.
    ASSERT_EQ(t.decoded.pcToTemplate.size(), method.code.size());
    for (bytecode::Pc pc = 0; pc < method.code.size(); ++pc) {
        const std::uint32_t idx = t.decoded.pcToTemplate[pc];
        ASSERT_LT(idx, t.decoded.stream.size()) << "pc " << pc;
        const Template &tpl = t.decoded.stream[idx];
        EXPECT_EQ(tpl.pc, pc);
        EXPECT_EQ(tpl.op, static_cast<std::uint8_t>(method.code[pc].op));
        EXPECT_EQ(tpl.flatBase, t.info.cfg.edgeBase[tpl.block]);
    }

    // Segment charges conserve the per-instruction totals.
    std::uint64_t want_cost = 0;
    for (const bytecode::Instr &instr : method.code)
        want_cost +=
            t.cm.scaledCost[static_cast<std::size_t>(instr.op)];
    std::uint64_t got_cost = 0;
    std::uint64_t got_ninstr = 0;
    for (const Template &tpl : t.decoded.stream) {
        got_cost += tpl.cost;
        got_ninstr += tpl.ninstr;
    }
    EXPECT_EQ(got_cost, want_cost);
    EXPECT_EQ(got_ninstr, method.code.size());
}

TEST(EngineKindTest, NamesRoundTrip)
{
    EXPECT_STREQ(engineKindName(EngineKind::Switch), "switch");
    EXPECT_STREQ(engineKindName(EngineKind::Threaded), "threaded");
    EngineKind kind = EngineKind::Switch;
    EXPECT_TRUE(parseEngineKind("threaded", kind));
    EXPECT_EQ(kind, EngineKind::Threaded);
    EXPECT_TRUE(parseEngineKind("switch", kind));
    EXPECT_EQ(kind, EngineKind::Switch);
    EXPECT_FALSE(parseEngineKind("goto", kind));
}

TEST(TranslatorTest, SingleBlockMethod)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    iconst 3
    istore 0
    iinc 0 2
    return
.end
.main main
)");
    const bytecode::Method &method = p.methods[p.mainMethod];
    const Translated t(method);
    expectWellFormed(method, t);

    // One block, no injected boundary ops: the stream is the code, the
    // pc map is the identity, and the whole body is one segment whose
    // charge sits on the leader.
    EXPECT_EQ(t.decoded.stream.size(), method.code.size());
    for (bytecode::Pc pc = 0; pc < method.code.size(); ++pc)
        EXPECT_EQ(t.decoded.pcToTemplate[pc], pc);
    EXPECT_EQ(t.decoded.stream[0].ninstr, method.code.size());
    for (std::size_t i = 1; i < t.decoded.stream.size(); ++i) {
        EXPECT_EQ(t.decoded.stream[i].cost, 0u);
        EXPECT_EQ(t.decoded.stream[i].ninstr, 0u);
    }
}

TEST(TranslatorTest, SelfLoopBranchTargetsItsOwnHeader)
{
    const bytecode::Program p = bytecode::assembleOrDie(R"(
.globals 1
.method main 0 1
    iconst 50
    istore 0
loop:
    iinc 0 -1
    iload 0
    ifgt loop
    return
.end
.main main
)");
    const bytecode::Method &method = p.methods[p.mainMethod];
    const Translated t(method);
    expectWellFormed(method, t);

    const Template *branch = nullptr;
    for (const Template &tpl : t.decoded.stream) {
        if (tpl.op == static_cast<std::uint8_t>(bytecode::Opcode::Ifgt))
            branch = &tpl;
    }
    ASSERT_NE(branch, nullptr);
    // The back edge loops to the branch's own block: the pre-resolved
    // taken target is the block's leader template, marked as a header.
    EXPECT_EQ(branch->takenBlock, branch->block);
    EXPECT_TRUE(branch->flags & kTplTakenHeader);
    EXPECT_EQ(branch->taken, t.decoded.pcToTemplate[branch->takenPc]);
    EXPECT_EQ(t.decoded.stream[branch->taken].block, branch->block);
    EXPECT_TRUE(t.info.cfg.isLoopHeader[branch->block]);
}

TEST(TranslatorTest, FallthroughBlockEndsGetInjectedEdgeOps)
{
    // simpleLoopProgram's `skip:` label splits a block mid-fallthrough,
    // so the preceding block ends without a terminator and translation
    // must inject a synthetic fall-edge template there.
    const bytecode::Program p = test::simpleLoopProgram();
    const bytecode::Method &method = p.methods[p.mainMethod];
    const Translated t(method);
    expectWellFormed(method, t);

    std::size_t fall_edges = 0;
    for (const Template &tpl : t.decoded.stream) {
        if (tpl.op != kTopFallEdge)
            continue;
        ++fall_edges;
        // The injected op resolves to the next block's leader and
        // shifts the pc map off the identity behind it.
        EXPECT_EQ(tpl.fall, t.decoded.pcToTemplate[tpl.fallPc]);
        EXPECT_EQ(t.decoded.stream[tpl.fall].pc, tpl.fallPc);
        EXPECT_NE(tpl.fallBlock, tpl.block);
        EXPECT_EQ(tpl.flatBase, t.info.cfg.edgeBase[tpl.block]);
    }
    EXPECT_GT(fall_edges, 0u);
    EXPECT_EQ(t.decoded.stream.size(),
              method.code.size() + fall_edges);
}

TEST(TranslatorTest, RandomStructuredMethodsStayWellFormed)
{
    for (std::uint64_t seed = 400; seed < 412; ++seed) {
        const bytecode::Program p =
            test::randomStructuredProgram(seed, 6);
        const bytecode::Method &method = p.methods[p.mainMethod];
        const Translated t(method);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectWellFormed(method, t);
    }
}

// ---- engine equivalence ----------------------------------------------

/** Everything a run may observe, minus the engine-private translation
 *  counters (methodsDecoded / templateInvalidations). */
std::string
observableState(const Machine &machine)
{
    std::ostringstream out;
    const auto dump_set = [&](const profile::EdgeProfileSet &set,
                              const char *tag) {
        for (std::size_t m = 0; m < set.perMethod.size(); ++m) {
            const auto &counts = set.perMethod[m].counts();
            for (std::size_t b = 0; b < counts.size(); ++b)
                for (std::size_t i = 0; i < counts[b].size(); ++i)
                    if (counts[b][i] != 0)
                        out << tag << ' ' << m << ' ' << b << ' ' << i
                            << ' ' << counts[b][i] << '\n';
        }
    };
    dump_set(machine.truthEdges(), "truth");
    dump_set(machine.oneTimeEdges(), "one-time");
    const MachineStats &s = machine.stats();
    out << "clock " << machine.now() << '\n'
        << "stats " << s.instructionsExecuted << ' '
        << s.methodInvocations << ' ' << s.yieldpointsExecuted << ' '
        << s.timerTicks << ' ' << s.compileCycles << ' ' << s.compiles
        << ' ' << s.osrs << ' ' << s.layoutMisses << ' '
        << s.branchesExecuted << '\n';
    return out.str();
}

std::string
runAdaptive(const bytecode::Program &p, EngineKind kind, int iterations)
{
    Machine machine(p, engineParams(kind));
    for (int i = 0; i < iterations; ++i)
        machine.runIteration();
    return observableState(machine);
}

TEST(EngineIdentityTest, AdaptiveRunsAreObservablyIdentical)
{
    const bytecode::Program fixtures[] = {
        test::simpleLoopProgram(),
        test::figure1Program(),
        test::callSwitchProgram(),
    };
    for (const bytecode::Program &p : fixtures)
        EXPECT_EQ(runAdaptive(p, EngineKind::Switch, 3),
                  runAdaptive(p, EngineKind::Threaded, 3));
    for (std::uint64_t seed = 500; seed < 508; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const bytecode::Program p =
            test::randomStructuredProgram(seed, 6);
        EXPECT_EQ(runAdaptive(p, EngineKind::Switch, 2),
                  runAdaptive(p, EngineKind::Threaded, 2));
    }
}

TEST(EngineIdentityTest, InliningAndBackEdgeYieldpointsStayIdentical)
{
    SimParams base = engineParams(EngineKind::Switch);
    base.enableInlining = true;
    base.yieldpointsOnBackEdges = true;
    const bytecode::Program p = test::callSwitchProgram();

    SimParams threaded = base;
    threaded.engine = EngineKind::Threaded;
    Machine sw(p, base);
    Machine th(p, threaded);
    for (int i = 0; i < 3; ++i) {
        sw.runIteration();
        th.runIteration();
    }
    EXPECT_EQ(observableState(sw), observableState(th));
}

// ---- park / resume ---------------------------------------------------

/** Requests a context switch at every yieldpoint, so frames park at
 *  every opportunity the contract allows — including with the caller
 *  sitting mid-block at an Invoke while its callee's entry yieldpoint
 *  fires. */
struct SwitchEveryYieldpoint : ThreadScheduler
{
    std::uint64_t yieldpoints = 0;

    bool
    onYieldpoint(std::uint32_t, YieldpointKind, bool) override
    {
        ++yieldpoints;
        return true;
    }
};

struct ParkedRun
{
    std::string state;
    std::uint64_t parks = 0;
};

ParkedRun
runWithConstantParking(const bytecode::Program &p, EngineKind kind)
{
    Machine machine(p, engineParams(kind));
    SwitchEveryYieldpoint scheduler;
    machine.setScheduler(&scheduler);
    Interpreter interp(machine, 0);
    interp.start(p.mainMethod);
    ParkedRun run;
    while (!interp.resume())
        ++run.parks;
    machine.setScheduler(nullptr);
    run.state = observableState(machine);
    return run;
}

TEST(EngineParkResumeTest, MidBlockParksRoundTripIdentically)
{
    const bytecode::Program fixtures[] = {
        test::callSwitchProgram(),
        test::simpleLoopProgram(),
        test::randomStructuredProgram(601, 6),
        test::randomStructuredProgram(602, 6),
    };
    for (const bytecode::Program &p : fixtures) {
        const ParkedRun sw = runWithConstantParking(p, EngineKind::Switch);
        const ParkedRun th =
            runWithConstantParking(p, EngineKind::Threaded);
        EXPECT_GT(sw.parks, 0u);
        EXPECT_EQ(sw.parks, th.parks);
        EXPECT_EQ(sw.state, th.state);
    }
}

// ---- the one edge event ----------------------------------------------

/** Every edge event as (method, version, src, index, flat id). */
using EdgeEvent = std::array<std::uint32_t, 5>;

/** Logs edge events and checks each flat id against the frame's
 *  executing CFG. */
struct EdgeLog : ExecutionHooks
{
    explicit EdgeLog(const Machine &machine) : machine_(machine) {}

    void
    onEdge(const FrameView &frame, cfg::EdgeRef edge,
           std::uint32_t flat_id) override
    {
        const InlinedBody *inlined = frame.version->inlinedBody.get();
        const bytecode::MethodCfg &cfg =
            inlined ? inlined->info.cfg : machine_.info(frame.method).cfg;
        if (flat_id != cfg.flatEdgeId(edge))
            ++wrongIds;
        if (inlined)
            ++inlinedEvents;
        events.push_back({frame.method, frame.version->version, edge.src,
                          edge.index, flat_id});
    }

    const Machine &machine_;
    std::vector<EdgeEvent> events;
    std::uint64_t wrongIds = 0;
    std::uint64_t inlinedEvents = 0;
};

/** A hot loop around an inlinable leaf with a branch of its own. */
bytecode::Program
hotLeafProgram()
{
    return bytecode::assembleOrDie(R"(
.globals 0
.method leaf 1 1 returns
    iload 0
    iconst 1
    iand
    ifeq even
    iconst 3
    ireturn
even:
    iconst 5
    ireturn
.end
.method main 0 2
    iconst 3000
    istore 0
loop:
    iload 0
    ifle done
    iload 0
    invoke leaf
    iload 1
    iadd
    istore 1
    iinc 0 -1
    goto loop
done:
    return
.end
.main main
)");
}

std::vector<EdgeEvent>
edgeEventsOf(const bytecode::Program &p, EngineKind kind,
             FuseOptions fuse)
{
    SimParams params = engineParams(kind);
    params.enableInlining = true;
    params.fuse = fuse;
    Machine machine(p, params);
    EdgeLog log(machine);
    machine.addHooks(&log);
    SwitchEveryYieldpoint scheduler;
    machine.setScheduler(&scheduler);
    for (int i = 0; i < 3; ++i) {
        Interpreter interp(machine, 0);
        interp.start(p.mainMethod);
        std::uint64_t parks = 0;
        while (!interp.resume())
            ++parks;
        EXPECT_GT(parks, 0u);
    }
    machine.setScheduler(nullptr);
    EXPECT_EQ(log.wrongIds, 0u);
    EXPECT_GT(log.inlinedEvents, 0u);
    return log.events;
}

TEST(EngineEdgeEventTest, SameEdgesAndFlatIdsOnEveryEngine)
{
    // Both engines fire the one onEdge event with the CFG's dense id;
    // parking at every yieldpoint, inlined bodies and fused streams
    // must not change a single (edge, flat id) of the sequence.
    const bytecode::Program p = hotLeafProgram();
    const std::vector<EdgeEvent> reference =
        edgeEventsOf(p, EngineKind::Switch, {});
    EXPECT_GT(reference.size(), 10'000u);
    EXPECT_TRUE(edgeEventsOf(p, EngineKind::Threaded, {}) == reference);
    EXPECT_TRUE(edgeEventsOf(p, EngineKind::Threaded, {true, true}) ==
                reference);
}

// ---- relayout + invalidation ----------------------------------------

/** Flip every installed version's branch layout (the relayout
 *  experiment's mutation) and return the touched (method, version)
 *  pairs so the caller can invalidate the decoded streams. */
std::vector<std::pair<bytecode::MethodId, std::uint32_t>>
flipAllLayouts(Machine &machine)
{
    std::vector<std::pair<bytecode::MethodId, std::uint32_t>> touched;
    for (bytecode::MethodId m = 0;
         m < static_cast<bytecode::MethodId>(machine.numMethods());
         ++m) {
        const CompiledMethod *current = machine.currentVersion(m);
        if (current == nullptr)
            continue;
        CompiledMethod *cm =
            machine.versionForUpdate(m, current->version);
        EXPECT_NE(cm, nullptr) << "method " << m;
        if (cm == nullptr)
            continue;
        for (std::int16_t &layout : cm->branchLayout)
            layout = layout == 1 ? 0 : 1;
        touched.emplace_back(m, current->version);
    }
    return touched;
}

TEST(EngineInvalidationTest, RelayoutWithInvalidationStaysIdentical)
{
    const bytecode::Program p = test::figure1Program();
    Machine sw(p, engineParams(EngineKind::Switch));
    Machine th(p, engineParams(EngineKind::Threaded));
    sw.runIteration();
    th.runIteration();
    ASSERT_EQ(observableState(sw), observableState(th));

    // Mutate both machines' installed plans identically, then follow
    // the contract: every touched version's template stream is dropped.
    // (The fuzzer's `stale-template` injection is this exact mutation
    // with the invalidation forgotten, and it must diverge.)
    flipAllLayouts(sw);
    const auto touched = flipAllLayouts(th);
    ASSERT_FALSE(touched.empty());
    for (const auto &[method, version] : touched) {
        sw.invalidateDecoded(method, version);
        th.invalidateDecoded(method, version);
    }
    EXPECT_GE(th.stats().templateInvalidations, touched.size());

    sw.runIteration();
    th.runIteration();
    EXPECT_EQ(observableState(sw), observableState(th));
    // The flip flipped real predictions: the second iteration pays
    // misses the first did not (figure1's loop branch is biased).
    EXPECT_GT(sw.stats().layoutMisses, 0u);
}

TEST(EngineCountersTest, TranslationCountersTrackTheCache)
{
    // Default tick period: this tiny program never ticks, so nothing
    // promotes and the counters are fully deterministic.
    const bytecode::Program p = test::simpleLoopProgram();

    // The switch engine never touches the translation cache.
    SimParams sw_params;
    sw_params.engine = EngineKind::Switch;
    Machine sw(p, sw_params);
    sw.runIteration();
    EXPECT_EQ(sw.stats().methodsDecoded, 0u);
    EXPECT_EQ(sw.stats().templateInvalidations, 0u);

    SimParams th_params;
    th_params.engine = EngineKind::Threaded;
    Machine th(p, th_params);
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 1u); // main's baseline version

    // Re-running with a live stream translates nothing new...
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 1u);

    // ...while invalidating forces exactly one re-translation.
    const CompiledMethod *cm = th.currentVersion(p.mainMethod);
    ASSERT_NE(cm, nullptr);
    th.invalidateDecoded(p.mainMethod, cm->version);
    EXPECT_EQ(th.stats().templateInvalidations, 1u);
    th.runIteration();
    EXPECT_EQ(th.stats().methodsDecoded, 2u);
}

} // namespace
} // namespace pep::vm
