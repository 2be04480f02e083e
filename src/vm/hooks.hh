#ifndef PEP_VM_HOOKS_HH
#define PEP_VM_HOOKS_HH

/**
 * @file
 * Interfaces between the interpreter and the profiling layer. The
 * interpreter fires control-flow and yieldpoint events; profilers (in
 * src/core) implement ExecutionHooks and keep their own per-frame state
 * (e.g., the path register) keyed by call depth. Multiple hooks can be
 * attached to one machine — e.g., PEP plus a zero-cost ground-truth
 * recorder for accuracy evaluation.
 */

#include <cstdint>

#include "bytecode/instr.hh"
#include "cfg/graph.hh"

namespace pep::vm {

class CompiledMethod;

/** Where a yieldpoint sits (Jikes RVM places them at exactly these). */
enum class YieldpointKind : std::uint8_t
{
    MethodEntry,
    LoopHeader,
    MethodExit,
    BackEdge, ///< only with SimParams::yieldpointsOnBackEdges
};

/** A frame as seen by hooks. */
struct FrameView
{
    bytecode::MethodId method = 0;

    /** Compiled version executing in this frame. */
    const CompiledMethod *version = nullptr;

    /** Call depth (0 = main); hooks key per-frame state off this. */
    std::uint32_t depth = 0;

    /** Virtual mutator thread executing the frame (0 when the machine
     *  runs single-threaded). Hooks that keep per-frame state must key
     *  it by (thread, depth), not depth alone. */
    std::uint32_t thread = 0;
};

/**
 * Scheduler hook point (src/runtime's cooperative scheduler implements
 * this). The interpreter consults it at every yieldpoint — the only
 * places Jikes RVM's quasi-preemptive scheduler switches threads. A
 * `true` return requests a context switch: the interpreter finishes the
 * current instruction and returns control from Interpreter::resume().
 */
class ThreadScheduler
{
  public:
    virtual ~ThreadScheduler() = default;

    /**
     * A yieldpoint executed on `thread`. `tick_fired` mirrors the timer
     * interrupt's thread-switch flag; schedulers normally switch
     * exactly when it is set.
     */
    virtual bool onYieldpoint(std::uint32_t thread, YieldpointKind kind,
                              bool tick_fired) = 0;
};

/** Receiver of interpreter events. All events refer to the top frame. */
class ExecutionHooks
{
  public:
    virtual ~ExecutionHooks() = default;

    /** Frame pushed; fired before any code of the method runs. */
    virtual void onMethodEntry(const FrameView &frame) { (void)frame; }

    /** Method returning; fired after the return edge's onEdge. The
     *  frame is popped after this event. */
    virtual void onMethodExit(const FrameView &frame) { (void)frame; }

    /**
     * A CFG edge of the frame's method was taken (includes the
     * entry->firstBlock edge and returnBlock->exit edges). `flat_id`
     * is the edge's dense id in the frame's executing CFG
     * (bytecode::MethodCfg::flatEdgeId), the index of its action in
     * every InstrumentationPlan::flatEdgeActions. Both engines fire
     * this one event.
     */
    virtual void
    onEdge(const FrameView &frame, cfg::EdgeRef edge,
           std::uint32_t flat_id)
    {
        (void)frame;
        (void)edge;
        (void)flat_id;
    }

    /** Control entered a loop-header block (fired after the incoming
     *  edge's onEdge, before the header yieldpoint). */
    virtual void
    onLoopHeader(const FrameView &frame, cfg::BlockId block)
    {
        (void)frame;
        (void)block;
    }

    /**
     * A yieldpoint executed. `tick_fired` is true if a timer tick
     * occurred since the previous yieldpoint (the interrupt handler set
     * the thread-switch flag). Sampling controllers keep their own
     * multi-sample state across yieldpoints.
     */
    virtual void
    onYieldpoint(const FrameView &frame, YieldpointKind kind,
                 bool tick_fired)
    {
        (void)frame;
        (void)kind;
        (void)tick_fired;
    }

    /**
     * On-stack replacement: the top frame switched to a higher-tier
     * version at a loop-header yieldpoint (fired after the header's
     * onLoopHeader/onYieldpoint, with frame.version already the new
     * version). Path profilers rebind their per-frame state here;
     * header splitting makes this safe — the old version's path just
     * ended at this header, and the new path begins with the new
     * plan's restart value. The frame's pc is a loop-header leader in
     * the new code too: when path cloning moved the loop's header
     * into a clone, the frame does not transfer and this never fires.
     */
    virtual void
    onOsr(const FrameView &frame, cfg::BlockId header)
    {
        (void)frame;
        (void)header;
    }
};

/** Notified when the machine (re)compiles a method. */
class CompileObserver
{
  public:
    virtual ~CompileObserver() = default;

    /** `version` is the freshly created compiled version. */
    virtual void onCompile(bytecode::MethodId method,
                           const CompiledMethod &version) = 0;
};

} // namespace pep::vm

#endif // PEP_VM_HOOKS_HH
