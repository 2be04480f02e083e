#ifndef PEP_CORE_PATH_ENGINE_HH
#define PEP_CORE_PATH_ENGINE_HH

/**
 * @file
 * Shared machinery for every path-profiling client: builds per-version
 * instrumentation state when the optimizing compiler runs (P-DAG,
 * numbering, plan, reconstructor), and executes the path-register
 * semantics against interpreter events. Subclasses decide what happens
 * when a path completes (store always = BLPP/perfect; store at samples
 * = PEP; store for free = ground truth).
 *
 * Matching the paper (Section 4.3), instrumentation is added only by
 * the optimizing compiler: frames running baseline code carry no state
 * and generate no path events.
 */

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "profile/instr_plan.hh"
#include "profile/kpath.hh"
#include "profile/numbering.hh"
#include "profile/path_profile.hh"
#include "profile/pdag.hh"
#include "profile/reconstruct.hh"
#include "vm/hooks.hh"
#include "vm/machine.hh"

namespace pep::core {

/** Immutable per-(method, compiled-version) profiling state. */
struct MethodProfilingState
{
    bytecode::MethodId method = 0;
    std::uint32_t version = 0;

    /** The compiled version this state instruments (owned by the
     *  Machine; nullptr for states built directly in tests). Carries
     *  the inlined body and its block-origin map when inlining is on. */
    const vm::CompiledMethod *compiled = nullptr;

    profile::PDag pdag;
    profile::Numbering numbering;
    profile::InstrumentationPlan plan;

    /** k-iteration id space over the plan's path numbers (docs/
     *  KBLPP.md). Degenerate (kEffective()==1) unless the engine was
     *  built with k_iterations > 1 and the plan is enabled. The plan
     *  itself never depends on k — the degeneracy guarantee. */
    profile::KPathScheme kpath;

    /** Built last; holds references into this struct and the CFG. */
    std::unique_ptr<profile::PathReconstructor> reconstructor;
};

/** Build the state for one method (cfg must outlive the state). */
std::unique_ptr<MethodProfilingState>
buildProfilingState(const bytecode::MethodCfg &method_cfg,
                    bytecode::MethodId method, std::uint32_t version,
                    profile::DagMode mode,
                    profile::NumberingScheme scheme,
                    const profile::MethodEdgeProfile *freq_profile,
                    profile::PlacementKind placement =
                        profile::PlacementKind::Direct,
                    std::uint32_t k_iterations = 1);

/**
 * One compiled version's profiling state plus the path frequencies
 * collected against it. Path numbers are only meaningful relative to a
 * specific numbering, so profiles are kept per version; records cache
 * their version-independent CFG-edge expansion, which metrics use to
 * merge and compare profiles across versions and numbering schemes.
 */
struct VersionProfile
{
    std::unique_ptr<MethodProfilingState> state;
    profile::MethodPathProfile paths;
};

/** Key: (method, compiled version number). */
using VersionKey = std::pair<bytecode::MethodId, std::uint32_t>;

/**
 * Base class executing path-register instrumentation. Implements
 * ExecutionHooks and CompileObserver; attach to a Machine with both
 * addHooks() and addCompileObserver().
 */
class PathEngine : public vm::ExecutionHooks, public vm::CompileObserver
{
  public:
    /**
     * @param machine    the VM (used for cost charging and CFG access)
     * @param mode       P-DAG construction (PEP uses HeaderSplit)
     * @param scheme     numbering scheme
     * @param charge_costs false for zero-overhead ground-truth use
     * @param placement  increment placement strategy
     * @param k_iterations k-BLPP window length (1 = classic BLPP;
     *                   per-version kEffective may be lower when the
     *                   composite id space would overflow)
     */
    PathEngine(vm::Machine &machine, profile::DagMode mode,
               profile::NumberingScheme scheme, bool charge_costs,
               profile::PlacementKind placement =
                   profile::PlacementKind::Direct,
               std::uint32_t k_iterations = 1);

    // CompileObserver
    void onCompile(bytecode::MethodId method,
                   const vm::CompiledMethod &version) override;

    // ExecutionHooks
    void onMethodEntry(const vm::FrameView &frame) override;
    void onMethodExit(const vm::FrameView &frame) override;
    void onEdge(const vm::FrameView &frame, cfg::EdgeRef edge,
                std::uint32_t flat_id) override;
    void onLoopHeader(const vm::FrameView &frame,
                      cfg::BlockId block) override;
    void onOsr(const vm::FrameView &frame, cfg::BlockId header) override;

    /** Look up the state of a compiled version (nullptr if none,
     *  e.g. baseline code or overflowed numbering). */
    const MethodProfilingState *
    stateFor(bytecode::MethodId method, std::uint32_t version) const;

    /** All versions this engine instrumented, with their profiles,
     *  ordered by (method, version). The pointers stay valid until the
     *  engine is destroyed; profiles are mutable because metrics expand
     *  path records lazily. */
    std::vector<std::pair<VersionKey, VersionProfile *>>
    versionProfiles();
    std::vector<std::pair<VersionKey, const VersionProfile *>>
    versionProfiles() const;

    /** Drop all collected path frequencies (instrumentation state is
     *  kept). */
    void clearPathProfiles();

    /** Number of methods whose numbering overflowed. */
    std::size_t overflowCount() const { return overflowCount_; }

    /** The requested k-BLPP window length this engine was built with. */
    std::uint32_t kIterations() const { return kIterations_; }

    /**
     * Fault injection (testing/differ.hh InjectKind::TruncatedWindow):
     * silently discard partial windows at flush points (method exit,
     * OSR) instead of emitting the short k-path. The exact oracle keeps
     * counting those windows, so the differ's totals/segment checks
     * must catch the discrepancy. Meaningless when kEffective == 1
     * everywhere (there are no partial windows to drop).
     */
    void
    setTruncateWindowInjection(bool enabled)
    {
        truncateWindowInjection_ = enabled;
    }

  protected:
    /**
     * A path completed with the given number, against `vp.state`'s
     * numbering. Fired at loop headers and method exits (HeaderSplit
     * mode) or back edges and exits (BackEdgeTruncate mode). `thread`
     * is the virtual mutator thread whose path register completed —
     * profilers with sampling state keep it per thread.
     */
    virtual void pathCompleted(VersionProfile &vp,
                               std::uint64_t path_number,
                               std::uint32_t thread) = 0;

    /**
     * Edge-frequency profile used by Smart numbering when compiling
     * `method`; default is the machine's one-time baseline profile.
     * PEP overrides this to use its own continuous profile once it has
     * one (profile-guided profiling, Section 3.4).
     */
    virtual const profile::MethodEdgeProfile *
    freqProfileFor(bytecode::MethodId method);

    /** Charge cycles if this engine charges costs. */
    void
    charge(std::uint64_t cycles)
    {
        if (chargeCosts_)
            vm_.chargeCycles(cycles);
    }

    vm::Machine &vm_;
    const profile::DagMode mode_;
    const profile::NumberingScheme scheme_;
    const bool chargeCosts_;
    const profile::PlacementKind placement_;

  private:
    /**
     * Per-frame profiling state. The action/header pointers cache the
     * frame's enabled plan so the per-edge hot path is one dense array
     * load at the edge's flat id; they are rebound on entry and OSR
     * and are null exactly when vp is null.
     */
    struct FrameState
    {
        VersionProfile *vp = nullptr;
        const profile::EdgeAction *actions = nullptr;
        const profile::HeaderAction *headers = nullptr;
        std::uint64_t reg = 0;

        /** k-BLPP iteration window: the completed segment numbers not
         *  yet folded into a composite id. Always empty while the
         *  version's kEffective is 1 (the degenerate fast path never
         *  touches it). */
        std::vector<std::uint64_t> win;

        void
        bind(VersionProfile &profile)
        {
            vp = &profile;
            const profile::InstrumentationPlan &plan =
                profile.state->plan;
            actions = plan.flatEdgeActions.data();
            headers = plan.headerActions.data();
        }
    };

    /** One Ball-Larus segment completed: with kEffective == 1 this is
     *  pathCompleted verbatim; otherwise the number joins the frame's
     *  window, which emits one composite id per kEffective segments. */
    void segmentCompleted(FrameState &fs, std::uint64_t number,
                          std::uint32_t thread);

    /** Emit the frame's partial window (method exit, OSR) as a short
     *  k-path — or silently drop it under the truncated-window
     *  injection. */
    void flushWindow(FrameState &fs, std::uint32_t thread);

    /** Version with an enabled-or-disabled plan, nullptr if the engine
     *  never saw (method, version) compile. */
    VersionProfile *findVersion(bytecode::MethodId method,
                                std::uint32_t version) const;

    /** The frame stack of one virtual mutator thread, grown on first
     *  use. Single-threaded machines only ever touch stack 0. */
    std::vector<FrameState> &stackFor(std::uint32_t thread);

    /** Storage indexed [method][version]; baseline compiles consume
     *  version numbers without reaching the engine, so gaps are null. */
    std::vector<std::vector<std::unique_ptr<VersionProfile>>> versions_;

    /** Per-thread frame stacks (the per-thread path registers live in
     *  the FrameStates), indexed by FrameView::thread. */
    std::vector<std::vector<FrameState>> stacks_;
    std::size_t overflowCount_ = 0;
    const std::uint32_t kIterations_;
    bool truncateWindowInjection_ = false;
};

} // namespace pep::core

#endif // PEP_CORE_PATH_ENGINE_HH
