#include "core/path_engine.hh"

#include "profile/spanning_placement.hh"
#include "vm/inliner.hh"
#include "support/panic.hh"

namespace pep::core {

std::unique_ptr<MethodProfilingState>
buildProfilingState(const bytecode::MethodCfg &method_cfg,
                    bytecode::MethodId method, std::uint32_t version,
                    profile::DagMode mode,
                    profile::NumberingScheme scheme,
                    const profile::MethodEdgeProfile *freq_profile,
                    profile::PlacementKind placement,
                    std::uint32_t k_iterations)
{
    auto state = std::make_unique<MethodProfilingState>();
    state->method = method;
    state->version = version;
    state->pdag = profile::buildPDag(method_cfg, mode);

    // Edge frequency estimates (used by Smart numbering and by the
    // spanning-tree placement); all-zero when no profile exists, which
    // reduces both to deterministic structural choices.
    profile::DagEdgeFreqs freqs;
    if (freq_profile) {
        freqs = profile::estimateDagEdgeFrequencies(
            method_cfg, state->pdag, freq_profile->counts());
    } else {
        freqs.resize(state->pdag.dag.numBlocks());
        for (cfg::BlockId v = 0; v < state->pdag.dag.numBlocks(); ++v)
            freqs[v].assign(state->pdag.dag.succs(v).size(), 0.0);
    }

    if (scheme == profile::NumberingScheme::BallLarus) {
        state->numbering =
            profile::numberPaths(state->pdag, scheme, nullptr);
    } else {
        state->numbering = profile::numberPaths(state->pdag, scheme,
                                                &freqs);
    }

    state->plan = profile::buildInstrumentationPlan(
        method_cfg, state->pdag, state->numbering);
    if (state->plan.enabled &&
        placement == profile::PlacementKind::SpanningTree) {
        const profile::SpanningPlacement spanning =
            profile::computeSpanningPlacement(state->pdag,
                                              state->numbering, &freqs);
        profile::applySpanningPlacement(method_cfg, state->pdag,
                                        spanning, state->plan);
    }
    if (state->plan.enabled) {
        state->reconstructor =
            std::make_unique<profile::PathReconstructor>(
                method_cfg, state->pdag, state->numbering);
    }
    // The k-path id space is layered over the finished plan; the plan
    // itself is identical for every k (k=1 degeneracy guarantee).
    state->kpath = profile::KPathScheme(
        state->plan.enabled ? state->plan.totalPaths : 0, k_iterations);
    return state;
}

PathEngine::PathEngine(vm::Machine &machine, profile::DagMode mode,
                       profile::NumberingScheme scheme,
                       bool charge_costs,
                       profile::PlacementKind placement,
                       std::uint32_t k_iterations)
    : vm_(machine), mode_(mode), scheme_(scheme),
      chargeCosts_(charge_costs), placement_(placement),
      kIterations_(k_iterations == 0 ? 1 : k_iterations)
{
}

const profile::MethodEdgeProfile *
PathEngine::freqProfileFor(bytecode::MethodId method)
{
    const profile::MethodEdgeProfile &one_time =
        vm_.oneTimeEdges().perMethod[method];
    return one_time.totalCount() > 0 ? &one_time : nullptr;
}

void
PathEngine::onCompile(bytecode::MethodId method,
                      const vm::CompiledMethod &version)
{
    // Instrument the code the version actually runs: the inlined body
    // when inlining produced one, otherwise the method's own CFG.
    const bytecode::MethodCfg &version_cfg =
        version.inlinedBody ? version.inlinedBody->info.cfg
                            : vm_.info(method).cfg;
    auto state = buildProfilingState(
        version_cfg, method, version.version, mode_, scheme_,
        version.inlinedBody ? nullptr : freqProfileFor(method),
        placement_, kIterations_);
    state->compiled = &version;
    if (!state->plan.enabled)
        ++overflowCount_;

    // Charge the instrumentation pass (three quick passes over the
    // method; Section 6.2).
    const vm::CostModel &cost = vm_.params().cost;
    const std::uint32_t per_instr =
        version.level == vm::OptLevel::Opt2
            ? cost.opt2CompileCostPerInstr
            : cost.opt1CompileCostPerInstr;
    const double pass_cycles =
        cost.pepCompilePassOverhead * per_instr *
        static_cast<double>(vm_.program().methods[method].code.size());
    charge(static_cast<std::uint64_t>(pass_cycles));

    if (versions_.size() <= method)
        versions_.resize(method + 1);
    std::vector<std::unique_ptr<VersionProfile>> &slots =
        versions_[method];
    if (slots.size() <= version.version)
        slots.resize(version.version + 1);
    auto vp = std::make_unique<VersionProfile>();
    vp->state = std::move(state);
    slots[version.version] = std::move(vp);
}

VersionProfile *
PathEngine::findVersion(bytecode::MethodId method,
                        std::uint32_t version) const
{
    if (method >= versions_.size())
        return nullptr;
    const std::vector<std::unique_ptr<VersionProfile>> &slots =
        versions_[method];
    if (version >= slots.size())
        return nullptr;
    return slots[version].get();
}

std::vector<std::pair<VersionKey, VersionProfile *>>
PathEngine::versionProfiles()
{
    std::vector<std::pair<VersionKey, VersionProfile *>> result;
    for (std::size_t m = 0; m < versions_.size(); ++m) {
        for (std::size_t v = 0; v < versions_[m].size(); ++v) {
            if (versions_[m][v]) {
                result.emplace_back(
                    VersionKey{static_cast<bytecode::MethodId>(m),
                               static_cast<std::uint32_t>(v)},
                    versions_[m][v].get());
            }
        }
    }
    return result;
}

std::vector<std::pair<VersionKey, const VersionProfile *>>
PathEngine::versionProfiles() const
{
    std::vector<std::pair<VersionKey, const VersionProfile *>> result;
    for (const auto &[key, vp] :
         const_cast<PathEngine *>(this)->versionProfiles())
        result.emplace_back(key, vp);
    return result;
}

const MethodProfilingState *
PathEngine::stateFor(bytecode::MethodId method,
                     std::uint32_t version) const
{
    const VersionProfile *vp = findVersion(method, version);
    if (!vp || !vp->state->plan.enabled)
        return nullptr;
    return vp->state.get();
}

void
PathEngine::clearPathProfiles()
{
    for (std::vector<std::unique_ptr<VersionProfile>> &slots : versions_)
        for (std::unique_ptr<VersionProfile> &vp : slots)
            if (vp)
                vp->paths.clear();
}

std::vector<PathEngine::FrameState> &
PathEngine::stackFor(std::uint32_t thread)
{
    if (stacks_.size() <= thread)
        stacks_.resize(thread + 1);
    return stacks_[thread];
}

void
PathEngine::onMethodEntry(const vm::FrameView &frame)
{
    FrameState fs;
    VersionProfile *vp =
        findVersion(frame.method, frame.version->version);
    if (vp && vp->state->plan.enabled) {
        fs.bind(*vp);
        charge(vm_.params().cost.pathRegResetCost); // r = 0
    }
    fs.reg = 0;
    std::vector<FrameState> &stack = stackFor(frame.thread);
    stack.push_back(fs);
    PEP_ASSERT(stack.size() == frame.depth + 1);
}

void
PathEngine::onMethodExit(const vm::FrameView &frame)
{
    std::vector<FrameState> &stack = stacks_[frame.thread];
    PEP_ASSERT(stack.size() == frame.depth + 1);
    FrameState &fs = stack.back();
    if (fs.vp) {
        // Path ends at method exit; its number is r (the return edge's
        // increment was applied by onEdge). A partial k-BLPP window is
        // flushed as a short k-path — a frame exits once, so
        // exit-ending segments are always the last digit of a window.
        segmentCompleted(fs, fs.reg, frame.thread);
        flushWindow(fs, frame.thread);
    }
    stack.pop_back();
}

void
PathEngine::onEdge(const vm::FrameView &frame, cfg::EdgeRef edge,
                   std::uint32_t flat_id)
{
    (void)edge;
    FrameState &fs = stacks_[frame.thread].back();
    if (!fs.vp)
        return;
    // Hot path: one load from the plan's flat table, cached at
    // entry/OSR.
    const profile::EdgeAction &action = fs.actions[flat_id];
    if (action.endsPath) {
        // Truncated back edge (BackEdgeTruncate mode): the classic
        // BLPP count[r + endAdd]++ / r = restart pair.
        const vm::CostModel &cost = vm_.params().cost;
        if (action.endAdd != 0)
            charge(cost.pathRegAddCost);
        segmentCompleted(fs, fs.reg + action.endAdd, frame.thread);
        fs.reg = action.restart;
        charge(cost.pathRegResetCost);
    } else if (action.increment != 0) {
        fs.reg += action.increment;
        charge(vm_.params().cost.pathRegAddCost);
    }
}

void
PathEngine::onOsr(const vm::FrameView &frame, cfg::BlockId header)
{
    std::vector<FrameState> &stack = stacks_[frame.thread];
    FrameState &fs = stack.back();
    PEP_ASSERT(stack.size() == frame.depth + 1);

    if (mode_ != profile::DagMode::HeaderSplit) {
        // Back-edge truncation has the frame mid-path at a header; the
        // old register is meaningless under the new plan, so stop
        // profiling this frame conservatively. The already-completed
        // segments of a partial k-window are still valid — flush them
        // against the old version before dropping the frame.
        if (fs.vp)
            flushWindow(fs, frame.thread);
        fs.vp = nullptr;
        return;
    }

    // Header splitting makes OSR clean: the old version's path just
    // ended at this header, so rebinding to the new version's plan and
    // restarting the register is exactly what a fresh entry through
    // this header would do.
    // Segment numbers are only meaningful against one version's
    // numbering, so a partial k-window cannot straddle the switch:
    // flush it against the old version first (its segments completed
    // before the OSR fired).
    if (fs.vp)
        flushWindow(fs, frame.thread);
    VersionProfile *vp =
        findVersion(frame.method, frame.version->version);
    if (!vp || !vp->state->plan.enabled ||
        !vp->state->plan.headerActions[header].endsPath) {
        // No instrumentation for the new version, or the OSR point is
        // not a path boundary under the new plan: stop profiling this
        // frame rather than corrupt the register.
        fs.vp = nullptr;
        return;
    }
    fs.bind(*vp);
    fs.reg = vp->state->plan.headerActions[header].restart;
    charge(vm_.params().cost.pathRegResetCost);
}

void
PathEngine::onLoopHeader(const vm::FrameView &frame, cfg::BlockId block)
{
    FrameState &fs = stacks_[frame.thread].back();
    if (!fs.vp)
        return;
    const profile::HeaderAction &action = fs.headers[block];
    if (!action.endsPath)
        return;
    const vm::CostModel &cost = vm_.params().cost;
    if (action.endAdd != 0)
        charge(cost.pathRegAddCost);
    segmentCompleted(fs, fs.reg + action.endAdd, frame.thread);
    fs.reg = action.restart;
    charge(cost.pathRegResetCost);
}

void
PathEngine::segmentCompleted(FrameState &fs, std::uint64_t number,
                             std::uint32_t thread)
{
    const profile::KPathScheme &kpath = fs.vp->state->kpath;
    if (kpath.kEffective() == 1) {
        // Degenerate fast path: classic BLPP, bit-for-bit — the
        // composite id of a length-1 window IS the raw number.
        pathCompleted(*fs.vp, number, thread);
        return;
    }
    fs.win.push_back(number);
    if (fs.win.size() == kpath.kEffective()) {
        pathCompleted(*fs.vp, kpath.encode(fs.win), thread);
        fs.win.clear();
    }
}

void
PathEngine::flushWindow(FrameState &fs, std::uint32_t thread)
{
    if (fs.win.empty())
        return;
    if (!truncateWindowInjection_) {
        pathCompleted(*fs.vp, fs.vp->state->kpath.encode(fs.win),
                      thread);
    }
    fs.win.clear();
}

} // namespace pep::core
