#include "testing/oracle.hh"

#include <sstream>

#include "profile/kpath.hh"
#include "profile/numbering.hh"
#include "support/panic.hh"
#include "vm/compiled_method.hh"
#include "vm/inliner.hh"

namespace pep::testing {

EdgeSeq
encodeEdges(const std::vector<cfg::EdgeRef> &edges)
{
    EdgeSeq seq;
    seq.reserve(edges.size());
    for (const cfg::EdgeRef &edge : edges)
        seq.push_back(encodeEdge(edge));
    return seq;
}

std::string
formatEdgeSeq(const EdgeSeq &seq)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        if (i)
            os << ' ';
        os << (seq[i] >> 32) << ':'
           << (seq[i] & 0xffffffffull);
    }
    return os.str();
}

ExactOracle::ExactOracle(vm::Machine &machine, profile::DagMode mode,
                         std::uint32_t k_iterations)
    : vm_(machine), mode_(mode),
      k_(k_iterations == 0 ? 1 : k_iterations)
{
    std::vector<const bytecode::MethodCfg *> cfgs;
    cfgs.reserve(machine.numMethods());
    for (std::size_t m = 0; m < machine.numMethods(); ++m) {
        cfgs.push_back(
            &machine.info(static_cast<bytecode::MethodId>(m)).cfg);
    }
    edges_ = profile::EdgeProfileSet(cfgs);
}

void
ExactOracle::onCompile(bytecode::MethodId method,
                       const vm::CompiledMethod &version)
{
    VersionTruth &vt =
        versions_[core::VersionKey{method, version.version}];
    vt.compiled = &version;
    vt.info = version.inlinedBody ? &version.inlinedBody->info
                                  : &vm_.info(method);
    vt.originSnapshot = version.inlinedBody
                            ? version.inlinedBody->blockOrigin
                            : std::vector<vm::BlockOrigin>{};
    vt.kEff = 1;
    if (k_ > 1) {
        // Derive kEffective from the version's *structural* path count
        // (scheme-independent), not from any engine's plan: the oracle
        // must predict the engines' window length without trusting
        // their numbering machinery.
        const profile::PDag pdag =
            profile::buildPDag(vt.info->cfg, mode_);
        const profile::Numbering numbering = profile::numberPaths(
            pdag, profile::NumberingScheme::BallLarus);
        if (!numbering.overflow)
            vt.kEff = profile::kEffectiveFor(numbering.totalPaths, k_);
    }
}

VersionTruth *
ExactOracle::find(bytecode::MethodId method, std::uint32_t version)
{
    const auto it = versions_.find(core::VersionKey{method, version});
    return it == versions_.end() ? nullptr : &it->second;
}

void
ExactOracle::complete(FrameRec &frame)
{
    // The segment joins the frame's tumbling window; the window is
    // counted once it holds kEff segments (immediately for kEff == 1).
    frame.win.insert(frame.win.end(), frame.seg.begin(),
                     frame.seg.end());
    ++frame.winLen;
    frame.seg.clear();
    if (frame.winLen == frame.vt->kEff)
        commitWindow(frame);
}

void
ExactOracle::commitWindow(FrameRec &frame)
{
    if (frame.winLen == 0)
        return;
    ++frame.vt->segments[frame.win];
    ++frame.vt->completed;
    ++totalSegments_;
    frame.win.clear();
    frame.winLen = 0;
}

void
ExactOracle::onMethodEntry(const vm::FrameView &frame)
{
    FrameRec rec;
    rec.vt = find(frame.method, frame.version->version);
    stack_.push_back(std::move(rec));
    PEP_ASSERT(stack_.size() == frame.depth + 1);
}

void
ExactOracle::onMethodExit(const vm::FrameView &frame)
{
    PEP_ASSERT(stack_.size() == frame.depth + 1);
    FrameRec &rec = stack_.back();
    if (rec.vt) {
        // The return-block -> exit edge was already appended by its
        // onEdge; the segment is the full path to method exit. A
        // partial k-window is counted short (the engines flush it).
        complete(rec);
        commitWindow(rec);
    }
    stack_.pop_back();
}

void
ExactOracle::onEdge(const vm::FrameView &frame, cfg::EdgeRef edge,
                    std::uint32_t /*flat_id*/)
{
    // Bytecode-level mirror, following the interpreter's own rule:
    // non-inlined frames record every edge against the method's CFG;
    // synthesized frames record branch edges through their block
    // origin — but through the *compile-time snapshot*, so a live map
    // mutated after the compile diverges from the interpreter's fold
    // and check 1 reports it.
    const vm::InlinedBody *inlined = frame.version->inlinedBody.get();
    if (!inlined) {
        edges_.perMethod[frame.method].addEdge(edge);
    } else {
        const auto kind = inlined->info.cfg.terminator[edge.src];
        if (kind == bytecode::TerminatorKind::Cond ||
            kind == bytecode::TerminatorKind::Switch) {
            const VersionTruth *vt =
                find(frame.method, frame.version->version);
            const vm::BlockOrigin origin =
                vt && edge.src < vt->originSnapshot.size()
                    ? vt->originSnapshot[edge.src]
                    : inlined->blockOrigin[edge.src];
            if (origin.valid()) {
                edges_.perMethod[origin.method].addEdge(
                    cfg::EdgeRef{origin.block, edge.index});
            }
        }
    }

    FrameRec &rec = stack_.back();
    if (!rec.vt)
        return;
    rec.seg.push_back(encodeEdge(edge));
    if (mode_ == profile::DagMode::BackEdgeTruncate &&
        rec.vt->info->isBackEdge[edge.src][edge.index]) {
        // Truncated paths include their ending back edge (matching
        // ReconstructedPath::cfgEdges); the next segment starts at the
        // header without it.
        complete(rec);
    }
}

void
ExactOracle::onLoopHeader(const vm::FrameView &frame, cfg::BlockId block)
{
    (void)frame;
    (void)block;
    if (mode_ != profile::DagMode::HeaderSplit)
        return;
    FrameRec &rec = stack_.back();
    if (rec.vt)
        complete(rec);
}

void
ExactOracle::onOsr(const vm::FrameView &frame, cfg::BlockId header)
{
    FrameRec &rec = stack_.back();
    if (mode_ != profile::DagMode::HeaderSplit) {
        // Mid-path frame under a new plan: mirror the engines, which
        // stop profiling the frame — but first count the partial
        // window's already-completed segments, as the engines flush
        // them before dropping the frame.
        if (rec.vt) {
            commitWindow(rec);
            ++dropped_;
            rec.vt = nullptr;
            rec.seg.clear();
        }
        return;
    }
    // Header splitting: the old version's segment just completed at
    // this header (onLoopHeader fired before the switch); rebind to the
    // new version if a fresh segment can start at the header.
    // A window cannot straddle the version switch (segment streams are
    // per version); flush the partial window against the old version
    // first, mirroring the engines.
    if (rec.vt)
        commitWindow(rec);
    VersionTruth *vt = find(frame.method, frame.version->version);
    if (!vt || !vt->info->cfg.isLoopHeader[header]) {
        if (rec.vt)
            ++dropped_;
        rec.vt = nullptr;
        rec.seg.clear();
        return;
    }
    if (!rec.vt) {
        // A baseline (unprofiled) frame promoted into instrumented
        // code: its first walk starts here with no walk ending here.
        ++adopted_;
    }
    rec.vt = vt;
    rec.seg.clear();
}

const VersionTruth *
ExactOracle::truthFor(core::VersionKey key) const
{
    const auto it = versions_.find(key);
    return it == versions_.end() ? nullptr : &it->second;
}

std::vector<std::pair<core::VersionKey, const VersionTruth *>>
ExactOracle::all() const
{
    std::vector<std::pair<core::VersionKey, const VersionTruth *>>
        result;
    result.reserve(versions_.size());
    for (const auto &[key, vt] : versions_)
        result.emplace_back(key, &vt);
    return result;
}

} // namespace pep::testing
