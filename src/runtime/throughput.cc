#include "runtime/throughput.hh"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "core/path_engine.hh"
#include "profile/path_profile.hh"
#include "support/panic.hh"
#include "vm/inliner.hh"
#include "vm/interpreter.hh"

namespace pep::runtime {

namespace {

/**
 * A PathEngine that records *every* completed path (and its expanded
 * edges) into the shared aggregator — a worst-case write load for the
 * aggregation strategies: where PEP samples a handful of paths per
 * tick, this hammers the profile on every path completion, so the
 * sharded-vs-mutex gap is fully exposed.
 */
class StreamRecorder final : public core::PathEngine
{
  public:
    StreamRecorder(vm::Machine &machine, ProfileAggregator &sink,
                   std::uint32_t shard)
        : PathEngine(machine, profile::DagMode::HeaderSplit,
                     profile::NumberingScheme::BallLarus,
                     /*charge_costs=*/false,
                     profile::PlacementKind::Direct),
          sink_(sink), shard_(shard)
    {
    }

    std::uint64_t pathRecords = 0;
    std::uint64_t edgeRecords = 0;

  protected:
    void
    pathCompleted(core::VersionProfile &vp, std::uint64_t path_number,
                  std::uint32_t /*thread*/) override
    {
        profile::PathRecord &record = vp.paths.addSample(path_number);
        if (!record.expanded) {
            profile::expandRecord(record, *vp.state->reconstructor,
                                  path_number, &vp.state->kpath);
        }
        sink_.recordPath(shard_, vp.state->method, path_number);
        ++pathRecords;
        recordCfgEdges(*vp.state, record.cfgEdges);
    }

  private:
    /** Fold a path's edges into the aggregator, mapping inlined
     *  branches to their bytecode-level counters (as PepProfiler
     *  does; see pep_profiler.cc). */
    void
    recordCfgEdges(const core::MethodProfilingState &state,
                   const std::vector<cfg::EdgeRef> &cfg_edges)
    {
        const vm::InlinedBody *inlined =
            state.compiled ? state.compiled->inlinedBody.get()
                           : nullptr;
        if (!inlined) {
            for (const cfg::EdgeRef &edge : cfg_edges) {
                sink_.recordEdge(shard_, state.method, edge);
                ++edgeRecords;
            }
            return;
        }
        for (const cfg::EdgeRef &edge : cfg_edges) {
            const vm::OriginEdge origin = inlined->originEdge(edge);
            if (!origin.valid())
                continue;
            sink_.recordEdge(shard_, origin.method, origin.edge);
            ++edgeRecords;
        }
    }

    ProfileAggregator &sink_;
    const std::uint32_t shard_;
};

struct WorkerTally
{
    std::uint64_t requests = 0;
    std::uint64_t pathRecords = 0;
    std::uint64_t edgeRecords = 0;
};

/** One worker: a private machine simulating its stream shard,
 *  recording into the shared aggregator, flushing each epoch. */
void
workerBody(const RequestStream &stream, const ThroughputOptions &options,
           ProfileAggregator &aggregator, std::uint32_t worker,
           WorkerTally &tally)
{
    vm::Machine machine(stream.program(), options.params);
    StreamRecorder recorder(machine, aggregator, worker);
    machine.addHooks(&recorder);
    machine.addCompileObserver(&recorder);
    vm::Interpreter interp(machine, 0);

    const std::vector<Request> shard =
        stream.shard(worker, options.workers);
    std::uint32_t since_flush = 0;
    for (const Request &request : shard) {
        interp.start(stream.handlerMethod(request.handler),
                     {request.arg});
        while (!interp.resume()) {
        }
        ++tally.requests;
        if (++since_flush >= options.epochRequests) {
            aggregator.flush(worker);
            since_flush = 0;
        }
    }
    aggregator.flush(worker);
    tally.pathRecords = recorder.pathRecords;
    tally.edgeRecords = recorder.edgeRecords;
}

} // namespace

ThroughputResult
runThroughput(const RequestStream &stream,
              const ThroughputOptions &options)
{
    PEP_ASSERT(options.workers > 0);
    PEP_ASSERT(options.epochRequests > 0);

    std::vector<bytecode::MethodCfg> cfgs;
    cfgs.reserve(stream.program().methods.size());
    for (const bytecode::Method &method : stream.program().methods)
        cfgs.push_back(bytecode::buildCfg(method));
    std::vector<const bytecode::MethodCfg *> cfg_ptrs;
    cfg_ptrs.reserve(cfgs.size());
    for (const bytecode::MethodCfg &method_cfg : cfgs)
        cfg_ptrs.push_back(&method_cfg);

    std::unique_ptr<ProfileAggregator> aggregator;
    switch (options.aggregation) {
      case ThroughputOptions::Aggregation::Sharded:
        aggregator = std::make_unique<ShardedAggregator>(
            cfg_ptrs, options.workers);
        break;
      case ThroughputOptions::Aggregation::Mutex:
        aggregator = std::make_unique<MutexAggregator>(cfg_ptrs);
        break;
      case ThroughputOptions::Aggregation::Ring:
        aggregator = std::make_unique<RingAggregator>(
            cfg_ptrs, options.workers, options.ring);
        break;
    }

    std::vector<WorkerTally> tallies(options.workers);
    const auto wall_start = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> workers;
        workers.reserve(options.workers);
        for (std::uint32_t w = 0; w < options.workers; ++w) {
            workers.emplace_back(workerBody, std::cref(stream),
                                 std::cref(options),
                                 std::ref(*aggregator), w,
                                 std::ref(tallies[w]));
        }
        for (std::thread &worker : workers)
            worker.join();
    }
    // Producers are done; drain and stop any background collection
    // before the wall clock stops (the collector's backlog is part of
    // the cost of the run) and before the profiles are read.
    aggregator->quiesce();
    const auto wall_end = std::chrono::steady_clock::now();

    ThroughputResult result;
    result.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    for (const WorkerTally &tally : tallies) {
        result.requestsCompleted += tally.requests;
        result.pathRecords += tally.pathRecords;
        result.edgeRecords += tally.edgeRecords;
    }
    result.requestsPerSecond =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.requestsCompleted) /
                  result.wallSeconds
            : 0.0;
    result.edges = aggregator->globalEdges();
    result.paths = aggregator->globalPaths();
    if (const auto *sharded =
            dynamic_cast<const ShardedAggregator *>(aggregator.get())) {
        result.shardFlushes = sharded->flushes();
    } else if (const auto *ring = dynamic_cast<const RingAggregator *>(
                   aggregator.get())) {
        result.transport = ring->stats();
        const WindowedProfile &window = ring->mergedWindow();
        result.windowAdvances = window.advances();
        result.windowStalenessEpochs = window.stalenessEpochs();
        result.windowMass = window.mass();
    }
    return result;
}

} // namespace pep::runtime
