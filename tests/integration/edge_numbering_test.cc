/**
 * @file
 * The CFG owns the one dense edge numbering (bytecode::MethodCfg::
 * edgeBase): for every example and corpus program — the methods' own
 * CFGs and the inlined and path-cloned bodies the optimizing compiler
 * synthesizes from them — edgeBase holds exact prefix sums of the
 * successor counts and flatEdgeId maps the edges one-to-one onto
 * [0, numEdges()).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/assembler.hh"
#include "bytecode/cfg_builder.hh"
#include "opt/pipeline.hh"
#include "opt/profile_consumer.hh"
#include "vm/inliner.hh"
#include "vm/layout.hh"
#include "vm/machine.hh"

#ifndef PEP_SOURCE_DIR
#define PEP_SOURCE_DIR "."
#endif

namespace pep {
namespace {

std::vector<std::filesystem::path>
programFiles()
{
    std::vector<std::filesystem::path> files;
    for (const char *dir : {"/examples/programs", "/tests/corpus"}) {
        for (const auto &entry : std::filesystem::directory_iterator(
                 std::string(PEP_SOURCE_DIR) + dir)) {
            if (entry.path().extension() == ".pepasm")
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

bytecode::Program
loadProgram(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return bytecode::assembleOrDie(buffer.str());
}

void
expectDenseNumbering(const bytecode::MethodCfg &cfg,
                     const std::string &what)
{
    SCOPED_TRACE(what);
    const cfg::Graph &graph = cfg.graph;
    ASSERT_EQ(cfg.edgeBase.size(), graph.numBlocks() + 1);
    std::uint32_t sum = 0;
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        EXPECT_EQ(cfg.edgeBase[b], sum) << "block " << b;
        sum += static_cast<std::uint32_t>(graph.succs(b).size());
    }
    ASSERT_EQ(cfg.numEdges(), sum);

    // Injective into [0, numEdges()) over numEdges() edges: a bijection.
    std::vector<bool> seen(sum, false);
    for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b) {
        for (std::uint32_t i = 0; i < graph.succs(b).size(); ++i) {
            const std::uint32_t id = cfg.flatEdgeId({b, i});
            ASSERT_LT(id, sum);
            EXPECT_FALSE(seen[id]) << "edge " << b << ':' << i;
            seen[id] = true;
        }
    }
}

TEST(EdgeNumbering, DenseOverEveryProgramIncludingSynthesizedBodies)
{
    std::size_t inlined = 0;
    std::size_t cloned = 0;
    const std::vector<std::filesystem::path> files = programFiles();
    ASSERT_FALSE(files.empty());
    for (const std::filesystem::path &path : files) {
        const std::string name = path.filename().string();
        const bytecode::Program program = loadProgram(path);
        for (const bytecode::Method &method : program.methods)
            expectDenseNumbering(bytecode::buildCfg(method),
                                 name + " " + method.name);

        // Synthesized bodies: compile every method at full opt with
        // inlining on and the cloning pipeline fed by a probe run's
        // ground truth.
        vm::Machine probe(program, vm::SimParams{});
        probe.runIteration();
        vm::FixedLayoutSource source(probe.truthEdges());
        opt::LayoutSourceConsumer consumer(source);
        opt::OptPipeline pipeline(consumer);
        vm::SimParams params;
        params.enableInlining = true;
        vm::Machine machine(program, params);
        machine.addCompilePass(&pipeline);
        for (bytecode::MethodId m = 0; m < program.methods.size(); ++m) {
            machine.compileNow(m, vm::OptLevel::Opt2);
            for (std::uint32_t v = 0; v < machine.numVersions(m); ++v) {
                const vm::CompiledMethod *cm = machine.versionAt(m, v);
                if (cm == nullptr || !cm->inlinedBody)
                    continue;
                ++(cm->cloneApplied ? cloned : inlined);
                expectDenseNumbering(cm->inlinedBody->info.cfg,
                                     name + " " +
                                         program.methods[m].name +
                                         " synthesized v" +
                                         std::to_string(v));
            }
        }
    }
    EXPECT_GT(inlined, 0u);
    EXPECT_GT(cloned, 0u);
}

} // namespace
} // namespace pep
