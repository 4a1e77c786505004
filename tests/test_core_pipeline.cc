/**
 * @file
 * Integration tests of the out-of-order pipeline and the dynamic
 * vectorization engine on small handwritten programs: every run must
 * commit exactly the functional instruction stream and reproduce the
 * functional final state, with and without vectorization, across
 * machine shapes.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "sim/simulator.hh"

#include "test_support.hh"

namespace sdv {
namespace {

/** sum over a[0..n): classic stride-1 vectorizable loop. */
const Program &
sumLoop(unsigned n)
{
    ProgramBuilder b;
    const Addr arr = b.allocWords("arr", n);
    for (unsigned i = 0; i < n; ++i)
        b.pokeWord(arr + 8 * i, i + 1);
    b.loadAddr(10, arr);
    b.ldi(11, std::int32_t(n));
    b.ldi(20, 0);
    auto loop = b.here();
    b.ldq(1, 10, 0);
    b.add(20, 20, 1);
    b.addi(10, 10, 8);
    b.addi(11, 11, -1);
    b.bnez(11, loop);
    b.halt();
    return keep(b.finish());
}

TEST(Pipeline, SumLoopScalarBaseline)
{
    const Program &prog = sumLoop(64);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::ScalarBus), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.ipc, 0.5);
    EXPECT_EQ(res.core.committedValidations, 0u);
}

TEST(Pipeline, SumLoopWideBus)
{
    const Program &prog = sumLoop(64);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::WideBus), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
}

TEST(Pipeline, SumLoopVectorized)
{
    const Program &prog = sumLoop(256);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    // The strided load must be detected and validations must flow.
    EXPECT_GT(res.engine.loadSpawns + res.engine.loadChainSpawns, 10u);
    EXPECT_GT(res.core.committedValidations, 100u);
    // The self-check must never observe a wrong validated value.
    EXPECT_EQ(res.engine.validationValueMismatches, 0u);
}

TEST(Pipeline, VectorizationReducesMemoryRequests)
{
    const Program &prog = sumLoop(512);
    const SimResult wide =
        simulate(makeConfig(4, 1, BusMode::WideBus), prog);
    const SimResult sdv =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(wide.finished && sdv.finished);
    EXPECT_TRUE(wide.verified && sdv.verified);
    // A stride-1 loop serves 4 elements per wide access.
    EXPECT_LT(sdv.memoryRequests(), wide.memoryRequests());
}

const Program &arithChainLoop(unsigned n);

TEST(Pipeline, VectorizationSpeedsUpStreamingCode)
{
    // Streaming (independent-element) code gains from vectorization; a
    // serial reduction would not, so use the arithmetic-chain loop.
    const Program &prog = arithChainLoop(512);
    const SimResult base =
        simulate(makeConfig(4, 1, BusMode::ScalarBus), prog);
    const SimResult sdv =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(base.finished && sdv.finished);
    EXPECT_LT(sdv.cycles, base.cycles);
}

/** Pointer-style stride-0 reloads: the "same address" pattern. */
const Program &
stride0Loop(unsigned n)
{
    ProgramBuilder b;
    const Addr glob = b.allocWords("glob", 1);
    b.pokeWord(glob, 7);
    b.loadAddr(10, glob);
    b.ldi(11, std::int32_t(n));
    b.ldi(20, 0);
    auto loop = b.here();
    b.ldq(1, 10, 0); // stride-0 load
    b.add(20, 20, 1);
    b.addi(11, 11, -1);
    b.bnez(11, loop);
    b.halt();
    return keep(b.finish());
}

TEST(Pipeline, Stride0LoadsVectorize)
{
    const Program &prog = stride0Loop(200);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.core.committedValidations, 100u);
    EXPECT_EQ(res.engine.validationValueMismatches, 0u);
}

/** Read-modify-write with a forward store that invalidates vectors. */
const Program &
storeConflictLoop(unsigned n)
{
    ProgramBuilder b;
    const Addr arr = b.allocWords("arr", n + 8);
    b.loadAddr(10, arr);
    b.ldi(11, std::int32_t(n));
    auto loop = b.here();
    b.ldq(1, 10, 8);   // load a[i+1] (gets vectorized)
    b.addi(1, 1, 3);
    b.stq(1, 10, 8);   // store a[i+1]: inside the vector's range
    b.addi(10, 10, 8);
    b.addi(11, 11, -1);
    b.bnez(11, loop);
    b.halt();
    return keep(b.finish());
}

TEST(Pipeline, StoreRangeConflictSquashesAndStaysCorrect)
{
    const Program &prog = storeConflictLoop(64);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.engine.storeRangeConflicts, 0u);
    EXPECT_GT(res.core.storeConflictSquashes, 0u);
}

/** Arithmetic chain: load -> add -> mul, all vectorizable. */
const Program &
arithChainLoop(unsigned n)
{
    ProgramBuilder b;
    const Addr arr = b.allocWords("arr", n);
    const Addr out = b.allocWords("out", n);
    for (unsigned i = 0; i < n; ++i)
        b.pokeWord(arr + 8 * i, 2 * i + 1);
    b.loadAddr(10, arr);
    b.loadAddr(12, out);
    b.ldi(11, std::int32_t(n));
    b.ldi(13, 3); // loop-invariant scalar operand
    auto loop = b.here();
    b.ldq(1, 10, 0);
    b.add(2, 1, 13);  // vector + scalar (mixed operands)
    b.mul(3, 2, 2);   // vector * vector
    b.stq(3, 12, 0);
    b.addi(10, 10, 8);
    b.addi(12, 12, 8);
    b.addi(11, 11, -1);
    b.bnez(11, loop);
    b.halt();
    return keep(b.finish());
}

TEST(Pipeline, ArithmeticVectorizationPropagates)
{
    const Program &prog = arithChainLoop(256);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.engine.arithSpawns + res.engine.arithChainSpawns, 10u);
    EXPECT_GT(res.engine.arithValidations, 100u);
    EXPECT_GT(res.engine.mixedScalarSpawns, 0u);
    EXPECT_EQ(res.engine.validationValueMismatches, 0u);
}

/** Branchy loop with a data-dependent (mispredictable) branch. */
const Program &
branchyLoop(unsigned n)
{
    ProgramBuilder b;
    const Addr arr = b.allocWords("arr", n);
    // Pseudo-random 0/1 pattern (fixed seed).
    std::uint64_t x = 0x123456789ull;
    for (unsigned i = 0; i < n; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b.pokeWord(arr + 8 * i, (x >> 33) & 1);
    }
    b.loadAddr(10, arr);
    b.ldi(11, std::int32_t(n));
    b.ldi(20, 0);
    b.ldi(21, 0);
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    b.ldq(1, 10, 0);
    b.beqz(1, skip);
    b.addi(20, 20, 5); // taken path work
    b.bind(skip);
    b.addi(21, 21, 1);
    b.addi(10, 10, 8);
    b.addi(11, 11, -1);
    b.bnez(11, loop);
    b.halt();
    return keep(b.finish());
}

TEST(Pipeline, MispredictsRecoverCorrectly)
{
    const Program &prog = branchyLoop(300);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.core.branchMispredicts, 20u);
    // Control independence: some post-mispredict instructions reuse
    // vector data.
    EXPECT_GT(res.core.postMispredictWindowInsts, 0u);
}

/** Calls and returns exercise the RAS. */
const Program &
callLoop(unsigned n)
{
    ProgramBuilder b;
    auto func = b.newLabel();
    auto start = b.newLabel();
    b.br(start);
    b.bind(func);
    b.addi(20, 20, 7);
    b.jr(31);
    b.bind(start);
    b.ldi(11, std::int32_t(n));
    b.ldi(20, 0);
    auto loop = b.here();
    b.jal(func);
    b.addi(11, 11, -1);
    b.bnez(11, loop);
    b.halt();
    return keep(b.finish());
}

TEST(Pipeline, CallsAndReturnsPredictViaRas)
{
    const Program &prog = callLoop(100);
    const SimResult res =
        simulate(makeConfig(4, 1, BusMode::ScalarBus), prog);
    ASSERT_TRUE(res.finished);
    EXPECT_TRUE(res.verified);
    // Returns are predicted by the RAS; the residual mispredicts are
    // the gshare warm-up on the loop-closing branch (history must
    // saturate before the steady-state entry trains).
    EXPECT_LT(res.core.branchMispredicts, 25u);
    EXPECT_GT(res.core.committedBranches, 200u);
}

/** Every machine shape must run every mini-program correctly. */
class PipelineConfigSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, int>>
{};

TEST_P(PipelineConfigSweep, AllConfigsVerify)
{
    const auto [width, ports, mode_int] = GetParam();
    const auto mode = static_cast<BusMode>(mode_int);
    const CoreConfig cfg = makeConfig(width, ports, mode);

    for (const Program *prog :
         {&sumLoop(96), &stride0Loop(96), &storeConflictLoop(48),
          &arithChainLoop(96), &branchyLoop(128), &callLoop(48)}) {
        const SimResult res = simulate(cfg, *prog);
        ASSERT_TRUE(res.finished);
        EXPECT_TRUE(res.verified);
        EXPECT_EQ(res.engine.validationValueMismatches, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineConfigSweep,
    ::testing::Combine(::testing::Values(4u, 8u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(0, 1, 2)));

} // namespace
} // namespace sdv
