/**
 * @file
 * Equivalence tests of trace-compiled dispatch: for every tier-1
 * workload the compiled-trace run and the interpreter reference run
 * (--no-trace) must produce bit-identical statistics and committed-
 * stream hashes — in the default configuration and under the
 * adversarial modes (eager chaining, periodic quiesce, fault
 * injection). Also covers the compiled trace itself: slot contents,
 * patch() recompilation and append() extension, and the functional
 * fast path against the interpreter.
 */

#include <gtest/gtest.h>

#include "arch/executor.hh"
#include "isa/trace.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

#include "test_support.hh"

namespace sdv {
namespace {

RunDigest
runOnce(CoreConfig cfg, const Program &prog, bool trace, bool verify,
        std::uint64_t quiesce_interval = 0)
{
    cfg.traceExec = trace;
    return runDigest(cfg, prog, verify, 50'000'000, quiesce_interval);
}

/** Assert equality of every listed statistic and the commit hash.
 *  Unlike the event-skip equivalence suite, nothing is excluded:
 *  dispatch mode must not be observable in any counter. */
void
expectIdentical(const RunDigest &tr, const RunDigest &ref,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(statsDiff(tr.res, ref.res), std::vector<std::string>{});
    EXPECT_EQ(tr.commitHash, ref.commitHash);
}

TEST(TraceCompile, BitIdenticalOnEveryTier1Workload)
{
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        for (BusMode mode : {BusMode::WideBusSdv, BusMode::ScalarBus}) {
            const CoreConfig cfg = makeConfig(4, 1, mode);
            // Verification (functional re-execution + state compare)
            // on the vectorized config, where divergence would bite.
            const bool verify = mode == BusMode::WideBusSdv;
            const RunDigest tr = runOnce(cfg, prog, true, verify);
            const RunDigest ref = runOnce(cfg, prog, false, verify);
            ASSERT_TRUE(ref.res.finished);
            if (verify) {
                EXPECT_TRUE(tr.res.verified);
                EXPECT_TRUE(ref.res.verified);
            }
            expectIdentical(
                tr, ref,
                w.name + "/" +
                    (mode == BusMode::WideBusSdv ? "xpV" : "noIM"));
        }
    }
}

TEST(TraceCompile, AdversarialModesStayBitIdentical)
{
    // The modes that stress speculative-state bookkeeping hardest:
    // eager chain spawning, periodic pipeline quiesce, and in-engine
    // fault injection (whose recovery path replays through the
    // oracle). The dispatch mechanism must be invisible in all three.
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        const CoreConfig base = makeConfig(4, 1, BusMode::WideBusSdv);

        {
            CoreConfig cfg = base;
            cfg.engine.eagerChainLoads = true;
            expectIdentical(runOnce(cfg, prog, true, false),
                            runOnce(cfg, prog, false, false),
                            w.name + "/eager-chain");
        }
        {
            expectIdentical(runOnce(base, prog, true, false, 3'000),
                            runOnce(base, prog, false, false, 3'000),
                            w.name + "/quiesce-interval");
        }
        {
            CoreConfig cfg = base;
            cfg.engine.fault.enabled = true;
            cfg.engine.fault.seed = 0x7ace5eedULL;
            cfg.engine.fault.elemFlipPpm = 500;
            cfg.engine.fault.vrmtFlipPpm = 500;
            expectIdentical(runOnce(cfg, prog, true, false),
                            runOnce(cfg, prog, false, false),
                            w.name + "/fault-injection");
        }
    }
}

// --- the compiled trace itself ---------------------------------------------

TEST(CompiledTrace, SlotsPrecomputeOperandsAndTargets)
{
    Program p;
    const Addr pc0 = p.append(Instruction(Opcode::ADDI, 1, 2, 0, -7));
    const Addr pc1 = p.append(Instruction(Opcode::BEQZ, 0, 1, 0, 3));
    p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));
    p.predecodeAll();

    const CompiledTrace &t = p.trace();
    ASSERT_EQ(t.numSlots(), 3u);

    const CompiledTrace::Slot &s0 = t.slotAt(pc0);
    EXPECT_EQ(s0.inst.op, Opcode::ADDI);
    EXPECT_EQ(s0.simm, -7);
    EXPECT_EQ(s0.fallthrough, pc0 + instBytes);

    // Branch targets are folded at compile time: pc + imm * instBytes.
    const CompiledTrace::Slot &s1 = t.slotAt(pc1);
    EXPECT_EQ(s1.target, pc1 + Addr(3 * instBytes));
    EXPECT_EQ(s1.fallthrough, pc1 + instBytes);
}

TEST(CompiledTrace, PatchRecompilesAndAppendExtends)
{
    Program p;
    p.append(Instruction(Opcode::ADD, 1, 2, 3, 0));
    const Addr pc1 = p.append(Instruction(Opcode::LDQ, 4, 5, 0, 16));
    p.predecodeAll();
    ASSERT_EQ(p.trace().numSlots(), 2u);

    // Patch slot 1 (the builder's label-fixup path): the compiled slot
    // must be recompiled in place, not served stale.
    p.patch(1, Instruction(Opcode::LDQ, 4, 5, 0, 64));
    EXPECT_EQ(p.trace().slotAt(pc1).simm, 64);
    p.patch(1, Instruction(Opcode::BR, 0, 0, 0, -1));
    EXPECT_EQ(p.trace().slotAt(pc1).inst.op, Opcode::BR);
    EXPECT_EQ(p.trace().slotAt(pc1).target, pc1 - Addr(instBytes));

    // append() extends the existing trace one slot at a time.
    const Addr pc2 = p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));
    ASSERT_EQ(p.trace().numSlots(), 3u);
    EXPECT_EQ(p.trace().slotAt(pc2).inst.op, Opcode::HALT);

    // A copy recompiles its own trace; patching it must not leak into
    // the original's compiled slots.
    Program q = p;
    q.patch(1, Instruction(Opcode::SUB, 7, 8, 9, 0));
    EXPECT_EQ(q.trace().slotAt(pc1).inst.op, Opcode::SUB);
    EXPECT_EQ(p.trace().slotAt(pc1).inst.op, Opcode::BR);
}

TEST(CompiledTrace, FunctionalFastPathMatchesInterpreter)
{
    // The oracle-at-fetch handlers and the interpreter must agree on
    // the full committed stream, instruction count and final state —
    // the property the fuzz divergence oracle now leans on.
    for (const char *name : {"compress", "swim", "fpppp"}) {
        SCOPED_TRACE(name);
        const Program &prog = keep(buildWorkload(name, 1));
        FunctionalCore a(prog, /*use_trace=*/true);
        FunctionalCore b(prog, /*use_trace=*/false);
        std::uint64_t ha = 0, hb = 0;
        a.runToHalt(&ha);
        b.runToHalt(&hb);
        EXPECT_EQ(ha, hb);
        EXPECT_EQ(a.instCount(), b.instCount());
        EXPECT_TRUE(a.state() == b.state());
        EXPECT_TRUE(a.memory().equals(b.memory()));
    }
}

} // namespace
} // namespace sdv
