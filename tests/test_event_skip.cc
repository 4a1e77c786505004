/**
 * @file
 * Equivalence tests of the event-skipping simulation clock: for every
 * tier-1 workload, an event-skipping run and a ticking reference run
 * must agree on every listed statistic but the clock's two
 * meta-counters (statsDiff) and on committed-stream hashes. Also
 * covers the decoded-program cache (invalidation on patch) and the
 * Figure-13 ledger folding memory bound.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

#include "test_support.hh"

namespace sdv {
namespace {

RunDigest
runOnce(CoreConfig cfg, const Program &prog, bool event_skip, bool verify,
        std::uint64_t max_cycles = 50'000'000)
{
    cfg.eventSkip = event_skip;
    return runDigest(cfg, prog, verify, max_cycles);
}

/** Assert equality of every listed statistic and the commit hash. */
void
expectIdentical(const RunDigest &skip, const RunDigest &ref,
                const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(statsDiff(skip.res, ref.res, skipMetaCounters),
              std::vector<std::string>{});
    EXPECT_EQ(skip.commitHash, ref.commitHash);
    EXPECT_EQ(skip.res.engine.validationValueMismatches, 0u);

    // The reference must not have skipped anything.
    EXPECT_EQ(ref.res.core.eventSkippedCycles, 0u);
    EXPECT_EQ(ref.res.core.eventSkipJumps, 0u);
}

TEST(EventSkip, BitIdenticalOnEveryTier1Workload)
{
    std::uint64_t total_skipped = 0;
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        for (BusMode mode : {BusMode::WideBusSdv, BusMode::ScalarBus}) {
            const CoreConfig cfg = makeConfig(4, 1, mode);
            // Verification (functional re-execution + state compare)
            // on the vectorized config, where divergence would bite.
            const bool verify = mode == BusMode::WideBusSdv;
            const RunDigest skip = runOnce(cfg, prog, true, verify);
            const RunDigest ref = runOnce(cfg, prog, false, verify);
            ASSERT_TRUE(ref.res.finished);
            if (verify) {
                EXPECT_TRUE(skip.res.verified);
                EXPECT_TRUE(ref.res.verified);
            }
            expectIdentical(
                skip, ref,
                w.name + "/" +
                    (mode == BusMode::WideBusSdv ? "xpV" : "noIM"));
            total_skipped += skip.res.core.eventSkippedCycles;
        }
    }
    // The clock must actually be jumping somewhere in the suite,
    // otherwise this test degenerates into ticking twice.
    EXPECT_GT(total_skipped, 0u);
}

TEST(EventSkip, BlockedDecodeWindowsSkipAndStayBitIdentical)
{
    // PR 3: a decode blocked on an in-flight captured-scalar producer
    // (Figure 7) is modelled as an event horizon instead of vetoing
    // the jump. The suite must (a) actually exercise blocked-decode
    // cycles, (b) keep skipping somewhere, and (c) stay bit-identical
    // to the ticking reference — including the decodeBlockCycles /
    // decodeBlockEvents charges the jump now replays.
    std::uint64_t total_blocked = 0;
    std::uint64_t total_skipped = 0;
    for (const Workload &w : allWorkloads()) {
        const Program &prog = keep(w.instantiate(1));
        CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
        cfg.engine.blockOnScalarOperand = true;
        const RunDigest skip = runOnce(cfg, prog, true, false);
        const RunDigest ref = runOnce(cfg, prog, false, false);
        ASSERT_TRUE(ref.res.finished);
        expectIdentical(skip, ref, w.name + "/blocking");
        total_blocked += ref.res.core.decodeBlockCycles;
        total_skipped += skip.res.core.eventSkippedCycles;
    }
    // Without blocked cycles this test would not cover the new path;
    // without skips it would not cover the clock at all.
    EXPECT_GT(total_blocked, 0u);
    EXPECT_GT(total_skipped, 0u);
}

TEST(EventSkip, BudgetLimitedRunMatchesTickingExactly)
{
    // Cut a run off mid-flight: the skipping clock must clip its jumps
    // at the budget and report the same final cycle and stats.
    const Program &prog = keep(buildWorkload("compress", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    for (std::uint64_t budget : {500ULL, 5'000ULL, 20'000ULL}) {
        const RunDigest skip = runOnce(cfg, prog, true, false, budget);
        const RunDigest ref = runOnce(cfg, prog, false, false, budget);
        expectIdentical(skip, ref, "budget " + std::to_string(budget));
    }
}

// --- decoded-program cache -------------------------------------------------

TEST(DecodedCache, InstAtReflectsPatch)
{
    Program p;
    const Addr pc0 =
        p.append(Instruction(Opcode::ADD, 1, 2, 3, 0));
    const Addr pc1 =
        p.append(Instruction(Opcode::LDQ, 4, 5, 0, 16));
    p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));

    // Prime the decode cache.
    EXPECT_EQ(p.instAt(pc0).op, Opcode::ADD);
    EXPECT_EQ(p.instAt(pc1).op, Opcode::LDQ);
    EXPECT_EQ(p.instAt(pc1).imm, 16);

    // Patch slot 1 (the builder's label-fixup path) and re-read: the
    // cached decode must be invalidated, not returned stale.
    p.patch(1, Instruction(Opcode::LDQ, 4, 5, 0, 64));
    EXPECT_EQ(p.instAt(pc1).imm, 64);
    p.patch(1, Instruction(Opcode::SUB, 7, 8, 9, 0));
    EXPECT_EQ(p.instAt(pc1).op, Opcode::SUB);
    EXPECT_EQ(p.instAt(pc1).rd, 7);

    // Unpatched slots keep their cached decode.
    EXPECT_EQ(p.instAt(pc0).op, Opcode::ADD);
    EXPECT_EQ(p.instAt(pc0).rs2, 3);
}

TEST(DecodedCache, RepeatedAccessIsStable)
{
    Program p;
    const Addr pc = p.append(Instruction(Opcode::ADDI, 3, 3, 0, -7));
    p.append(Instruction(Opcode::HALT, 0, 0, 0, 0));
    const Instruction &first = p.instAt(pc);
    const Instruction &second = p.instAt(pc);
    // Same cached slot, same contents.
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(first.imm, -7);
    EXPECT_EQ(p.encodedAt(pc), first.encode());
}

// --- Figure-13 ledger folding ---------------------------------------------

TEST(LedgerFolding, MemoryBoundedByInFlightAccesses)
{
    // A full workload makes tens of thousands of port accesses; after
    // folding, the ledger slot pool must stay bounded by what can be
    // simultaneously unresolved, not grow with traffic.
    const Program &prog = keep(buildWorkload("swim", 1));
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator sim(cfg, prog);
    const SimResult res = sim.run(50'000'000, /*verify=*/false);
    ASSERT_TRUE(res.finished);

    DCachePorts &ports = sim.core().ports();
    EXPECT_GT(res.ports.readAccesses, 5'000u);
    EXPECT_EQ(res.wideBus.totalReads, res.ports.readAccesses);
    // Unresolved records are bounded by in-flight speculative elements
    // (vector registers * vlen), far below total traffic.
    EXPECT_LT(ports.ledgerSlotHighWater(),
              std::size_t(cfg.engine.numVregs * cfg.engine.vlen * 2));
    // After finalize() (run() calls it), every element is resolved and
    // only the final cycle's accesses may still be live.
    EXPECT_LE(ports.ledgerLiveRecords(), std::size_t(cfg.dcachePorts));
}

} // namespace
} // namespace sdv
