/**
 * @file
 * Helpers shared by the test suites: program lifetime for simulators
 * that hold a program reference, one run's comparable digest, and the
 * one exclusion list of the statistics identity oracle (statsDiff,
 * sim/simulator.hh), and a format-version-1 rewriter for sealed files.
 */

#ifndef SDV_TESTS_TEST_SUPPORT_HH
#define SDV_TESTS_TEST_SUPPORT_HH

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "sim/simulator.hh"

namespace sdv {

/** Keep @p p alive until the test binary exits (a Simulator holds a
 *  reference to its program); @return the kept program. */
inline const Program &
keep(Program &&p)
{
    static std::deque<Program> progs;
    progs.push_back(std::move(p));
    return progs.back();
}

/** One run's statistics and committed-stream hash. */
struct RunDigest
{
    SimResult res;
    std::uint64_t commitHash = 0;
};

/** Run @p prog under @p cfg (arguments as Simulator::run). */
inline RunDigest
runDigest(const CoreConfig &cfg, const Program &prog, bool verify,
          std::uint64_t max_cycles, std::uint64_t quiesce_interval = 0)
{
    Simulator sim(cfg, prog);
    RunDigest d{sim.run(max_cycles, verify, quiesce_interval)};
    d.commitHash = sim.core().commitPcHash();
    return d;
}

/** The only fields an event-skipping run may differ in from a ticking
 *  one: the clock's meta-counters, which describe how the cycles were
 *  simulated, never what they contained. */
inline const std::vector<std::string> skipMetaCounters = {
    "core.eventSkipJumps",     // jumps taken; a ticking run takes none
    "core.eventSkippedCycles", // cycles jumped over instead of ticked
};

/** @return @p image, a sealed file of the current format (8-byte
 *  magic, u32 version, ..., checksum64 trailer), rewritten as format
 *  version 1 wrote it: version field 1, sealed with FNV-1a. */
inline std::vector<std::uint8_t>
asFormatVersion1(std::vector<std::uint8_t> image)
{
    image.resize(image.size() - Serializer::trailerBytes);
    const std::uint8_t v1[4] = {1, 0, 0, 0};
    std::memcpy(image.data() + 8, v1, sizeof(v1));
    const std::uint64_t sum = fnv1a(image.data(), image.size());
    for (unsigned i = 0; i < 8; ++i)
        image.push_back(std::uint8_t(sum >> (8 * i)));
    return image;
}

} // namespace sdv

#endif // SDV_TESTS_TEST_SUPPORT_HH
