/**
 * @file
 * Compile-time gate for observability hooks. With SDV_OBS defined
 * (the default build) each hook is one null-pointer test; without it
 * the hooks compile to nothing, so the disabled build is provably
 * unchanged. Recording never mutates model state either way: the
 * simulated statistics are bit-identical with and without a recorder.
 */

#ifndef SDV_OBS_HOOKS_HH
#define SDV_OBS_HOOKS_HH

#include <cstdint>

namespace sdv {
namespace obs {

/** Pack a vector-register incarnation (any {reg, gen} pair, such as
 *  VecRegRef) and an optional cause code into one trace-event
 *  argument: reg, then the low 16 generation bits from bit 16, then
 *  the cause from bit 32. */
template <typename Ref>
std::uint64_t
packVreg(const Ref &ref, unsigned cause = 0)
{
    return std::uint64_t(ref.reg) |
           (std::uint64_t(ref.gen & 0xffffu) << 16) |
           (std::uint64_t(cause) << 32);
}

} // namespace obs
} // namespace sdv

#ifdef SDV_OBS

#include "obs/trace.hh"

#define SDV_OBS_ENABLED 1

/** Record one event if a recorder is attached. */
#define SDV_OBS_EVENT(rec, ...)                                             \
    do {                                                                    \
        if (rec)                                                            \
            (rec)->record(__VA_ARGS__);                                     \
    } while (0)

/** Stamp the recorder clock (call once per simulated cycle). */
#define SDV_OBS_SET_CYCLE(rec, now)                                         \
    do {                                                                    \
        if (rec)                                                            \
            (rec)->setCycle(now);                                           \
    } while (0)

#else

#define SDV_OBS_ENABLED 0
#define SDV_OBS_EVENT(rec, ...) do { } while (0)
#define SDV_OBS_SET_CYCLE(rec, now) do { } while (0)

#endif // SDV_OBS

#endif // SDV_OBS_HOOKS_HH
