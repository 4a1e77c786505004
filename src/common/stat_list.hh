/**
 * @file
 * Field lists for the statistics blocks. Each block (CoreStats,
 * EngineStats, DatapathStats, PortStats, WideBusBreakdown,
 * VecRegFateStats, CacheStats) declares its counters once, as an
 * X-macro list in its own header in the idiom of SDV_FOR_EACH_OPCODE:
 * LIST(F, A) holds one F(type, name) per scalar counter and one
 * A(type, name, n) per counter array. Comments on list lines must be
 * block comments (a line comment would swallow the continuation).
 *
 * The struct body expands the list with SDV_STAT_MEMBER(_ARRAY), and
 * SDV_STATS_BLOCK(Type, LIST) defines forEachStat(fn, blocks...),
 * which calls fn(StatName, words...) once per counter word in list
 * order (array elements one by one), the same word of every block side
 * by side. It also asserts sizeof(Type) == 8 bytes per listed word, so
 * a member declared outside the list fails to compile. The sample
 * fold, the identity oracle statsDiff and the raw-byte wire transport
 * therefore cover a new list line with no further edit.
 */

#ifndef SDV_COMMON_STAT_LIST_HH
#define SDV_COMMON_STAT_LIST_HH

#include <cstdint>
#include <string>
#include <type_traits>

namespace sdv {

/** Name of one visited statistic word. */
struct StatName
{
    const char *block = nullptr; ///< SimResult member; null in a block
    const char *field = nullptr; ///< field name as listed
    int index = -1;              ///< array element, -1 for a scalar

    /** @return the qualified name, e.g. "fates.lifetimeHist[3]". */
    std::string
    str() const
    {
        std::string s = block ? std::string(block) + "." + field : field;
        return index < 0 ? s : s + "[" + std::to_string(index) + "]";
    }
};

} // namespace sdv

#define SDV_STAT_MEMBER(type, name) type name = {};
#define SDV_STAT_MEMBER_ARRAY(type, name, n) type name[n] = {};

// Visitor body; expands where `fn` and the block pack `s` are in scope.
#define SDV_STAT_VISIT(type, name)                                          \
    fn(::sdv::StatName{nullptr, #name}, s.name...);
#define SDV_STAT_VISIT_ARRAY(type, name, n)                                 \
    for (int i_ = 0; i_ < (n); ++i_)                                        \
        fn(::sdv::StatName{nullptr, #name, i_}, s.name[i_]...);

#define SDV_STAT_WORDS(type, name) +1
#define SDV_STAT_WORDS_ARRAY(type, name, n) +(n)

/** Define forEachStat() over @p Type from @p LIST and guard the
 *  layout; use at namespace sdv scope right after the struct. */
#define SDV_STATS_BLOCK(Type, LIST)                                         \
    template <typename Fn, typename... S>                                   \
        requires(sizeof...(S) > 0 &&                                        \
                 (std::is_same_v<std::remove_const_t<S>, Type> && ...))     \
    void forEachStat(Fn &&fn, S &...s)                                      \
    {                                                                       \
        LIST(SDV_STAT_VISIT, SDV_STAT_VISIT_ARRAY)                          \
    }                                                                       \
    static_assert(sizeof(Type) == sizeof(std::uint64_t) *                  \
                      (0 LIST(SDV_STAT_WORDS, SDV_STAT_WORDS_ARRAY)),       \
                  #Type " declares a member outside its field list")

#endif // SDV_COMMON_STAT_LIST_HH
