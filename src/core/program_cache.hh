/**
 * @file
 * Shared, thread-safe measurement-program cache.
 *
 * A campaign fans one spec list out over N workers, each with a
 * private Runner built for that campaign. Without this cache, every
 * Runner would decode its own measurement programs: N workers, and
 * every later campaign's workers, would pay the decode cost for specs
 * the process had already decoded. The Engine owns one
 * SharedProgramCache and attaches it to every Runner it creates; a
 * unique (uarch, mode, layout, spec, round, unroll-version) program is
 * then decoded once per engine and shared by reference.
 *
 * Programs are immutable after decode (execute() takes const
 * Program&), so sharing one instance across threads is safe; the
 * shared_ptr keeps a program alive for a runner even if the cache is
 * cleared (capacity) or the engine is destroyed mid-use.
 */

#ifndef NB_CORE_PROGRAM_CACHE_HH
#define NB_CORE_PROGRAM_CACHE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/telemetry.hh"
#include "sim/program.hh"

namespace nb::core
{

/** The Engine-wide program cache (see the file comment). All members
 *  are thread-safe. */
class SharedProgramCache
{
  public:
    /**
     * Look up a program. Returns nullptr -- and counts a miss -- if
     * the key is absent; the caller then decodes and insert()s.
     * A non-null return counts a hit.
     */
    std::shared_ptr<const sim::Program> lookup(const std::string &key);

    /**
     * Insert a freshly decoded program, returning the cached instance.
     * If another thread inserted the same key in the meantime, the
     * existing program wins (and the argument is discarded), so
     * concurrent racers converge on one shared instance.
     */
    std::shared_ptr<const sim::Program> insert(std::string key,
                                               sim::Program prog);

    /** Programs currently cached. */
    std::size_t size() const;

    /** Hit/miss counters since construction or resetStats(). */
    CacheStats stats() const;

    /** Zero the counters; cached programs are kept. */
    void resetStats();

  private:
    /** Bound the cache: campaigns can stream an unbounded spec set
     *  through one engine, and a dropped program is only a rebuild
     *  away. Same clear-when-full policy as the Runner-local cache. */
    static constexpr std::size_t kCapacity = 4096;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const sim::Program>>
        map_;
    CacheStats stats_;
};

} // namespace nb::core

#endif // NB_CORE_PROGRAM_CACHE_HH
