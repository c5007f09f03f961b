/**
 * @file
 * Fundamental typedefs shared across the library.
 */

#ifndef NB_COMMON_TYPES_HH
#define NB_COMMON_TYPES_HH

#include <cstdint>

/** Force inlining into each executor loop when optimizing: GCC leaves
 *  small helpers as real calls inside the executors' very large
 *  functions. An -O0 build calls the steps instead: it would not fold
 *  the body switch, so each of the threaded executor's 51 handlers
 *  would carry all of it. */
#ifdef __OPTIMIZE__
#define NB_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define NB_ALWAYS_INLINE inline
#endif

namespace nb
{

/** A (virtual or physical) byte address in the simulated machine. */
using Addr = std::uint64_t;

/** A duration or timestamp in simulated core clock cycles. */
using Cycles = std::uint64_t;

/** Size of a cache line in bytes on every modelled microarchitecture. */
inline constexpr Addr kCacheLineSize = 64;

/** Size of a virtual/physical memory page. */
inline constexpr Addr kPageSize = 4096;

} // namespace nb

#endif // NB_COMMON_TYPES_HH
