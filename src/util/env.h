/**
 * @file
 * Shared parsing of SUPERBNN_* environment knobs.
 *
 * Every integer knob in the library (SUPERBNN_THREADS sizing the
 * shared executor pool, the SUPERBNN_SERVE_* serving knobs) follows
 * the same contract: a well-formed value wins, an unset variable falls
 * back to the caller's default, and a set-but-invalid value (garbage,
 * out-of-range, trailing junk like "4x") is IGNORED with a one-line
 * stderr notice — never a silent partial parse, and never spam: each
 * distinct (variable, value) pair warns at most once per process,
 * mirroring how SUPERBNN_SIMD reports unusable overrides.
 */

#ifndef SUPERBNN_UTIL_ENV_H
#define SUPERBNN_UTIL_ENV_H

#include <cstddef>

namespace superbnn::util {

/**
 * The environment variable @p name parsed as a base-10 integer in
 * [@p min_value, SIZE_MAX], or @p fallback when the variable is unset
 * or invalid (with the warn-once stderr notice described in the file
 * header). The value must start with a digit: leading whitespace or a
 * sign (including a negative number, which strtoull would wrap to a
 * huge count) makes it invalid. @p min_value distinguishes knobs where
 * 0 is meaningful (e.g. a zero-linger scheduler) from knobs where it
 * is not (a pool of 0 threads).
 */
std::size_t envSize(const char *name, std::size_t fallback,
                    std::size_t min_value = 0);

} // namespace superbnn::util

#endif // SUPERBNN_UTIL_ENV_H
