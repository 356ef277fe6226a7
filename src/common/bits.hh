/**
 * @file
 * The exact bit pattern of a double, for memo keys. A pure function
 * given bit-identical inputs returns bit-identical outputs; operator==
 * cannot promise that (0.0 == -0.0, and a NaN equals nothing).
 */

#ifndef DEJAVU_COMMON_BITS_HH
#define DEJAVU_COMMON_BITS_HH

#include <cstdint>
#include <cstring>

namespace dejavu {

/** A NaN pattern no arithmetic result carries: the key of an empty
 *  memo, which no input matches. */
constexpr std::uint64_t kNoBits = ~std::uint64_t{0};

/** The IEEE-754 bits of @p x. */
inline std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

} // namespace dejavu

#endif // DEJAVU_COMMON_BITS_HH
