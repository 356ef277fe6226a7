#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace dejavu {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : _state(0), _inc((stream << 1u) | 1u)
{
    // Standard PCG32 seeding sequence.
    nextU32();
    _state += seed;
    nextU32();
}

std::uint32_t
Rng::nextU32()
{
    std::uint64_t old = _state;
    _state = old * 6364136223846793005ULL + _inc;
    std::uint32_t xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

double
Rng::uniform()
{
    // 32 bits of mantissa is plenty for simulation purposes.
    return nextU32() * (1.0 / 4294967296.0);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int
Rng::uniformInt(int lo, int hi)
{
    DEJAVU_ASSERT(lo <= hi, "uniformInt: empty range");
    const std::uint32_t span = static_cast<std::uint32_t>(hi - lo) + 1u;
    if (span == 0)  // full 32-bit range
        return static_cast<int>(nextU32());
    // Rejection sampling to avoid modulo bias.
    const std::uint32_t limit = 0xffffffffu - 0xffffffffu % span;
    std::uint32_t draw;
    do {
        draw = nextU32();
    } while (draw >= limit);
    return lo + static_cast<int>(draw % span);
}

double
Rng::gaussian()
{
    if (_hasSpare) {
        _hasSpare = false;
        return _spare;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    _spare = mag * std::sin(2.0 * M_PI * u2);
    _hasSpare = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    std::uint64_t s = (static_cast<std::uint64_t>(nextU32()) << 32)
        | nextU32();
    std::uint64_t t = (static_cast<std::uint64_t>(nextU32()) << 32)
        | nextU32();
    std::uint64_t mix = s;
    return Rng(splitmix64(mix), splitmix64(mix) ^ t);
}

} // namespace dejavu
