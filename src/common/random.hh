/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator flows through Rng so that a
 * run is exactly reproducible from its seed. The generator is PCG32
 * (O'Neill 2014): small state, good statistical quality, cheap to copy
 * so each subsystem can own an independent stream derived via
 * splitmix64.
 */

#ifndef DEJAVU_COMMON_RANDOM_HH
#define DEJAVU_COMMON_RANDOM_HH

#include <cstdint>

namespace dejavu {

/** splitmix64 step; used to derive independent seeds from one seed. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * PCG32 pseudo-random generator with convenience distributions.
 */
class Rng
{
  public:
    /** Construct from a seed and an optional stream selector. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit draw. */
    std::uint32_t nextU32();

    /** Uniform in [0, 1). */
    double uniform();

    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int uniformInt(int lo, int hi);

    /** Standard normal draw (Box–Muller, cached spare). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli trial with probability p of true. */
    bool bernoulli(double p);

    /**
     * Derive an independent child generator; successive calls yield
     * distinct streams. Useful to hand each module its own RNG.
     */
    Rng fork();

  private:
    std::uint64_t _state;
    std::uint64_t _inc;
    double _spare = 0.0;
    bool _hasSpare = false;
};

} // namespace dejavu

#endif // DEJAVU_COMMON_RANDOM_HH
