#include "workload/client_emulator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dejavu {

ClientEmulator::ClientEmulator()
    : ClientEmulator(Config(), Rng(11))
{
}

ClientEmulator::ClientEmulator(Config config, Rng rng)
    : _config(config), _rng(rng)
{
    DEJAVU_ASSERT(_config.thinkTimeSeconds > 0.0,
                  "think time must be positive");
}

double
ClientEmulator::sampleRate(double clients)
{
    const double mean = offeredRate(clients);
    const double noisy = mean * (1.0 + _config.jitter * _rng.gaussian());
    return std::max(0.0, noisy);
}

double
ClientEmulator::clientsForRate(double rate) const
{
    DEJAVU_ASSERT(rate >= 0.0, "negative rate");
    return rate * _config.thinkTimeSeconds;
}

} // namespace dejavu
