/**
 * @file
 * Client emulation: converts an emulated client population into an
 * offered request rate, as the publicly available benchmark drivers do
 * for RUBiS / SPECweb / YCSB (§4, "Internet services"). Each client is
 * a closed-loop session: issue request, wait think time, repeat — so
 * the offered rate is clients / (thinkTime + responseTime). For the
 * load levels of interest (response « think) the linear approximation
 * clients / thinkTime is used, with optional stochastic jitter.
 */

#ifndef DEJAVU_WORKLOAD_CLIENT_EMULATOR_HH
#define DEJAVU_WORKLOAD_CLIENT_EMULATOR_HH

#include "common/logging.hh"
#include "common/random.hh"
#include "workload/request_mix.hh"

namespace dejavu {

/**
 * Closed-loop client population model.
 */
class ClientEmulator
{
  public:
    struct Config
    {
        double thinkTimeSeconds = 7.0;  ///< RUBiS-style mean think time.
        double jitter = 0.02;           ///< Relative rate noise.
    };

    ClientEmulator();
    explicit ClientEmulator(Config config, Rng rng = Rng(11));

    /** Mean offered request rate (req/s) for @p clients clients. */
    double offeredRate(double clients) const
    {
        DEJAVU_ASSERT(clients >= 0.0, "negative client count");
        return clients / _config.thinkTimeSeconds;
    }

    /**
     * One stochastic observation of the offered rate, as a monitor
     * sampling a finite window would see it.
     */
    double sampleRate(double clients);

    /** Clients required to generate @p rate req/s (inverse mapping). */
    double clientsForRate(double rate) const;

    const Config &config() const { return _config; }

  private:
    Config _config;
    Rng _rng;
};

} // namespace dejavu

#endif // DEJAVU_WORKLOAD_CLIENT_EMULATOR_HH
