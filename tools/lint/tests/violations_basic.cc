// Seeded violations for every regex-driven rule. Each offending line
// carries an expect(<rule>) marker; --self-test fails unless the
// linter reports exactly these.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <thread>

#include <sched.h>
#include <time.h>
#include <unistd.h>

int
seededRngViolations()
{
    std::random_device entropy;                       // expect(rng)
    std::mt19937 gen(entropy());                      // expect(rng)
    srand(42);                                        // expect(rng)
    return rand() + static_cast<int>(gen());          // expect(rng)
}

long
seededClockViolations()
{
    const auto wall = std::chrono::system_clock::now();  // expect(wall-clock)
    const auto mono = std::chrono::steady_clock::now();  // expect(wall-clock)
    const std::time_t stamp = time(nullptr);             // expect(wall-clock)
    return stamp + wall.time_since_epoch().count()
        + mono.time_since_epoch().count();
}

void
seededSleepViolations()
{
    std::this_thread::sleep_for(std::chrono::seconds(1));  // expect(sleep)
    sched_yield();                                         // expect(sleep)
    ::usleep(1000);                                        // expect(sleep)
    const timespec pause{0, 1000};
    nanosleep(&pause, nullptr);                            // expect(sleep)
}

int *
seededRawNewViolations()
{
    int *leak = new int(7);  // expect(raw-new)
    // A comment-only line above the violation must not shield it.
    return new int(*leak);   // expect(raw-new)
}
