#include "profiling/slot_scheduler.hh"

#include "common/logging.hh"

namespace dejavu {

namespace {

/** Arrival order — the §3.3 behavior the paper implies. */
class FifoSlotScheduler : public ProfilingSlotScheduler
{
  public:
    std::string name() const override { return "fifo"; }

    std::size_t
    pick(const std::vector<ProfilingRequest> &waiting) const override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < waiting.size(); ++i)
            if (waiting[i].seq < waiting[best].seq)
                best = i;
        return best;
    }
};

/** Smallest host occupancy first; arrival order breaks ties. */
class ShortestJobFirstSlotScheduler : public ProfilingSlotScheduler
{
  public:
    std::string name() const override { return "sjf"; }

    std::size_t
    pick(const std::vector<ProfilingRequest> &waiting) const override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < waiting.size(); ++i) {
            const auto &a = waiting[i];
            const auto &b = waiting[best];
            if (a.slotDuration < b.slotDuration ||
                (a.slotDuration == b.slotDuration && a.seq < b.seq))
                best = i;
        }
        return best;
    }
};

/** Deepest SLO debtor first; arrival order breaks ties (so a fleet
 *  with no violations degrades to FIFO). */
class SloDebtFirstSlotScheduler : public ProfilingSlotScheduler
{
  public:
    std::string name() const override { return "slo-debt"; }

    std::size_t
    pick(const std::vector<ProfilingRequest> &waiting) const override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < waiting.size(); ++i) {
            const auto &a = waiting[i];
            const auto &b = waiting[best];
            if (a.sloDebt > b.sloDebt ||
                (a.sloDebt == b.sloDebt && a.seq < b.seq))
                best = i;
        }
        return best;
    }
};

} // namespace

AdaptiveSlotScheduler::AdaptiveSlotScheduler()
    : AdaptiveSlotScheduler(Thresholds{})
{
}

AdaptiveSlotScheduler::AdaptiveSlotScheduler(Thresholds thresholds)
    : _thresholds(thresholds),
      _fifo(std::make_unique<FifoSlotScheduler>()),
      _sjf(std::make_unique<ShortestJobFirstSlotScheduler>()),
      _debt(std::make_unique<SloDebtFirstSlotScheduler>())
{
    DEJAVU_ASSERT(_thresholds.sjfQueueDepth >= 1,
                  "sjf queue-depth threshold must be >= 1");
    DEJAVU_ASSERT(_thresholds.debtTrigger > 0.0,
                  "debt trigger must be positive");
}

AdaptiveSlotScheduler::Mode
AdaptiveSlotScheduler::modeOf(
    const std::vector<ProfilingRequest> &waiting) const
{
    double totalDebt = 0.0;
    for (const auto &req : waiting)
        totalDebt += req.sloDebt;
    if (totalDebt >= _thresholds.debtTrigger)
        return Mode::SloDebt;
    if (waiting.size() >= _thresholds.sjfQueueDepth)
        return Mode::Sjf;
    return Mode::Fifo;
}

const ProfilingSlotScheduler &
AdaptiveSlotScheduler::delegateFor(
    const std::vector<ProfilingRequest> &waiting) const
{
    switch (modeOf(waiting)) {
      case Mode::SloDebt:
        ++_debtPicks;
        return *_debt;
      case Mode::Sjf:
        ++_sjfPicks;
        return *_sjf;
      case Mode::Fifo:
        break;
    }
    ++_fifoPicks;
    return *_fifo;
}

std::size_t
AdaptiveSlotScheduler::pick(
    const std::vector<ProfilingRequest> &waiting) const
{
    return delegateFor(waiting).pick(waiting);
}

std::string
AdaptiveSlotScheduler::modeFor(
    const std::vector<ProfilingRequest> &waiting) const
{
    switch (modeOf(waiting)) {
      case Mode::SloDebt:
        return "slo-debt";
      case Mode::Sjf:
        return "sjf";
      case Mode::Fifo:
        break;
    }
    return "fifo";
}

std::unique_ptr<ProfilingSlotScheduler>
makeSlotScheduler(SlotPolicy policy)
{
    switch (policy) {
      case SlotPolicy::Fifo:
        return std::make_unique<FifoSlotScheduler>();
      case SlotPolicy::ShortestJobFirst:
        return std::make_unique<ShortestJobFirstSlotScheduler>();
      case SlotPolicy::SloDebtFirst:
        return std::make_unique<SloDebtFirstSlotScheduler>();
      case SlotPolicy::Adaptive:
        return std::make_unique<AdaptiveSlotScheduler>();
    }
    fatal("unknown slot policy");
}

SlotPolicy
slotPolicyFromName(const std::string &name)
{
    if (name == "fifo")
        return SlotPolicy::Fifo;
    if (name == "sjf")
        return SlotPolicy::ShortestJobFirst;
    if (name == "slo-debt")
        return SlotPolicy::SloDebtFirst;
    if (name == "adaptive")
        return SlotPolicy::Adaptive;
    fatal("unknown slot policy: ", name,
          " (use fifo|sjf|slo-debt|adaptive)");
}

const std::vector<std::string> &
slotPolicyNames()
{
    static const std::vector<std::string> names{"fifo", "sjf",
                                                "slo-debt",
                                                "adaptive"};
    return names;
}

} // namespace dejavu
