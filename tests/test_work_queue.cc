/**
 * @file
 * Tests for the unified profiling work queue: typed work items
 * (signature + tuner) arbitrated by one slot scheduler, same-key
 * batching through the Coalescer with N-way result fan-out, dynamic
 * tuner occupancy, cancellation — while queued, during grant
 * (granted but not started), and en masse via cancelWhere — and the
 * waiting view and SLO-debt ledger the queue keeps between grants.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "profiling/work_queue.hh"
#include "sim/simulation.hh"

namespace dejavu {
namespace {

class WorkQueueTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _before = logLevel();
        setLogLevel(LogLevel::Silent);
    }
    void TearDown() override { setLogLevel(_before); }

    /** A signature item for @p owner with a shareable key. */
    static WorkItem signatureItem(std::size_t owner, int classId,
                                  int bucket = 0,
                                  SimTime duration = seconds(10),
                                  ServiceKind kind =
                                      ServiceKind::KeyValue)
    {
        WorkItem item;
        item.kind = WorkKind::Signature;
        item.owner = owner;
        item.duration = duration;
        item.key = {kind, classId, bucket};
        return item;
    }

    static WorkItem tunerItem(std::size_t owner, int classId,
                              int bucket,
                              SimTime estimate = minutes(9))
    {
        WorkItem item;
        item.kind = WorkKind::Tuner;
        item.owner = owner;
        item.duration = estimate;
        item.dynamicDuration = true;
        item.key = {ServiceKind::KeyValue, classId, bucket};
        return item;
    }

    /** One observed run, for asserting fan-out and slot charging. */
    struct Ran
    {
        std::size_t owner;
        SimTime startedAt;
        std::size_t host;
        SimTime slotDuration;
        bool coalesced;
    };

    /** RunFn recording into @p runs; returns the nominal duration. */
    static ProfilingWorkQueue::RunFn recorder(std::vector<Ran> &runs)
    {
        return [&runs](const ProfilingWorkQueue::WorkGrant &g) {
            runs.push_back({g.item->owner, g.startedAt, g.host,
                            g.slotDuration, g.coalesced});
            return g.item->duration;
        };
    }

  private:
    LogLevel _before = LogLevel::Info;
};

TEST_F(WorkQueueTest, GrantsInArrivalOrderOnOneHost)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1);
    std::vector<Ran> runs;
    for (std::size_t owner = 0; owner < 3; ++owner)
        queue.submit(signatureItem(owner, static_cast<int>(owner)),
                     recorder(runs));
    EXPECT_EQ(queue.waitingItems(), 2u);  // first granted immediately
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(runs[i].owner, i);
        EXPECT_EQ(runs[i].startedAt,
                  static_cast<SimTime>(i) * seconds(10));
        EXPECT_EQ(runs[i].host, 0u);
        EXPECT_FALSE(runs[i].coalesced);
        EXPECT_EQ(runs[i].slotDuration, seconds(10));
    }
    EXPECT_EQ(queue.stats().signatureSlots, 3u);
    EXPECT_EQ(queue.stats().coalescedSignatures, 0u);
    EXPECT_EQ(queue.busyHosts(), 0);
    EXPECT_EQ(queue.waitingItems(), 0u);
}

TEST_F(WorkQueueTest, SameKeyCollapsesToOneSlotWithFanOut)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1, /*coalesce=*/true);
    std::vector<Ran> runs;

    // Occupy the host so the same-key arrivals actually wait (an
    // idle pool grants the first item before a peer can join it).
    queue.submit(signatureItem(9, 7, 0, seconds(30)), recorder(runs));
    const int kFanOut = 4;
    for (std::size_t owner = 0; owner < kFanOut; ++owner)
        queue.submit(signatureItem(owner, /*classId=*/3),
                     recorder(runs));
    // One scheduler-visible entry for the whole batch.
    EXPECT_EQ(queue.waitingEntries(), 1u);
    EXPECT_EQ(queue.waitingItems(), static_cast<std::size_t>(kFanOut));
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 1u + kFanOut);
    // All four batch members ran at the same slot start, on the same
    // host, and only the leader was charged the slot.
    for (int i = 1; i <= kFanOut; ++i) {
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].startedAt,
                  seconds(30));
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].host, 0u);
    }
    EXPECT_FALSE(runs[1].coalesced);
    EXPECT_EQ(runs[1].slotDuration, seconds(10));
    for (int i = 2; i <= kFanOut; ++i) {
        EXPECT_TRUE(runs[static_cast<std::size_t>(i)].coalesced);
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].slotDuration, 0);
    }
    EXPECT_EQ(queue.stats().signatureSlots, 2u);  // blocker + batch
    EXPECT_EQ(queue.stats().coalescedSignatures,
              static_cast<std::uint64_t>(kFanOut - 1));
    EXPECT_EQ(queue.coalescer().stats().batches, 1u);
    EXPECT_EQ(queue.coalescer().stats().fanOuts,
              static_cast<std::uint64_t>(kFanOut - 1));
}

TEST_F(WorkQueueTest, BatchOccupiesTheLongestMembersDuration)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1, /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, 7, 0, seconds(5)), recorder(runs));
    queue.submit(signatureItem(0, 3, 0, seconds(10)), recorder(runs));
    queue.submit(signatureItem(1, 3, 0, seconds(25)), recorder(runs));
    // A later, different-key item starts only after the batch's
    // longest member's occupancy elapsed: 5 + max(10, 25).
    queue.submit(signatureItem(2, 4, 0, seconds(10)), recorder(runs));
    sim.runUntil(minutes(5));
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[1].slotDuration, seconds(25));
    EXPECT_EQ(runs.back().owner, 2u);
    EXPECT_EQ(runs.back().startedAt, seconds(30));
}

TEST_F(WorkQueueTest, DifferentKeysNeverCoalesce)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1, /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, 7, 0, seconds(30)), recorder(runs));
    // Same class, different interference bucket: measured under
    // different co-location pressure — must not merge.
    queue.submit(signatureItem(0, 3, /*bucket=*/0), recorder(runs));
    queue.submit(signatureItem(1, 3, /*bucket=*/2), recorder(runs));
    // Same class and bucket, different service kind.
    queue.submit(signatureItem(2, 3, 0, seconds(10),
                               ServiceKind::Rubis),
                 recorder(runs));
    // Unknown class (-1): no reuse identity.
    queue.submit(signatureItem(3, -1), recorder(runs));
    queue.submit(signatureItem(4, -1), recorder(runs));
    EXPECT_EQ(queue.waitingEntries(), 5u);
    sim.runUntil(minutes(10));
    EXPECT_EQ(queue.stats().signatureSlots, 6u);
    EXPECT_EQ(queue.stats().coalescedSignatures, 0u);
    EXPECT_EQ(queue.coalescer().stats().fanOuts, 0u);
}

TEST_F(WorkQueueTest, CoalescingOffKeepsEveryItemItsOwnSlot)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1, /*coalesce=*/false);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, 7, 0, seconds(30)), recorder(runs));
    queue.submit(signatureItem(0, 3), recorder(runs));
    queue.submit(signatureItem(1, 3), recorder(runs));
    EXPECT_EQ(queue.waitingEntries(), 2u);
    sim.runUntil(minutes(5));
    EXPECT_EQ(queue.stats().signatureSlots, 3u);
    EXPECT_EQ(queue.stats().coalescedSignatures, 0u);
}

TEST_F(WorkQueueTest, TunerOccupancyComesFromTheRunCallback)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1);
    std::vector<Ran> runs;
    // Scheduler sees the 9-minute estimate, but the "search" stops
    // after 2 minutes — the host must free then, not at the
    // estimate.
    queue.submit(tunerItem(0, 3, 1, minutes(9)),
                 [&runs](const ProfilingWorkQueue::WorkGrant &g) {
                     runs.push_back({g.item->owner, g.startedAt,
                                     g.host, g.slotDuration,
                                     g.coalesced});
                     return minutes(2);
                 });
    queue.submit(signatureItem(1, 4), recorder(runs));
    sim.runUntil(minutes(30));
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].slotDuration, minutes(9));  // the estimate
    EXPECT_EQ(runs[1].startedAt, minutes(2));     // actual release
    EXPECT_EQ(queue.stats().tunerSlots, 1u);
    EXPECT_EQ(queue.stats().signatureSlots, 1u);
}

TEST_F(WorkQueueTest, CancelWhileQueuedNeverRunsAndNotifies)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1);
    std::vector<Ran> runs;
    std::vector<std::pair<WorkItemId, WorkCancelReason>> cancelled;
    queue.submit(signatureItem(9, 7, 0, seconds(30)), recorder(runs));
    const WorkItemId doomed = queue.submit(
        signatureItem(0, 3), recorder(runs),
        [&cancelled](const WorkItem &item, WorkCancelReason reason) {
            cancelled.emplace_back(item.id, reason);
        });
    queue.submit(signatureItem(1, 4), recorder(runs));
    EXPECT_EQ(queue.waitingItems(), 2u);

    EXPECT_TRUE(queue.cancelItem(doomed));
    EXPECT_EQ(queue.waitingItems(), 1u);
    EXPECT_EQ(queue.state(doomed),
              ProfilingWorkQueue::ItemState::Cancelled);
    ASSERT_EQ(cancelled.size(), 1u);
    EXPECT_EQ(cancelled[0].first, doomed);
    EXPECT_EQ(cancelled[0].second, WorkCancelReason::Explicit);
    // Cancelling twice is a no-op.
    EXPECT_FALSE(queue.cancelItem(doomed));

    sim.runUntil(minutes(5));
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[1].owner, 1u);
    EXPECT_EQ(runs[1].startedAt, seconds(30));  // no dead slot paid
    EXPECT_EQ(queue.stats().cancelledQueued, 1u);
}

TEST_F(WorkQueueTest, CancelDuringGrantSkipsWorkAndFreesHost)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1);
    std::vector<Ran> runs;
    bool cancelNotified = false;

    // Submit from inside an event: the free host grants immediately
    // and schedules the slot start for the same instant — cancelling
    // before that event fires is the grant window.
    sim.queue().scheduleAfter(seconds(1), [&] {
        const WorkItemId id = queue.submit(
            signatureItem(0, 3), recorder(runs),
            [&cancelNotified](const WorkItem &, WorkCancelReason) {
                cancelNotified = true;
            });
        EXPECT_EQ(queue.state(id),
                  ProfilingWorkQueue::ItemState::Granted);
        EXPECT_EQ(queue.busyHosts(), 1);
        EXPECT_TRUE(queue.cancelItem(id));
    });
    sim.runUntil(minutes(5));

    EXPECT_TRUE(cancelNotified);
    EXPECT_TRUE(runs.empty());
    EXPECT_EQ(queue.stats().cancelledGranted, 1u);
    EXPECT_EQ(queue.stats().signatureSlots, 0u);
    // The host came back: later work is served normally.
    EXPECT_EQ(queue.busyHosts(), 0);
    queue.submit(signatureItem(1, 4), recorder(runs));
    sim.runFor(minutes(5));
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].owner, 1u);
}

TEST_F(WorkQueueTest, CancellingTheLeaderPromotesAFollower)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1, /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, 7, 0, seconds(30)), recorder(runs));
    const WorkItemId leader =
        queue.submit(signatureItem(0, 3), recorder(runs));
    queue.submit(signatureItem(1, 3), recorder(runs));
    queue.submit(signatureItem(2, 3), recorder(runs));
    EXPECT_EQ(queue.waitingEntries(), 1u);

    EXPECT_TRUE(queue.cancelItem(leader));
    EXPECT_EQ(queue.waitingEntries(), 1u);  // batch survives
    EXPECT_EQ(queue.waitingItems(), 2u);
    // New same-key arrivals still join the (re-led) batch.
    queue.submit(signatureItem(3, 3), recorder(runs));
    EXPECT_EQ(queue.waitingEntries(), 1u);
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 4u);  // blocker + 3 surviving members
    EXPECT_EQ(runs[1].owner, 1u);  // promoted leader
    EXPECT_FALSE(runs[1].coalesced);
    EXPECT_TRUE(runs[2].coalesced);
    EXPECT_TRUE(runs[3].coalesced);
    EXPECT_EQ(queue.stats().signatureSlots, 2u);
    EXPECT_EQ(queue.stats().coalescedSignatures, 2u);
}

TEST_F(WorkQueueTest, CancelWhereSweepsMatchingItems)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1);
    std::vector<Ran> runs;
    std::vector<WorkCancelReason> reasons;
    const auto onCancel = [&reasons](const WorkItem &,
                                     WorkCancelReason reason) {
        reasons.push_back(reason);
    };
    queue.submit(signatureItem(9, 7, 0, seconds(30)), recorder(runs));
    queue.submit(tunerItem(0, 3, 1), recorder(runs), onCancel);
    queue.submit(tunerItem(1, 3, 1), recorder(runs), onCancel);
    queue.submit(tunerItem(2, 3, 2), recorder(runs), onCancel);

    const WorkKey key{ServiceKind::KeyValue, 3, 1};
    const std::size_t swept = queue.cancelWhere(
        [&key](const WorkItem &item) {
            return item.kind == WorkKind::Tuner && item.key == key;
        },
        WorkCancelReason::Reuse);
    EXPECT_EQ(swept, 2u);
    ASSERT_EQ(reasons.size(), 2u);
    EXPECT_EQ(reasons[0], WorkCancelReason::Reuse);
    EXPECT_EQ(queue.stats().tunerCancelledForReuse, 2u);

    sim.runUntil(hours(1));
    // The bucket-2 tuner survived and consumed the only tuner slot.
    EXPECT_EQ(queue.stats().tunerSlots, 1u);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[1].owner, 2u);
}

TEST_F(WorkQueueTest, FinishedItemsDropTheirPayloadButKeepTheirState)
{
    // A finished item leaves the live table: its run and cancel
    // closures (and what they captured) are released when it reaches
    // Done or Cancelled, while state(), submitted() and
    // orphanedItems() still answer for every id. Run and cancel
    // callbacks that submit new work reuse the freed slots.
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, nullptr, 1);
    const auto payload = std::make_shared<int>(0);
    std::vector<WorkItemId> chained;
    std::function<SimTime(const ProfilingWorkQueue::WorkGrant &)> chain;
    chain = [&](const ProfilingWorkQueue::WorkGrant &grant) {
        if (chained.size() < 5)
            chained.push_back(queue.submit(
                signatureItem(chained.size(), -1),
                [&chain, payload](const ProfilingWorkQueue::WorkGrant &g) {
                    return chain(g);
                }));
        return grant.item->duration;
    };
    const WorkItemId first = queue.submit(
        signatureItem(0, -1),
        [&chain, payload](const ProfilingWorkQueue::WorkGrant &g) {
            return chain(g);
        });
    const WorkItemId doomed = queue.submit(
        tunerItem(1, 3, 1),
        [payload](const ProfilingWorkQueue::WorkGrant &) {
            return SimTime{0};
        },
        [&](const WorkItem &, WorkCancelReason) {
            chained.push_back(queue.submit(
                signatureItem(9, -1),
                [&chain, payload](const ProfilingWorkQueue::WorkGrant &g) {
                    return chain(g);
                }));
        });
    EXPECT_EQ(payload.use_count(), 3);
    EXPECT_TRUE(queue.cancelItem(doomed));
    sim.runUntil(hours(1));

    EXPECT_EQ(payload.use_count(), 1)
        << "a finished item still holds its closures";
    EXPECT_EQ(queue.submitted(), 2u + chained.size());
    EXPECT_EQ(queue.state(first),
              ProfilingWorkQueue::ItemState::Done);
    EXPECT_EQ(queue.state(doomed),
              ProfilingWorkQueue::ItemState::Cancelled);
    for (const WorkItemId id : chained)
        EXPECT_EQ(queue.state(id), ProfilingWorkQueue::ItemState::Done);
    EXPECT_FALSE(queue.cancelItem(first));
    EXPECT_EQ(queue.orphanedItems(), 0u);
    EXPECT_EQ(queue.stats().signatureSlots, 1u + chained.size());
}

TEST_F(WorkQueueTest, DebtLedgerRefreshesAndIsSpentAtGrant)
{
    Simulation sim(1);
    // SLO-debt policy with debt put on the queue's ledger: the
    // deepest debtor jumps the queue, and the grant spends its debt.
    ProfilingWorkQueue queue(
        sim, makeSlotScheduler(SlotPolicy::SloDebtFirst), 1);
    std::vector<Ran> runs;
    queue.addDebt(1, 1.0);
    queue.addDebt(2, 5.0);
    queue.submit(signatureItem(0, 0, 0, seconds(30)), recorder(runs));
    queue.submit(signatureItem(1, 1), recorder(runs));
    queue.submit(signatureItem(2, 2), recorder(runs));
    EXPECT_DOUBLE_EQ(queue.debtOf(2), 5.0);
    EXPECT_DOUBLE_EQ(queue.debtOf(7), 0.0);  // never in debt
    sim.runUntil(minutes(5));
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[1].owner, 2u);  // deepest debtor first
    EXPECT_EQ(runs[2].owner, 1u);
    EXPECT_DOUBLE_EQ(queue.debtOf(2), 0.0);  // spent at grant
    EXPECT_DOUBLE_EQ(queue.debtOf(1), 0.0);
}

// --------------------------------------------------------------------
// The kept waiting view: the queue updates each entry's scheduler view
// where the entry changes instead of rebuilding it per grant. Each test
// below puts competing entries on one busy host, so a view that missed
// an update grants in a different order.
// --------------------------------------------------------------------

TEST_F(WorkQueueTest, CoalesceJoinThatLengthensABatchMovesItBehind)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(
        sim, makeSlotScheduler(SlotPolicy::ShortestJobFirst), 1,
        /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, -1, 0, seconds(30)), recorder(runs));
    queue.submit(signatureItem(0, 1, 0, seconds(10)), recorder(runs));
    queue.submit(signatureItem(1, 2, 0, seconds(15)), recorder(runs));
    // Joining class 1's batch makes it a 20 s slot, longer than
    // class 2's 15 s one.
    queue.submit(signatureItem(2, 1, 0, seconds(20)), recorder(runs));
    EXPECT_EQ(queue.waitingEntries(), 2u);
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[1].owner, 1u);
    EXPECT_EQ(runs[1].startedAt, seconds(30));
    EXPECT_EQ(runs[2].owner, 0u);
    EXPECT_EQ(runs[2].startedAt, seconds(45));
    EXPECT_EQ(runs[2].slotDuration, seconds(20));
    EXPECT_EQ(runs[3].owner, 2u);
    EXPECT_TRUE(runs[3].coalesced);
}

TEST_F(WorkQueueTest, CancelledLeaderHandsTheBatchTheNextMembersSeq)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(sim, makeSlotScheduler(SlotPolicy::Fifo),
                             1, /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, -1, 0, seconds(30)), recorder(runs));
    const WorkItemId leader =
        queue.submit(signatureItem(0, 1), recorder(runs));
    queue.submit(signatureItem(1, 2), recorder(runs));
    queue.submit(signatureItem(2, 1), recorder(runs));  // joins
    // Without its leader, class 1's batch arrived after class 2's
    // entry.
    EXPECT_TRUE(queue.cancelItem(leader));
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[1].owner, 1u);
    EXPECT_EQ(runs[2].owner, 2u);
    EXPECT_EQ(runs[2].startedAt, seconds(40));
    EXPECT_FALSE(runs[2].coalesced);  // it leads the batch now
}

TEST_F(WorkQueueTest, CancelledLeaderHandsTheBatchItsLongestRemainder)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(
        sim, makeSlotScheduler(SlotPolicy::ShortestJobFirst), 1,
        /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, -1, 0, seconds(30)), recorder(runs));
    const WorkItemId leader = queue.submit(
        signatureItem(0, 1, 0, seconds(30)), recorder(runs));
    queue.submit(signatureItem(1, 2, 0, seconds(20)), recorder(runs));
    queue.submit(signatureItem(2, 1, 0, seconds(10)), recorder(runs));
    // Without its 30 s leader, class 1's batch is a 10 s slot,
    // shorter than class 2's 20 s one.
    EXPECT_TRUE(queue.cancelItem(leader));
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[1].owner, 2u);
    EXPECT_EQ(runs[1].slotDuration, seconds(10));
    EXPECT_EQ(runs[2].owner, 1u);
    EXPECT_EQ(runs[2].startedAt, seconds(40));
}

TEST_F(WorkQueueTest, AddedDebtReordersWaitingEntriesInPlace)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(
        sim, makeSlotScheduler(SlotPolicy::SloDebtFirst), 1);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, -1, 0, seconds(30)), recorder(runs));
    queue.submit(signatureItem(0, 1), recorder(runs));
    queue.submit(signatureItem(1, 2), recorder(runs));
    // Both waited debt-free; owner 1 falls into debt while waiting.
    queue.addDebt(1, 1.0);
    sim.runUntil(minutes(5));

    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[1].owner, 1u);
    EXPECT_EQ(runs[2].owner, 0u);
    EXPECT_DOUBLE_EQ(queue.debtOf(1), 0.0);
}

TEST_F(WorkQueueTest, CoalescedGrantSpendsEveryMembersDebt)
{
    Simulation sim(1);
    ProfilingWorkQueue queue(
        sim, makeSlotScheduler(SlotPolicy::SloDebtFirst), 1,
        /*coalesce=*/true);
    std::vector<Ran> runs;
    queue.submit(signatureItem(9, -1, 0, seconds(30)), recorder(runs));
    queue.submit(signatureItem(0, 1), recorder(runs));
    queue.submit(signatureItem(1, 2), recorder(runs));
    queue.submit(signatureItem(2, 1), recorder(runs));  // joins
    queue.addDebt(0, 2.0);
    queue.addDebt(1, 4.0);
    queue.addDebt(2, 3.0);
    queue.addDebt(5, 1.0);  // owns no waiting item
    sim.runUntil(minutes(5));

    // Class 1's batch carries its members' summed debt (5), deeper
    // than owner 1's 4, and its grant spends both members' debt.
    ASSERT_EQ(runs.size(), 4u);
    EXPECT_EQ(runs[1].owner, 0u);
    EXPECT_EQ(runs[2].owner, 2u);
    EXPECT_TRUE(runs[2].coalesced);
    EXPECT_EQ(runs[3].owner, 1u);
    EXPECT_DOUBLE_EQ(queue.debtOf(0), 0.0);
    EXPECT_DOUBLE_EQ(queue.debtOf(2), 0.0);
    EXPECT_DOUBLE_EQ(queue.debtOf(1), 0.0);
    EXPECT_DOUBLE_EQ(queue.debtOf(5), 1.0);
}

} // namespace
} // namespace dejavu
