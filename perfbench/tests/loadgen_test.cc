// Tests of the open- and closed-loop request generators.

#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

void SleepMs(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

TEST(OpenLoopScheduleTest, DueTimesAreEvenlySpacedFromStart) {
  OpenLoopSchedule schedule = MakeSchedule(400, 2.0, 1'000'000);
  EXPECT_EQ(schedule.count, 800u);
  EXPECT_EQ(schedule.DueNs(0), 1'000'000u);
  EXPECT_EQ(schedule.DueNs(1), 1'000'000u + 2'500'000u);
  EXPECT_EQ(schedule.DueNs(400), 1'000'000u + 1'000'000'000u);
}

TEST(OpenLoopScheduleTest, FractionalRateRoundsToNearestNanosecond) {
  OpenLoopSchedule schedule = MakeSchedule(3, 1.0, 0);
  EXPECT_EQ(schedule.count, 3u);
  EXPECT_EQ(schedule.DueNs(1), 333'333'333u);
  EXPECT_EQ(schedule.DueNs(2), 666'666'667u);
}

TEST(OpenLoopScheduleTest, AlwaysSchedulesAtLeastOneRequest) {
  EXPECT_EQ(MakeSchedule(1, 0.1, 0).count, 1u);
}

TEST(OpenLoopTest, SendsEveryIndexOnceAndNeverEarly) {
  OpenLoopSchedule schedule =
      MakeSchedule(500, 0.1, MonotonicNowNs() + 5'000'000);
  std::atomic<int> sends{0};
  std::atomic<bool> early{false};
  std::vector<RequestSample> samples =
      RunOpenLoop(schedule, 3, [&](uint64_t i) {
        if (MonotonicNowNs() < schedule.DueNs(i)) early = true;
        ++sends;
        return i % 7 != 3;  // some requests fail
      });
  ASSERT_EQ(samples.size(), schedule.count);
  EXPECT_EQ(sends.load(), static_cast<int>(schedule.count));
  EXPECT_FALSE(early.load());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, i);
    EXPECT_EQ(samples[i].ok, i % 7 != 3);
    EXPECT_GE(samples[i].late_ms, 0);
    EXPECT_GE(samples[i].latency_ms, samples[i].late_ms);
  }
}

// With one connection and a server slower than the schedule, requests
// queue behind each other: lateness grows, and latency counted from the
// due time includes the wait, not just the service time.
TEST(OpenLoopTest, StallIsChargedToRequestsQueuedBehindIt) {
  OpenLoopSchedule schedule =
      MakeSchedule(1000, 0.02, MonotonicNowNs() + 2'000'000);
  std::vector<RequestSample> samples =
      RunOpenLoop(schedule, 1, [](uint64_t) {
        SleepMs(5);  // five times the 1 ms interval
        return true;
      });
  ASSERT_EQ(samples.size(), 20u);
  EXPECT_LT(samples.front().late_ms, 2.0);
  // Request 19 is due 19 ms in but can only start after 19 services of
  // at least 5 ms: at least 76 ms late.
  EXPECT_GE(samples.back().late_ms, 76.0);
  EXPECT_GE(samples.back().latency_ms, samples.back().late_ms + 5.0);
}

TEST(OpenLoopTest, KeepsUpWhenConnectionsSuffice) {
  OpenLoopSchedule schedule =
      MakeSchedule(200, 0.2, MonotonicNowNs() + 2'000'000);
  std::vector<RequestSample> samples =
      RunOpenLoop(schedule, 4, [](uint64_t) {
        SleepMs(1);
        return true;
      });
  ASSERT_EQ(samples.size(), 40u);
  for (const RequestSample& s : samples) EXPECT_LT(s.late_ms, 20.0);
}

TEST(ClosedLoopTest, StopsAtDeadlineWithDistinctIndices) {
  uint64_t deadline = MonotonicNowNs() + 30'000'000;
  std::vector<ClosedLoopSample> samples =
      RunClosedLoop(deadline, 2, [](uint64_t) {
        SleepMs(2);
        return true;
      });
  ASSERT_FALSE(samples.empty());
  std::set<uint64_t> seen;
  for (const ClosedLoopSample& s : samples) {
    EXPECT_TRUE(seen.insert(s.index).second);
    // Nothing starts after the deadline, so nothing ends much past it.
    EXPECT_LT(s.end_ns, deadline + 20'000'000);
  }
  // Two connections of 2 ms requests over 30 ms: about 30 requests.
  EXPECT_GE(samples.size(), 10u);
  EXPECT_LE(samples.size(), 32u);
}

}  // namespace
}  // namespace perfbench
