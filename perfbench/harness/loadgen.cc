#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

namespace perfbench {

uint64_t OpenLoopSchedule::DueNs(uint64_t i) const {
  return start_ns +
         static_cast<uint64_t>(std::llround(static_cast<double>(i) * 1e9 /
                                            rate_per_s));
}

OpenLoopSchedule MakeSchedule(double rate_per_s, double seconds,
                              uint64_t start_ns) {
  OpenLoopSchedule schedule;
  schedule.rate_per_s = rate_per_s;
  schedule.start_ns = start_ns;
  double n = std::floor(rate_per_s * seconds);
  schedule.count = n < 1 ? 1 : static_cast<uint64_t>(n);
  return schedule;
}

namespace {

void SleepUntilNs(uint64_t target_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(target_ns)));
}

// Runs `body` on `threads` threads and joins them all.
void RunThreads(int threads, const std::function<void()>& body) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(body);
  for (std::thread& thread : pool) thread.join();
}

template <typename Sample>
void SortByIndex(std::vector<Sample>* samples) {
  std::sort(samples->begin(), samples->end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
}

}  // namespace

std::vector<RequestSample> RunOpenLoop(
    const OpenLoopSchedule& schedule, int connections,
    const std::function<bool(uint64_t index)>& send) {
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  std::vector<RequestSample> samples;
  samples.reserve(schedule.count);
  RunThreads(std::max(connections, 1), [&] {
    std::vector<RequestSample> local;
    for (uint64_t i = next.fetch_add(1); i < schedule.count;
         i = next.fetch_add(1)) {
      uint64_t due = schedule.DueNs(i);
      SleepUntilNs(due);
      uint64_t sent = MonotonicNowNs();
      bool ok = send(i);
      uint64_t done = MonotonicNowNs();
      RequestSample sample;
      sample.index = i;
      sample.latency_ms = static_cast<double>(done - due) / 1e6;
      sample.late_ms = static_cast<double>(sent - due) / 1e6;
      sample.ok = ok;
      local.push_back(sample);
    }
    std::lock_guard<std::mutex> lock(mu);
    samples.insert(samples.end(), local.begin(), local.end());
  });
  SortByIndex(&samples);
  return samples;
}

std::vector<ClosedLoopSample> RunClosedLoop(
    uint64_t deadline_ns, int connections,
    const std::function<bool(uint64_t index)>& send) {
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  std::vector<ClosedLoopSample> samples;
  RunThreads(std::max(connections, 1), [&] {
    std::vector<ClosedLoopSample> local;
    while (MonotonicNowNs() < deadline_ns) {
      ClosedLoopSample sample;
      sample.index = next.fetch_add(1);
      sample.ok = send(sample.index);
      sample.end_ns = MonotonicNowNs();
      local.push_back(sample);
    }
    std::lock_guard<std::mutex> lock(mu);
    samples.insert(samples.end(), local.begin(), local.end());
  });
  SortByIndex(&samples);
  return samples;
}

}  // namespace perfbench
