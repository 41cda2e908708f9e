// Request generators for the service workload: a fixed-rate open loop
// (requests follow a schedule whether or not earlier ones finished) and
// a closed loop (each connection sends its next request when the last
// one returns).

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// Request i is due at start_ns + i / rate_per_s; `count` requests in all.
struct OpenLoopSchedule {
  double rate_per_s = 0;
  uint64_t start_ns = 0;
  uint64_t count = 0;

  uint64_t DueNs(uint64_t i) const;
};

// The schedule of `seconds` at `rate_per_s` starting at `start_ns`:
// floor(rate * seconds) requests, at least one.
OpenLoopSchedule MakeSchedule(double rate_per_s, double seconds,
                              uint64_t start_ns);

struct RequestSample {
  uint64_t index = 0;
  double latency_ms = 0;  // completion minus due time
  double late_ms = 0;     // send time minus due time (generator lateness)
  bool ok = false;
};

// Sends every request of `schedule` from `connections` threads. Each
// thread claims the next index, sleeps until it is due and calls
// send(index), which returns false for a failed, refused or timed-out
// request. A request never leaves before its due time; when every
// connection is busy it leaves late, and its latency still counts from
// the due time, so a stall is charged to the requests queued behind it.
// Samples come back ordered by index.
std::vector<RequestSample> RunOpenLoop(
    const OpenLoopSchedule& schedule, int connections,
    const std::function<bool(uint64_t index)>& send);

struct ClosedLoopSample {
  uint64_t index = 0;
  uint64_t end_ns = 0;  // completion time
  bool ok = false;
};

// `connections` threads send back to back until `deadline_ns`; request
// indices are handed out in order. Samples come back ordered by index.
std::vector<ClosedLoopSample> RunClosedLoop(
    uint64_t deadline_ns, int connections,
    const std::function<bool(uint64_t index)>& send);

// Every time above is in xmlproj::MonotonicNowNs() nanoseconds.
using xmlproj::MonotonicNowNs;

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
