//===- support/Deadline.h - Wall-clock deadline helper --------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small wall-clock deadline shared by the sequential and parallel
/// fixpoint solvers. Both solvers check expiry once per *matched row*
/// inside every scan and probe loop — driver iteration, index-bucket
/// walks and full scans — so even a single driver row with a huge join
/// fan-out stops within one row's worth of work of the limit (previously
/// checks ran only once per driver row, which let one hot row's fan-out
/// overshoot badly). The parallel merge phases check on a
/// 1024-derivation stride, bounding the post-eval overshoot too.
/// steady_clock::now() is a vDSO call on the platforms we target, so a
/// per-row check is affordable.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SUPPORT_DEADLINE_H
#define FLIX_SUPPORT_DEADLINE_H

#include <chrono>
#include <limits>

namespace flix {

/// An optional point in time after which work should stop. A default
/// constructed Deadline is inactive and never expires.
class Deadline {
public:
  Deadline() = default;

  /// A deadline \p Seconds from now; non-positive means "no deadline".
  static Deadline after(double Seconds) {
    Deadline D;
    if (Seconds > 0) {
      D.Active = true;
      D.TP = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<
                 std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(Seconds));
    }
    return D;
  }

  bool active() const { return Active; }

  /// True iff the deadline is active and has passed.
  bool expired() const {
    return Active && std::chrono::steady_clock::now() >= TP;
  }

  /// Seconds until expiry: 0 if active and already passed, a positive
  /// count if pending, and +infinity when inactive. Lets callers convert
  /// a request deadline into a budget for APIs that take
  /// TimeLimitSeconds-style durations (the server hands the remainder of
  /// a per-request deadline to the solver this way).
  double remainingSeconds() const {
    if (!Active)
      return std::numeric_limits<double>::infinity();
    double R = std::chrono::duration<double>(
                   TP - std::chrono::steady_clock::now())
                   .count();
    return R > 0 ? R : 0;
  }

private:
  bool Active = false;
  std::chrono::steady_clock::time_point TP;
};

} // namespace flix

#endif // FLIX_SUPPORT_DEADLINE_H
