//===- support/FailPoint.cpp - Fault-injection points -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"

#include <system_error>

using namespace rasc;
using namespace rasc::failpoints;

namespace rasc {
namespace failpoints {
namespace detail {

std::atomic<unsigned> ArmedCount{0};
// Remaining hits before the trip; negative = disarmed. The value -1 is
// the resting state, and a tripped point returns to it.
std::atomic<int64_t> Remaining[static_cast<unsigned>(Point::NumPoints)] = {};

namespace {
struct Init {
  Init() {
    for (auto &R : Remaining)
      R.store(-1, std::memory_order_relaxed);
  }
} InitOnce;
} // namespace

} // namespace detail

void arm(Point P, uint64_t AfterHits) {
  auto &R = detail::Remaining[static_cast<unsigned>(P)];
  if (R.exchange(static_cast<int64_t>(AfterHits),
                 std::memory_order_relaxed) < 0)
    detail::ArmedCount.fetch_add(1, std::memory_order_relaxed);
}

void disarm(Point P) {
  auto &R = detail::Remaining[static_cast<unsigned>(P)];
  if (R.exchange(-1, std::memory_order_relaxed) >= 0)
    detail::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
}

void disarmAll() {
  for (unsigned I = 0; I != static_cast<unsigned>(Point::NumPoints); ++I)
    disarm(static_cast<Point>(I));
}

bool hit(Point P) {
  auto &R = detail::Remaining[static_cast<unsigned>(P)];
  int64_t Cur = R.load(std::memory_order_relaxed);
  if (Cur < 0)
    return false;
  if (Cur == 0) {
    // Trip: return to the resting state so a trip fires exactly once.
    R.store(-1, std::memory_order_relaxed);
    detail::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  R.store(Cur - 1, std::memory_order_relaxed);
  return false;
}

void throwIfSpawnRefused() {
  if (armedAny() && hit(Point::ThreadSpawn))
    throw std::system_error(
        std::make_error_code(std::errc::resource_unavailable_try_again),
        "injected thread spawn failure");
}

} // namespace failpoints
} // namespace rasc
