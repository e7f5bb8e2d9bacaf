// Tracing-GC and leak regression tests.
//
// The point of the bytecode VM is that module heap usage is bounded by
// liveness, not by allocation history: closure cycles that reference
// counting could never reclaim are collected, and a long soak settles
// into a flat heap profile.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "json/write.hpp"
#include "script/context.hpp"

namespace vp::script {
namespace {

/// A handler that churns closures, arrays and objects every event —
/// each call creates garbage (including cyclic structures) that only a
/// tracing collector can reclaim.
const char* kChurnModule = R"(
  var kept = [];
  var events = 0;
  function event_received(e) {
    events += 1;
    var local = { id: events, buf: [] };
    for (var i = 0; i < 8; i++) local.buf.push("item-" + i);
    // A closure cycle: the object holds a closure that captures the
    // object. Reference counting leaks this; the tracing GC must not.
    local.self = function () { return local.id; };
    var squares = local.buf.map(function (s) { return s + "!"; });
    // Keep a tiny rotating window live so liveness is not trivially zero.
    kept.push(local.self);
    if (kept.length > 4) kept.shift();
    return squares.length;
  }
)";

int SoakEvents() {
  // Full-length soak (1M events) by default; VP_SOAK_EVENTS trims it
  // for slow instrumented runs if ever needed.
  if (const char* env = std::getenv("VP_SOAK_EVENTS")) {
    return std::atoi(env);
  }
  return 1'000'000;
}

TEST(VmGc, AllocationPressureSoakStaysFlat) {
  Context context;
  ASSERT_TRUE(context.Load(kChurnModule).ok());
  Vm* vm = context.vm();
  ASSERT_NE(vm, nullptr);

  const int events = SoakEvents();
  const json::Value e = json::Value::MakeObject();
  size_t peak_live = 0;
  for (int i = 0; i < events; ++i) {
    auto r = context.Call("event_received", {e});
    ASSERT_TRUE(r.ok()) << r.error().ToString();
    if (i % 10'000 == 0) peak_live = std::max(peak_live, vm->live_objects());
  }
  EXPECT_GT(vm->gc_cycles(), 0u) << "soak never triggered a collection";

  // Collect and compare against a single event's live footprint: after
  // a million events the heap must hold the rotating window and the
  // module globals, not a million dead closures.
  vm->CollectGarbage();
  const size_t settled = vm->live_objects();
  EXPECT_LT(settled, 2'000u) << "heap grew with allocation history";
  // The observed peak is bounded by the GC trigger threshold, not by
  // the event count.
  EXPECT_LT(peak_live, 200'000u);

  // The module still works after heavy collection.
  auto r = context.Call("event_received", {e});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(context.GetGlobal("events").AsDouble(),
                   static_cast<double>(events + 1));
}

TEST(VmGc, CollectionIsDrivenByAllocationPressureOnly) {
  // Two identical runs must collect at identical points: gc_cycles is
  // a pure function of the event sequence.
  std::vector<uint64_t> cycles;
  std::vector<size_t> live;
  for (int run = 0; run < 2; ++run) {
    Context context;
    ASSERT_TRUE(context.Load(kChurnModule).ok());
    const json::Value e = json::Value::MakeObject();
    for (int i = 0; i < 20'000; ++i) {
      ASSERT_TRUE(context.Call("event_received", {e}).ok());
    }
    cycles.push_back(context.vm()->gc_cycles());
    live.push_back(context.vm()->live_objects());
  }
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_EQ(live[0], live[1]);
  EXPECT_GT(cycles[0], 0u);
}

TEST(VmGc, CheckpointSurvivesCollection) {
  // checkpoint -> GC -> checkpoint must be byte-identical (collection
  // must never move or drop reachable state), and a restore after a
  // forced GC must resume exactly.
  Context source;
  ASSERT_TRUE(source.Load(kChurnModule).ok());
  const json::Value e = json::Value::MakeObject();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(source.Call("event_received", {e}).ok());
  }
  const std::string before = json::Write(source.SnapshotState());
  source.vm()->CollectGarbage();
  source.vm()->CollectGarbage();
  const std::string after = json::Write(source.SnapshotState());
  EXPECT_EQ(before, after);

  Context target;
  ASSERT_TRUE(target.Load(kChurnModule).ok());
  ASSERT_TRUE(target.RestoreState(source.SnapshotState()).ok());
  target.vm()->CollectGarbage();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(target.Call("event_received", {e}).ok());
  }
  EXPECT_DOUBLE_EQ(target.GetGlobal("events").AsDouble(), 600.0);
}

}  // namespace
}  // namespace vp::script
