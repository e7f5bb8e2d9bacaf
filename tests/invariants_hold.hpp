// The teardown check every orchestrator-driven test ends with: one
// InvariantChecker sweep over the orchestrator at 0 violations — credit
// conservation, one live lineage per module, no duplicate completions,
// no zombie-served frames, no runtime in a hibernated pipeline, and
// every stored checkpoint at its module's current epoch.
#pragma once

#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "core/orchestrator.hpp"

namespace vp::test_support {

inline void ExpectInvariantsHold(core::Orchestrator& orchestrator) {
  core::InvariantChecker checker(&orchestrator);
  checker.CheckNow();
  EXPECT_EQ(checker.total_violations(), 0u) << checker.Report();
}

}  // namespace vp::test_support
