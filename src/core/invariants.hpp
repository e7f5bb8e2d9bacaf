// Runtime invariant checking for chaos soaks.
//
// The InvariantChecker rides along a running deployment on a fast
// cadence and asserts the properties the partition-tolerance machinery
// is supposed to preserve *while* faults are being injected:
//
//   1. Credit conservation (§2.3): a running, paced camera holds
//      exactly one admission slot — credits() + has_outstanding() == 1
//      at every event boundary. Duplicated or partitioned credit
//      messages must never mint a second slot.
//   2. Effectively-once accounting: no frame completes twice
//      (duplicate deliveries are deduped at the fabric, so
//      duplicate_completions() stays 0).
//   3. Split-brain exclusion: at most one live (bound, unfenced,
//      host-up) runtime per (module, placement epoch). Old and new
//      incarnations may coexist across a partition — but only at
//      *different* epochs, and fencing retires the old one at heal.
//   4. With epoch fencing enabled, no zombie ever serves a frame
//      (zombies_served() stays 0).
//   5. A hibernated pipeline holds no live runtime: a wake either
//      starts every module or none (modules() stays empty).
//   6. One lineage in the checkpoint store: every checkpoint a
//      pipeline holds is at its module's current epoch, so no restore
//      can roll state back across a recovery.
//
// CheckConvergence() adds the end-of-run (post-heal, quiet-tail)
// conditions: the failure detector's verdict agrees with ground-truth
// device liveness, and every module of every unpaused pipeline has
// exactly one live runtime at its current epoch.
//
// Violations are recorded (first occurrence of each distinct message,
// with a total count) rather than thrown, so a soak reports every
// broken property of a seed at once.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/failure_detector.hpp"
#include "core/orchestrator.hpp"

namespace vp::core {

struct InvariantViolation {
  TimePoint when;  // first time this violation was observed
  std::string what;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(Orchestrator* orchestrator,
                            Duration interval = Duration::Millis(100));

  /// Compare detector verdicts against ground truth in
  /// CheckConvergence(). The detector must outlive the checker.
  void set_detector(const FailureDetector* detector) {
    detector_ = detector;
  }

  /// Start the periodic sweep (runs CheckNow every interval).
  void Start();
  void Stop() { running_ = false; }

  /// Run the steady-state invariant sweep once, recording violations.
  void CheckNow();

  /// End-of-run convergence check (call after faults have healed and
  /// the quiet tail has elapsed). Records violations and returns an
  /// error describing the first mismatch, or OK.
  Status CheckConvergence();

  uint64_t checks_run() const { return checks_run_; }
  uint64_t total_violations() const { return total_violations_; }
  /// First occurrence of each distinct violation message.
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  /// Multi-line dump of every distinct violation (for test failures).
  std::string Report() const;

 private:
  void Record(const std::string& what);
  void Tick();

  Orchestrator* orchestrator_;
  Duration interval_;
  const FailureDetector* detector_ = nullptr;
  bool running_ = false;
  uint64_t checks_run_ = 0;
  uint64_t total_violations_ = 0;
  std::map<std::string, uint64_t> violation_counts_;
  std::vector<InvariantViolation> violations_;
};

}  // namespace vp::core
