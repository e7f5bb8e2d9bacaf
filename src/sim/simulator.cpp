#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/parallel.hpp"

namespace vp::sim {

namespace detail {
thread_local const Simulator* tl_running_shard = nullptr;
}  // namespace detail

Simulator::~Simulator() {
  for (Event* ev : heap_) delete ev;
  for (Event* ev : free_nodes_) delete ev;
}

Simulator::Event* Simulator::AcquireNode(TimePoint when, Task task) {
  Event* ev;
  if (!free_nodes_.empty()) {
    ev = free_nodes_.back();
    free_nodes_.pop_back();
    ++alloc_stats_.pool_reuses;
  } else {
    ev = new Event();
    ++alloc_stats_.node_allocs;
  }
  ev->when = when;
  ev->seq = next_seq_++;
  ev->id = next_id_++;
  ev->task = std::move(task);
  return ev;
}

void Simulator::ReleaseNode(Event* ev) {
  ev->task = nullptr;  // drop captures now, not at next pool reuse
  free_nodes_.push_back(ev);
}

void Simulator::PushNode(Event* ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), EventPtrLess{});
}

Simulator::Event* Simulator::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), EventPtrLess{});
  Event* ev = heap_.back();
  heap_.pop_back();
  return ev;
}

uint64_t Simulator::At(TimePoint when, Task task) {
  assert(InOwningContext() &&
         "event scheduled on a shard from a foreign thread");
  if (when < now_) when = now_;
  Event* ev = AcquireNode(when, std::move(task));
  const uint64_t id = ev->id;
  by_id_[id] = ev;
  ++live_events_;
  PushNode(ev);
  return id;
}

bool Simulator::Cancel(uint64_t id) {
  assert(InOwningContext());
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  // Tombstone in place: the heap node stays put (O(1) cancel) but the
  // by_id_ entry goes away eagerly so the map only tracks live events.
  it->second->task = nullptr;
  by_id_.erase(it);
  --live_events_;
  ++tombstones_;
  // Long soaks with heavy Cancel traffic (timeouts, watchdogs that
  // almost never fire) would otherwise accumulate tombstones far past
  // the live population. Rebuild once they dominate.
  if (tombstones_ > live_events_ + 64) CompactTombstones();
  return true;
}

void Simulator::CompactTombstones() {
  size_t kept = 0;
  for (Event* ev : heap_) {
    if (ev->task) {
      heap_[kept++] = ev;
    } else {
      ReleaseNode(ev);
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), EventPtrLess{});
  tombstones_ = 0;
  ++alloc_stats_.heap_compactions;
}

bool Simulator::NextEventTime(TimePoint* when) {
  while (!heap_.empty() && !heap_.front()->task) {
    --tombstones_;
    ReleaseNode(PopTop());
  }
  if (heap_.empty()) return false;
  *when = heap_.front()->when;
  return true;
}

void Simulator::PopAndRun() {
  Event* ev = PopTop();
  now_ = ev->when;
  by_id_.erase(ev->id);
  --live_events_;
  ++executed_;
  Task task = std::move(ev->task);
  ReleaseNode(ev);
  task();
  // Every Orchestrator registers a hook (it resumes blocked handler
  // fibers); only a bare engine with no orchestrator on it skips the
  // loop outright.
  if (!post_event_hooks_.empty()) {
    for (size_t i = 0; i < post_event_hooks_.size(); ++i) {
      post_event_hooks_[i].second();
    }
  }
}

void Simulator::RunUntil(TimePoint until) {
  assert(InOwningContext());
  TimePoint next;
  while (NextEventTime(&next) && next <= until) PopAndRun();
  if (now_ < until) now_ = until;
}

void Simulator::RunUntilIdle() {
  assert(InOwningContext());
  TimePoint next;
  while (NextEventTime(&next)) PopAndRun();
}

uint64_t Simulator::AddPostEventHook(Task hook) {
  assert(InOwningContext());
  const uint64_t id = next_hook_id_++;
  post_event_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Simulator::RemovePostEventHook(uint64_t id) {
  for (auto it = post_event_hooks_.begin(); it != post_event_hooks_.end();
       ++it) {
    if (it->first == id) {
      post_event_hooks_.erase(it);
      return;
    }
  }
}

bool Simulator::InOwningContext() const {
  if (engine_ == nullptr) return true;
  if (!engine_->in_epoch()) return true;  // quiesced: barriers, deploys
  return detail::tl_running_shard == this;
}

}  // namespace vp::sim
