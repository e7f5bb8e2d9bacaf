#include "lifecycle/context_pool.hpp"

#include "script/program_cache.hpp"

namespace vp::lifecycle {

ContextPool::ContextPool(ContextPoolOptions options)
    : options_(options) {}

Status ContextPool::Prewarm(const std::string& source, uint64_t random_seed) {
  script::ContextOptions context_options;
  context_options.random_seed = random_seed;
  auto context = std::make_unique<script::Context>(context_options);
  Status loaded = context->Load(source);
  if (!loaded.ok()) {
    ++stats_.load_failures;
    return loaded;
  }
  Entry entry;
  entry.code_hash = script::HashProgramSource(source);
  entry.seed = random_seed;
  entry.source = source;
  entry.context = std::move(context);
  entries_.push_back(std::move(entry));
  ++stats_.prewarmed;
  while (options_.capacity > 0 && entries_.size() > options_.capacity) {
    entries_.pop_front();
    ++stats_.evicted;
  }
  return Status::Ok();
}

std::unique_ptr<script::Context> ContextPool::Acquire(
    const std::string& source, uint64_t random_seed) {
  const uint64_t hash = script::HashProgramSource(source);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->code_hash == hash && it->seed == random_seed &&
        it->source == source) {
      std::unique_ptr<script::Context> context = std::move(it->context);
      entries_.erase(it);
      ++stats_.hits;
      return context;
    }
  }
  ++stats_.misses;
  return nullptr;
}

void ContextPool::Clear() {
  stats_.evicted += entries_.size();
  entries_.clear();
}

ContextPoolStats ContextPool::stats() const {
  ContextPoolStats out = stats_;
  out.entries = entries_.size();
  return out;
}

}  // namespace vp::lifecycle
