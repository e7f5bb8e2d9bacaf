#include "script/program_cache.hpp"

#include "script/compiler.hpp"
#include "script/parser.hpp"
#include "script/resolver.hpp"

namespace vp::script {

uint64_t HashProgramSource(const std::string& source) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : source) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

const FunctionProto* CachedProgram::LinkInto(Vm& vm) const {
  // Replay the global-slot layout first: bytecode slot operands are
  // indices in first-reference order. Baseline imports the caller does
  // afterwards either fill these slots (same interned id) or append.
  for (const std::string& name : global_names_) vm.GlobalSlot(name);

  for (const PortableProto& p : protos_) {
    auto proto = std::make_unique<FunctionProto>();
    proto->name = p.name;
    proto->arity = p.arity;
    proto->max_stack = p.max_stack;
    proto->code = p.code;
    proto->lines = p.lines;
    proto->upvalues = p.upvalues;
    proto->constants.reserve(p.constants.size());
    for (const PortableConst& c : p.constants) {
      if (c.is_string) {
        // Safe mid-link: collection only runs at instruction
        // boundaries, and adopted protos root their constants.
        GcString* gs = vm.NewString(c.text);
        gs->name_id = c.name_id;
        proto->constants.push_back(VpValue::Heap(gs));
      } else {
        proto->constants.push_back(VpValue(c.raw));
      }
    }
    vm.AdoptProto(std::move(proto));
  }
  return vm.proto_at(top_index_);
}

ProgramCache& ProgramCache::Global() {
  static ProgramCache* cache = new ProgramCache();
  return *cache;
}

Result<std::shared_ptr<const CachedProgram>> ProgramCache::Acquire(
    const std::string& source, const ScriptLimits& limits) {
  const uint64_t hash = HashProgramSource(source);
  std::lock_guard<std::mutex> lock(mu_);

  for (const auto& entry : entries_) {
    if (entry->hash_ == hash && entry->source_ == source) {
      ++stats_.hits;
      return entry;
    }
  }
  ++stats_.misses;

  auto program = ParseProgram(source);
  if (!program.ok()) return program.error();
  ResolveProgram(**program);

  // Scratch compile with NO baseline globals: the slot table then
  // records exactly the names the program references, in compile
  // order, which is what LinkInto replays.
  auto scratch = std::make_unique<Vm>(limits);
  auto top = CompileProgram(**program, *scratch);
  if (!top.ok()) return top.error();

  auto entry = std::make_shared<CachedProgram>();
  entry->hash_ = hash;
  entry->source_ = source;
  for (size_t i = 0; i < scratch->proto_count(); ++i) {
    const FunctionProto* proto =
        scratch->proto_at(static_cast<uint16_t>(i));
    if (proto == *top) entry->top_index_ = static_cast<uint16_t>(i);
    CachedProgram::PortableProto p;
    p.name = proto->name;
    p.arity = proto->arity;
    p.max_stack = proto->max_stack;
    p.code = proto->code;
    p.lines = proto->lines;
    p.upvalues = proto->upvalues;
    entry->code_bytes_ += proto->code.size() + proto->lines.size() * 4;
    for (VpValue c : proto->constants) {
      CachedProgram::PortableConst pc;
      if (c.is_heap()) {
        if (c.AsHeap()->type != GcType::kString) {
          // A non-string heap constant would need its own portable
          // form; the compiler emits none.
          return Error(StatusCode::kInternal,
                       "script compile: non-string heap constant");
        }
        const auto* gs = static_cast<const GcString*>(c.AsHeap());
        pc.is_string = true;
        pc.text = gs->text;
        pc.name_id = gs->name_id;
        entry->code_bytes_ += gs->text.size();
      } else {
        pc.raw = c.bits;
      }
      p.constants.push_back(std::move(pc));
    }
    entry->protos_.push_back(std::move(p));
  }
  for (size_t i = 0; i < scratch->global_count(); ++i) {
    entry->global_names_.push_back(
        scratch->global_name_at(static_cast<uint16_t>(i)));
  }

  if (entries_.size() >= capacity_ && capacity_ > 0) {
    entries_.erase(entries_.begin());
    ++stats_.evictions;
  }
  entries_.push_back(entry);
  stats_.entries = entries_.size();
  return std::static_pointer_cast<const CachedProgram>(entry);
}

void ProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.evictions += entries_.size();
  entries_.clear();
  stats_.entries = 0;
}

ProgramCacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ProgramCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
}

}  // namespace vp::script
