#include "core/config.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "json/parse.hpp"

namespace vp::core {

const ModuleSpec* PipelineSpec::FindModule(const std::string& name) const {
  for (const ModuleSpec& m : modules) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

Result<std::vector<std::string>> StringList(const json::Value& v,
                                            const std::string& key) {
  std::vector<std::string> out;
  const json::Value* list = v.Find(key);
  if (list == nullptr) return out;
  if (list->is_string()) {  // tolerate scalar shorthand
    out.push_back(list->AsString());
    return out;
  }
  if (!list->is_array()) {
    return ParseError("'" + key + "' must be a string or array");
  }
  for (const json::Value& item : list->AsArray()) {
    if (!item.is_string()) {
      return ParseError("'" + key + "' entries must be strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

// The frame codec carries width and height as u16.
constexpr int kMaxSourceDimension = 65535;

bool ValidSourceDimension(int pixels) {
  return pixels > 0 && pixels <= kMaxSourceDimension;
}

// Clamped before the cast so that a value no int can hold stays out of
// range instead of wrapping into it.
int SourceDimension(const json::Value& source, const std::string& key,
                    int fallback) {
  return static_cast<int>(std::clamp(source.GetDouble(key, fallback), -1.0,
                                     kMaxSourceDimension + 1.0));
}

}  // namespace

Status ValidatePipelineSpec(const PipelineSpec& spec) {
  if (spec.name.empty()) {
    return Status(StatusCode::kInvalidArgument, "pipeline needs a name");
  }
  if (spec.modules.empty()) {
    return Status(StatusCode::kInvalidArgument, "pipeline has no modules");
  }
  if (spec.source.fps <= 0) {
    return Status(StatusCode::kInvalidArgument, "source fps must be positive");
  }
  if (!ValidSourceDimension(spec.source.width) ||
      !ValidSourceDimension(spec.source.height)) {
    return Status(StatusCode::kInvalidArgument,
                  "source width and height must be in 1.." +
                      std::to_string(kMaxSourceDimension));
  }
  if (!spec.priority.empty() && spec.priority != "interactive" &&
      spec.priority != "normal" && spec.priority != "background") {
    return Status(StatusCode::kInvalidArgument,
                  "unknown priority class '" + spec.priority +
                      "' (use interactive, normal or background)");
  }
  if (spec.deadline_ms < 0) {
    return Status(StatusCode::kInvalidArgument,
                  "deadline_ms must be >= 0");
  }

  std::map<std::string, const ModuleSpec*> by_name;
  std::set<uint16_t> ports;
  int sources = 0;
  for (const ModuleSpec& m : spec.modules) {
    if (m.name.empty()) {
      return Status(StatusCode::kInvalidArgument, "module without a name");
    }
    if (!by_name.emplace(m.name, &m).second) {
      return Status(StatusCode::kInvalidArgument,
                    "duplicate module name '" + m.name + "'");
    }
    if (m.endpoint.port != 0 && !ports.insert(m.endpoint.port).second) {
      return Status(StatusCode::kInvalidArgument,
                    "duplicate endpoint port in module '" + m.name + "'");
    }
    if (m.type == ModuleType::kSource) {
      ++sources;
    } else if (m.code.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "module '" + m.name + "' has no code");
    }
  }
  if (sources != 1) {
    return Status(StatusCode::kInvalidArgument,
                  "pipeline must have exactly one source module");
  }
  if (spec.FindModule(spec.source.module) == nullptr ||
      spec.FindModule(spec.source.module)->type != ModuleType::kSource) {
    return Status(StatusCode::kInvalidArgument,
                  "source.module must name the source module");
  }

  // Edge targets exist.
  for (const ModuleSpec& m : spec.modules) {
    for (const std::string& next : m.next_modules) {
      if (by_name.count(next) == 0) {
        return Status(StatusCode::kInvalidArgument,
                      "module '" + m.name + "' links to unknown module '" +
                          next + "'");
      }
      if (next == m.name) {
        return Status(StatusCode::kInvalidArgument,
                      "module '" + m.name + "' links to itself");
      }
    }
  }

  // Acyclicity (DFS three-color) + sink reachability from the source.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  bool sink_reachable = false;
  std::function<Status(const std::string&)> dfs =
      [&](const std::string& name) -> Status {
    color[name] = 1;
    const ModuleSpec* m = by_name.at(name);
    if (m->signal_source) sink_reachable = true;
    for (const std::string& next : m->next_modules) {
      const int c = color[next];
      if (c == 1) {
        return Status(StatusCode::kInvalidArgument,
                      "cycle through module '" + next + "'");
      }
      if (c == 0) VP_RETURN_IF_ERROR(dfs(next));
    }
    color[name] = 2;
    return Status::Ok();
  };
  VP_RETURN_IF_ERROR(dfs(spec.source.module));
  const bool sink_reachable_from_source = sink_reachable;
  // Also reject cycles in parts not reachable from the source.
  for (const ModuleSpec& m : spec.modules) {
    if (color[m.name] == 0) VP_RETURN_IF_ERROR(dfs(m.name));
  }
  if (!sink_reachable_from_source) {
    return Status(StatusCode::kInvalidArgument,
                  "no signal_source sink reachable from the source module");
  }
  return Status::Ok();
}

Result<PipelineSpec> ParsePipelineConfig(const json::Value& doc,
                                         const ScriptResolver& resolver) {
  if (!doc.is_object()) return ParseError("pipeline config must be an object");
  PipelineSpec spec;
  spec.name = doc.GetString("name");
  spec.priority = doc.GetString("priority", "normal");
  spec.deadline_ms = doc.GetDouble("deadline_ms", 0.0);
  if (const json::Value* rollout = doc.Find("rollout"); rollout != nullptr) {
    if (!rollout->is_object()) {
      return ParseError("'rollout' must be an object");
    }
    auto policy = modelreg::RolloutPolicy::FromJson(*rollout);
    if (!policy.ok()) return policy.error();
    spec.rollout = *policy;
  }

  if (const json::Value* source = doc.Find("source");
      source != nullptr && source->is_object()) {
    spec.source.module = source->GetString("module");
    spec.source.fps = source->GetDouble("fps", 20.0);
    spec.source.width = SourceDimension(*source, "width", 320);
    spec.source.height = SourceDimension(*source, "height", 240);
  }

  const json::Value* modules = doc.Find("modules");
  if (modules == nullptr || !modules->is_array()) {
    return ParseError("pipeline config needs a 'modules' array");
  }
  for (const json::Value& m : modules->AsArray()) {
    if (!m.is_object()) return ParseError("module entries must be objects");
    ModuleSpec module;
    module.name = m.GetString("name");
    const std::string type = m.GetString("type", "script");
    if (type == "source") {
      module.type = ModuleType::kSource;
    } else if (type == "script") {
      module.type = ModuleType::kScript;
    } else {
      return ParseError("module '" + module.name + "': unknown type '" +
                        type + "'");
    }

    module.include = m.GetString("include");
    module.code = m.GetString("code");
    if (module.code.empty() && !module.include.empty()) {
      auto code = resolver(module.include);
      if (!code.ok()) return code.error();
      module.code = std::move(*code);
    }

    auto services = StringList(m, "service");
    if (!services.ok()) return services.error();
    module.services = std::move(*services);

    const std::string endpoint_text = m.GetString("endpoint");
    if (!endpoint_text.empty()) {
      auto endpoint = net::ParseEndpoint(endpoint_text);
      if (!endpoint.ok()) return endpoint.error();
      module.endpoint = *endpoint;
    }

    auto next = StringList(m, "next_module");
    if (!next.ok()) return next.error();
    module.next_modules = std::move(*next);

    module.device = m.GetString("device");
    module.signal_source = m.GetBool("signal_source");
    spec.modules.push_back(std::move(module));
  }

  // Default source.module: the unique source-typed module.
  if (spec.source.module.empty()) {
    for (const ModuleSpec& m : spec.modules) {
      if (m.type == ModuleType::kSource) spec.source.module = m.name;
    }
  }

  Status valid = ValidatePipelineSpec(spec);
  if (!valid.ok()) return valid.error();
  return spec;
}

Result<PipelineSpec> ParsePipelineConfigText(const std::string& text,
                                             const ScriptResolver& resolver) {
  auto doc = json::Parse(text);
  if (!doc.ok()) return doc.error();
  return ParsePipelineConfig(*doc, resolver);
}

ScriptResolver MapResolver(
    std::vector<std::pair<std::string, std::string>> sources) {
  auto map = std::make_shared<
      std::map<std::string, std::string>>();
  for (auto& [name, code] : sources) (*map)[name] = std::move(code);
  return [map](const std::string& include) -> Result<std::string> {
    auto it = map->find(include);
    if (it == map->end()) {
      return NotFound("no module source registered for include '" + include +
                      "'");
    }
    return it->second;
  };
}

}  // namespace vp::core
