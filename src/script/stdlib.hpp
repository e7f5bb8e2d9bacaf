// vpscript standard library.
//
// The stdlib is plain data: an ordered list of named boxed values
// (host functions and namespace objects) that a Context imports into
// every Vm it links, ahead of the module's own globals.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "script/value.hpp"

namespace vp::script {

/// Named globals in definition order.
using GlobalList = std::vector<std::pair<std::string, Value>>;

/// Where console.log lines go.
using PrintFn = std::function<void(const std::string&)>;

/// The standard library globals (console, Math, JSON, Object, Array,
/// String/Number helpers). `seed` drives Math.random determinism;
/// console.log hands each line to `print`.
GlobalList MakeStdlib(uint64_t seed, PrintFn print);

/// Property `name` of string `s`: `length` or a string method bound to
/// `s`; undefined for anything else.
Value StringProperty(const std::string& s, const std::string& name);

}  // namespace vp::script
