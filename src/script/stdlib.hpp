// vpscript standard library.
//
// The stdlib is native: InstallStdlib defines its globals (host
// functions and namespace objects) straight into a Vm, ahead of the
// module's own globals. String and array methods are native to the VM
// (vm.cpp).
#pragma once

#include <functional>
#include <string>

#include "common/rng.hpp"
#include "script/vm.hpp"

namespace vp::script {

/// Where console.log lines go.
using PrintFn = std::function<void(const std::string&)>;

/// console.log: the arguments' display strings, space-separated, as one
/// line to `print`.
HostFunction LogFunction(PrintFn print);

/// Define the standard library globals (console, Math, JSON, Object,
/// Array, String/Number helpers) in `vm` as baseline globals.
/// Math.random draws from `rng`; console.log hands each line to `print`
/// (skipped while it is empty). Both must outlive `vm`.
void InstallStdlib(Vm& vm, Rng& rng, const PrintFn& print);

}  // namespace vp::script
