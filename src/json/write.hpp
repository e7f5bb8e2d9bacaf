// JSON serialization.
//
// The compact bytes are a wire-size contract: a Message's simulated
// wire time is charged from them, so one byte more or less moves
// virtual time. Integral numbers below 1e15 print as printf's "%lld",
// every other finite number as "%.17g" (C locale), which round-trips
// every double. NaN and ±inf have no JSON spelling and write `null`.
#pragma once

#include <cstddef>
#include <string>

#include "json/value.hpp"

namespace vp::json {

/// Serialize `v`. `indent < 0` → compact single line; otherwise pretty
/// print with the given indent width.
std::string Write(const Value& v, int indent = -1);

/// Write(v).size() — the compact text's length — computed by the same
/// walk without building the string.
size_t WrittenSize(const Value& v);

}  // namespace vp::json
