// JSON parser (strict RFC-8259 plus two conveniences used by our
// configuration files: `//` line comments and trailing commas).
#pragma once

#include <string_view>

#include "common/error.hpp"
#include "json/value.hpp"

namespace vp::json {

/// Deepest array/object nesting Parse accepts. The parser recurses once
/// per level (~0.3 KiB optimized, ~1.2 KiB in a Debug + ASan build) and
/// also reads JSON.parse arguments on 256 KiB handler fibers, so hostile
/// input fails with a parse error instead of exhausting the stack.
inline constexpr int kMaxParseDepth = 128;

/// Parse a complete JSON document. Errors carry line/column context.
Result<Value> Parse(std::string_view text);

/// Parse's verdict and error for `text`, from the same parser writing
/// nowhere: for a caller that only needs to know the text is JSON.
Status Validate(std::string_view text);

}  // namespace vp::json
