// vpscript lexer.
//
// vpscript is VideoPipe's module language: a small, strict subset of
// JavaScript compiled to bytecode and run by a VM (our stand-in for
// the paper's Duktape engine). The lexer produces a flat token stream
// with line/column positions for error reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace vp::script {

enum class TokenType {
  // Literals / identifiers
  kNumber,
  kString,
  kIdentifier,
  // Keywords
  kVar, kLet, kConst, kFunction, kReturn, kIf, kElse, kWhile, kFor,
  kBreak, kContinue, kTrue, kFalse, kNull, kUndefined, kTypeof, kIn,
  kTry, kCatch, kThrow, kSwitch, kCase, kDefault, kDo,
  // Punctuation
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kSemicolon, kColon, kDot, kQuestion,
  // Operators
  kAssign, kPlusAssign, kMinusAssign, kStarAssign, kSlashAssign,
  kPercentAssign,
  kPlus, kMinus, kStar, kSlash, kPercent,
  kEq, kNe, kStrictEq, kStrictNe, kLt, kLe, kGt, kGe,
  kAndAnd, kOrOr, kNot,
  kPlusPlus, kMinusMinus,
  kEof,
};

const char* TokenTypeName(TokenType t);

struct Token {
  TokenType type = TokenType::kEof;
  std::string text;   // identifier name / string value
  double number = 0;  // numeric value
  int line = 0;
  int column = 0;
};

/// Tokenize a complete source file. `//` and `/* */` comments are
/// skipped.
Result<std::vector<Token>> Tokenize(std::string_view source);

}  // namespace vp::script
