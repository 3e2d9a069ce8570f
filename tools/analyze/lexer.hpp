// Tokenizer for the FlexRIC static analyzer (tools/analyze).
//
// A real lexer, not line regexes: comments (line/block), string literals
// (including raw strings), character literals and preprocessor directives are
// consumed as units, so a `post(` inside a string or a brace inside a comment
// can never confuse the rules. Comment text is kept in a per-line side table
// because two rule mechanisms live in comments: `lint: allow(<rule>) reason`
// suppressions and `@affine(reactor)` class annotations. Directive text gets a
// side table of its own, so the include rules can read `#include` lines
// without directives ever reaching the token stream.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace flexric::analyze {

enum class Tok {
  identifier,  // keywords included; rules match on text
  number,
  string_lit,
  char_lit,
  punct,  // operators/punctuation, longest-match for the multi-char set
  eof,
};

struct Token {
  Tok kind = Tok::eof;
  std::string text;
  int line = 0;
};

struct LexedFile {
  std::vector<Token> tokens;
  /// line -> concatenated comment text on that line (block comments that
  /// span lines contribute to every line they touch).
  std::map<int, std::string> comments;
  /// line of the `#` -> directive text (splices joined, trailing comment
  /// excluded: it lands in `comments` like any other comment).
  std::map<int, std::string> directives;
};

/// Tokenize one translation unit. Never fails: unrecognized bytes become
/// single-character punct tokens so the rules can keep brace balance.
LexedFile lex(std::string_view src);

}  // namespace flexric::analyze
