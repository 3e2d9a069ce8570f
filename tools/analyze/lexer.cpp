#include "lexer.hpp"

#include <cctype>

namespace flexric::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Two-character operators that must not be split (the rules care about
// `::`, `->` and friends keeping their identity).
constexpr const char* kTwoCharOps[] = {
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "##",
};

/// Translation-phase-2 line splicing: `\` immediately before a newline joins
/// the next physical line. Annotations, suppressions and declarations may be
/// split this way (macro bodies do it routinely), so splicing happens before
/// tokenization — exactly like a real compiler — while a parallel per-char
/// line table keeps diagnostics on physical lines.
struct Spliced {
  std::string text;
  std::vector<int> line;  // physical line of each char in text
};

Spliced splice(std::string_view src) {
  Spliced out;
  out.text.reserve(src.size());
  out.line.reserve(src.size());
  int line = 1;
  for (std::size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    if (c == '\\' && i + 1 < src.size() &&
        (src[i + 1] == '\n' ||
         (src[i + 1] == '\r' && i + 2 < src.size() && src[i + 2] == '\n'))) {
      i += src[i + 1] == '\r' ? 2 : 1;  // drop the splice
      ++line;
      continue;
    }
    out.text.push_back(c);
    out.line.push_back(line);
    if (c == '\n') ++line;
  }
  return out;
}

bool is_string_prefix(std::string_view id) {
  return id == "u8" || id == "u" || id == "U" || id == "L";
}
bool is_raw_string_prefix(std::string_view id) {
  return id == "R" || id == "u8R" || id == "uR" || id == "UR" || id == "LR";
}

}  // namespace

LexedFile lex(std::string_view raw_src) {
  LexedFile out;
  const Spliced sp = splice(raw_src);
  const std::string& src = sp.text;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto line_at = [&](std::size_t pos) -> int {
    if (sp.line.empty()) return 1;
    return sp.line[pos < n ? pos : n - 1];
  };

  auto add_comment = [&](int at_line, std::string_view text) {
    std::string& slot = out.comments[at_line];
    if (!slot.empty()) slot += ' ';
    slot.append(text);
  };

  // Comment text lands on every physical line it touches (block comments and
  // spliced line comments both span lines), so suppressions and annotations
  // are found from any line they cover.
  auto add_comment_range = [&](std::size_t from, std::size_t to_excl) {
    std::string_view body(src.data() + from, to_excl - from);
    int first = line_at(from);
    int last = to_excl > from ? line_at(to_excl - 1) : first;
    for (int l = first; l <= last; ++l) add_comment(l, body);
  };

  // Consume a raw string literal starting at the `"` of `R"`; returns the
  // index just past the closing quote. The delimiter may contain any
  // non-paren characters — including `@affine` — and the content is opaque.
  auto consume_raw_string = [&](std::size_t quote) -> std::size_t {
    std::size_t d0 = quote + 1;
    std::size_t dp = d0;
    while (dp < n && src[dp] != '(') ++dp;
    std::string close = ")" + std::string(src.substr(d0, dp - d0)) + "\"";
    std::size_t end = src.find(close, dp);
    if (end == std::string::npos) return n;
    return end + close.size();
  };

  while (i < n) {
    char c = src[i];
    int line = line_at(i);
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment. The splice pass already joined `... \<newline>` lines,
    // so a backslash-continued comment is one comment spanning lines here.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      add_comment_range(start, i);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      std::size_t start = i;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      add_comment_range(start, i < n ? i : n);
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    // Preprocessor directive: consume the logical line (splices are already
    // joined, so this is a plain scan to newline) into the directive table.
    // A trailing line comment is left to the comment lexer: a same-line
    // `lint: allow(...)` on an #include must be seen.
    if (c == '#') {
      bool bol = true;  // only a line-leading # starts a directive
      for (std::size_t j = i; j-- > 0;) {
        if (src[j] == '\n') break;
        if (!std::isspace(static_cast<unsigned char>(src[j]))) {
          bol = false;
          break;
        }
      }
      if (bol) {
        std::size_t start = i;
        while (i < n && src[i] != '\n' &&
               !(src[i] == '/' && i + 1 < n && src[i + 1] == '/'))
          ++i;
        std::size_t end = i;
        while (end > start &&
               std::isspace(static_cast<unsigned char>(src[end - 1])))
          --end;
        out.directives[line] = src.substr(start, end - start);
        continue;
      }
      out.tokens.push_back({Tok::punct, "#", line});
      ++i;
      continue;
    }
    // String / char literal with escapes.
    if (c == '"' || c == '\'') {
      char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      out.tokens.push_back({quote == '"' ? Tok::string_lit : Tok::char_lit,
                            "<literal>", line});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      std::string_view id = std::string_view(src).substr(i, j - i);
      if (j < n && src[j] == '"') {
        // Encoding-prefixed literal: `u8"..."` lexes as one string token;
        // `LR"delim(...)delim"` as one raw string. Without this the payload
        // of a prefixed raw string would be tokenized as code.
        if (is_raw_string_prefix(id)) {
          i = consume_raw_string(j);
          out.tokens.push_back({Tok::string_lit, "<raw-string>", line});
          continue;
        }
        if (is_string_prefix(id)) {
          std::size_t k = j + 1;
          while (k < n && src[k] != '"') {
            if (src[k] == '\\' && k + 1 < n) ++k;
            ++k;
          }
          out.tokens.push_back({Tok::string_lit, "<literal>", line});
          i = (k < n) ? k + 1 : n;
          continue;
        }
      }
      out.tokens.push_back({Tok::identifier, std::string(id), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n &&
             (ident_char(src[j]) || src[j] == '.' ||
              // digit separator: 10'000 must stay one number token, or the
              // `'` would open a bogus char literal and desync the stream
              (src[j] == '\'' && j + 1 < n && ident_char(src[j + 1])) ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                src[j - 1] == 'P'))))
        ++j;
      out.tokens.push_back(
          {Tok::number, std::string(src.substr(i, j - i)), line});
      i = j;
      continue;
    }
    // Digraphs (<% %> <: :> %: %:%:) map to their primary spelling so brace/
    // bracket balance survives digraph-using sources. `<::` is NOT a digraph
    // when not followed by ':' or '>' (the std::vector<::T> rule).
    if (i + 1 < n) {
      char d0 = c, d1 = src[i + 1];
      const char* mapped = nullptr;
      if (d0 == '<' && d1 == '%') mapped = "{";
      else if (d0 == '%' && d1 == '>') mapped = "}";
      else if (d0 == '<' && d1 == ':' &&
               !(i + 2 < n && src[i + 2] == ':' &&
                 !(i + 3 < n && (src[i + 3] == ':' || src[i + 3] == '>'))))
        mapped = "[";
      else if (d0 == ':' && d1 == '>') mapped = "]";
      else if (d0 == '%' && d1 == ':') {
        if (i + 3 < n && src[i + 2] == '%' && src[i + 3] == ':') {
          out.tokens.push_back({Tok::punct, "##", line});
          i += 4;
          continue;
        }
        mapped = "#";
      }
      if (mapped) {
        out.tokens.push_back({Tok::punct, mapped, line});
        i += 2;
        continue;
      }
    }
    // Punctuation: longest match against the two-char set.
    if (i + 1 < n) {
      char pair[3] = {c, src[i + 1], 0};
      for (const char* op : kTwoCharOps) {
        if (pair[0] == op[0] && pair[1] == op[1]) {
          out.tokens.push_back({Tok::punct, op, line});
          i += 2;
          goto next;
        }
      }
    }
    out.tokens.push_back({Tok::punct, std::string(1, c), line});
    ++i;
  next:;
  }
  out.tokens.push_back({Tok::eof, "", line_at(n ? n - 1 : 0)});
  return out;
}

}  // namespace flexric::analyze
