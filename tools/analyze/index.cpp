#include "index.hpp"

#include <cctype>

namespace flexric::analyze {

namespace {

std::set<std::string>* g_used_suppressions = nullptr;

/// Function annotations sit in a comment within two lines above the first
/// declaration token (or on its line). `floor` is the first line not yet
/// claimed by an earlier declaration, so back-to-back one-line definitions
/// don't inherit each other's annotations.
void scan_annotation_window(const LexedFile& lx, int line, int floor,
                            FuncSpan* span) {
  for (int l = line - 2 > floor ? line - 2 : floor; l <= line; ++l) {
    auto it = lx.comments.find(l);
    if (it == lx.comments.end()) continue;
    const std::string& c = it->second;
    if (c.find("@cross_domain") != std::string::npos) span->cross_domain = true;
    if (c.find("@hotpath") != std::string::npos) span->hotpath = true;
    if (c.find("@coldpath") != std::string::npos) span->coldpath = true;
    std::string d = parse_affine_domain(c);
    if (!d.empty()) span->domain = d;
  }
}

}  // namespace

std::size_t match_paren_back(const Tokens& t, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(t[i], ")")) ++depth;
    if (is_punct(t[i], "(")) {
      if (--depth == 0) return i;
    }
  }
  return 0;
}

std::size_t skip_balanced(const Tokens& t, std::size_t open) {
  const std::string& o = t[open].text;
  const char* close = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < t.size() && t[i].kind != Tok::eof; ++i) {
    if (t[i].kind == Tok::punct && t[i].text == o) ++depth;
    if (t[i].kind == Tok::punct && t[i].text == close) {
      if (--depth == 0) return i + 1;
    }
  }
  return t.size() - 1;
}

std::size_t skip_template_args(const Tokens& t, std::size_t from) {
  if (from >= t.size() || !is_punct(t[from], "<")) return from;
  int depth = 0;
  for (std::size_t i = from; i < t.size(); ++i) {
    if (is_punct(t[i], "<")) ++depth;
    if (is_punct(t[i], ">")) --depth;
    if (is_punct(t[i], ">>")) depth -= 2;
    if (depth <= 0) return i + 1;
  }
  return from;
}

std::size_t parse_captures(const Tokens& t, std::size_t open,
                           std::vector<Capture>* out) {
  std::size_t end = skip_balanced(t, open);  // index after ']'
  std::size_t i = open + 1;
  while (i < end - 1) {
    Capture c;
    if (is_punct(t[i], "&")) {
      c.by_ref = true;
      ++i;
      if (i >= end - 1 || is_punct(t[i], ",")) c.def_ref = true;
    } else if (is_punct(t[i], "*") && i + 1 < end &&
               is_ident(t[i + 1], "this")) {
      i += 2;  // *this copies the object: safe, not a this-capture
      while (i < end - 1 && !is_punct(t[i], ",")) ++i;
      ++i;
      continue;
    } else if (is_punct(t[i], "=")) {
      c.def_copy = true;
      ++i;
      out->push_back(std::move(c));
      while (i < end - 1 && !is_punct(t[i], ",")) ++i;
      ++i;
      continue;
    }
    if (i < end - 1 && is_ident(t[i], "this")) {
      c.is_this = true;
      ++i;
    } else if (i < end - 1 && t[i].kind == Tok::identifier) {
      c.name = t[i].text;
      ++i;
      if (i < end - 1 && is_punct(t[i], "=")) {
        ++i;
        int depth = 0;
        while (i < end - 1 && (depth > 0 || !is_punct(t[i], ","))) {
          if (is_punct(t[i], "(") || is_punct(t[i], "[") ||
              is_punct(t[i], "{") || is_punct(t[i], "<"))
            ++depth;
          if (is_punct(t[i], ")") || is_punct(t[i], "]") ||
              is_punct(t[i], "}") || is_punct(t[i], ">"))
            --depth;
          c.init.push_back(t[i]);
          ++i;
        }
      }
    }
    out->push_back(std::move(c));
    while (i < end - 1 && !is_punct(t[i], ",")) ++i;
    if (i < end - 1) ++i;  // past ','
  }
  return end;
}

FileIndex build_file_index(const LexedFile& lx) {
  const Tokens& t = lx.tokens;
  FileIndex out;
  ScopeInfo& info = out.scopes;
  info.func_depth.resize(t.size(), 0);
  info.owner_class.resize(t.size());
  info.type_chain.resize(t.size());

  struct Scope {
    ScopeKind kind;
    std::string name;   // class name for type scopes
    std::string owner;  // owner class for func scopes
    int span = -1;      // index into out.funcs for func scopes
  };
  std::vector<Scope> stack;

  int fdepth = 0;
  int annot_floor = 0;  // first line not claimed by an earlier declaration
  std::string owner;
  std::string chain;

  auto recompute_owner = [&] {
    owner.clear();
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (it->kind == ScopeKind::func) {
        owner = it->owner;
        break;
      }
    chain.clear();
    for (const Scope& s : stack) {
      if (s.kind != ScopeKind::type || s.name.empty()) continue;
      if (!chain.empty()) chain += "::";
      chain += s.name;
    }
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    info.func_depth[i] = fdepth;
    info.owner_class[i] = owner;
    info.type_chain[i] = chain;
    if (is_punct(t[i], "}")) {
      if (!stack.empty()) {
        if (stack.back().kind == ScopeKind::func) {
          --fdepth;
          if (stack.back().span >= 0)
            out.funcs[stack.back().span].body_end = i + 1;
        }
        stack.pop_back();
        recompute_owner();
      }
      if (t[i].line + 1 > annot_floor) annot_floor = t[i].line + 1;
      continue;
    }
    if (!is_punct(t[i], "{")) continue;

    // Classify this '{'.
    Scope sc{ScopeKind::block, "", "", -1};
    if (fdepth > 0) {
      // Inside a function everything is a block (lambda bodies included);
      // owner does not change.
      sc.kind = ScopeKind::block;
      stack.push_back(sc);
      continue;
    }
    // Look back to the previous ';' / '}' / '{' for classification keywords.
    std::size_t lo = 0;
    for (std::size_t j = i; j-- > 0;) {
      if (is_punct(t[j], ";") || is_punct(t[j], "}") || is_punct(t[j], "{")) {
        lo = j + 1;
        break;
      }
    }
    bool saw_ns = false, saw_type = false, saw_eq = false;
    std::string type_name;
    for (std::size_t j = lo; j < i; ++j) {
      if (is_ident(t[j], "namespace")) saw_ns = true;
      if (is_ident(t[j], "class") || is_ident(t[j], "struct") ||
          is_ident(t[j], "union") || is_ident(t[j], "enum")) {
        saw_type = true;
        // First identifier after the keyword (skip attributes/`class` of
        // `enum class`).
        for (std::size_t k = j + 1; k < i; ++k) {
          if (t[k].kind == Tok::identifier && t[k].text != "final" &&
              t[k].text != "alignas" && t[k].text != "class") {
            type_name = t[k].text;
            break;
          }
          if (is_punct(t[k], ":")) break;
        }
      }
      if (is_punct(t[j], "=")) saw_eq = true;
    }
    if (saw_ns) {
      sc.kind = ScopeKind::ns;
    } else if (saw_type && !saw_eq) {
      sc.kind = ScopeKind::type;
      sc.name = type_name;
    } else if (!saw_eq) {
      // Function body iff walking back over cv/ref/noexcept/trailing-return
      // tokens reaches the ')' of a parameter list.
      std::size_t j = i;
      bool reached_paren = false;
      int guard = 0;
      while (j-- > lo && guard++ < 24) {
        const Token& p = t[j];
        if (is_punct(p, ")")) {
          reached_paren = true;
          break;
        }
        bool skippable =
            p.kind == Tok::identifier ||  // const, noexcept, override, types
            is_punct(p, "->") || is_punct(p, "::") || is_punct(p, "&") ||
            is_punct(p, "&&") || is_punct(p, "<") || is_punct(p, ">") ||
            is_punct(p, ">>") || is_punct(p, "*") || is_punct(p, ":") ||
            is_punct(p, ",");  // ctor init lists: `: a_(x), b_(y) {`
        if (!skippable) break;
      }
      if (reached_paren) {
        sc.kind = ScopeKind::func;
        // Identify `Class::name(` to attribute the method to its class;
        // ctor-init-lists mean the ')' found above may be a member
        // initializer, so walk back over `ident ( ... )` groups until the
        // parameter list's opener.
        std::size_t close = j;
        std::size_t open = match_paren_back(t, close);
        while (open >= 2 && t[open - 1].kind == Tok::identifier &&
               (is_punct(t[open - 2], ",") || is_punct(t[open - 2], ":"))) {
          // `..., member(expr)` — an init-list entry; keep walking back.
          std::size_t k = open - 2;
          if (is_punct(t[k], ":")) {
            // reached `) : first(...)`: the token before ':' closes the
            // real parameter list.
            if (k >= 1 && is_punct(t[k - 1], ")")) {
              close = k - 1;
              open = match_paren_back(t, close);
            }
            break;
          }
          // skip backward over the previous init entry's parens
          std::size_t prev_close = k;
          while (prev_close-- > 0 && !is_punct(t[prev_close], ")")) {
          }
          close = prev_close;
          open = match_paren_back(t, close);
        }
        FuncSpan span;
        span.body_begin = i;
        span.line = t[i].line;
        if (open >= 1 && t[open - 1].kind == Tok::identifier)
          span.name = t[open - 1].text;
        if (open >= 3 && t[open - 1].kind == Tok::identifier &&
            is_punct(t[open - 2], "::") &&
            t[open - 3].kind == Tok::identifier) {
          sc.owner = t[open - 3].text;  // X::name( → owner X
        } else if (!stack.empty() && stack.back().kind == ScopeKind::type) {
          sc.owner = stack.back().name;  // method defined in-class
        }
        span.owner = sc.owner;
        // Declaration start: past access specifiers (`public:` shares the
        // statement boundary but not the declaration).
        std::size_t sig = lo;
        while (sig + 1 < i &&
               (is_ident(t[sig], "public") || is_ident(t[sig], "private") ||
                is_ident(t[sig], "protected")) &&
               is_punct(t[sig + 1], ":"))
          sig += 2;
        span.sig_begin = sig;
        scan_annotation_window(lx, t[sig].line, annot_floor, &span);
        annot_floor = t[sig].line + 1;
        sc.span = static_cast<int>(out.funcs.size());
        out.funcs.push_back(std::move(span));
      }
    }
    if (sc.kind == ScopeKind::func) ++fdepth;
    stack.push_back(sc);
    recompute_owner();
  }
  // Unterminated spans (truncated file) close at eof.
  for (auto& sp : out.funcs)
    if (sp.body_end == 0) sp.body_end = t.size();
  return out;
}

std::string parse_affine_domain(const std::string& comment) {
  const std::string needle = "@affine(";
  std::size_t pos = comment.find(needle);
  if (pos == std::string::npos) return "";
  std::size_t at = pos + needle.size();
  std::size_t close = comment.find(')', at);
  if (close == std::string::npos) return "reactor";
  std::string d = comment.substr(at, close - at);
  while (!d.empty() && (d.front() == ' ')) d.erase(d.begin());
  while (!d.empty() && (d.back() == ' ')) d.pop_back();
  return d.empty() ? "reactor" : d;
}

bool annotation_near(const LexedFile& lx, int line, const char* needle) {
  for (int l = line - 2; l <= line; ++l) {
    auto it = lx.comments.find(l);
    if (it != lx.comments.end() &&
        it->second.find(needle) != std::string::npos)
      return true;
  }
  return false;
}

std::string annotation_arg_near(const LexedFile& lx, int line,
                                const char* key) {
  const std::string pat = std::string(key) + "(";
  for (int l = line - 2; l <= line; ++l) {
    auto it = lx.comments.find(l);
    if (it == lx.comments.end()) continue;
    std::size_t pos = it->second.find(pat);
    if (pos == std::string::npos) continue;
    std::size_t at = pos + pat.size();
    std::size_t close = it->second.find(')', at);
    if (close == std::string::npos) return "";
    std::string a = it->second.substr(at, close - at);
    while (!a.empty() && a.front() == ' ') a.erase(a.begin());
    while (!a.empty() && a.back() == ' ') a.pop_back();
    return a;
  }
  return "";
}

bool is_known_domain(const std::string& d) {
  return d == "reactor" || d == "shard" || d == "any";
}

bool in_wire_dir(const std::string& rel) {
  return rel.starts_with("src/codec/") || rel.starts_with("src/e2ap/") ||
         rel.starts_with("src/e2sm/");
}

void parse_allows(const std::string& comment, int line, const std::string& file,
                  std::vector<Suppression>* out) {
  const std::string needle = "lint: allow(";
  std::size_t pos = 0;
  while ((pos = comment.find(needle, pos)) != std::string::npos) {
    std::size_t name_at = pos + needle.size();
    // A rule name is [A-Za-z0-9_-]+: prose such as `allow(<rule>)` is not
    // a suppression, while a misspelled name is one (and the audit flags it).
    std::size_t close = name_at;
    while (close < comment.size() &&
           (std::isalnum(static_cast<unsigned char>(comment[close])) ||
            comment[close] == '-' || comment[close] == '_'))
      ++close;
    if (close == name_at || close >= comment.size() || comment[close] != ')') {
      pos = name_at;
      continue;
    }
    Suppression s;
    s.file = file;
    s.line = line;
    s.rule = comment.substr(name_at, close - name_at);
    std::size_t r = close + 1;
    while (r < comment.size() && comment[r] == ' ') ++r;
    s.reason = comment.substr(r);
    // A reason ending in '*/' came from a block comment; trim the closer.
    if (s.reason.size() >= 2 &&
        s.reason.compare(s.reason.size() - 2, 2, "*/") == 0)
      s.reason.resize(s.reason.size() - 2);
    while (!s.reason.empty() && s.reason.back() == ' ') s.reason.pop_back();
    out->push_back(std::move(s));
    pos = close;
  }
}

bool suppressed(const FileUnit& f, int line, const std::string& rule) {
  for (int l : {line, line - 1}) {
    auto it = f.lx.comments.find(l);
    if (it == f.lx.comments.end()) continue;
    std::vector<Suppression> sups;
    parse_allows(it->second, l, f.rel, &sups);
    for (const auto& s : sups)
      if (s.rule == rule) {
        if (g_used_suppressions)
          g_used_suppressions->insert(f.rel + ":" + std::to_string(s.line) +
                                      ":" + rule);
        return true;
      }
  }
  return false;
}

void set_suppression_tracker(std::set<std::string>* used) {
  g_used_suppressions = used;
}

}  // namespace flexric::analyze
