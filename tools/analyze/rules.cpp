#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

namespace flexric::analyze {

namespace {

// ---------------------------------------------------------------------------
// Registry pass
// ---------------------------------------------------------------------------

bool decl_is_conduit(const Tokens& t, std::size_t lo, std::size_t hi) {
  static const char* kConduits[] = {"BoundedQueue", "PriorityQueue",
                                    "RateLimiter", "SpscQueue", "SpscRing"};
  for (std::size_t k = lo; k < hi; ++k)
    for (const char* c : kConduits)
      if (is_ident(t[k], c)) return true;
  return false;
}

void register_file(const FileUnit& f, Corpus& corpus) {
  const Tokens& t = f.lx.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    // Class annotations: `// @affine(<domain>)` / `// @hotpath` within two
    // lines above (or on the line of) a class/struct declaration.
    if ((is_ident(t[i], "class") || is_ident(t[i], "struct")) &&
        t[i + 1].kind == Tok::identifier) {
      bool hot = annotation_near(f.lx, t[i].line, "@hotpath");
      std::string domain;
      for (int l = t[i].line - 2; l <= t[i].line; ++l) {
        auto c = f.lx.comments.find(l);
        if (c == f.lx.comments.end()) continue;
        std::string d = parse_affine_domain(c->second);
        if (!d.empty()) domain = d;
      }
      if (!domain.empty() || hot) {
        ClassInfo& ci = corpus.classes[t[i + 1].text];
        ci.name = t[i + 1].text;
        ci.file = f.rel;
        ci.line = t[i].line;
        if (!domain.empty()) {
          ci.domain = domain;
          corpus.affine_classes.insert(t[i + 1].text);
        }
        if (hot) ci.hotpath = true;
      }
    }
  }
}

/// Member-field table of every annotated class. Runs after the annotation
/// scan of the same file (a class's members live inside its own declaration,
/// so the class is always registered by the time its fields are seen).
void register_fields(const FileUnit& f, const FileIndex& ix, Corpus& corpus) {
  const Tokens& t = f.lx.tokens;
  const ScopeInfo& scopes = ix.scopes;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (scopes.func_depth[i] != 0) continue;
    if (t[i].kind != Tok::identifier) continue;
    if (!(is_punct(t[i + 1], ";") || is_punct(t[i + 1], "=") ||
          is_punct(t[i + 1], "{")))
      continue;
    const std::string& chain = scopes.type_chain[i];
    if (chain.empty()) continue;
    // Innermost enclosing annotated class owns the field.
    ClassInfo* owner = nullptr;
    for (std::size_t pos = 0; pos <= chain.size();) {
      std::size_t next = chain.find("::", pos);
      std::size_t len =
          next == std::string::npos ? chain.size() - pos : next - pos;
      auto it = corpus.classes.find(chain.substr(pos, len));
      if (it != corpus.classes.end()) owner = &it->second;
      if (next == std::string::npos) break;
      pos = next + 2;
    }
    if (!owner) continue;
    // The token before the name must be a type tail, and the declaration
    // (back to the previous boundary) must look like a data member: no
    // parens (functions), no type/using/friend keywords.
    const Token& prev = t[i - 1];
    bool type_tail = prev.kind == Tok::identifier || is_punct(prev, ">") ||
                     is_punct(prev, ">>") || is_punct(prev, "*") ||
                     is_punct(prev, "&") || is_punct(prev, "]");
    if (!type_tail) continue;
    std::size_t lo = 0;
    for (std::size_t j = i; j-- > 0;) {
      if (is_punct(t[j], ";") || is_punct(t[j], "}") || is_punct(t[j], "{")) {
        lo = j + 1;
        break;
      }
    }
    bool member_shape = true;
    for (std::size_t j = lo; j < i && member_shape; ++j) {
      if (is_punct(t[j], "(") || is_ident(t[j], "class") ||
          is_ident(t[j], "struct") || is_ident(t[j], "enum") ||
          is_ident(t[j], "union") || is_ident(t[j], "using") ||
          is_ident(t[j], "typedef") || is_ident(t[j], "friend") ||
          is_ident(t[j], "namespace") || is_ident(t[j], "return"))
        member_shape = false;
    }
    if (!member_shape) continue;
    FieldInfo fi;
    fi.line = t[i].line;
    fi.conduit = decl_is_conduit(t, lo, i);
    owner->fields.emplace(t[i].text, fi);
  }
}

// ---------------------------------------------------------------------------
// posted-lambda-lifetime + blocking-in-handler share the lambda finder.
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 3> kPostFns = {"post", "add_timer",
                                                 "call_soon"};

bool is_post_fn(const Token& t) {
  for (const char* f : kPostFns)
    if (is_ident(t, f)) return true;
  return false;
}

// Capture / parse_captures live in index.hpp now (the view-escape pass
// reuses the same lambda-capture parser).

bool capture_is_alive_token(const Capture& c) {
  static const char* kAliveNames[] = {"alive", "alive_", "guard",  "guard_",
                                      "weak",  "weak_",  "self",   "self_",
                                      "token", "token_", "owner",  "owner_"};
  for (const char* n : kAliveNames)
    if (c.name == n) return true;
  for (std::size_t k = 0; k < c.init.size(); ++k) {
    if (c.init[k].kind != Tok::identifier) continue;
    const std::string& s = c.init[k].text;
    if (s == "weak_ptr" || s == "shared_from_this" || s == "weak_from_this")
      return true;
  }
  return false;
}

bool capture_is_raw_pointer(const Capture& c) {
  // Init-captures materializing a raw pointer: `p = x.get()` / `p = &obj`.
  for (std::size_t k = 0; k + 2 < c.init.size(); ++k) {
    if ((is_punct(c.init[k], ".") || is_punct(c.init[k], "->")) &&
        is_ident(c.init[k + 1], "get") && is_punct(c.init[k + 2], "("))
      return true;
  }
  if (!c.init.empty() && is_punct(c.init[0], "&")) return true;
  return false;
}

// Blocking primitives. Sleep-family match unqualified; syscall names only
// when explicitly global-qualified (`::recv`) so method names stay legal.
bool is_sleep_call(const Tokens& t, std::size_t i) {
  static const char* kSleep[] = {"sleep_for", "sleep_until", "usleep",
                                 "nanosleep", "getchar",     "system"};
  if (t[i].kind != Tok::identifier) return false;
  bool named = false;
  for (const char* s : kSleep)
    if (t[i].text == s) named = true;
  if (!named) return false;
  return i + 1 < t.size() && is_punct(t[i + 1], "(");
}

bool is_global_blocking_syscall(const Tokens& t, std::size_t i) {
  static const char* kSys[] = {"recv", "recvfrom", "recvmsg", "accept",
                               "accept4", "select", "poll", "read"};
  if (t[i].kind != Tok::identifier) return false;
  bool named = false;
  for (const char* s : kSys)
    if (t[i].text == s) named = true;
  if (!named) return false;
  if (i == 0 || !is_punct(t[i - 1], "::")) return false;
  // `::recv` (global) vs `sock::recv` (scoped): global iff no identifier or
  // closing angle precedes the `::`. Statement keywords (`return ::recv(...)`)
  // are not qualifiers.
  if (i >= 2 && (t[i - 2].kind == Tok::identifier || is_punct(t[i - 2], ">"))) {
    const std::string& q = t[i - 2].text;
    if (q != "return" && q != "co_return" && q != "else" && q != "do")
      return false;
  }
  return i + 1 < t.size() && is_punct(t[i + 1], "(");
}

bool is_cv_wait(const Tokens& t, std::size_t i) {
  if (t[i].kind != Tok::identifier) return false;
  if (t[i].text != "wait" && t[i].text != "wait_for" &&
      t[i].text != "wait_until")
    return false;
  if (i == 0 || !(is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")))
    return false;
  return i + 1 < t.size() && is_punct(t[i + 1], "(");
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_posted_lambda(const FileUnit& f, std::vector<Finding>* out) {
  const Tokens& t = f.lx.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_post_fn(t[i]) || !is_punct(t[i + 1], "(")) continue;
    std::size_t call_end = skip_balanced(t, i + 1);
    for (std::size_t j = i + 2; j < call_end; ++j) {
      if (!is_punct(t[j], "[")) continue;
      if (j + 1 < t.size() && is_punct(t[j + 1], "[")) continue;  // attribute
      if (!(is_punct(t[j - 1], "(") || is_punct(t[j - 1], ",")))
        continue;  // not in argument position (e.g. a subscript)
      std::vector<Capture> caps;
      std::size_t after = parse_captures(t, j, &caps);
      bool alive = false, has_this = false, has_raw = false;
      for (const auto& c : caps) {
        if (capture_is_alive_token(c)) alive = true;
        if (c.is_this) has_this = true;
        if (capture_is_raw_pointer(c)) has_raw = true;
      }
      if ((has_this || has_raw) && !alive &&
          !suppressed(f, t[j].line, "posted-lambda-lifetime") &&
          !suppressed(f, t[i].line, "posted-lambda-lifetime")) {
        Finding fd;
        fd.file = f.rel;
        fd.line = t[j].line;
        fd.rule = "posted-lambda-lifetime";
        fd.message = std::string("lambda passed to ") + t[i].text +
                     "() captures " +
                     (has_this ? "'this'" : "a raw pointer") +
                     " without an alive token; the owner may die before the "
                     "task runs";
        fd.suggestion =
            "capture `alive = std::weak_ptr<bool>(alive_)` and return early "
            "when expired (transport.cpp pattern), or suppress with "
            "`// lint: allow(posted-lambda-lifetime) <why the owner outlives "
            "the task>`";
        out->push_back(std::move(fd));
      }
      j = after - 1;
    }
  }
}

void rule_blocking(const FileUnit& f, std::vector<Finding>* out) {
  const Tokens& t = f.lx.tokens;
  const bool reactor_affine_file =
      f.category == "src" && f.rel.rfind("src/transport/", 0) != 0;
  // (a) blocking primitives anywhere in reactor-affine code.
  if (reactor_affine_file) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (is_sleep_call(t, i) || is_global_blocking_syscall(t, i) ||
          is_cv_wait(t, i)) {
        if (suppressed(f, t[i].line, "blocking-in-handler")) continue;
        Finding fd;
        fd.file = f.rel;
        fd.line = t[i].line;
        fd.rule = "blocking-in-handler";
        fd.message = "blocking primitive '" + t[i].text +
                     "' in reactor-affine code (handlers run on the loop "
                     "thread; only src/transport/ may touch blocking I/O)";
        fd.suggestion =
            "replace with a reactor timer / non-blocking transport call, or "
            "suppress with `// lint: allow(blocking-in-handler) <reason>`";
        out->push_back(std::move(fd));
      }
    }
  }
  // (b) blocking primitives inside any lambda posted to the reactor — this
  // applies to every category, src/transport/ included.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_post_fn(t[i]) || !is_punct(t[i + 1], "(")) continue;
    std::size_t call_end = skip_balanced(t, i + 1);
    for (std::size_t j = i + 2; j < call_end; ++j) {
      if (!is_punct(t[j], "[") ||
          !(is_punct(t[j - 1], "(") || is_punct(t[j - 1], ",")))
        continue;
      // Skip capture list, optional params/specifiers, then scan the body.
      std::size_t k = skip_balanced(t, j);
      if (k < t.size() && is_punct(t[k], "(")) k = skip_balanced(t, k);
      while (k < t.size() && (is_ident(t[k], "mutable") ||
                              is_ident(t[k], "noexcept") ||
                              is_punct(t[k], "->") ||
                              t[k].kind == Tok::identifier))
        ++k;
      if (k >= t.size() || !is_punct(t[k], "{")) continue;
      std::size_t body_end = skip_balanced(t, k);
      for (std::size_t b = k; b < body_end; ++b) {
        if ((is_sleep_call(t, b) || is_global_blocking_syscall(t, b) ||
             is_cv_wait(t, b)) &&
            !reactor_affine_file &&  // (a) already reported those
            !suppressed(f, t[b].line, "blocking-in-handler")) {
          Finding fd;
          fd.file = f.rel;
          fd.line = t[b].line;
          fd.rule = "blocking-in-handler";
          fd.message = "blocking primitive '" + t[b].text +
                       "' inside a lambda passed to " + t[i].text +
                       "() — it would stall the reactor loop";
          fd.suggestion =
              "do the blocking work before posting, or use a timer and "
              "re-check readiness";
          out->push_back(std::move(fd));
        }
      }
      j = body_end - 1;
    }
  }
}

void rule_affinity(const FileUnit& f, const ScopeInfo& scopes,
                   const Corpus& corpus, std::vector<Finding>* out) {
  const Tokens& t = f.lx.tokens;
  // Check A (src): a class that stamps FLEXRIC_ASSERT_AFFINITY must be
  // annotated `// @affine(<domain>)` at its declaration.
  if (f.category == "src") {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t[i], "FLEXRIC_ASSERT_AFFINITY")) continue;
      if (scopes.func_depth[i] == 0) continue;  // the macro definition
      const std::string& owner = scopes.owner_class[i];
      if (owner.empty() || corpus.affine_classes.count(owner) != 0) continue;
      if (suppressed(f, t[i].line, "affinity-annotation")) continue;
      Finding fd;
      fd.file = f.rel;
      fd.line = t[i].line;
      fd.rule = "affinity-annotation";
      fd.message = "class " + owner +
                   " stamps FLEXRIC_ASSERT_AFFINITY but its declaration "
                   "lacks a '// @affine(reactor)' annotation";
      fd.suggestion =
          "add `// @affine(reactor)` (or the owning domain) on the line "
          "above `class " + owner + "`";
      out->push_back(std::move(fd));
    }
  }
  // Check B (examples/tests): objects of annotated classes must not be
  // touched from std::thread lambdas — that is exactly the wrong-thread
  // call FLEXRIC_ASSERT_AFFINITY aborts on in guarded builds.
  if (f.category != "examples" && f.category != "tests") return;
  // Local variables declared with an affine type.
  std::set<std::string> affine_vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::identifier ||
        corpus.affine_classes.count(t[i].text) == 0)
      continue;
    std::size_t j = i + 1;
    int guard = 0;
    while (j < t.size() && guard++ < 3 &&
           (is_punct(t[j], ">") || is_punct(t[j], ">>") ||
            is_punct(t[j], "*") || is_punct(t[j], "&")))
      ++j;
    if (j + 1 < t.size() && t[j].kind == Tok::identifier &&
        (is_punct(t[j + 1], "=") || is_punct(t[j + 1], ";") ||
         is_punct(t[j + 1], "(") || is_punct(t[j + 1], "{") ||
         is_punct(t[j + 1], ",") || is_punct(t[j + 1], ")")))
      affine_vars.insert(t[j].text);
  }
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_ident(t[i], "std") && is_punct(t[i + 1], "::") &&
          is_ident(t[i + 2], "thread")))
      continue;
    // std::thread t(...), std::thread(...), std::thread t{...}
    std::size_t j = i + 3;
    if (j < t.size() && t[j].kind == Tok::identifier) ++j;
    if (j >= t.size() || !(is_punct(t[j], "(") || is_punct(t[j], "{")))
      continue;
    std::size_t ctor_end = skip_balanced(t, j);
    for (std::size_t b = j + 1; b < ctor_end; ++b) {
      if (t[b].kind != Tok::identifier) continue;
      bool hit = affine_vars.count(t[b].text) != 0 ||
                 corpus.affine_classes.count(t[b].text) != 0;
      if (!hit) continue;
      if (b > 0 && (is_punct(t[b - 1], ".") || is_punct(t[b - 1], "->")))
        continue;  // member named like the var
      if (suppressed(f, t[b].line, "affinity-annotation") ||
          suppressed(f, t[i].line, "affinity-annotation"))
        continue;
      Finding fd;
      fd.file = f.rel;
      fd.line = t[b].line;
      fd.rule = "affinity-annotation";
      fd.message = "reactor-affine '" + t[b].text +
                   "' touched from a std::thread lambda; entry points of "
                   "@affine(reactor) classes must run on the loop thread";
      fd.suggestion =
          "marshal the call onto the reactor with reactor.post(), or "
          "suppress with `// lint: allow(affinity-annotation) <reason>` "
          "(e.g. a test that proves the guard trips)";
      out->push_back(std::move(fd));
      break;  // one finding per thread ctor is enough
    }
  }
}

void rule_bounded_queue(const FileUnit& f, const ScopeInfo& scopes,
                        const Corpus& corpus, std::vector<Finding>* out) {
  const Tokens& t = f.lx.tokens;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!(is_ident(t[i], "std") && is_punct(t[i + 1], "::"))) continue;
    bool is_deque = is_ident(t[i + 2], "deque");
    if (!is_deque && !is_ident(t[i + 2], "queue")) continue;
    if (!is_punct(t[i + 3], "<")) continue;
    // Members only: locals (func_depth > 0) drain before the handler returns
    // and cannot accumulate across reactor iterations.
    if (scopes.func_depth[i] != 0) continue;
    // Owning class — or any type it is nested in — must be affine-annotated.
    const std::string& chain = scopes.type_chain[i];
    if (chain.empty()) continue;
    std::string affine_owner;
    for (std::size_t pos = 0; pos <= chain.size();) {
      std::size_t next = chain.find("::", pos);
      std::size_t len = next == std::string::npos ? chain.size() - pos
                                                  : next - pos;
      std::string seg = chain.substr(pos, len);
      if (corpus.affine_classes.count(seg) != 0) {
        affine_owner = seg;
        break;
      }
      if (next == std::string::npos) break;
      pos = next + 2;
    }
    if (affine_owner.empty()) continue;
    // Member declaration shape: `std::deque<...> name ;` (or `=` / `{`
    // default initializer). Anything else — parameter, using-alias, base
    // class — is not an owned, growing member.
    std::size_t j = skip_template_args(t, i + 3);
    if (j == i + 3) continue;
    if (j >= t.size() || t[j].kind != Tok::identifier) continue;
    const std::string& member = t[j].text;
    if (j + 1 >= t.size() ||
        !(is_punct(t[j + 1], ";") || is_punct(t[j + 1], "=") ||
          is_punct(t[j + 1], "{")))
      continue;
    if (suppressed(f, t[i].line, "bounded-queue")) continue;
    Finding fd;
    fd.file = f.rel;
    fd.line = t[i].line;
    fd.rule = "bounded-queue";
    fd.message = "reactor-affine class " + affine_owner +
                 " declares unbounded std::" +
                 (is_deque ? std::string("deque") : std::string("queue")) +
                 " member '" + member +
                 "'; reactor-fed queues need a capacity policy or an "
                 "indication storm grows them without bound";
    fd.suggestion =
        "use overload::BoundedQueue / overload::PriorityQueue (shed with "
        "exact accounting, DESIGN.md §11), or suppress with "
        "`// lint: allow(bounded-queue) <why growth is bounded>`";
    out->push_back(std::move(fd));
  }
}

// ---------------------------------------------------------------------------
// Repository invariants: wire-assert, include-hygiene, thread-primitives.
// These are line rules — one finding per offending line.
// ---------------------------------------------------------------------------

void report_lines(const FileUnit& f, const std::set<int>& lines,
                  const char* rule, const std::string& message,
                  const std::string& suggestion, std::vector<Finding>* out) {
  for (int line : lines) {
    if (suppressed(f, line, rule)) continue;
    out->push_back({f.rel, line, rule, message, suggestion, ""});
  }
}

void rule_wire_assert(const FileUnit& f, std::vector<Finding>* out) {
  if (!in_wire_dir(f.rel)) return;
  const Tokens& t = f.lx.tokens;
  std::set<int> lines;
  for (std::size_t i = 0; i + 1 < t.size(); ++i)
    if ((is_ident(t[i], "assert") || is_ident(t[i], "FLEXRIC_ASSERT")) &&
        is_punct(t[i + 1], "("))
      lines.insert(t[i].line);
  report_lines(f, lines, "wire-assert",
               "assert in the decode path can abort on malformed wire input; "
               "return a Result/Status error instead",
               "return an error, or suppress an encode-side precondition on "
               "locally built IR with `// lint: allow(wire-assert) <why>`",
               out);
}

/// The target of an `#include "x"` / `#include <x>` directive with its
/// opening delimiter ('"' or '<'); delimiter 0 for any other directive.
std::pair<char, std::string> include_of(const std::string& directive) {
  std::size_t i = directive.find_first_not_of(" \t", 1);  // past the '#'
  if (i == std::string::npos || directive.compare(i, 7, "include") != 0)
    return {0, ""};
  i = directive.find_first_not_of(" \t", i + 7);
  if (i == std::string::npos || (directive[i] != '"' && directive[i] != '<'))
    return {0, ""};
  std::size_t end = directive.find(directive[i] == '"' ? '"' : '>', i + 1);
  if (end == std::string::npos) return {0, ""};
  return {directive[i], directive.substr(i + 1, end - i - 1)};
}

std::string under(const std::string& root, const std::string& path) {
  return root.empty() ? path : root + "/" + path;
}

void rule_include_hygiene(const Corpus& corpus, const FileUnit& f,
                          std::vector<Finding>* out) {
  auto roots_it = corpus.include_roots.find(f.category);
  if (roots_it == corpus.include_roots.end()) return;
  const std::vector<std::string>& roots = roots_it->second;
  std::string root_list;
  for (const auto& r : roots)
    root_list += (root_list.empty() ? "" : " or ") + (r.empty() ? "." : r) +
                 "/";
  // A .cpp's sibling header, spelled from the first root that holds it.
  std::string sibling, spelled;
  const std::string h = f.rel.ends_with(".cpp")
                            ? f.rel.substr(0, f.rel.size() - 4) + ".hpp"
                            : "";
  if (corpus.file_set.count(h) != 0) {
    for (const auto& r : roots) {
      if (r.empty() || h.starts_with(r + "/")) {
        sibling = h;
        spelled = h.substr(r.empty() ? 0 : r.size() + 1);
        break;
      }
    }
  }
  auto report = [&](int line, std::string message) {
    if (suppressed(f, line, "include-hygiene")) return;
    out->push_back({f.rel, line, "include-hygiene", std::move(message),
                    "spell quoted includes from " + root_list +
                        "; a .cpp includes its own header first",
                    ""});
  };
  bool first = true;
  for (const auto& [line, text] : f.lx.directives) {
    auto [delim, inc] = include_of(text);
    if (delim != '"') continue;
    bool resolves = false, is_sibling = false;
    for (const auto& r : roots) {
      resolves = resolves || corpus.file_set.count(under(r, inc)) != 0;
      is_sibling = is_sibling || under(r, inc) == sibling;
    }
    if (first && !sibling.empty() && !is_sibling)
      report(line, "first quoted include must be the sibling header \"" +
                       spelled + "\" (self-containment check)");
    first = false;
    if (("/" + inc + "/").find("/../") != std::string::npos)
      report(line,
             "include \"" + inc + "\" escapes the source tree with \"..\"");
    else if (!resolves)
      report(line,
             "include \"" + inc + "\" does not resolve under " + root_list);
  }
}

// The affinity guard asks which thread it runs on; the SPSC ring and the
// per-shard counter board are the sharded RIC's audited cross-shard conduits
// (DESIGN.md §13). Nothing else in src/ outside src/transport/ may touch a
// threading primitive.
constexpr const char* kThreadOkFiles[] = {"src/common/affinity.hpp",
                                          "src/common/spsc_ring.hpp",
                                          "src/common/shard_stats.hpp"};

bool is_thread_header(const std::string& directive) {
  static const char* kHeaders[] = {"thread", "mutex", "shared_mutex",
                                   "condition_variable", "atomic", "future",
                                   "stop_token", "semaphore", "latch",
                                   "barrier"};
  auto [delim, header] = include_of(directive);
  if (delim != '<') return false;
  for (const char* k : kHeaders)
    if (header == k) return true;
  return false;
}

bool is_thread_primitive(const Tokens& t, std::size_t i) {
  static const char* kStd[] = {
      "jthread",      "thread",      "mutex",       "timed_mutex",
      "recursive_mutex", "shared_mutex", "atomic",  "async",
      "future",       "promise",     "counting_semaphore",
      "latch",        "barrier",     "lock_guard",  "unique_lock",
      "shared_lock",  "scoped_lock"};
  if (t[i].kind != Tok::identifier) return false;
  const std::string& s = t[i].text;
  if (s.starts_with("pthread_") && s.size() > 8) return true;
  if (i < 2 || !is_ident(t[i - 2], "std") || !is_punct(t[i - 1], "::"))
    return false;
  if (s.starts_with("condition_variable")) return true;
  for (const char* k : kStd)
    if (s == k) return true;
  return false;
}

void rule_thread_primitives(const FileUnit& f, std::vector<Finding>* out) {
  if (f.category != "src" || f.rel.starts_with("src/transport/")) return;
  for (const char* ok : kThreadOkFiles)
    if (f.rel == ok) return;
  std::set<int> lines;
  for (const auto& [line, text] : f.lx.directives)
    if (is_thread_header(text)) lines.insert(line);
  const Tokens& t = f.lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i)
    if (is_thread_primitive(t, i)) lines.insert(t[i].line);
  report_lines(f, lines, "thread-primitives",
               "threading primitive outside src/transport/ violates the "
               "single-threaded reactor contract",
               "keep the state on the reactor thread; cross-shard data goes "
               "through SpscRing or the shard counter board",
               out);
}

}  // namespace

void build_registry(Corpus& corpus) {
  corpus.index.clear();
  corpus.index.reserve(corpus.files.size());
  for (const auto& f : corpus.files) corpus.file_set.insert(f.rel);
  for (const auto& f : corpus.files) corpus.index.push_back(build_file_index(f.lx));
  for (const auto& f : corpus.files) register_file(f, corpus);
  for (std::size_t i = 0; i < corpus.files.size(); ++i)
    register_fields(corpus.files[i], corpus.index[i], corpus);
  // View/atomics registries (view_pass.cpp, atomics_pass.cpp) run after the
  // class registry so @hotpath class membership is known.
  corpus.view_types = {"span", "string_view", "BytesView", "BufferView"};
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    register_view_types(corpus.files[i], corpus.index[i], corpus);
    register_atomics(corpus.files[i], corpus.index[i], corpus);
  }
  resolve_view_aliases(corpus);
}

std::vector<Finding> run_rules(const Corpus& corpus,
                               const std::set<std::string>& rules) {
  std::vector<Finding> out;
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    const FileUnit& f = corpus.files[i];
    const FileIndex& ix = corpus.index[i];
    const ScopeInfo& scopes = ix.scopes;
    const bool impl_cat = f.category == "src" || f.category == "bench" ||
                          f.category == "examples";
    if (rules.count("posted-lambda-lifetime") && impl_cat)
      rule_posted_lambda(f, &out);
    if (rules.count("blocking-in-handler") && impl_cat)
      rule_blocking(f, &out);
    if (rules.count("affinity-annotation")) rule_affinity(f, scopes, corpus, &out);
    if (rules.count("bounded-queue") && impl_cat)
      rule_bounded_queue(f, scopes, corpus, &out);
    if (rules.count("domain-ownership"))
      pass_domain_ownership(corpus, f, ix, &out);
    if (rules.count("wire-taint") && f.category == "src")
      pass_wire_taint(corpus, f, ix, &out);
    if (rules.count("hotpath-alloc") && f.category == "src")
      pass_hotpath_alloc(corpus, f, ix, &out);
    if (rules.count("view-escape") && f.category == "src")
      pass_view_escape(corpus, f, ix, &out);
    if (rules.count("atomics-order") && f.category == "src")
      pass_atomics_order(corpus, f, ix, &out);
    if (rules.count("wire-assert") && f.category == "src")
      rule_wire_assert(f, &out);
    if (rules.count("include-hygiene"))
      rule_include_hygiene(corpus, f, &out);
    if (rules.count("thread-primitives")) rule_thread_primitives(f, &out);
  }
  return out;
}

std::vector<Suppression> collect_suppressions(const Corpus& corpus) {
  std::vector<Suppression> out;
  for (const auto& f : corpus.files)
    for (const auto& [line, text] : f.lx.comments)
      parse_allows(text, line, f.rel, &out);
  return out;
}

void audit_suppressions(const Corpus& corpus, const std::set<std::string>& used,
                        std::vector<Finding>* out) {
  for (const auto& s : collect_suppressions(corpus)) {
    auto finding = [&](std::string message, std::string suggestion) {
      out->push_back({s.file, s.line, "suppression-audit", std::move(message),
                      std::move(suggestion), ""});
    };
    if (std::find(std::begin(kAllRules), std::end(kAllRules), s.rule) ==
        std::end(kAllRules)) {
      finding("allow(" + s.rule + ") names no known rule, so it silences "
              "nothing",
              "fix the rule name (flexric-analyze --help lists them)");
      continue;
    }
    if (s.reason.empty())
      finding("suppression allow(" + s.rule + ") has no reason; reasons are "
              "mandatory",
              "append why: `// lint: allow(" + s.rule + ") <why>`");
    if (used.count(s.file + ":" + std::to_string(s.line) + ":" + s.rule) == 0)
      finding("stale suppression: allow(" + s.rule + ") no longer silences "
              "any finding",
              "delete the stale `lint: allow(...)` comment");
  }
}

}  // namespace flexric::analyze
