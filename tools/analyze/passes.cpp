// The three index-driven passes (DESIGN.md §12): domain-ownership,
// wire-taint, hotpath-alloc. All consume the shared FileIndex built by
// build_registry(); none re-derive scopes from raw tokens.
#include <algorithm>
#include <cstddef>

#include "rules.hpp"

namespace flexric::analyze {

namespace {

// ---------------------------------------------------------------------------
// domain-ownership
// ---------------------------------------------------------------------------

/// Variables declared (in the span's signature or body) with an annotated
/// class type, mapped to the class name.
std::map<std::string, std::string> collect_typed_vars(const Corpus& corpus,
                                                      const Tokens& t,
                                                      const FuncSpan& sp) {
  std::map<std::string, std::string> vars;
  for (std::size_t i = sp.sig_begin;
       i + 1 < t.size() && i + 1 < sp.body_end; ++i) {
    if (t[i].kind != Tok::identifier) continue;
    auto it = corpus.classes.find(t[i].text);
    if (it == corpus.classes.end() || it->second.domain.empty()) continue;
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
      vars.emplace(t[j].text, it->first);
  }
  return vars;
}

}  // namespace

void pass_domain_ownership(const Corpus& corpus, const FileUnit& f,
                           const FileIndex& ix, std::vector<Finding>* out) {
  const Tokens& t = f.lx.tokens;

  // (a) Annotation validity: an annotation-style comment (`@affine(...)` at
  // the start of the comment) must name a known domain. Prose mentions of
  // the grammar deeper inside doc comments are not annotations.
  for (auto it = f.lx.comments.begin(); it != f.lx.comments.end(); ++it) {
    const std::string& text = it->second;
    std::size_t pos = text.find("@affine(");
    if (pos == std::string::npos) continue;
    bool anchored = true;
    for (std::size_t k = 0; k < pos; ++k)
      if (text[k] != ' ' && text[k] != '\t' && text[k] != '*' &&
          text[k] != '/')
        anchored = false;  // stored comment text keeps its `//` prefix
    if (!anchored) continue;
    // A block comment contributes its text to every line it spans; report
    // only on the first line of the run.
    auto prev = f.lx.comments.find(it->first - 1);
    if (prev != f.lx.comments.end() && prev->second == text) continue;
    std::string d = parse_affine_domain(text);
    if (is_known_domain(d)) continue;
    if (suppressed(f, it->first, "domain-ownership")) continue;
    Finding fd;
    fd.file = f.rel;
    fd.line = it->first;
    fd.rule = "domain-ownership";
    fd.message =
        "unknown affinity domain '" + d + "' (known: reactor, shard, any)";
    fd.suggestion = "use @affine(reactor), @affine(shard) or @affine(any)";
    out->push_back(std::move(fd));
  }

  for (const FuncSpan& sp : ix.funcs) {
    // (b) A method annotated with a domain that conflicts with its class's
    // domain is a contract violation unless it is a @cross_domain conduit.
    std::string class_domain;
    if (!sp.owner.empty()) {
      auto it = corpus.classes.find(sp.owner);
      if (it != corpus.classes.end()) class_domain = it->second.domain;
    }
    if (!sp.domain.empty() && !class_domain.empty() &&
        sp.domain != class_domain && sp.domain != "any" &&
        class_domain != "any" && !sp.cross_domain &&
        is_known_domain(sp.domain) &&
        !suppressed(f, sp.line, "domain-ownership")) {
      Finding fd;
      fd.file = f.rel;
      fd.line = sp.line;
      fd.rule = "domain-ownership";
      fd.message = "method " + sp.owner + "::" + sp.name + " is annotated "
                   "@affine(" + sp.domain + ") but its class is @affine(" +
                   class_domain + ")";
      fd.suggestion =
          "run it on the class's domain, or mark it `// @cross_domain` if it "
          "is a sanctioned crossing point";
      out->push_back(std::move(fd));
    }

    // (c) Cross-domain field access: `v.field` / `v->field` where v is typed
    // with an @affine(<domain>) class and this function is attributed to a
    // different (or no) domain. Conduit fields (bounded/SPSC queues) and
    // @cross_domain functions are the sanctioned crossings.
    if (sp.cross_domain) continue;
    std::string eff = !sp.domain.empty() ? sp.domain : class_domain;
    auto vars = collect_typed_vars(corpus, t, sp);
    if (vars.empty()) continue;
    for (std::size_t b = sp.body_begin;
         b + 2 < t.size() && b + 2 < sp.body_end; ++b) {
      if (t[b].kind != Tok::identifier) continue;
      auto vit = vars.find(t[b].text);
      if (vit == vars.end()) continue;
      if (b > 0 && (is_punct(t[b - 1], ".") || is_punct(t[b - 1], "->")))
        continue;  // member named like the var
      if (!(is_punct(t[b + 1], ".") || is_punct(t[b + 1], "->"))) continue;
      if (t[b + 2].kind != Tok::identifier) continue;
      const ClassInfo& ci = corpus.classes.at(vit->second);
      if (ci.domain.empty() || ci.domain == "any") continue;
      auto fit = ci.fields.find(t[b + 2].text);
      if (fit == ci.fields.end()) continue;
      if (fit->second.conduit) continue;
      if (b + 3 < t.size() && is_punct(t[b + 3], "(")) continue;  // method
      if (eff == ci.domain) continue;
      if (suppressed(f, t[b].line, "domain-ownership")) continue;
      Finding fd;
      fd.file = f.rel;
      fd.line = t[b].line;
      fd.rule = "domain-ownership";
      fd.message = "field '" + t[b + 2].text + "' of @affine(" + ci.domain +
                   ") class " + ci.name + " touched from " +
                   (eff.empty() ? std::string("unattributed code")
                                : "@affine(" + eff + ") code") +
                   " without a conduit";
      fd.suggestion =
          "hand the value across via an overload::BoundedQueue/SPSC conduit "
          "field, mark the function `// @cross_domain`, or attribute it with "
          "`// @affine(" + ci.domain + ")`";
      out->push_back(std::move(fd));
    }
  }
}

// ---------------------------------------------------------------------------
// wire-taint
// ---------------------------------------------------------------------------

namespace {

/// Reader member calls whose result is attacker-controlled. Range-validated
/// reads (PerReader::constrained / enumerated) and bounds-checked views
/// (octets / str / lp_bytes) are deliberately absent.
bool is_taint_source(const Tokens& t, std::size_t i) {
  static const char* kSources[] = {
      "u8",      "u16",     "u32",  "u64",  "i64",   "u16_be",
      "u32_be",  "uvarint", "svarint", "length", "bits",
      "semi_constrained", "integer"};
  if (t[i].kind != Tok::identifier) return false;
  bool named = false;
  for (const char* s : kSources)
    if (t[i].text == s) named = true;
  if (!named) return false;
  if (i == 0 || !(is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")))
    return false;
  return i + 1 < t.size() && is_punct(t[i + 1], "(");
}

/// End of the statement starting at `from` (index of the `;`, or of the
/// closer that unbalances, or `limit`).
std::size_t stmt_end(const Tokens& t, std::size_t from, std::size_t limit) {
  int depth = 0;
  for (std::size_t i = from; i < limit && i < t.size(); ++i) {
    if (is_punct(t[i], "(") || is_punct(t[i], "[") || is_punct(t[i], "{"))
      ++depth;
    if (is_punct(t[i], ")") || is_punct(t[i], "]") || is_punct(t[i], "}")) {
      if (depth == 0) return i;
      --depth;
    }
    if (depth == 0 && (is_punct(t[i], ";") || is_punct(t[i], ","))) return i;
  }
  return std::min(limit, t.size());
}

bool range_has_source(const Tokens& t, std::size_t a, std::size_t b) {
  for (std::size_t i = a; i < b; ++i)
    if (is_taint_source(t, i)) return true;
  return false;
}

const std::string* range_first_tainted(const Tokens& t, std::size_t a,
                                       std::size_t b,
                                       const std::set<std::string>& tainted) {
  for (std::size_t i = a; i < b; ++i) {
    if (t[i].kind != Tok::identifier) continue;
    if (i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")))
      continue;  // member access, not the tracked local
    auto it = tainted.find(t[i].text);
    if (it != tainted.end()) return &*it;
  }
  return nullptr;
}

bool range_has_minclamp(const Tokens& t, std::size_t a, std::size_t b) {
  for (std::size_t i = a; i < b; ++i)
    if (is_ident(t[i], "min") || is_ident(t[i], "clamp")) return true;
  return false;
}

bool is_relational(const Token& t) {
  return is_punct(t, "<") || is_punct(t, "<=") || is_punct(t, ">") ||
         is_punct(t, ">=");
}

bool is_validator_name(const std::string& s) {
  return s.rfind("check", 0) == 0 || s.rfind("validate", 0) == 0 ||
         s.rfind("is_valid", 0) == 0;
}

}  // namespace

void pass_wire_taint(const Corpus& corpus, const FileUnit& f,
                     const FileIndex& ix, std::vector<Finding>* out) {
  // Only decoder territory: values here come straight off the wire. E2AP
  // and E2SM decoding both run through the archives in src/e2sm/.
  if (!in_wire_dir(f.rel)) return;
  const Tokens& t = f.lx.tokens;

  auto report = [&](int line, const std::string& name, const std::string& use) {
    if (suppressed(f, line, "wire-taint")) return;
    Finding fd;
    fd.file = f.rel;
    fd.line = line;
    fd.rule = "wire-taint";
    fd.message = "wire-tainted '" + name + "' used as " + use +
                 " before range validation";
    fd.suggestion =
        "bound it first — `if (*" + name +
        " > limit) return Error{Errc::malformed, ...};` (a relational check "
        "in an if-condition clears the taint) — or clamp with std::min";
    out->push_back(std::move(fd));
  };

  for (const FuncSpan& sp : ix.funcs) {
    std::set<std::string> tainted;
    const std::size_t end = std::min(sp.body_end, t.size());
    for (std::size_t i = sp.body_begin; i + 1 < end; ++i) {
      // Assignment / declaration: `name = <expr>` taints or clears `name`
      // depending on whether the expr reads the wire or an already-tainted
      // value (std::min/std::clamp wrapping bounds the result).
      if (is_punct(t[i], "=") && i > 0 && t[i - 1].kind == Tok::identifier &&
          t[i - 1].text != "operator") {
        std::size_t e = stmt_end(t, i + 1, end);
        bool dirty = (range_has_source(t, i + 1, e) ||
                      range_first_tainted(t, i + 1, e, tainted) != nullptr) &&
                     !range_has_minclamp(t, i + 1, e);
        if (dirty)
          tainted.insert(t[i - 1].text);
        else
          tainted.erase(t[i - 1].text);
        continue;
      }
      // Sanitizers: a relational comparison of a tainted value inside an
      // if-condition, or passing it to a check_*/validate_* helper.
      if (is_ident(t[i], "if") && i + 1 < end && is_punct(t[i + 1], "(")) {
        std::size_t close = skip_balanced(t, i + 1);
        for (std::size_t b = i + 2; b + 1 < close; ++b) {
          if (t[b].kind != Tok::identifier || !tainted.count(t[b].text))
            continue;
          std::size_t l = b;  // token left of the (optionally deref'd) name
          if (l > 0 && is_punct(t[l - 1], "*")) --l;
          bool rel = (l > 0 && is_relational(t[l - 1])) ||
                     (b + 1 < close && is_relational(t[b + 1]));
          if (rel) tainted.erase(t[b].text);
        }
        // fall through: the condition may itself contain sinks (subscripts),
        // which the main walk reaches next.
        continue;
      }
      if (t[i].kind == Tok::identifier && is_validator_name(t[i].text) &&
          i + 1 < end && is_punct(t[i + 1], "(")) {
        std::size_t close = skip_balanced(t, i + 1);
        for (std::size_t b = i + 2; b + 1 < close; ++b)
          if (t[b].kind == Tok::identifier) tainted.erase(t[b].text);
        i = close - 1;
        continue;
      }
      if (tainted.empty()) continue;
      // Sink: loop bound — `for (...; i < *n; ...)`.
      if (is_ident(t[i], "for") && i + 1 < end && is_punct(t[i + 1], "(")) {
        std::size_t close = skip_balanced(t, i + 1);
        for (std::size_t b = i + 2; b < close; ++b) {
          if (!(is_relational(t[b]) || is_punct(t[b], "!="))) continue;
          std::size_t v = b + 1;
          if (v < close && is_punct(t[v], "*")) ++v;
          if (v < close && t[v].kind == Tok::identifier &&
              tainted.count(t[v].text))
            report(t[v].line, t[v].text, "a loop bound");
        }
        continue;
      }
      // Sink: resize/reserve argument.
      if (t[i].kind == Tok::identifier &&
          (t[i].text == "resize" || t[i].text == "reserve") && i > 0 &&
          (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
          i + 1 < end && is_punct(t[i + 1], "(")) {
        std::size_t close = skip_balanced(t, i + 1);
        if (!range_has_minclamp(t, i + 2, close)) {
          if (const std::string* name =
                  range_first_tainted(t, i + 2, close, tainted))
            report(t[i].line, *name, "a " + t[i].text + "() argument");
        }
        i = close - 1;
        continue;
      }
      // Sink: allocation size — `new T[n]`, malloc-family, sized container
      // construction (Buffer/vector/string with a count argument).
      if (is_ident(t[i], "new")) {
        std::size_t e = stmt_end(t, i + 1, end);
        for (std::size_t b = i + 1; b < e; ++b) {
          if (!is_punct(t[b], "[")) continue;
          std::size_t close = skip_balanced(t, b);
          if (!range_has_minclamp(t, b + 1, close - 1)) {
            if (const std::string* name =
                    range_first_tainted(t, b + 1, close - 1, tainted))
              report(t[b].line, *name, "an allocation size");
          }
          b = close - 1;
        }
        continue;
      }
      if (t[i].kind == Tok::identifier &&
          (t[i].text == "malloc" || t[i].text == "calloc" ||
           t[i].text == "realloc") &&
          i + 1 < end && is_punct(t[i + 1], "(")) {
        std::size_t close = skip_balanced(t, i + 1);
        if (!range_has_minclamp(t, i + 2, close)) {
          if (const std::string* name =
                  range_first_tainted(t, i + 2, close, tainted))
            report(t[i].line, *name, "an allocation size");
        }
        i = close - 1;
        continue;
      }
      if (t[i].kind == Tok::identifier &&
          (t[i].text == "Buffer" || t[i].text == "vector" ||
           t[i].text == "string")) {
        std::size_t j = i + 1;
        if (j < end && is_punct(t[j], "<")) j = skip_template_args(t, j);
        if (j < end && t[j].kind == Tok::identifier) ++j;  // var name
        if (j < end && is_punct(t[j], "(")) {
          std::size_t close = skip_balanced(t, j);
          if (!range_has_minclamp(t, j + 1, close)) {
            if (const std::string* name =
                    range_first_tainted(t, j + 1, close, tainted))
              report(t[i].line, *name, "an allocation size");
          }
          i = close - 1;
          continue;
        }
      }
      // Sink: array subscript — `buf[*n]` (capture lists and attributes have
      // no identifier/closer immediately before the '[').
      if (is_punct(t[i], "[") && i > 0 &&
          (t[i - 1].kind == Tok::identifier || is_punct(t[i - 1], "]") ||
           is_punct(t[i - 1], ")"))) {
        std::size_t close = skip_balanced(t, i);
        if (!range_has_minclamp(t, i + 1, close - 1)) {
          if (const std::string* name =
                  range_first_tainted(t, i + 1, close - 1, tainted))
            report(t[i].line, *name, "an array index");
        }
        i = close - 1;
        continue;
      }
    }
    (void)corpus;
  }
}

// ---------------------------------------------------------------------------
// hotpath-alloc
// ---------------------------------------------------------------------------

namespace {

bool is_growth_call(const std::string& s) {
  return s == "push_back" || s == "emplace_back" || s == "insert" ||
         s == "append" || s == "assign" || s == "resize" || s == "reserve" ||
         s == "emplace";
}

bool is_owned_container(const std::string& s) {
  return s == "string" || s == "vector" || s == "deque" || s == "map" ||
         s == "unordered_map" || s == "set" || s == "unordered_set" ||
         s == "list" || s == "ostringstream" || s == "stringstream";
}

std::string func_label(const FuncSpan& sp) {
  if (sp.name.empty()) return "(anonymous)";
  return sp.owner.empty() ? sp.name : sp.owner + "::" + sp.name;
}

}  // namespace

void pass_hotpath_alloc(const Corpus& corpus, const FileUnit& f,
                        const FileIndex& ix, std::vector<Finding>* out) {
  const Tokens& t = f.lx.tokens;

  // Seeds: @hotpath functions and every method of a @hotpath class.
  std::vector<char> hot(ix.funcs.size(), 0);
  for (std::size_t s = 0; s < ix.funcs.size(); ++s) {
    const FuncSpan& sp = ix.funcs[s];
    if (sp.coldpath) continue;
    if (sp.hotpath) hot[s] = 1;
    if (!sp.owner.empty()) {
      auto it = corpus.classes.find(sp.owner);
      if (it != corpus.classes.end() && it->second.hotpath) hot[s] = 1;
    }
  }
  // Same-file call-graph propagation to a fixpoint: a plain `callee(...)`
  // inside a hot body marks every same-named span hot (no overload
  // resolution — `@coldpath` is the opt-out for cold overloads).
  std::multimap<std::string, std::size_t> by_name;
  for (std::size_t s = 0; s < ix.funcs.size(); ++s)
    if (!ix.funcs[s].name.empty()) by_name.emplace(ix.funcs[s].name, s);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < ix.funcs.size(); ++s) {
      if (!hot[s]) continue;
      const FuncSpan& sp = ix.funcs[s];
      const std::size_t end = std::min(sp.body_end, t.size());
      for (std::size_t i = sp.body_begin + 1; i + 1 < end; ++i) {
        if (t[i].kind != Tok::identifier || !is_punct(t[i + 1], "("))
          continue;
        if (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->") ||
            is_punct(t[i - 1], "::"))
          continue;  // member/qualified call: target unknown, skip
        auto [lo, hi] = by_name.equal_range(t[i].text);
        for (auto it = lo; it != hi; ++it) {
          if (hot[it->second] || ix.funcs[it->second].coldpath) continue;
          hot[it->second] = 1;
          changed = true;
        }
      }
    }
  }

  auto report = [&](const FuncSpan& sp, int line, const char* kind,
                    const std::string& what) {
    if (suppressed(f, line, "hotpath-alloc")) return;
    Finding fd;
    fd.file = f.rel;
    fd.line = line;
    fd.rule = "hotpath-alloc";
    fd.message = "allocation (" + std::string(kind) + ": " + what +
                 ") in @hotpath function '" + func_label(sp) + "'";
    fd.suggestion =
        "preallocate in the owner or reuse a scratch buffer; annotate the "
        "function `// @coldpath` if it is off the indication path, or accept "
        "the debt via --write-baseline (tools/analyze/hotpath_baseline.txt)";
    fd.group = f.rel + "|" + func_label(sp) + "|" + kind;
    out->push_back(std::move(fd));
  };

  for (std::size_t s = 0; s < ix.funcs.size(); ++s) {
    if (!hot[s]) continue;
    const FuncSpan& sp = ix.funcs[s];
    const std::size_t end = std::min(sp.body_end, t.size());
    for (std::size_t i = sp.body_begin + 1; i + 1 < end; ++i) {
      if (t[i].kind != Tok::identifier) continue;
      const std::string& s_ = t[i].text;
      bool member = is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->");
      if (s_ == "new" && !member) {
        report(sp, t[i].line, "new", "operator new");
        continue;
      }
      // A call may carry explicit template args: `make_unique<T>(...)`.
      std::size_t after_targs = i + 1;
      if (after_targs < end && is_punct(t[after_targs], "<"))
        after_targs = skip_template_args(t, after_targs);
      bool calls = after_targs < end && is_punct(t[after_targs], "(");
      if (calls && !member &&
          (s_ == "malloc" || s_ == "calloc" || s_ == "realloc" ||
           s_ == "strdup" || s_ == "aligned_alloc" ||
           s_ == "posix_memalign")) {
        report(sp, t[i].line, "malloc-family", s_);
        continue;
      }
      if (calls && !member && s_ == "mmap") {
        report(sp, t[i].line, "mmap", s_);
        continue;
      }
      // `mem->allocate(n, align)`, `alloc.allocate(n)`: a memory resource
      // or allocator handing out a block.
      if (calls && member && s_ == "allocate") {
        report(sp, t[i].line, "resource-allocate", "." + s_ + "()");
        continue;
      }
      if (calls && (s_ == "make_unique" || s_ == "make_shared" ||
                    s_ == "make_unique_for_overwrite" ||
                    s_ == "make_shared_for_overwrite")) {
        report(sp, t[i].line, "make-smart-ptr", s_);
        continue;
      }
      if (calls && s_ == "to_string" && !member) {
        report(sp, t[i].line, "to-string", "std::to_string");
        continue;
      }
      if (calls && member && is_growth_call(s_)) {
        report(sp, t[i].line, "container-growth", "." + s_ + "()");
        continue;
      }
      // Owned-container construction with arguments (`std::string s(n, c)`,
      // `std::vector<T> v(n)`, `std::string(p, len)`): the construction
      // itself allocates. Bare declarations don't (growth is caught at the
      // member-call sites).
      if (is_owned_container(s_) && i >= 2 && is_punct(t[i - 1], "::") &&
          is_ident(t[i - 2], "std")) {
        std::size_t j = i + 1;
        if (j < end && is_punct(t[j], "<")) j = skip_template_args(t, j);
        std::size_t name_tok = 0;
        if (j < end && t[j].kind == Tok::identifier) name_tok = j++;
        if (j < end && (is_punct(t[j], "(") || is_punct(t[j], "{"))) {
          std::size_t close = skip_balanced(t, j);
          if (close > j + 2 || (name_tok == 0 && close > j + 1))
            report(sp, t[i].line, "owned-container", "std::" + s_);
        }
        continue;
      }
    }
  }
}

}  // namespace flexric::analyze
