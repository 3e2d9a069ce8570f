// atomics-order: lock-free discipline for the sharded runtime (DESIGN.md
// §14). Five checks over the corpus-wide atomic registry built by
// register_atomics():
//
//   b1  every SpscRing try_push/try_pop call site carries a
//       `@producer(<ring>)` / `@consumer(<ring>)` annotation, and every ring
//       name has exactly one producer site and one consumer site — the
//       single-producer/single-consumer contract is structural, so two push
//       sites on one ring is a bug even when both run on the same thread
//       today
//   b2  a function that publishes two or more distinct fields with relaxed
//       stores and no release-or-stronger store/fence in between is a torn
//       publish: a reader can observe field A's new value with field B's old
//       one
//   b3  a field that some site acquire-loads but that no site ever
//       release-stores never synchronizes — the acquire is a no-op and the
//       relaxed stores leak unordered data
//   b4  defaulted (seq_cst) atomic ops inside `@hotpath` code pay a full
//       fence per op on ARM/POWER; spell the intended order
//   b5  a mutable atomic inside an `@affine(shard)` class without alignas(64)
//       invites false sharing with its neighbours across shard threads
#include <algorithm>
#include <cstddef>
#include <map>

#include "rules.hpp"

namespace flexric::analyze {

namespace {

struct OpKind {
  const char* name;
  bool store;
  bool load;
};

constexpr OpKind kAtomicOps[] = {
    {"load", false, true},
    {"store", true, false},
    {"exchange", true, true},
    {"fetch_add", true, true},
    {"fetch_sub", true, true},
    {"fetch_and", true, true},
    {"fetch_or", true, true},
    {"fetch_xor", true, true},
    {"compare_exchange_weak", true, true},
    {"compare_exchange_strong", true, true},
};

const OpKind* atomic_op(const Token& t) {
  if (t.kind != Tok::identifier) return nullptr;
  for (const OpKind& op : kAtomicOps)
    if (t.text == op.name) return &op;
  return nullptr;
}

/// First memory_order_* / std::memory_order::* identifier in a call's
/// argument list, stripped to its short name ("" when defaulted).
std::string order_in_args(const Tokens& t, std::size_t open,
                          std::size_t close) {
  for (std::size_t i = open + 1; i < close; ++i) {
    if (t[i].kind != Tok::identifier) continue;
    const std::string& s = t[i].text;
    if (s.rfind("memory_order_", 0) == 0) return s.substr(13);
    if (s == "memory_order" && i + 2 < close && is_punct(t[i + 1], "::") &&
        t[i + 2].kind == Tok::identifier)
      return t[i + 2].text;
  }
  return "";
}

/// Defaulted order is seq_cst: at least as strong as anything.
bool order_at_least_release(const std::string& o) {
  return o.empty() || o == "release" || o == "acq_rel" || o == "seq_cst";
}
bool order_at_least_acquire(const std::string& o) {
  return o.empty() || o == "acquire" || o == "acq_rel" || o == "seq_cst";
}

/// The enclosing FuncSpan for a token index, or nullptr at declaration scope.
const FuncSpan* enclosing_span(const FileIndex& ix, std::size_t i) {
  for (const FuncSpan& sp : ix.funcs)
    if (i >= sp.body_begin && i < sp.body_end) return &sp;
  return nullptr;
}

}  // namespace

void register_atomics(const FileUnit& f, const FileIndex& ix, Corpus& corpus) {
  if (f.category != "src") return;
  const Tokens& t = f.lx.tokens;
  const ScopeInfo& scopes = ix.scopes;

  // Classes whose whole definition carries alignas (rare; the usual spelling
  // is per-member) — `struct alignas(64) Slot {`.
  std::set<std::string> aligned_classes;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_ident(t[i], "struct") || is_ident(t[i], "class"))) continue;
    std::size_t j = i + 1;
    if (is_ident(t[j], "alignas") && j + 1 < t.size() &&
        is_punct(t[j + 1], "(")) {
      j = skip_balanced(t, j + 1);
      if (j < t.size() && t[j].kind == Tok::identifier)
        aligned_classes.insert(t[j].text);
    }
  }

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // Atomic declarations at declaration scope:
    //   std::atomic<T> name;   alignas(64) std::atomic<T> name{0};
    if (is_ident(t[i], "atomic") && scopes.func_depth[i] == 0 &&
        is_punct(t[i + 1], "<")) {
      std::size_t j = skip_template_args(t, i + 1);
      int guard = 0;
      while (j < t.size() && guard++ < 3 &&
             (is_punct(t[j], "*") || is_punct(t[j], "&")))
        ++j;
      if (j + 1 < t.size() && t[j].kind == Tok::identifier &&
          (is_punct(t[j + 1], ";") || is_punct(t[j + 1], "{") ||
           is_punct(t[j + 1], "="))) {
        AtomicField fld;
        fld.file = f.rel;
        fld.line = t[j].line;
        fld.owner = scopes.type_chain[j];
        std::size_t pos = fld.owner.rfind("::");
        if (pos != std::string::npos) fld.owner = fld.owner.substr(pos + 2);
        // alignas anywhere between the statement boundary and the name.
        for (std::size_t k = j; k-- > 0;) {
          if (is_punct(t[k], ";") || is_punct(t[k], "{") ||
              is_punct(t[k], "}"))
            break;
          if (is_ident(t[k], "alignas")) fld.aligned = true;
        }
        if (aligned_classes.count(fld.owner) != 0) fld.aligned = true;
        corpus.atomic_fields.emplace(t[j].text, std::move(fld));
      }
    }

    // Atomic member ops: `field.store(...)`, `obj->field.load(...)`, RMWs.
    const OpKind* op = atomic_op(t[i]);
    if (op != nullptr && i >= 2 && i + 1 < t.size() &&
        is_punct(t[i + 1], "(") &&
        (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->")) &&
        t[i - 2].kind == Tok::identifier) {
      std::size_t close = skip_balanced(t, i + 1);
      AtomicUse use;
      use.file = f.rel;
      use.line = t[i].line;
      use.field = t[i - 2].text;
      use.op = op->name;
      use.order = order_in_args(t, i + 1, close - 1);
      use.is_store = op->store;
      use.is_load = op->load;
      if (const FuncSpan* sp = enclosing_span(ix, i)) {
        std::string label =
            sp->owner.empty() ? sp->name : sp->owner + "::" + sp->name;
        if (label.empty()) label = "(anonymous)";
        use.fn_key = f.rel + "|" + label + "|" + std::to_string(sp->line);
        use.fn_label = label;
        use.in_hot = sp->hotpath;
        if (!use.in_hot && !sp->owner.empty()) {
          auto it = corpus.classes.find(sp->owner);
          if (it != corpus.classes.end() && it->second.hotpath)
            use.in_hot = !sp->coldpath;
        }
      }
      corpus.atomic_uses.push_back(std::move(use));
    }

    // Standalone fences participate in the torn-publish check (b2).
    if (is_ident(t[i], "atomic_thread_fence") && is_punct(t[i + 1], "(")) {
      std::size_t close = skip_balanced(t, i + 1);
      AtomicUse use;
      use.file = f.rel;
      use.line = t[i].line;
      use.op = "fence";
      use.order = order_in_args(t, i + 1, close - 1);
      if (const FuncSpan* sp = enclosing_span(ix, i)) {
        std::string label =
            sp->owner.empty() ? sp->name : sp->owner + "::" + sp->name;
        if (label.empty()) label = "(anonymous)";
        use.fn_key = f.rel + "|" + label + "|" + std::to_string(sp->line);
        use.fn_label = label;
        use.in_hot = sp->hotpath;
      }
      corpus.atomic_uses.push_back(std::move(use));
    }
  }

  // SpscRing endpoint call sites. Ring declarations (members, locals,
  // smart-pointer holders — the declared identifier follows the template
  // args / declarator puncts) go into the corpus-wide name set; call sites
  // record their receiver and are matched against that set at pass time,
  // because rings are declared in headers while the endpoints live in .cpp
  // files.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "SpscRing") || !is_punct(t[i + 1], "<")) continue;
    std::size_t j = skip_template_args(t, i + 1);
    int guard = 0;
    while (j < t.size() && guard++ < 4 &&
           (is_punct(t[j], ">") || is_punct(t[j], "*") || is_punct(t[j], "&")))
      ++j;
    if (j < t.size() && t[j].kind == Tok::identifier)
      corpus.spsc_names.insert(t[j].text);
  }
  for (std::size_t i = 2; i + 1 < t.size(); ++i) {
    bool push = is_ident(t[i], "try_push");
    bool pop = is_ident(t[i], "try_pop");
    if (!push && !pop) continue;
    if (!is_punct(t[i + 1], "(")) continue;
    if (!(is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"))) continue;
    if (t[i - 2].kind != Tok::identifier) continue;
    RingSite site;
    site.file = f.rel;
    site.line = t[i].line;
    site.push = push;
    site.receiver = t[i - 2].text;
    site.ring = annotation_arg_near(f.lx, t[i].line,
                                    push ? "@producer" : "@consumer");
    corpus.ring_sites.push_back(std::move(site));
  }
}

void pass_atomics_order(const Corpus& corpus, const FileUnit& f,
                        const FileIndex& ix, std::vector<Finding>* out) {
  (void)ix;
  auto report = [&](int line, const std::string& msg, const std::string& fix) {
    if (suppressed(f, line, "atomics-order")) return;
    Finding fd;
    fd.file = f.rel;
    fd.line = line;
    fd.rule = "atomics-order";
    fd.message = msg;
    fd.suggestion = fix;
    out->push_back(std::move(fd));
  };

  // --- b1: SPSC endpoint annotation + exactness --------------------------
  std::map<std::string, int> push_count, pop_count;
  for (const RingSite& s : corpus.ring_sites) {
    if (s.ring.empty() || corpus.spsc_names.count(s.receiver) == 0) continue;
    (s.push ? push_count : pop_count)[s.ring]++;
  }
  for (const RingSite& s : corpus.ring_sites) {
    if (s.file != f.rel) continue;
    if (corpus.spsc_names.count(s.receiver) == 0) continue;
    const char* end = s.push ? "producer" : "consumer";
    if (s.ring.empty()) {
      report(s.line,
             std::string("SpscRing ") + (s.push ? "try_push" : "try_pop") +
                 " site lacks a @" + end + "(<ring>) annotation",
             std::string("add `// @") + end +
                 "(<ring-name>)` naming the logical ring this end belongs "
                 "to; the pass enforces one site per end");
      continue;
    }
    int mine = s.push ? push_count[s.ring] : pop_count[s.ring];
    if (mine > 1)
      report(s.line,
             "ring '" + s.ring + "' has " + std::to_string(mine) + " " + end +
                 " sites; the single-" + end + " contract allows exactly one",
             "funnel every " + std::string(s.push ? "push" : "pop") +
                 " through one function so the " + end +
                 " end has a single call site");
    int other = s.push ? pop_count[s.ring] : push_count[s.ring];
    if (other == 0)
      report(s.line,
             "ring '" + s.ring + "' has a " + std::string(end) +
                 " site but no " + (s.push ? "consumer" : "producer") +
                 " anywhere in the corpus",
             std::string("annotate the matching ") +
                 (s.push ? "try_pop" : "try_push") + " site `// @" +
                 (s.push ? "consumer" : "producer") + "(" + s.ring + ")`");
  }

  // --- b2: relaxed group publish without a release barrier ---------------
  // Group uses by enclosing function; flag when ≥2 distinct fields are
  // relaxed-stored and nothing in the function orders them for a reader.
  std::map<std::string, std::vector<const AtomicUse*>> by_fn;
  for (const AtomicUse& u : corpus.atomic_uses) {
    if (u.file != f.rel || u.fn_key.empty()) continue;
    by_fn[u.fn_key].push_back(&u);
  }
  for (const auto& [key, uses] : by_fn) {
    std::set<std::string> relaxed_stored;
    const AtomicUse* first = nullptr;
    bool has_release = false;
    for (const AtomicUse* u : uses) {
      if (u->is_store && u->order == "relaxed" && !u->field.empty()) {
        relaxed_stored.insert(u->field);
        if (first == nullptr || u->line < first->line) first = u;
      }
      if ((u->is_store || u->op == "fence") &&
          order_at_least_release(u->order))
        has_release = true;
    }
    if (relaxed_stored.size() >= 2 && !has_release && first != nullptr)
      report(first->line,
             "'" + first->fn_label + "' publishes " +
                 std::to_string(relaxed_stored.size()) +
                 " fields with relaxed stores and no release barrier — a "
                 "reader can see them torn",
             "make the last store memory_order_release, add a release "
             "fence, or wrap the group in a seqlock (odd/even sequence "
             "counter)");
  }

  // --- b3: acquire loads that never pair with a release store ------------
  // Corpus-wide per field; findings attach to this file's sites only.
  std::map<std::string, std::vector<const AtomicUse*>> by_field;
  for (const AtomicUse& u : corpus.atomic_uses)
    if (!u.field.empty() && corpus.atomic_fields.count(u.field) != 0)
      by_field[u.field].push_back(&u);
  for (const auto& [field, uses] : by_field) {
    bool acquire_load = false, any_store = false, release_store = false;
    for (const AtomicUse* u : uses) {
      if (u->is_load && !u->is_store && order_at_least_acquire(u->order))
        acquire_load = true;
      if (u->is_store) {
        any_store = true;
        if (order_at_least_release(u->order)) release_store = true;
      }
    }
    if (!acquire_load || release_store) continue;
    if (!any_store) continue;  // load-only fields: config read post-init
    for (const AtomicUse* u : uses) {
      if (u->file != f.rel) continue;
      if (!u->is_store || u->order != "relaxed") continue;
      report(u->line,
             "relaxed store to '" + field + "' — another site acquire-loads "
                 "this field, but no store ever releases, so the acquire "
                 "never synchronizes",
             "store with memory_order_release (or add a release fence "
             "before a relaxed flag store)");
    }
  }

  // --- b4: defaulted seq_cst on the hot path -----------------------------
  for (const AtomicUse& u : corpus.atomic_uses) {
    if (u.file != f.rel || !u.in_hot || u.op == "fence") continue;
    if (!u.order.empty()) continue;
    report(u.line,
           "defaulted (seq_cst) atomic " + u.op + " on '" + u.field +
               "' in @hotpath '" + u.fn_label + "' — a full fence per op",
           "spell the weakest order that is correct "
           "(memory_order_relaxed for counters, acquire/release for "
           "handoff)");
  }

  // --- b5: false sharing in @affine(shard) classes -----------------------
  for (const auto& [name, fld] : corpus.atomic_fields) {
    if (fld.file != f.rel || fld.aligned || fld.owner.empty()) continue;
    auto it = corpus.classes.find(fld.owner);
    if (it == corpus.classes.end() || it->second.domain != "shard") continue;
    report(fld.line,
           "atomic '" + name + "' in @affine(shard) class " + fld.owner +
               " is not alignas(64) — neighbouring shards' writes will "
               "false-share its cache line",
           "declare it `alignas(64) std::atomic<...> " + name + ";`");
  }
}

}  // namespace flexric::analyze
