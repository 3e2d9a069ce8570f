// Rule engine for the FlexRIC static analyzer.
//
// Thirteen rules, all running on the token stream (and the comment/directive
// side tables) from lexer.hpp over the shared symbol/annotation index from
// index.hpp (not line regexes — DESIGN.md §7, §10, §12). A discarded
// Status/Result is the compiler's to catch, not a rule: both are
// `class [[nodiscard]]` and the build passes -Werror=unused-result.
//
//   posted-lambda-lifetime  a lambda literal passed to post()/add_timer()/
//                           call_soon() that captures `this` or a raw
//                           pointer must also capture an alive token
//                           (std::weak_ptr guard or a capture named alive/
//                           guard/self/...), else destroying the owner with
//                           the task in flight is a use-after-free.
//   blocking-in-handler     sleep/blocking-syscall primitives are banned in
//                           reactor-affine code (src/ outside src/transport/)
//                           and inside any lambda posted to the reactor.
//   affinity-annotation     classes whose methods stamp
//                           FLEXRIC_ASSERT_AFFINITY must carry a
//                           `// @affine(<domain>)` comment on their
//                           declaration, and objects of annotated classes
//                           must not be touched from std::thread lambdas in
//                           examples/tests.
//   bounded-queue           `// @affine(...)` classes (and their nested
//                           types) must not declare raw std::deque/std::queue
//                           members: a queue fed from reactor handlers with
//                           no capacity policy grows without bound under an
//                           indication storm. Use overload::BoundedQueue /
//                           overload::PriorityQueue, which shed with exact
//                           accounting (DESIGN.md §11).
//   domain-ownership        fields of an `@affine(<domain>)` class may only
//                           be touched from code attributed to that domain
//                           (methods of the class, or functions annotated
//                           with the same domain); crossing requires a
//                           `@cross_domain` function or a conduit field
//                           (overload bounded/SPSC queues). Also validates
//                           domain names and method-vs-class domain
//                           conflicts.
//   wire-taint              in src/e2ap/, src/codec/ and src/e2sm/ (where
//                           both layers' decode archives live), values read
//                           off the wire (BufReader/PerReader scalar reads,
//                           length()) are tainted until range-validated;
//                           tainted use as a loop bound, allocation size,
//                           index or resize/reserve argument is an error.
//   hotpath-alloc           `@hotpath` functions (and every method of a
//                           `@hotpath` class, plus same-file callees) must
//                           not allocate: new/malloc/make_unique (also
//                           _for_overwrite), growing container calls, or
//                           owned-container construction.
//                           Existing debt is enumerated per function in
//                           tools/analyze/hotpath_baseline.txt; the gate
//                           fails only on regressions.
//   view-escape             borrowed-view types (std::span, std::string_view,
//                           BytesView, classes annotated `@view_of(<owner>)`
//                           and aliases of any of these) must not outlive the
//                           buffer they borrow: storing one in a member field
//                           of a non-view class, capturing one in a reactor-
//                           posted lambda, carrying one through an SpscRing,
//                           or returning one that refers to a local owning
//                           object are findings. `@extends_lifetime` marks a
//                           site/class that keeps an owning buffer alongside.
//   atomics-order           lock-free discipline: every SpscRing try_push/
//                           try_pop call site carries a `@producer(<ring>)` /
//                           `@consumer(<ring>)` annotation, and each ring
//                           name has exactly one site per end; a group of
//                           relaxed stores with no release barrier is a torn
//                           publish; a relaxed store to a field that another
//                           site acquire-loads never pairs; defaulted
//                           (seq_cst) atomic ops are flagged on `@hotpath`;
//                           atomics in `@affine(shard)` classes need
//                           alignas(64) against false sharing.
//   wire-assert             no assert()/FLEXRIC_ASSERT() in src/codec/,
//                           src/e2ap/ or src/e2sm/: malformed peer input
//                           must become an error, never an abort.
//   include-hygiene         quoted includes resolve under the including
//                           file's category roots (Corpus::include_roots)
//                           without `..`, and a .cpp with a sibling header
//                           includes it first (header self-containment).
//   thread-primitives       the reactor is single-threaded: threading
//                           primitives and their headers stay in
//                           src/transport/ plus the three sanctioned
//                           cross-shard headers (rules.cpp kThreadOkFiles).
//
// Suppression: `lint: allow(<rule>) <reason>` in a comment on the finding's
// line or the line directly above. The reason is mandatory (the gate run and
// --list both enforce it), and a full run flags suppressions that name no
// known rule or no longer silence anything (audit_suppressions).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.hpp"
#include "lexer.hpp"

namespace flexric::analyze {

/// One declared `std::atomic<...>` data member or namespace-scope global,
/// keyed by name in Corpus::atomic_fields (the analyzer has no type
/// inference at use sites, so the join is name-based).
struct AtomicField {
  std::string file;
  int line = 0;
  std::string owner;     ///< innermost enclosing type ("" for globals)
  bool aligned = false;  ///< alignas on the member or its enclosing class
};

/// One atomic member operation (`field.store(...)`, `field.load(...)`, RMWs)
/// or an `atomic_thread_fence(...)` (op == "fence", field empty). Joined
/// against atomic_fields by name at pass time.
struct AtomicUse {
  std::string file;
  int line = 0;
  std::string field;
  std::string op;     ///< load / store / fetch_add / ... / fence
  std::string order;  ///< relaxed/acquire/release/acq_rel/seq_cst; "" = default
  bool is_store = false;
  bool is_load = false;
  bool in_hot = false;    ///< enclosing function (or its class) is @hotpath
  std::string fn_key;     ///< file|function|line of the enclosing span
  std::string fn_label;   ///< Class::method for diagnostics
};

/// One SpscRing try_push/try_pop call site with its `@producer(<ring>)` /
/// `@consumer(<ring>)` site annotation (ring empty when unannotated).
struct RingSite {
  std::string file;
  int line = 0;
  bool push = false;  ///< try_push (producer end) vs try_pop (consumer end)
  std::string ring;
  /// Receiver identifier (`injector` in `s.injector->try_push(...)`); the
  /// site only counts when the name is declared as an SpscRing somewhere in
  /// the corpus (rings live in headers, call sites in .cpp files).
  std::string receiver;
};

struct Corpus {
  std::vector<FileUnit> files;
  /// Parallel to `files`: shared scope/function/annotation index, built once
  /// by build_registry().
  std::vector<FileIndex> index;
  /// Class names annotated `// @affine(<domain>)` (any domain).
  std::set<std::string> affine_classes;
  /// Annotated classes (`@affine(<domain>)` and/or `@hotpath`) with their
  /// domain and member-field table, keyed by class name.
  std::map<std::string, ClassInfo> classes;
  /// Borrowed-view type names: std::span/string_view/BytesView seeds plus
  /// classes annotated `@view_of(<owner>)` and aliases resolving to any of
  /// these (resolve_view_aliases runs the alias set to a fixpoint).
  std::set<std::string> view_types;
  /// Classes annotated `@extends_lifetime`: they hold an owning buffer next
  /// to their views, so view-typed members are sanctioned.
  std::set<std::string> lifetime_classes;
  /// `using X = <rhs>;` declarations at declaration scope (alias templates
  /// included), as (name, rhs identifier texts) pending view resolution.
  std::vector<std::pair<std::string, std::vector<std::string>>> type_aliases;
  /// Declared atomics by field name; uses are joined by name.
  std::map<std::string, AtomicField> atomic_fields;
  std::vector<AtomicUse> atomic_uses;
  /// Names declared with SpscRing type anywhere in the corpus (members,
  /// locals, smart-pointer holders), for receiver-matching ring_sites.
  std::set<std::string> spsc_names;
  /// SpscRing endpoint call sites across the whole corpus.
  std::vector<RingSite> ring_sites;
  /// Every scanned file's rel path: include-hygiene resolves against it.
  std::set<std::string> file_set;
  /// Quoted-include roots per category, relative to the scan root ("" is
  /// the root itself), tried in order (include-hygiene).
  std::map<std::string, std::vector<std::string>> include_roots = {
      {"src", {"src"}},
      {"tests", {"src", "tests"}},
      {"fuzz", {"src", "fuzz"}},
      {"bench", {"src", "bench", ""}},
      {"examples", {"src", "examples"}},
  };
};

inline const char* const kAllRules[] = {
    "posted-lambda-lifetime",
    "blocking-in-handler",
    "affinity-annotation",
    "bounded-queue",
    "domain-ownership",
    "wire-taint",
    "hotpath-alloc",
    "view-escape",
    "atomics-order",
    "wire-assert",
    "include-hygiene",
    "thread-primitives",
};

/// Populate corpus.index, file_set and the symbol registries
/// (affine_classes, classes) from corpus.files.
void build_registry(Corpus& corpus);

/// Run the selected rules; findings are suppression-filtered, in file
/// order.
std::vector<Finding> run_rules(const Corpus& corpus,
                               const std::set<std::string>& rules);

/// Every `lint: allow(...)` suppression in the corpus (for --list and the
/// stale-suppression audit).
std::vector<Suppression> collect_suppressions(const Corpus& corpus);

/// Suppression audit of a full run (every rule selected): each allow() must
/// name a rule of kAllRules, carry a reason and be in `used` (the
/// "file:line:rule" keys the suppression tracker recorded).
void audit_suppressions(const Corpus& corpus, const std::set<std::string>& used,
                        std::vector<Finding>* out);

// --- passes.cpp -------------------------------------------------------------

/// Domain ownership: cross-domain field access, unknown domain names,
/// method-vs-class domain conflicts.
void pass_domain_ownership(const Corpus& corpus, const FileUnit& f,
                           const FileIndex& ix, std::vector<Finding>* out);

/// Wire taint: unvalidated decoded values used as sizes/bounds/indices.
void pass_wire_taint(const Corpus& corpus, const FileUnit& f,
                     const FileIndex& ix, std::vector<Finding>* out);

/// Hot-path allocation: allocation sites reachable from @hotpath functions.
void pass_hotpath_alloc(const Corpus& corpus, const FileUnit& f,
                        const FileIndex& ix, std::vector<Finding>* out);

// --- view_pass.cpp ----------------------------------------------------------

/// Registry half: `@view_of`/`@extends_lifetime` classes and type aliases.
void register_view_types(const FileUnit& f, const FileIndex& ix,
                         Corpus& corpus);
/// Resolve `using X = <view>` aliases (transitively) into view_types.
void resolve_view_aliases(Corpus& corpus);
/// View escape: members, posted-lambda captures, ring payloads, returns.
void pass_view_escape(const Corpus& corpus, const FileUnit& f,
                      const FileIndex& ix, std::vector<Finding>* out);

// --- atomics_pass.cpp -------------------------------------------------------

/// Registry half: atomic field declarations, atomic op sites, fences, and
/// SpscRing endpoint call sites with their @producer/@consumer annotations.
void register_atomics(const FileUnit& f, const FileIndex& ix, Corpus& corpus);
/// Lock-free discipline: SPSC endpoint exactness, relaxed group publish,
/// acquire/release pairing, seq_cst-by-default on @hotpath, false sharing.
void pass_atomics_order(const Corpus& corpus, const FileUnit& f,
                        const FileIndex& ix, std::vector<Finding>* out);

}  // namespace flexric::analyze
