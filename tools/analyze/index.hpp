// Shared symbol/annotation index for the FlexRIC static analyzer.
//
// Every pass used to re-derive brace scopes from the raw token stream; the
// multi-pass framework computes one FileIndex per translation unit up front:
//
//   ScopeInfo   per-token function depth / owner class / enclosing type chain
//   FuncSpan    every top-level function body with its name, owner class and
//               declaration-site annotations (@affine(<domain>),
//               @cross_domain, @hotpath, @coldpath)
//   ClassInfo   every annotated class with its affinity domain, hot-path
//               marking and data-member table (for ownership attribution)
//
// Annotation grammar (DESIGN.md §12): a comment within two lines above (or on
// the line of) a class or function declaration:
//
//   // `@affine(<domain>)`  domain ∈ {reactor, shard, any}
//   // @cross_domain       function is an approved domain-crossing conduit
//   // @hotpath            function/class must not allocate (hotpath-alloc)
//   // @coldpath           excluded from hot-path call-graph propagation
//
// Suppressions (`lint: allow(<rule>) <reason>`) also live here so rules and
// passes share one matcher, and so a full run can report stale suppressions:
// set_suppression_tracker() records every allow() that actually silenced a
// finding.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace flexric::analyze {

using Tokens = std::vector<Token>;

// ---------------------------------------------------------------------------
// Findings, corpus files, suppressions (shared vocabulary of all passes).
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;  // path relative to the scan root
  int line = 0;
  std::string rule;
  std::string message;
  std::string suggestion;
  /// Baseline key for rate-able findings ("file|function|kind" for
  /// hotpath-alloc, "" otherwise). Findings sharing a group are compared
  /// against the committed baseline by count, not by line number.
  std::string group;
};

struct FileUnit {
  std::string rel;       // repo-relative path, '/' separators
  std::string category;  // top-level dir: "src", "bench", "examples", "tests"
  LexedFile lx;
};

/// One suppression comment found in the corpus.
struct Suppression {
  std::string file;
  int line = 0;
  std::string rule;
  std::string reason;
};

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

inline bool is_ident(const Token& t, const char* text) {
  return t.kind == Tok::identifier && t.text == text;
}
inline bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::punct && t.text == text;
}

/// Find the index of the `(` matching the `)` at `close` (walking backward).
std::size_t match_paren_back(const Tokens& t, std::size_t close);

/// Find the index of the token after the `)`/`]`/`}` matching the opener at
/// `open` (forward). Treats ">>" as plain punct (not a closer).
std::size_t skip_balanced(const Tokens& t, std::size_t open);

/// After a template head, skip `<...>` template args (">>" closes two
/// levels). Returns the index after the closing '>', or `from` on failure.
std::size_t skip_template_args(const Tokens& t, std::size_t from);

/// One entry of a lambda capture list (shared by the lifetime rule and the
/// view-escape pass).
struct Capture {
  std::string name;         // captured variable ("" for default captures)
  bool by_ref = false;      // &x / & default
  bool is_this = false;     // `this` (not `*this`, which copies)
  bool def_copy = false;    // [=] default capture present on this entry
  bool def_ref = false;     // [&] default capture present on this entry
  std::vector<Token> init;  // init-capture tokens after '='
};

/// Parse the capture list starting at the '[' at `open`. Returns the index
/// just after the ']' and fills `out`.
std::size_t parse_captures(const Tokens& t, std::size_t open,
                           std::vector<Capture>* out);

// ---------------------------------------------------------------------------
// Scope analysis + function spans.
// ---------------------------------------------------------------------------

enum class ScopeKind { ns, type, func, block };

struct ScopeInfo {
  /// Per token: number of enclosing function bodies (0 = declaration scope).
  std::vector<int> func_depth;
  /// Per token: class owning the innermost enclosing function definition
  /// ("" for free functions / declaration scope).
  std::vector<std::string> owner_class;
  /// Per token: "::"-joined chain of enclosing type scopes, outermost first.
  std::vector<std::string> type_chain;
};

/// One top-level function definition (lambdas are blocks, not spans).
struct FuncSpan {
  std::string name;        // unqualified name ("" if unrecognized shape)
  std::string owner;       // owning class from X::name( or enclosing type
  std::size_t sig_begin = 0;  // first token of the declaration
  std::size_t body_begin = 0; // index of the '{'
  std::size_t body_end = 0;   // index just after the matching '}'
  int line = 0;               // line of the '{'
  // Declaration-site annotations:
  std::string domain;         // `@affine(<domain>)` on the function itself
  bool cross_domain = false;  // @cross_domain
  bool hotpath = false;       // @hotpath
  bool coldpath = false;      // @coldpath
};

struct FileIndex {
  ScopeInfo scopes;
  std::vector<FuncSpan> funcs;
};

/// Build scopes + function spans + annotations for one file.
FileIndex build_file_index(const LexedFile& lx);

// ---------------------------------------------------------------------------
// Class registry (annotated classes with their member-field table).
// ---------------------------------------------------------------------------

struct FieldInfo {
  int line = 0;
  /// A conduit field (overload::BoundedQueue / PriorityQueue / RateLimiter /
  /// SPSC) may be touched across domains; plain fields may not.
  bool conduit = false;
};

struct ClassInfo {
  std::string name;
  std::string file;       // file of the annotated declaration
  int line = 0;           // line of the class keyword
  std::string domain;     // `@affine(<domain>)`; "" if only @hotpath
  bool hotpath = false;   // class-level @hotpath: every method is hot
  std::map<std::string, FieldInfo> fields;
};

/// Extract `@affine(<dom>)` from a comment string ("" if absent). An empty
/// or malformed argument yields "reactor" (the historical default is spelled
/// explicitly everywhere, but stay permissive for `@affine()`).
std::string parse_affine_domain(const std::string& comment);

/// True if any comment line in [line-2, line] contains `needle`.
bool annotation_near(const LexedFile& lx, int line, const char* needle);

/// The argument of `@<key>(<arg>)` in a comment within [line-2, line],
/// trimmed; "" when the key is absent or the argument is empty (use
/// annotation_near to distinguish a malformed empty argument from absence).
std::string annotation_arg_near(const LexedFile& lx, int line,
                                const char* key);

/// The valid affinity domains.
bool is_known_domain(const std::string& d);

/// Decoder territory (src/codec/, src/e2ap/, src/e2sm/): bytes handled here
/// come straight off the wire (wire-taint, wire-assert).
bool in_wire_dir(const std::string& rel);

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

/// Parse every `lint: allow(<rule>) <reason>` out of one comment string.
void parse_allows(const std::string& comment, int line, const std::string& file,
                  std::vector<Suppression>* out);

/// True if `rule` is allowed on `line` (or the line above) in `f`. When a
/// tracker is installed, the match is recorded so a full run can flag
/// suppressions that never fired (stale).
bool suppressed(const FileUnit& f, int line, const std::string& rule);

/// Install/remove a set collecting "file:line:rule" for every suppression
/// that silenced a finding. Pass nullptr to stop tracking.
void set_suppression_tracker(std::set<std::string>* used);

}  // namespace flexric::analyze
