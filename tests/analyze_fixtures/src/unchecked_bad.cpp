// Known-bad fixture for unchecked-result: `.value()` asserts on the error arm,
// so outside tests/ a Result must be branched on with is_ok() first.
// Golden findings (expected.txt): lines 14 and 15 (one per line, however many
// calls share it). A call spelled in a comment — r.value() — or inside a
// string literal is not code and stays silent.
namespace fixture {

struct Res {
  bool is_ok() const { return true; }
  int value() const { return 1; }
};

int unchecked(const Res& r, const Res& s) {
  int a = r.value();
  int b = s.value() + r.value();
  const char* text = "r.value()";
  (void)text;
  // An assert outside src/codec, src/e2ap and src/e2sm is not wire-assert's.
  assert(a >= 0);
  return a + b;
}

}  // namespace fixture
