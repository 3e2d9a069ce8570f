// Known-bad fixture for wire-assert: src/e2ap/ decodes peer bytes, so an
// assert there turns malformed input into a process abort. Golden findings
// (expected.txt): lines 10 and 11. static_assert is compile-time and stays
// silent; so does an assert( mentioned in a comment.
#include <cassert>

namespace fixture {

int decode_len(int wire_len) {
  assert(wire_len >= 0);
  FLEXRIC_ASSERT(wire_len < 4096, "oversized");
  static_assert(sizeof(int) >= 4, "int is at least 32 bits");
  return wire_len;
}

}  // namespace fixture
