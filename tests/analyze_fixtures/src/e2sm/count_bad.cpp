// Wire-taint fixture on the E2SM path, where the decode archives of both
// protocol layers live. Golden finding (expected.txt): a list count read
// off the wire drives the loop before any check. The guarded twin below it,
// which bounds the count by the payload left as every archive's vec() does,
// must stay silent.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace flexric {

struct CountReader {
  std::uint64_t uvarint();
  std::size_t remaining() const;
};

inline void bad_list(CountReader& r, std::vector<int>& out) {
  auto n = r.uvarint();
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(0);
}

inline bool good_list(CountReader& r, std::vector<int>& out) {
  auto n = r.uvarint();
  if (n > r.remaining()) return false;  // each element is at least a byte
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(0);
  return true;
}

}  // namespace flexric
