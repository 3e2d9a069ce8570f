// Known-bad fixture for include-hygiene: a .cpp includes its sibling header
// first so every header is proven self-contained. Golden finding
// (expected.txt): line 5, which resolves but is not the sibling.
#include <cstdint>
#include "bench/zz_pair.hpp"
#include "zz_wrong.hpp"
