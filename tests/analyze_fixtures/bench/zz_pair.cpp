// Fixture: a passing bench/ pair. bench/'s include roots are src/, bench/ and
// the repo root, so the sibling header may be spelled "zz_pair.hpp" (or
// "bench/zz_pair.hpp"). Expected findings: none.
#include "zz_pair.hpp"
