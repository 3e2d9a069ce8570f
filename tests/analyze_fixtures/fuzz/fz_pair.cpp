// Fixture: a passing fuzz/ pair, the sibling spelled from the fuzz/ root.
// Expected findings: none.
#include "fz_pair.hpp"
