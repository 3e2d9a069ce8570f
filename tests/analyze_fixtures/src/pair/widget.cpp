// Fixture: a passing src/ pair — the sibling header comes first, spelled
// from the src/ root. Expected findings: none.
#include "pair/widget.hpp"
