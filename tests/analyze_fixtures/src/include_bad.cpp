// Known-bad fixture for include-hygiene: quoted includes resolve under the
// category's roots (src/ here) and never escape them with "..". Golden
// findings (expected.txt): line 7 escapes, line 8 resolves nowhere. Line 6
// is rooted at src/ and resolves, so it stays silent.
#include <vector>
#include "pair/widget.hpp"
#include "../outside.hpp"
#include "nowhere/missing.hpp"
