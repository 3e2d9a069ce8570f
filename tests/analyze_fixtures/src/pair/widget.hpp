// Fixture: a header with a sibling .cpp.
#pragma once
