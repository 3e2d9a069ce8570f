// Fixture: a fuzz/ header with a sibling .cpp.
#pragma once
