// Fixture: a bench/ header with a sibling .cpp.
#pragma once
