// Fixture: a bench/ header whose sibling .cpp includes it second.
#pragma once
