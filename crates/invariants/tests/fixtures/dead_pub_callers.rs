//! Fixture: library `pub fn`s whose only outside callers are tests,
//! benches, test modules, examples or the campaign benchmark.

pub fn from_tests_and_benches() {}

pub fn from_a_test_module() {}

pub fn from_an_example() {}

pub fn from_the_campaign() {}
