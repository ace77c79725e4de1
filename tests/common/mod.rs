//! Code shared by integration tests (not a test target of its own).

pub mod byte_reader;
