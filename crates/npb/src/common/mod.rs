//! Infrastructure shared by every NPB port: the NPB pseudo-random
//! generator, problem classes, verification, official operation counts,
//! timers, and dense-array helpers.

pub mod array;
pub mod class;
pub(crate) mod mops;
pub mod randdp;
pub mod result;
pub(crate) mod timers;
pub mod verify;
