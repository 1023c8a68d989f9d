//! One module per table/figure of the paper's evaluation section.
//!
//! Every experiment returns structured rows plus a [`crate::table::Table`]
//! rendering, so the `repro` binary, the Criterion benches, and the
//! integration tests all share one implementation.

pub mod fig61;
pub mod fig62;
pub mod fig63;
pub mod fig64;
pub mod fig65;
pub mod fig66;
pub mod fig67;
pub mod lemmas;
pub mod mutate;
pub mod outofcore;
pub mod planner;
pub mod serve_throughput;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
