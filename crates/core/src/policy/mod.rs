//! The four battery power-management schemes of paper Table 4.

mod baat_full;
mod baat_h;
mod baat_s;
pub(crate) mod common;
mod e_buff;

pub use baat_full::{Baat, BaatConfig, PlannedAging};
pub use baat_h::BaatH;
pub use baat_s::{BaatS, SlowdownThresholds};
pub use common::{
    best_migration_target, classify_workload, heaviest_movable_vm, node_weighted_aging,
    rank_by_weighted_aging, IntervalRanking,
};
pub use e_buff::EBuff;
