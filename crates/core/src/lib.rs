//! BAAT — battery anti-aging treatment for green datacenters.
//!
//! The paper's primary contribution (DSN 2015): a power-management
//! framework that *hides*, *slows down* and *plans* battery aging using
//! five telemetry-derived metrics (NAT, CF, PC, DDT, DR). This crate
//! implements the four Table-4 schemes as [`baat_sim::Policy`]
//! implementations plus the analyses built on them:
//!
//! * [`EBuff`] — the aggressive green-energy-buffer baseline ([4, 7]);
//! * [`BaatS`] — aging slowdown via DVFS power capping (Fig 9);
//! * [`BaatH`] — aging hiding via (naive) VM migration;
//! * [`Baat`] — the coordinated scheme: Eq-6 weighted-aging placement
//!   (Fig 8), migration-first slowdown, balance migrations, and optional
//!   planned aging (Eq 7, §IV.D);
//! * [`Scheme`] — the Table-4 enumeration, buildable into boxed policies;
//! * [`estimate_lifetime`] — damage-rate extrapolation to end-of-life
//!   (Figs 14, 15);
//! * [`LowSocSummary`] / [`availability_improvement`] /
//!   [`soc_distribution`] — the §VI.E availability analyses (Figs 18,
//!   19).
//!
//! # Examples
//!
//! Run one cloudy prototype day under full BAAT and compare against
//! e-Buff:
//!
//! ```
//! use baat_core::Scheme;
//! use baat_sim::{run_simulation, SimConfig};
//! use baat_solar::Weather;
//!
//! let config = SimConfig::prototype_day(Weather::Cloudy, 42);
//! let ebuff = run_simulation(config.clone(), &mut Scheme::EBuff.build())?;
//! let baat = run_simulation(config, &mut Scheme::Baat.build())?;
//! assert!(baat.total_work > 0.0 && ebuff.total_work > 0.0);
//! # Ok::<(), baat_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod lifetime;
mod policy;
mod scheme;

pub use availability::{
    availability_improvement, critical_improvement, soc_distribution, worst_critical_duration,
    LowSocSummary, EMERGENCY_RESERVE,
};
pub use lifetime::{estimate_lifetime, weather_plan_for_sunshine, LifetimeEstimate};
pub use policy::{
    best_migration_target, classify_workload, heaviest_movable_vm, node_weighted_aging,
    rank_by_weighted_aging, Baat, BaatConfig, BaatH, BaatS, EBuff, IntervalRanking, PlannedAging,
    SlowdownThresholds,
};
pub use scheme::Scheme;
