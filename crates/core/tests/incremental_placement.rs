//! Bit-identity of the incremental placement engine against the legacy
//! recompute-from-scratch path, for every Table-4 scheme.
//!
//! Each scheme now declares a [`PlacementSpec`] that lets the engine
//! serve its placement order from the incremental `FleetView` ranker
//! instead of calling `placement_order` over a freshly built
//! `SystemView`. [`ScratchPlacement`] masks the spec back to `Custom`,
//! forcing the legacy path on the *same* policy — so a full-run
//! comparison between the two pins the ranker to the recompute path
//! byte for byte, across clean, faulted and pre-aged runs.
//!
//! The same holds for BAAT's control pass: the per-interval
//! [`IntervalRanking`] (one ranking per demand class, a viable-target
//! precheck) must answer exactly what a from-scratch ranking plus a
//! linear target scan answers.

use baat_core::{
    best_migration_target, classify_workload, node_weighted_aging, rank_by_weighted_aging,
    IntervalRanking, Scheme,
};
use baat_metrics::{AgingMetrics, DischargeRate, PartialCycling, DEMAND_CLASSES};
use baat_server::{DvfsLevel, ServerPowerModel};
use baat_sim::{
    FaultMix, FaultPlan, NodeView, PlacementSpec, ScratchPlacement, SimConfig, SimReport,
    Simulation, SystemView,
};
use baat_solar::Weather;
use baat_testkit::collection::vec;
use baat_testkit::prelude::*;
use baat_units::{Fraction, SimDuration, SimInstant, Soc, TimeOfDay, Watts};
use baat_workload::WorkloadKind;

const SCHEMES: [Scheme; 4] = [Scheme::EBuff, Scheme::BaatS, Scheme::BaatH, Scheme::Baat];

fn coarse_config(weather: Weather, seed: u64, faulted: bool) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .dt(SimDuration::from_secs(120))
        .control_interval(SimDuration::from_secs(600))
        .sample_every(4)
        .seed(seed);
    if faulted {
        b.faults(FaultPlan::generate(seed, 1, 6, 6, &FaultMix::heavy()));
    }
    b.build().expect("config is valid")
}

fn run_fast(scheme: Scheme, config: SimConfig, pre_age: Option<f64>) -> SimReport {
    let mut sim = Simulation::new(config).expect("config valid");
    if let Some(damage) = pre_age {
        sim.pre_age_batteries(damage);
    }
    sim.run(&mut scheme.build()).expect("fast run succeeds")
}

fn run_scratch(scheme: Scheme, config: SimConfig, pre_age: Option<f64>) -> SimReport {
    let mut sim = Simulation::new(config).expect("config valid");
    if let Some(damage) = pre_age {
        sim.pre_age_batteries(damage);
    }
    sim.run(&mut ScratchPlacement(scheme.build()))
        .expect("scratch run succeeds")
}

/// Every scheme, clean cells: two weathers per scheme.
#[test]
fn schemes_match_scratch_on_clean_runs() {
    for scheme in SCHEMES {
        for weather in [Weather::Sunny, Weather::Rainy] {
            let fast = run_fast(scheme, coarse_config(weather, 11, false), None);
            let scratch = run_scratch(scheme, coarse_config(weather, 11, false), None);
            assert_eq!(
                fast, scratch,
                "{scheme:?}/{weather:?}: incremental ranker diverged from scratch"
            );
        }
    }
}

/// Every scheme under a heavy seeded fault plan: host failures, sensor
/// dropouts and charger faults drive degraded flips, shutdowns and
/// restarts through the dirty set mid-run.
#[test]
fn schemes_match_scratch_on_faulted_runs() {
    for scheme in SCHEMES {
        for seed in [7, 23] {
            let fast = run_fast(scheme, coarse_config(Weather::Cloudy, seed, true), None);
            let scratch = run_scratch(scheme, coarse_config(Weather::Cloudy, seed, true), None);
            assert_eq!(
                fast, scratch,
                "{scheme:?}/seed {seed}: faulted incremental run diverged from scratch"
            );
        }
    }
}

/// Pre-aged batteries start the ranker from nonzero damage and distinct
/// per-bank aging trajectories.
#[test]
fn schemes_match_scratch_on_pre_aged_runs() {
    for scheme in SCHEMES {
        let fast = run_fast(scheme, coarse_config(Weather::Cloudy, 5, false), Some(0.55));
        let scratch = run_scratch(scheme, coarse_config(Weather::Cloudy, 5, false), Some(0.55));
        assert_eq!(
            fast, scratch,
            "{scheme:?}: pre-aged incremental run diverged from scratch"
        );
    }
}

/// Rank-level equality at stepped offsets: at several points through a
/// faulted day (including while nodes are degraded), the engine's
/// incremental rank for the weighted-aging and lifetime-NAT specs must
/// equal the legacy order computed from a fresh [`SystemView`].
#[test]
fn incremental_rank_equals_scratch_rank_at_stepped_offsets() {
    let config = coarse_config(Weather::Cloudy, 7, true);
    let server_power = baat_server::ServerPowerModel::prototype();
    let mut sim = Simulation::new(config).expect("config valid");
    let mut policy = Scheme::Baat.build();
    let mut saw_degraded = false;
    for _ in 0..12 {
        sim.run_steps(&mut policy, 60).expect("chunk runs");
        let view = sim.build_view().expect("view builds");
        saw_degraded |= view.nodes.iter().any(|n| n.degraded);
        for kind in [
            WorkloadKind::WebServing,
            WorkloadKind::KMeans,
            WorkloadKind::SoftwareTesting,
            WorkloadKind::NutchIndexing,
        ] {
            let spec = PlacementSpec::WeightedAging { server_power };
            let incremental = sim.placement_rank(spec, kind).expect("rank computes");
            let class = classify_workload(kind, &server_power);
            let scratch = rank_by_weighted_aging(&view, class);
            assert_eq!(incremental, scratch, "weighted rank diverged for {kind:?}");
        }
        let incremental = sim
            .placement_rank(PlacementSpec::LifetimeNat, WorkloadKind::WebServing)
            .expect("rank computes");
        let mut scratch: Vec<usize> = (0..view.nodes.len()).collect();
        scratch.sort_by(|&a, &b| {
            view.nodes[a]
                .lifetime_metrics
                .nat
                .total_cmp(&view.nodes[b].lifetime_metrics.nat)
        });
        assert_eq!(incremental, scratch, "lifetime-NAT rank diverged");
    }
    assert!(
        saw_degraded,
        "the heavy fault plan must degrade at least one node mid-run \
         (otherwise the degraded sort-after rule went unexercised)"
    );
}

/// A node whose aging metrics, flags, charge and free resources come
/// from small value sets, so equal scores (ties), degraded and offline
/// nodes, and SoCs exactly at the target line all occur often.
fn random_node(
    i: usize,
    (nat, cf, pc): (usize, usize, usize),
    (soc, online, degraded): (usize, u8, u8),
    free: (u32, u32),
) -> NodeView {
    const NATS: [f64; 4] = [0.0, 0.1, 0.2, 0.35];
    const CFS: [Option<f64>; 3] = [None, Some(0.9), Some(1.2)];
    const PCS: [[f64; 4]; 3] = [
        [1.0, 0.0, 0.0, 0.0],
        [0.2, 0.3, 0.3, 0.2],
        [0.0, 0.0, 0.2, 0.8],
    ];
    const SOCS: [f64; 5] = [0.1, 0.3, 0.45, 0.6, 0.95];
    let metrics = AgingMetrics {
        nat: NATS[nat],
        cf: CFS[cf],
        pc: PartialCycling {
            share_by_range: PCS[pc],
        },
        ddt: Fraction::saturating(0.1),
        dr: DischargeRate {
            peak_c_rate: 0.1,
            mean_c_rate: 0.1,
        },
    };
    NodeView {
        node: i,
        soc: Soc::new(SOCS[soc]).expect("valid soc"),
        window_metrics: metrics,
        lifetime_metrics: metrics,
        damage: 0.0,
        capacity_fraction: 1.0,
        server_power: Watts::new(100.0),
        utilization: Fraction::HALF,
        dvfs: DvfsLevel::P0,
        online: online > 0,
        degraded: degraded == 0,
        free_resources: free,
        vms: Vec::new(),
        battery_available: Watts::new(300.0),
        battery_capacity_wh: 840.0,
        battery_capacity_ah: 70.0,
        battery_lifetime_throughput_ah: 35_000.0,
        soc_floor: Soc::EMPTY,
        cutoff_events: 0,
        hours_since_full: 0.0,
    }
}

/// The ranking as the per-comparison comparator defines it: degraded
/// last, then ascending Eq-6 weighted aging, evaluated on every
/// comparison, stable over ascending node ids.
fn comparator_rank(view: &SystemView, class: baat_workload::DemandClass) -> Vec<usize> {
    let mut order: Vec<usize> = (0..view.nodes.len()).collect();
    order.sort_by(|&a, &b| {
        let (na, nb) = (&view.nodes[a], &view.nodes[b]);
        na.degraded
            .cmp(&nb.degraded)
            .then(node_weighted_aging(na, class).total_cmp(&node_weighted_aging(nb, class)))
    });
    order
}

/// The target as Fig 9 defines it, scanned linearly over a
/// from-scratch ranking: the best-ranked node other than the source that
/// is online, healthy, charged to the line and has room for the VM.
fn linear_target(
    view: &SystemView,
    source: usize,
    kind: WorkloadKind,
    min_target_soc: f64,
) -> Option<usize> {
    let class = classify_workload(kind, &ServerPowerModel::prototype());
    let (cores, memory) = kind.resource_request();
    rank_by_weighted_aging(view, class).into_iter().find(|&c| {
        let n = &view.nodes[c];
        c != source
            && n.online
            && !n.degraded
            && n.soc.value() >= min_target_soc
            && n.free_resources.0 >= cores
            && n.free_resources.1 >= memory
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random views the interval cache answers every ranking and
    /// migration-target query exactly as the from-scratch path does,
    /// for every source node, workload and demand class — including
    /// views where the precheck finds no viable target at all.
    #[test]
    fn interval_ranking_matches_scratch_targets(
        nodes in vec(
            ((0usize..4, 0usize..3, 0usize..3), (0usize..5, 0u8..5, 0u8..6), (0u32..9, 0u32..17)),
            1..14,
        ),
        line in 0usize..3,
    ) {
        let view = SystemView {
            now: SimInstant::START,
            tod: TimeOfDay::NOON,
            weather: Weather::Cloudy,
            solar: Watts::new(400.0),
            nodes: nodes
                .iter()
                .enumerate()
                .map(|(i, &(aging, flags, free))| random_node(i, aging, flags, free))
                .collect(),
        };
        let min_target_soc = [0.45, 0.6, 0.99][line];
        // Targets are queried first, so each class's ranking is built
        // lazily by a target query (or not at all when the precheck
        // fails) and then checked against the scratch ranking.
        let mut interval = IntervalRanking::new(&view, min_target_soc);
        let any_charged = view
            .nodes
            .iter()
            .any(|n| n.online && !n.degraded && n.soc.value() >= min_target_soc);
        prop_assert_eq!(interval.any_viable_target(), any_charged);
        for source in 0..view.nodes.len() {
            for kind in WorkloadKind::ALL {
                let class = classify_workload(kind, &ServerPowerModel::prototype());
                let expected = linear_target(&view, source, kind, min_target_soc);
                let ranked = rank_by_weighted_aging(&view, class);
                prop_assert_eq!(
                    best_migration_target(&view, &ranked, source, kind, min_target_soc),
                    expected
                );
                prop_assert_eq!(interval.migration_target(source, kind, class), expected);
                if !any_charged {
                    prop_assert_eq!(expected, None);
                }
            }
        }
        for class in DEMAND_CLASSES {
            let scratch = rank_by_weighted_aging(&view, class);
            prop_assert_eq!(&scratch, &comparator_rank(&view, class));
            prop_assert_eq!(interval.ranking(class), &scratch[..]);
        }
    }
}
