//! Shared decision helpers for the Table-4 policies.

use baat_metrics::{class_index, weighted_aging};
use baat_server::ServerPowerModel;
use baat_sim::{NodeView, SystemView, VmView};
use baat_workload::{DemandClass, VmState, WorkloadKind};

/// Classifies a workload's Table-3 demand class on the configured server
/// class (paper §IV.B.2.a: power profiling).
pub fn classify_workload(kind: WorkloadKind, server: &ServerPowerModel) -> DemandClass {
    kind.profile().classify(server.idle(), server.peak())
}

/// The Eq-6 weighted aging of one node for a prospective demand class,
/// computed over lifetime metrics.
pub fn node_weighted_aging(node: &NodeView, class: DemandClass) -> f64 {
    weighted_aging(&node.lifetime_metrics, class)
}

/// Orders all nodes by ascending Eq-6 weighted aging (the Fig 8 placement
/// rank): least-aged battery first. Degraded nodes (stale telemetry —
/// their metrics are last-known-good, not current) sort after every
/// healthy node regardless of apparent aging.
///
/// Each node's key is evaluated once, then a stable sort orders the
/// nodes by it — the same comparator outcomes as evaluating the key per
/// comparison, so the order is identical.
pub fn rank_by_weighted_aging(view: &SystemView, class: DemandClass) -> Vec<usize> {
    let keys: Vec<(bool, f64)> = view
        .nodes
        .iter()
        .map(|n| (n.degraded, node_weighted_aging(n, class)))
        .collect();
    let mut order: Vec<usize> = view.nodes.iter().map(|n| n.node).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (keys[a], keys[b]);
        ka.0.cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
    });
    order
}

/// `true` when `node` could receive a migrated VM at all, resources
/// aside: online, not degraded, and holding at least `min_target_soc`.
fn charged_target(node: &NodeView, min_target_soc: f64) -> bool {
    node.online && !node.degraded && node.soc.value() >= min_target_soc
}

/// Picks the best migration target for a VM currently on `source` from
/// a precomputed weighted-aging `ranked` order: the first ranked node
/// that is online, not degraded, has the resources, and has a
/// comfortably charged battery. Returns `None` when no node qualifies
/// (the Fig 9 "VM cannot be migrated due to resource constraints"
/// branch).
pub fn best_migration_target(
    view: &SystemView,
    ranked: &[usize],
    source: usize,
    kind: WorkloadKind,
    min_target_soc: f64,
) -> Option<usize> {
    let request = kind.resource_request();
    ranked.iter().copied().find(|&candidate| {
        let node = &view.nodes[candidate];
        candidate != source
            && charged_target(node, min_target_soc)
            && node.free_resources.0 >= request.0
            && node.free_resources.1 >= request.1
    })
}

/// One control interval's migration-target search over a fixed
/// [`SystemView`]. The view does not change while a policy decides, so
/// each demand class is ranked at most once per interval (lazily, on its
/// first query), and a single O(n) precheck — does any node pass the
/// online, not-degraded and charged test? — answers every target query
/// with `None` without ranking or scanning when it fails.
#[derive(Debug)]
pub struct IntervalRanking<'v> {
    view: &'v SystemView,
    min_target_soc: f64,
    any_charged: bool,
    ranks: [Option<Vec<usize>>; 4],
}

impl<'v> IntervalRanking<'v> {
    /// Starts an interval's search over `view` for targets holding at
    /// least `min_target_soc`.
    pub fn new(view: &'v SystemView, min_target_soc: f64) -> Self {
        Self {
            view,
            min_target_soc,
            any_charged: view.nodes.iter().any(|n| charged_target(n, min_target_soc)),
            ranks: [None, None, None, None],
        }
    }

    /// `false` when no node is online, healthy and charged enough to be
    /// a migration target — every [`Self::migration_target`] is `None`.
    pub fn any_viable_target(&self) -> bool {
        self.any_charged
    }

    /// The interval's [`rank_by_weighted_aging`] order for `class`,
    /// computed on the first query.
    pub fn ranking(&mut self, class: DemandClass) -> &[usize] {
        let view = self.view;
        self.ranks[class_index(class)].get_or_insert_with(|| rank_by_weighted_aging(view, class))
    }

    /// [`best_migration_target`] over the cached `class` ranking.
    pub fn migration_target(
        &mut self,
        source: usize,
        kind: WorkloadKind,
        class: DemandClass,
    ) -> Option<usize> {
        if !self.any_charged {
            return None;
        }
        let (view, min_target_soc) = (self.view, self.min_target_soc);
        best_migration_target(view, self.ranking(class), source, kind, min_target_soc)
    }
}

/// Selects the most demanding movable (running, non-service) VM on a
/// node — the one whose departure sheds the most battery load.
pub fn heaviest_movable_vm(node: &NodeView) -> Option<&VmView> {
    node.vms
        .iter()
        .filter(|vm| vm.state == VmState::Running && !vm.kind.is_service())
        .max_by(|a, b| {
            let (ac, _) = a.kind.resource_request();
            let (bc, _) = b.kind.resource_request();
            let au = a.kind.mean_utilization().value() * f64::from(ac);
            let bu = b.kind.mean_utilization().value() * f64::from(bc);
            au.total_cmp(&bu)
        })
}

/// Test scaffolding shared by the policy unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use baat_battery::UsageAccumulator;
    use baat_metrics::{AgingMetrics, BatteryRatings};
    use baat_server::DvfsLevel;
    use baat_sim::{NodeView, SystemView};
    use baat_solar::Weather;
    use baat_units::{
        AmpHours, Amperes, Fraction, SimDuration, SimInstant, Soc, TimeOfDay, Volts, WattHours,
        Watts,
    };

    pub(crate) fn ratings() -> BatteryRatings {
        BatteryRatings {
            capacity: AmpHours::new(35.0),
            lifetime_throughput: AmpHours::new(17_500.0),
        }
    }

    /// Builds metrics with the given discharged Ah at the given SoC band.
    pub(crate) fn metrics(discharged_ah: f64, at_soc: f64) -> AgingMetrics {
        let mut acc = UsageAccumulator::default();
        if discharged_ah > 0.0 {
            let dt = SimDuration::from_hours(1);
            acc.record(
                Soc::new(at_soc).unwrap(),
                Amperes::new(discharged_ah),
                Amperes::new(discharged_ah) * dt,
                AmpHours::ZERO,
                Volts::new(12.0) * Amperes::new(discharged_ah) * dt,
                WattHours::ZERO,
                dt,
            );
        }
        AgingMetrics::from_accumulator(&acc, &ratings())
    }

    pub(crate) fn node(i: usize, m: AgingMetrics, soc: f64, free: (u32, u32)) -> NodeView {
        NodeView {
            node: i,
            soc: Soc::new(soc).unwrap(),
            window_metrics: m,
            lifetime_metrics: m,
            damage: 0.0,
            capacity_fraction: 1.0,
            server_power: Watts::new(100.0),
            utilization: Fraction::HALF,
            dvfs: DvfsLevel::P0,
            online: true,
            degraded: false,
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

    /// A healthy idle node at the given SoC.
    pub(crate) fn plain_node(i: usize, soc: f64) -> NodeView {
        node(i, metrics(0.0, 0.9), soc, (8, 16))
    }

    pub(crate) fn view_of(nodes: Vec<NodeView>) -> SystemView {
        SystemView {
            now: SimInstant::START,
            tod: TimeOfDay::NOON,
            weather: Weather::Sunny,
            solar: Watts::new(500.0),
            nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{metrics, node, view_of as view};
    use super::*;
    use baat_server::ServerPowerModel;
    use baat_workload::{EnergyDemand, PowerDemand, VmId};

    fn class() -> DemandClass {
        DemandClass {
            power: PowerDemand::Large,
            energy: EnergyDemand::More,
        }
    }

    #[test]
    fn software_testing_classifies_large_more() {
        let c = classify_workload(
            WorkloadKind::SoftwareTesting,
            &ServerPowerModel::prototype(),
        );
        assert_eq!(c.power, PowerDemand::Large);
        assert_eq!(c.energy, EnergyDemand::More);
    }

    #[test]
    fn wordcount_is_not_energy_hungry() {
        let c = classify_workload(WorkloadKind::WordCount, &ServerPowerModel::prototype());
        assert_eq!(c.energy, EnergyDemand::Less);
    }

    #[test]
    fn ranking_prefers_least_used_battery() {
        let v = view(vec![
            node(0, metrics(200.0, 0.3), 0.9, (8, 16)),
            node(1, metrics(10.0, 0.9), 0.9, (8, 16)),
            node(2, metrics(100.0, 0.5), 0.9, (8, 16)),
        ]);
        assert_eq!(rank_by_weighted_aging(&v, class()), vec![1, 2, 0]);
    }

    #[test]
    fn migration_target_skips_source_and_unfit_nodes() {
        let v = view(vec![
            node(0, metrics(200.0, 0.2), 0.2, (8, 16)), // source, stressed
            node(1, metrics(5.0, 0.9), 0.9, (1, 2)),    // best battery, no room
            node(2, metrics(50.0, 0.8), 0.8, (8, 16)),  // viable
        ]);
        let ranked = rank_by_weighted_aging(&v, class());
        let target = best_migration_target(&v, &ranked, 0, WorkloadKind::KMeans, 0.6).unwrap();
        assert_eq!(target, 2);
    }

    #[test]
    fn migration_target_requires_charged_battery() {
        let v = view(vec![
            node(0, metrics(200.0, 0.2), 0.2, (8, 16)),
            node(1, metrics(5.0, 0.9), 0.3, (8, 16)), // too discharged
        ]);
        let ranked = rank_by_weighted_aging(&v, class());
        assert_eq!(
            best_migration_target(&v, &ranked, 0, WorkloadKind::KMeans, 0.6),
            None
        );
        let mut interval = IntervalRanking::new(&v, 0.6);
        assert!(!interval.any_viable_target(), "no node holds 60 % charge");
        assert_eq!(
            interval.migration_target(0, WorkloadKind::KMeans, class()),
            None
        );
    }

    #[test]
    fn heaviest_movable_vm_skips_services() {
        let mut n = node(0, metrics(0.0, 0.9), 0.9, (0, 0));
        n.vms = vec![
            VmView {
                id: VmId(1),
                kind: WorkloadKind::WebServing,
                state: VmState::Running,
                progress: 0.2,
            },
            VmView {
                id: VmId(2),
                kind: WorkloadKind::WordCount,
                state: VmState::Running,
                progress: 0.1,
            },
            VmView {
                id: VmId(3),
                kind: WorkloadKind::SoftwareTesting,
                state: VmState::Paused,
                progress: 0.5,
            },
        ];
        let vm = heaviest_movable_vm(&n).unwrap();
        assert_eq!(vm.id, VmId(2), "services and paused VMs are not movable");
    }

    #[test]
    fn no_movable_vm_on_empty_node() {
        let n = node(0, metrics(0.0, 0.9), 0.9, (8, 16));
        assert!(heaviest_movable_vm(&n).is_none());
    }
}
