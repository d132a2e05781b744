//! Property-based tests for engine-level invariants, run on coarse
//! timesteps to keep the case count affordable.

use baat_metrics::class_index;
use baat_server::{Cluster, MigrationSpec, ServerCapacity, ServerPowerModel};
use baat_sim::{
    run_simulation, AdmissionPass, AdmissionStats, FaultMix, FaultPlan, HostOrders, PlacementSpec,
    RoundRobinPolicy, ScratchPlacement, SimConfig, Simulation,
};
use baat_solar::Weather;
use baat_testkit::collection::vec;
use baat_testkit::prelude::*;
use baat_units::SimDuration;
use baat_workload::{Vm, VmId, WorkloadKind};

fn weather_strategy() -> impl Strategy<Value = Weather> {
    prop_oneof![
        Just(Weather::Sunny),
        Just(Weather::Cloudy),
        Just(Weather::Rainy),
    ]
}

fn coarse_config(weather: Weather, seed: u64, nodes: usize) -> SimConfig {
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed);
    b.build().expect("coarse config is valid")
}

/// The coarse config plus a seeded heavy fault plan over its topology.
fn faulted_config(weather: Weather, seed: u64, nodes: usize) -> SimConfig {
    let plan = FaultPlan::generate(seed, 1, nodes, nodes, &FaultMix::heavy());
    let mut b = SimConfig::builder();
    b.weather_plan(vec![weather])
        .nodes(nodes)
        .dt(SimDuration::from_secs(300))
        .control_interval(SimDuration::from_secs(300))
        .sample_every(2)
        .seed(seed)
        .faults(plan);
    b.build().expect("faulted config is valid")
}

/// Plain-array host orders: a round-robin cursor plus one fixed
/// permutation per ranking mode (four weighted-aging classes, then NAT).
#[derive(Debug, Clone, PartialEq)]
struct ArrayOrders {
    cursor: usize,
    modes: Vec<Vec<u32>>,
}

impl HostOrders for ArrayOrders {
    fn rr_next(&mut self) -> usize {
        let n = self.modes[0].len();
        let start = self.cursor % n;
        self.cursor = (self.cursor + 1) % n;
        start
    }

    fn ranked(&mut self, mode: usize) -> &[u32] {
        &self.modes[mode]
    }
}

/// The four declarative placement specs.
fn specs() -> [PlacementSpec; 4] {
    [
        PlacementSpec::FirstFit,
        PlacementSpec::RoundRobin,
        PlacementSpec::WeightedAging {
            server_power: ServerPowerModel::prototype(),
        },
        PlacementSpec::LifetimeNat,
    ]
}

/// A random fleet: a shared host capacity, per-host prefill and online
/// flags (so free resources differ per host), five ranking permutations
/// and a starting round-robin cursor.
fn random_fleet(
    capacity: (u32, u32),
    hosts: &[(Vec<usize>, bool)],
    rank_keys: &[u64],
    cursor: usize,
) -> (Cluster, ArrayOrders) {
    let n = hosts.len();
    let mut cluster = Cluster::homogeneous(
        n,
        ServerPowerModel::prototype(),
        ServerCapacity {
            cores: capacity.0,
            memory_gb: capacity.1,
        },
        MigrationSpec::default(),
    )
    .expect("non-empty fleet");
    cluster.power_on_all();
    let mut next_id = 1_000_000;
    for (i, (prefill, online)) in hosts.iter().enumerate() {
        let host = cluster.host_mut(i).expect("host exists");
        for &k in prefill {
            next_id += 1;
            // Prefill only what fits; the rest is simply not placed.
            let _ = host.admit(Vm::new(VmId(next_id), WorkloadKind::ALL[k]));
        }
        if !*online {
            host.power_off();
        }
    }
    let modes = (0..5)
        .map(|m| {
            let keys = &rank_keys[m * n..(m + 1) * n];
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&i| keys[i as usize]);
            order
        })
        .collect();
    (cluster, ArrayOrders { cursor, modes })
}

/// The reference pass: every VM walks every host in its spec's order,
/// with no skipping. Returns the VMs left queued.
fn reference_pass(
    queue: Vec<Vm>,
    spec: PlacementSpec,
    orders: &mut ArrayOrders,
    cluster: &mut Cluster,
) -> Vec<Vm> {
    let n = cluster.len();
    let mut left = Vec::new();
    for vm in queue {
        let kind = vm.kind();
        let walk: Vec<usize> = match spec {
            PlacementSpec::FirstFit => (0..n).collect(),
            PlacementSpec::RoundRobin => {
                let start = orders.cursor % n;
                orders.cursor = (orders.cursor + 1) % n;
                (0..n).map(|r| (start + r) % n).collect()
            }
            PlacementSpec::WeightedAging { server_power } => {
                let class = kind
                    .profile()
                    .classify(server_power.idle(), server_power.peak());
                orders.modes[class_index(class)]
                    .iter()
                    .map(|&i| i as usize)
                    .collect()
            }
            PlacementSpec::LifetimeNat => orders.modes[4].iter().map(|&i| i as usize).collect(),
            PlacementSpec::Custom => unreachable!("not generated"),
        };
        let target = walk.into_iter().find(|&i| {
            let host = cluster.host(i).expect("host exists");
            host.is_online() && host.fits(kind.resource_request())
        });
        match target {
            Some(i) => cluster
                .host_mut(i)
                .expect("host exists")
                .admit(vm)
                .expect("fits"),
            None => left.push(vm),
        }
    }
    left
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dominated-request skip is exact: on random fleets (capacity,
    /// prefill, online flags, rankings, cursor) and random mixed queues,
    /// a pass through [`AdmissionPass`] admits the same VMs to the same
    /// hosts, leaves the same VMs queued in the same order, and ends with
    /// the same round-robin cursor as a pass that walks every VM over
    /// every host — under every declarative placement spec.
    #[test]
    fn admission_skip_matches_full_walk(
        capacity in (2u32..14, 4u32..24),
        hosts in vec((vec(0usize..6, 0..4), 0u8..5), 1..12),
        queue in vec(0usize..6, 0..48),
        rank_keys in vec(0u64..1_000_000, 60),
        cursor in 0usize..12,
        spec in 0usize..4,
    ) {
        let hosts: Vec<(Vec<usize>, bool)> =
            hosts.into_iter().map(|(prefill, on)| (prefill, on > 0)).collect();
        let spec = specs()[spec];
        let vms = || -> Vec<Vm> {
            queue
                .iter()
                .enumerate()
                .map(|(i, &k)| Vm::new(VmId(i as u64), WorkloadKind::ALL[k]))
                .collect()
        };

        let (mut ref_cluster, mut ref_orders) = random_fleet(capacity, &hosts, &rank_keys, cursor);
        let ref_left = reference_pass(vms(), spec, &mut ref_orders, &mut ref_cluster);

        let (mut cluster, mut orders) = random_fleet(capacity, &hosts, &rank_keys, cursor);
        let mut stats = AdmissionStats::default();
        let mut pass = AdmissionPass::new(&mut stats);
        let mut left = Vec::new();
        for vm in vms() {
            if let Some(vm) = pass.offer(vm, spec, &mut orders, &mut cluster).expect("offer") {
                left.push(vm);
            }
        }

        let ids = |vms: &[Vm]| vms.iter().map(Vm::id).collect::<Vec<_>>();
        prop_assert_eq!(ids(&left), ids(&ref_left));
        for i in 0..cluster.len() {
            let placed = |c: &Cluster| -> Vec<VmId> {
                c.host(i).expect("host exists").vms().map(Vm::id).collect()
            };
            prop_assert_eq!(placed(&cluster), placed(&ref_cluster));
        }
        prop_assert_eq!(&cluster, &ref_cluster);
        prop_assert_eq!(orders.cursor, ref_orders.cursor);
        prop_assert_eq!(stats.passes, 1);
        prop_assert_eq!(stats.vms_tried, queue.len() as u64);
        prop_assert!(stats.hosts_examined <= (queue.len() * cluster.len()) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SoC traces stay in [0, 1] for any weather/seed/fleet size.
    #[test]
    fn soc_always_bounded(weather in weather_strategy(), seed in 0u64..500, nodes in 1usize..8) {
        let report = run_simulation(
            coarse_config(weather, seed, nodes),
            &mut RoundRobinPolicy::new(),
        ).expect("simulation runs");
        for row in report.recorder.rows() {
            for &soc in &row.soc {
                prop_assert!((0.0..=1.0).contains(&soc), "soc {soc}");
            }
        }
    }

    /// Damage is non-negative, monotone with usage, and every node report
    /// is internally consistent.
    #[test]
    fn reports_are_consistent(weather in weather_strategy(), seed in 0u64..500) {
        let report = run_simulation(
            coarse_config(weather, seed, 6),
            &mut RoundRobinPolicy::new(),
        ).expect("simulation runs");
        for node in &report.nodes {
            prop_assert!(node.damage >= 0.0);
            prop_assert!((0.5..=1.0).contains(&node.capacity_fraction));
            prop_assert!(node.deep_discharge_time <= node.observed);
            let hist_total: u64 = node.soc_histogram.iter().map(|d| d.as_secs()).sum();
            prop_assert_eq!(hist_total, node.observed.as_secs());
            prop_assert!(node.work_done >= 0.0);
        }
        prop_assert!(report.unserved_energy.as_f64() >= 0.0);
        prop_assert!(report.curtailed_energy.as_f64() >= 0.0);
        prop_assert!(report.grid_charge_energy.as_f64() >= 0.0);
        let node_work: f64 = report.nodes.iter().map(|n| n.work_done).sum();
        prop_assert!((node_work - report.total_work).abs() < 1e-6);
    }

    /// Determinism: the same config twice gives the same report skeleton.
    #[test]
    fn runs_are_deterministic(weather in weather_strategy(), seed in 0u64..500) {
        let a = run_simulation(coarse_config(weather, seed, 6), &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        let b = run_simulation(coarse_config(weather, seed, 6), &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        prop_assert_eq!(a.total_work, b.total_work);
        prop_assert_eq!(a.completed_jobs, b.completed_jobs);
        prop_assert_eq!(a.events.len(), b.events.len());
    }

    /// An explicitly-set empty fault plan is bit-identical to the
    /// fault-free default: installing the subsystem perturbs nothing.
    #[test]
    fn empty_fault_plan_is_bit_identical(weather in weather_strategy(), seed in 0u64..500) {
        let baseline = run_simulation(coarse_config(weather, seed, 6), &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        let mut b = SimConfig::builder();
        b.weather_plan(vec![weather])
            .nodes(6)
            .dt(SimDuration::from_secs(300))
            .control_interval(SimDuration::from_secs(300))
            .sample_every(2)
            .seed(seed)
            .faults(FaultPlan::new());
        let with_empty_plan = run_simulation(
            b.build().expect("config valid"),
            &mut RoundRobinPolicy::new(),
        ).expect("simulation runs");
        prop_assert_eq!(baseline, with_empty_plan);
    }

    /// Snapshot-forked runs are bit-identical to from-scratch runs: a
    /// clean prefix advanced once, cloned, and finished per variant
    /// (with or without a fault plan installed at the fork point) must
    /// reproduce the monolithic run byte for byte.
    #[test]
    fn forked_runs_are_bit_identical_to_from_scratch(weather in weather_strategy(), seed in 0u64..500) {
        let clean_cfg = coarse_config(weather, seed, 6);
        let faulted_cfg = faulted_config(weather, seed, 6);
        let plan = faulted_cfg.faults.clone();
        let dt_secs = clean_cfg.dt.as_secs();

        // Shared warm-up: stop before the window opens and before the
        // earliest fault arms.
        let mut prefix = Simulation::new(clean_cfg.clone()).expect("sim builds");
        let earliest = plan
            .faults()
            .iter()
            .map(|s| s.start.as_secs() / dt_secs)
            .min()
            .unwrap_or(u64::MAX);
        let fork = prefix.policy_free_prefix_steps().min(earliest);
        prefix.run_steps(&mut RoundRobinPolicy::new(), fork).expect("prefix runs");

        let clean_fork = prefix.clone().run_remaining(&mut RoundRobinPolicy::new())
            .expect("clean fork runs");
        let mut faulted_fork_sim = prefix.clone();
        faulted_fork_sim.install_fault_plan(plan).expect("plan installs at fork");
        let faulted_fork = faulted_fork_sim.run_remaining(&mut RoundRobinPolicy::new())
            .expect("faulted fork runs");

        let clean_scratch = run_simulation(clean_cfg, &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        let faulted_scratch = run_simulation(faulted_cfg, &mut RoundRobinPolicy::new())
            .expect("simulation runs");
        prop_assert_eq!(clean_fork, clean_scratch);
        prop_assert_eq!(faulted_fork, faulted_scratch);
    }

    /// The incremental placement ranker is unobservable: a policy served
    /// by the engine's dirty-set fleet ranker ([`RoundRobinPolicy`]
    /// declares a placement spec) must produce bit-identical reports to
    /// the same policy masked behind [`ScratchPlacement`], which forces
    /// the legacy recompute-from-`SystemView` path — across clean runs,
    /// arbitrary fleet sizes, and heavy fault plans (degraded nodes,
    /// host failures, mode switches all invalidating mid-run).
    #[test]
    fn incremental_placement_matches_scratch(
        weather in weather_strategy(),
        seed in 0u64..500,
        nodes in 1usize..8,
    ) {
        let clean_fast = run_simulation(
            coarse_config(weather, seed, nodes),
            &mut RoundRobinPolicy::new(),
        ).expect("fast clean run");
        let clean_scratch = run_simulation(
            coarse_config(weather, seed, nodes),
            &mut ScratchPlacement(RoundRobinPolicy::new()),
        ).expect("scratch clean run");
        prop_assert_eq!(clean_fast, clean_scratch);

        let faulted_fast = run_simulation(
            faulted_config(weather, seed, nodes),
            &mut RoundRobinPolicy::new(),
        ).expect("fast faulted run");
        let faulted_scratch = run_simulation(
            faulted_config(weather, seed, nodes),
            &mut ScratchPlacement(RoundRobinPolicy::new()),
        ).expect("scratch faulted run");
        prop_assert_eq!(faulted_fast, faulted_scratch);
    }

    /// Engine invariants survive arbitrary generated fault plans: SoC
    /// traces stay in [0, 1], reports stay internally consistent, and
    /// the perturbed run is byte-for-byte replayable from its seed.
    #[test]
    fn invariants_hold_under_faults(weather in weather_strategy(), seed in 0u64..500) {
        let report = run_simulation(
            faulted_config(weather, seed, 6),
            &mut RoundRobinPolicy::new(),
        ).expect("faulted simulation runs");
        for row in report.recorder.rows() {
            for &soc in &row.soc {
                prop_assert!((0.0..=1.0).contains(&soc), "soc {soc}");
            }
        }
        for node in &report.nodes {
            prop_assert!(node.damage >= 0.0);
            prop_assert!(node.work_done >= 0.0);
        }
        let replay = run_simulation(
            faulted_config(weather, seed, 6),
            &mut RoundRobinPolicy::new(),
        ).expect("faulted simulation runs");
        prop_assert_eq!(report.events.to_jsonl(), replay.events.to_jsonl());
    }
}

/// A worked admission pass: four 2-core hosts fill with Word Count VMs,
/// then each request no smaller than one that already failed everywhere
/// is returned unwalked — while the round-robin cursor still advances
/// once per VM.
#[test]
fn dominated_requests_skip_the_walk_but_advance_the_cursor() {
    let hosts = vec![(Vec::new(), true); 4];
    let (mut cluster, mut orders) = random_fleet((2, 4), &hosts, &[0; 20], 0);
    let kinds = [
        WorkloadKind::WordCount,       // (2, 4): fits host 0
        WorkloadKind::WordCount,       // fits host 1
        WorkloadKind::WordCount,       // fits host 2
        WorkloadKind::WordCount,       // fits host 3
        WorkloadKind::SoftwareTesting, // (6, 8): walks all 4, fails
        WorkloadKind::NutchIndexing,   // (4, 8): not dominated, walks 4
        WorkloadKind::DataAnalytics,   // (4, 8): dominated, skipped
        WorkloadKind::KMeans,          // (4, 6): not dominated, walks 4
    ];
    let mut stats = AdmissionStats::default();
    let mut pass = AdmissionPass::new(&mut stats);
    let mut left = Vec::new();
    for (i, kind) in kinds.into_iter().enumerate() {
        let vm = Vm::new(VmId(i as u64), kind);
        if let Some(vm) = pass
            .offer(vm, PlacementSpec::RoundRobin, &mut orders, &mut cluster)
            .expect("offer")
        {
            left.push(vm.id());
        }
    }
    assert_eq!(left, vec![VmId(4), VmId(5), VmId(6), VmId(7)]);
    assert_eq!(
        stats,
        AdmissionStats {
            passes: 1,
            vms_tried: 8,
            // Each Word Count starts at a fresh cursor host and fits
            // there; three failed walks examine all four hosts.
            hosts_examined: 4 + 3 * 4,
            dominated_skips: 1,
        }
    );
    assert_eq!(
        orders.cursor,
        8 % 4,
        "every VM, skipped or not, moves the cursor"
    );
}

/// A fork must happen before the earliest fault arms: installing a plan
/// whose first window has already opened would skip its transition, so
/// the engine rejects it with a typed error.
#[test]
fn installing_a_plan_past_its_onset_is_rejected() {
    use baat_sim::FaultKind;
    use baat_units::{SimDuration as Dur, SimInstant};

    let mut sim = Simulation::new(coarse_config(Weather::Sunny, 7, 6)).expect("sim builds");
    sim.run_steps(&mut RoundRobinPolicy::new(), 10)
        .expect("prefix runs");
    let mut plan = FaultPlan::new();
    plan.push(baat_sim::FaultSpec {
        kind: FaultKind::PvOutage,
        start: SimInstant::from_secs(60),
        duration: Dur::from_secs(600),
    });
    let err = sim
        .install_fault_plan(plan)
        .expect_err("onset predates fork");
    assert!(err.to_string().contains("fork"), "got: {err}");
}

/// The same faulted seed produces a byte-identical event log no matter
/// how many runs execute concurrently: fault injection shares no state
/// across simulations and never consults thread identity.
#[test]
fn faulted_event_logs_are_thread_invariant() {
    let reference = run_simulation(
        faulted_config(Weather::Cloudy, 77, 6),
        &mut RoundRobinPolicy::new(),
    )
    .expect("simulation runs")
    .events
    .to_jsonl();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                run_simulation(
                    faulted_config(Weather::Cloudy, 77, 6),
                    &mut RoundRobinPolicy::new(),
                )
                .expect("simulation runs")
                .events
                .to_jsonl()
            })
        })
        .collect();
    for handle in handles {
        let jsonl = handle.join().expect("thread completes");
        assert_eq!(jsonl, reference, "event log must not depend on threading");
    }
}
