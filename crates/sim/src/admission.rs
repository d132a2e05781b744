//! Admission passes: placing a batch of VMs (the step's arrivals, or the
//! pending queue at a control interval) onto hosts in the order a
//! declarative [`PlacementSpec`] prescribes.
//!
//! # The dominated-request skip
//!
//! Within one pass hosts only *lose* capacity: the pass admits VMs and
//! nothing else runs, so no VM completes, migrates away or is evicted,
//! and no host changes its online flag. So once a request of `c` cores
//! and `m` GiB has failed on every host, any later request of at least
//! `c` cores *and* at least `m` GiB fails on every host too — each online
//! host that lacked `c` cores or `m` GiB still lacks them. Such a VM goes
//! back on the queue without walking the hosts. The skip is exact: the
//! admitted set, the hosts chosen and the order of the VMs left queued
//! are the ones a full walk produces.
//!
//! Under [`PlacementSpec::RoundRobin`] every placement attempt advances
//! the cursor once, whether or not the VM fits. A skipped VM advances it
//! too (the cursor moves before the dominance check), so the cursor ends
//! each pass where the full walk leaves it.
//!
//! See DESIGN.md §10 for how passes fit the incremental placement engine.

use baat_metrics::class_index;
use baat_server::Cluster;
use baat_workload::{Vm, WorkloadKind};

use crate::error::SimError;
use crate::fleet::{demand_class, PlacementSpec, NAT_MODE};

/// Cumulative admission-walk work: plain engine counters (not
/// observability metrics), exact and independent of obs, threads and
/// timing. They are diagnostics, not simulated state — snapshots do not
/// carry them, so a restored simulation counts from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Admission passes started (arrival batches plus pending retries).
    pub passes: u64,
    /// VMs offered to a pass, skipped ones included.
    pub vms_tried: u64,
    /// Host fit checks made by admission walks.
    pub hosts_examined: u64,
    /// VMs returned to the queue unwalked because an earlier request in
    /// the same pass, no larger in either resource, had already failed.
    pub dominated_skips: u64,
}

/// The host orders an admission walk follows: the engine's
/// [`crate::FleetView`] in a simulation, plain arrays in tests.
///
/// Ranking modes are numbered like the fleet's: weighted-aging modes by
/// [`baat_metrics::class_index`] of the workload's demand class
/// (`0..4`), then `4` for lifetime NAT.
pub trait HostOrders {
    /// Advances the round-robin cursor and returns the start host for
    /// this placement attempt.
    fn rr_next(&mut self) -> usize;
    /// Ranking `mode`'s current host order, best host first.
    fn ranked(&mut self, mode: usize) -> &[u32];
}

/// One admission pass: the requests that have already failed on every
/// host during it (at most one per distinct request, so at most one per
/// [`WorkloadKind`]).
#[derive(Debug)]
pub struct AdmissionPass<'s> {
    failed: [(u32, u32); WorkloadKind::ALL.len()],
    failed_len: usize,
    stats: &'s mut AdmissionStats,
}

impl<'s> AdmissionPass<'s> {
    /// Starts a pass, counting it in `stats`.
    pub fn new(stats: &'s mut AdmissionStats) -> Self {
        stats.passes += 1;
        Self {
            failed: [(0, 0); WorkloadKind::ALL.len()],
            failed_len: 0,
            stats,
        }
    }

    /// Offers `vm` to the hosts of `cluster` in `spec`'s order and admits
    /// it to the first online host it fits on. Returns the VM when no
    /// host takes it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for [`PlacementSpec::Custom`], whose
    /// order comes from the policy, not from `orders`; [`SimError::Server`]
    /// if `orders` names a host `cluster` does not have.
    pub fn offer<O: HostOrders>(
        &mut self,
        vm: Vm,
        spec: PlacementSpec,
        orders: &mut O,
        cluster: &mut Cluster,
    ) -> Result<Option<Vm>, SimError> {
        let kind = vm.kind();
        let request = kind.resource_request();
        self.stats.vms_tried += 1;
        let (start, mode) = match spec {
            PlacementSpec::Custom => {
                return Err(SimError::invalid_config(
                    "placement",
                    "custom specs place through Policy::placement_order",
                ))
            }
            PlacementSpec::FirstFit => (0, None),
            // Before the dominance check: a skipped attempt still moves
            // the cursor, exactly as its failed walk would have.
            PlacementSpec::RoundRobin => (orders.rr_next(), None),
            PlacementSpec::WeightedAging { server_power } => {
                (0, Some(class_index(demand_class(kind, &server_power))))
            }
            PlacementSpec::LifetimeNat => (0, Some(NAT_MODE)),
        };
        let failed = &self.failed[..self.failed_len];
        if failed
            .iter()
            .any(|&(c, m)| request.0 >= c && request.1 >= m)
        {
            self.stats.dominated_skips += 1;
            return Ok(Some(vm));
        }
        let n = cluster.len();
        let vm = match mode {
            None => self.walk(vm, cluster, (0..n).map(|r| (start + r) % n))?,
            Some(mode) => {
                let order = orders.ranked(mode);
                self.walk(vm, cluster, order.iter().map(|&i| i as usize))?
            }
        };
        if vm.is_some() && self.failed_len < self.failed.len() {
            // Not dominated, so distinct from every recorded request.
            self.failed[self.failed_len] = request;
            self.failed_len += 1;
        }
        Ok(vm)
    }

    /// Admits `vm` to the first host in `hosts` that is online and fits.
    fn walk(
        &mut self,
        vm: Vm,
        cluster: &mut Cluster,
        hosts: impl Iterator<Item = usize>,
    ) -> Result<Option<Vm>, SimError> {
        let request = vm.kind().resource_request();
        for node in hosts {
            self.stats.hosts_examined += 1;
            let host = cluster.host_mut(node)?;
            if host.is_online() && host.fits(request) {
                host.admit(vm)?;
                return Ok(None);
            }
        }
        Ok(Some(vm))
    }
}
