//! Output digests and invariants, run after the timed window.
//!
//! A digest is a streaming 64-bit FNV-1a over the fields a reader of the
//! result relies on. It allocates nothing beyond a small per-kind event
//! tally, so unlike a state hash it neither costs a measurable share of
//! a run nor lifts peak memory.

use std::collections::BTreeMap;

use baat_sim::SimReport;

/// Streaming 64-bit FNV-1a, the hash of [`baat_sim::fnv1a`] fed piece
/// by piece, so that a report is digested without being serialised.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(baat_sim::fnv1a(&[]))
    }
}

impl Fnv {
    /// Feeds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds a `u64` little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a report: policy, days, per-node damage and capacity bits,
/// completed jobs, migrations and the event count of every kind.
pub fn report_digest(report: &SimReport) -> u64 {
    let mut h = Fnv::default();
    h.bytes(report.policy.as_bytes()).u64(report.days as u64);
    for node in &report.nodes {
        h.u64(node.node as u64)
            .u64(node.damage.to_bits())
            .u64(node.capacity_fraction.to_bits());
    }
    h.u64(report.completed_jobs).u64(report.migrations);
    for (kind, count) in event_counts(report) {
        h.bytes(kind.as_bytes()).u64(count);
    }
    h.finish()
}

/// Digest of a rendered text.
pub fn text_digest(text: &str) -> u64 {
    baat_sim::fnv1a(text.as_bytes())
}

/// Number of logged events of each kind.
pub fn event_counts(report: &SimReport) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for e in report.events.iter() {
        *counts.entry(e.event.kind()).or_insert(0) += 1;
    }
    counts
}

/// Seed-independent invariants of a fleet day: it covered `days` days on
/// `hosts` nodes, every damage is finite and non-negative, every
/// capacity fraction lies in (0, 1], and every recorded SoC lies in
/// [0, 1].
pub fn check_report_invariants(
    report: &SimReport,
    hosts: usize,
    days: usize,
) -> Result<(), String> {
    if report.days != days || report.nodes.len() != hosts {
        return Err(format!(
            "expected {days} day(s) on {hosts} hosts, got {} on {}",
            report.days,
            report.nodes.len()
        ));
    }
    for n in &report.nodes {
        if !(n.damage.is_finite() && n.damage >= 0.0) {
            return Err(format!("node {}: damage {}", n.node, n.damage));
        }
        if !(n.capacity_fraction > 0.0 && n.capacity_fraction <= 1.0) {
            return Err(format!("node {}: capacity {}", n.node, n.capacity_fraction));
        }
    }
    for row in report.recorder.rows() {
        if let Some(soc) = row.soc.iter().find(|s| !(0.0..=1.0).contains(*s)) {
            return Err(format!("SoC {soc} outside [0, 1] at {:?}", row.at));
        }
    }
    if report.recorder.is_empty() {
        return Err("no trace rows recorded".into());
    }
    Ok(())
}

/// Expected digests for the default seeds, one `workload seed 0xhex`
/// line each, as recorded in `expected_digests.txt`.
pub fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../expected_digests.txt")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                .flatten()
        })
}
