//! Region-level admission: [`AdmissionController`] generalised from one
//! cluster to a [`RingSet`].
//!
//! §5.3.1 describes the region mechanism the single-ring admission
//! controller only hints at: "Instead of being placed in this tenant
//! ring, the database will be redirected to another tenant ring that has
//! enough capacity." A region hosts several fabric rings with
//! heterogeneous node counts and density targets; one region-level
//! admission layer picks a home ring per create under a configurable
//! placement policy and falls through sibling rings on rejection —
//! every fall-through is a **cross-ring redirect**, the paper's
//! creation-redirect KPI promoted to a region KPI with per-ring
//! attribution. A create no ring can take leaves the region entirely
//! (the paper's "redirected to another tenant ring" when *this* region
//! has none).
//!
//! The ledger model is deliberately the same arithmetic the single-ring
//! [`AdmissionController`] applies against a live cluster: a ring admits
//! while `requested_cores <= logical_cores - reserved_cores`. The region
//! layer runs *ahead* of the per-ring simulations (it decides routing;
//! the rings then replay the decided schedule), so it accounts logical
//! cores in a ledger instead of querying a `Cluster`.
//!
//! [`AdmissionController`]: crate::admission::AdmissionController

use toto_simcore::time::SimTime;

/// How the region picks a home ring for a create.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Tightest ring that the request still fits: ranks rings by
    /// remaining cores ascending. Packs rings to their density targets
    /// one at a time (maximum redirects, maximum consolidation).
    BestFit,
    /// Emptiest ring first: ranks rings by remaining cores descending.
    /// Minimises redirects by levelling absolute headroom.
    Spread,
    /// Lowest fill *relative to each ring's density target* first:
    /// ranks by `reserved / logical` ascending, so heterogeneous rings
    /// converge to their individual targets in lock-step.
    DensityTarget,
}

impl PlacementPolicy {
    /// Stable policy name (used in specs and run records).
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::BestFit => "best-fit",
            PlacementPolicy::Spread => "spread",
            PlacementPolicy::DensityTarget => "density-target",
        }
    }

    /// Parse a policy name as written in a region spec.
    pub fn from_name(name: &str) -> Option<PlacementPolicy> {
        match name {
            "best-fit" => Some(PlacementPolicy::BestFit),
            "spread" => Some(PlacementPolicy::Spread),
            "density-target" => Some(PlacementPolicy::DensityTarget),
            _ => None,
        }
    }
}

/// Capacity ledger for one fabric ring in the region.
#[derive(Clone, Debug)]
pub struct RingLedger {
    /// Ring name (unique within the region).
    pub name: String,
    /// Density-scaled logical core capacity of the ring.
    pub logical_cores: f64,
    /// Cores currently reserved (bootstrap population + admitted creates
    /// − drops). Maintained by [`RegionAdmission`].
    pub reserved_cores: f64,
    /// The ring's density ladder value (logical = base × density/100).
    pub density_target: u32,
    /// Whether the ring currently accepts creates. `false` before a
    /// build-out joins and after a decommission drains.
    pub admitting: bool,
}

impl RingLedger {
    /// Cores still admittable.
    pub fn remaining_cores(&self) -> f64 {
        self.logical_cores - self.reserved_cores
    }

    /// Fill fraction relative to the ring's own density target.
    pub fn fill(&self) -> f64 {
        if self.logical_cores <= 0.0 {
            1.0
        } else {
            self.reserved_cores / self.logical_cores
        }
    }
}

/// The set of rings a region routes over: the cluster-state analogue at
/// region scope (mutated only through [`RegionAdmission`]).
#[derive(Clone, Debug, Default)]
pub struct RingSet {
    rings: Vec<RingLedger>,
}

impl RingSet {
    /// An empty region (rings join via [`RegionAdmission::ring_up`]).
    pub fn new() -> Self {
        RingSet { rings: Vec::new() }
    }

    /// All rings, in join order (join order is spec order, so ring
    /// indices are stable across runs).
    pub fn rings(&self) -> &[RingLedger] {
        &self.rings
    }

    /// Ledger for ring `i`, if it exists.
    pub fn get(&self, i: usize) -> Option<&RingLedger> {
        self.rings.get(i)
    }

    /// Ledger invariants: reservations stay within `[0, logical]` for
    /// every ring (a tiny epsilon absorbs f64 accumulation error).
    pub fn invariants_hold(&self) -> bool {
        const EPS: f64 = 1e-6;
        self.rings
            .iter()
            .all(|r| r.reserved_cores >= -EPS && r.reserved_cores <= r.logical_cores + EPS)
    }
}

/// One region-level redirect: a create that could not stay on its
/// first-choice ring. `to == None` means it left the region entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionRedirect {
    /// When the redirect happened.
    pub time: SimTime,
    /// Ring that rejected the create (per-ring attribution).
    pub from: usize,
    /// Ring that finally admitted it, or `None` for out-of-region.
    pub to: Option<usize>,
    /// Cores the create would have reserved.
    pub cores: f64,
}

/// Where a region-level admission attempt ended up.
#[derive(Clone, Debug, PartialEq)]
pub enum RegionOutcome {
    /// Admitted on the policy's first-choice ring.
    Admitted { ring: usize },
    /// Admitted after one or more rings rejected it (cross-ring
    /// redirect); `from` is the first-choice ring that rejected.
    Redirected { ring: usize, from: usize },
    /// No admitting ring could take it; it leaves the region.
    OutOfRegion,
}

impl RegionOutcome {
    /// The ring that admitted the create, if any.
    pub fn ring(&self) -> Option<usize> {
        match self {
            RegionOutcome::Admitted { ring } | RegionOutcome::Redirected { ring, .. } => {
                Some(*ring)
            }
            RegionOutcome::OutOfRegion => None,
        }
    }
}

/// Per-ring admission counters (for the region run record).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RingAdmissionStats {
    /// Creates admitted with this ring as first choice.
    pub admitted_first_choice: u64,
    /// Creates this ring rejected (redirects attributed *from* it).
    pub redirects_out: u64,
    /// Creates this ring absorbed after a sibling rejected them.
    pub redirects_in: u64,
}

/// The region-level admission controller: placement policy + redirect
/// log + per-ring attribution over a [`RingSet`].
#[derive(Clone, Debug)]
pub struct RegionAdmission {
    policy: PlacementPolicy,
    redirects: Vec<RegionRedirect>,
    stats: Vec<RingAdmissionStats>,
    out_of_region: u64,
}

impl RegionAdmission {
    /// Fresh controller for a policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        RegionAdmission {
            policy,
            redirects: Vec::new(),
            stats: Vec::new(),
            out_of_region: 0,
        }
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// All cross-ring / out-of-region redirects so far, in time order.
    pub fn redirects(&self) -> &[RegionRedirect] {
        &self.redirects
    }

    /// Number of region redirects up to and including `t` (same
    /// binary-search contract as `AdmissionController::redirects_until`).
    pub fn redirects_until(&self, t: SimTime) -> usize {
        debug_assert!(
            self.redirects.windows(2).all(|w| w[0].time <= w[1].time),
            "region redirect log must be time-sorted"
        );
        self.redirects.partition_point(|r| r.time <= t)
    }

    /// Per-ring attribution counters (indexed like the ring set).
    pub fn stats(&self) -> &[RingAdmissionStats] {
        &self.stats
    }

    /// Creates that no ring could take.
    pub fn out_of_region(&self) -> u64 {
        self.out_of_region
    }

    /// Ring lifecycle: a ring joins region admission (build-out).
    /// Returns its (stable, join-order) index.
    pub fn ring_up(&mut self, rings: &mut RingSet, ledger: RingLedger, nodes: u64) -> usize {
        toto_trace::emit(toto_trace::EventKind::RegionRingUp, || {
            toto_trace::EventBody::RegionRingUp {
                ring: ledger.name.clone(),
                nodes,
                logical_cores: ledger.logical_cores,
            }
        });
        rings.rings.push(ledger);
        self.stats.push(RingAdmissionStats::default());
        debug_assert!(rings.invariants_hold(), "ring_up broke ledger invariants");
        rings.rings.len() - 1
    }

    /// Policy preference order over admitting rings (feasibility is NOT
    /// considered — the first-choice ring is the policy's pick assuming
    /// infinite capacity, so a full first choice produces a redirect,
    /// exactly like the paper's single-ring controller).
    fn preference_order(&self, rings: &RingSet) -> Vec<usize> {
        let mut order: Vec<usize> = (0..rings.rings.len())
            .filter(|&i| rings.rings[i].admitting)
            .collect();
        // Stable sort keeps spec order on ties, so routing is
        // deterministic for identical ledgers.
        match self.policy {
            PlacementPolicy::BestFit => order.sort_by(|&a, &b| {
                let (ra, rb) = (
                    rings.rings[a].remaining_cores(),
                    rings.rings[b].remaining_cores(),
                );
                ra.total_cmp(&rb)
            }),
            PlacementPolicy::Spread => order.sort_by(|&a, &b| {
                let (ra, rb) = (
                    rings.rings[a].remaining_cores(),
                    rings.rings[b].remaining_cores(),
                );
                rb.total_cmp(&ra)
            }),
            PlacementPolicy::DensityTarget => order.sort_by(|&a, &b| {
                let (fa, fb) = (rings.rings[a].fill(), rings.rings[b].fill());
                fa.total_cmp(&fb)
            }),
        }
        order
    }

    /// Try to admit a create of `requested_cores` somewhere in the
    /// region. Walks the policy's preference order; every rejection
    /// before the admitting ring is recorded as a redirect attributed to
    /// the rejecting ring.
    pub fn try_admit(
        &mut self,
        rings: &mut RingSet,
        db: &str,
        requested_cores: f64,
        now: SimTime,
    ) -> RegionOutcome {
        let order = self.preference_order(rings);
        let Some(&first) = order.first() else {
            self.out_of_region += 1;
            return RegionOutcome::OutOfRegion;
        };
        let admitted = order
            .iter()
            .copied()
            .find(|&i| requested_cores <= rings.rings[i].remaining_cores());
        match admitted {
            Some(ring) => {
                // Attribute one redirect per ring the create fell
                // through before landing.
                for &from in order.iter().take_while(|&&i| i != ring) {
                    self.record_redirect(rings, from, Some(ring), requested_cores, now);
                }
                rings.rings[ring].reserved_cores += requested_cores;
                debug_assert!(
                    rings.invariants_hold(),
                    "admission overfilled ring {ring} past its logical capacity"
                );
                toto_trace::emit(toto_trace::EventKind::RegionRingAdmit, || {
                    toto_trace::EventBody::RegionRingAdmit {
                        ring: rings.rings[ring].name.clone(),
                        db: db.to_string(),
                        cores: requested_cores,
                    }
                });
                if ring == first {
                    self.stats[ring].admitted_first_choice += 1;
                    RegionOutcome::Admitted { ring }
                } else {
                    self.stats[ring].redirects_in += 1;
                    RegionOutcome::Redirected { ring, from: first }
                }
            }
            None => {
                // Out-of-region: attributed to the first-choice ring
                // only (the ring the paper's controller would have
                // redirected from).
                self.record_redirect(rings, first, None, requested_cores, now);
                self.out_of_region += 1;
                RegionOutcome::OutOfRegion
            }
        }
    }

    /// Re-admit one drained tenant on a sibling ring. A drain move is by
    /// definition a cross-ring redirect, so it is always attributed as a
    /// redirect *from* the drained ring — even though that ring no
    /// longer participates in the preference order — and as a
    /// redirect-in on whichever sibling absorbs it.
    pub fn drain_admit(
        &mut self,
        rings: &mut RingSet,
        from: usize,
        db: &str,
        cores: f64,
        now: SimTime,
    ) -> RegionOutcome {
        let order = self.preference_order(rings);
        let admitted = order
            .iter()
            .copied()
            .find(|&i| i != from && cores <= rings.rings[i].remaining_cores());
        match admitted {
            Some(ring) => {
                self.record_redirect(rings, from, Some(ring), cores, now);
                rings.rings[ring].reserved_cores += cores;
                debug_assert!(
                    rings.invariants_hold(),
                    "drain re-admission overfilled ring {ring}"
                );
                toto_trace::emit(toto_trace::EventKind::RegionRingAdmit, || {
                    toto_trace::EventBody::RegionRingAdmit {
                        ring: rings.rings[ring].name.clone(),
                        db: db.to_string(),
                        cores,
                    }
                });
                self.stats[ring].redirects_in += 1;
                RegionOutcome::Redirected { ring, from }
            }
            None => {
                self.record_redirect(rings, from, None, cores, now);
                self.out_of_region += 1;
                RegionOutcome::OutOfRegion
            }
        }
    }

    /// Release reserved cores on a ring when a tenant drops.
    ///
    /// Deliberately untraced: a release is ledger accounting driven by a
    /// tenant drop, and the drop itself is already visible as a DbDrop
    /// event at the same simulated time — a second event per drop would
    /// only bloat traces without adding diff signal.
    // toto-lint: allow(T001)
    pub fn release(&mut self, rings: &mut RingSet, ring: usize, cores: f64) {
        if let Some(ledger) = rings.rings.get_mut(ring) {
            ledger.reserved_cores = (ledger.reserved_cores - cores).max(0.0);
        }
        debug_assert!(rings.invariants_hold(), "release broke ledger invariants");
    }

    /// Ring lifecycle: decommission. The ring stops admitting and its
    /// reservation ledger is emptied; the caller re-admits the drained
    /// tenants on sibling rings via [`drain_admit`](Self::drain_admit)
    /// (each re-admission records its own cross-ring redirect). Returns
    /// the cores that were reserved.
    pub fn drain_ring(&mut self, rings: &mut RingSet, ring: usize, tenants: u64) -> f64 {
        let Some(ledger) = rings.rings.get_mut(ring) else {
            return 0.0;
        };
        let drained = ledger.reserved_cores;
        ledger.admitting = false;
        ledger.reserved_cores = 0.0;
        toto_trace::emit(toto_trace::EventKind::RegionRingDrain, || {
            toto_trace::EventBody::RegionRingDrain {
                ring: ledger.name.clone(),
                tenants,
                cores: drained,
            }
        });
        debug_assert!(
            rings.invariants_hold(),
            "drain_ring broke ledger invariants"
        );
        drained
    }

    fn record_redirect(
        &mut self,
        rings: &RingSet,
        from: usize,
        to: Option<usize>,
        cores: f64,
        now: SimTime,
    ) {
        self.stats[from].redirects_out += 1;
        self.redirects.push(RegionRedirect {
            time: now,
            from,
            to,
            cores,
        });
        toto_trace::emit(toto_trace::EventKind::RegionRingRedirect, || {
            let name = |i: usize| {
                rings
                    .rings
                    .get(i)
                    .map(|r| r.name.clone())
                    .unwrap_or_default()
            };
            toto_trace::EventBody::RegionRingRedirect {
                from: name(from),
                to: to.map(name).unwrap_or_else(|| "out-of-region".to_string()),
                cores,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(name: &str, logical: f64, reserved: f64, target: u32) -> RingLedger {
        RingLedger {
            name: name.to_string(),
            logical_cores: logical,
            reserved_cores: reserved,
            density_target: target,
            admitting: true,
        }
    }

    fn region(policy: PlacementPolicy, ledgers: Vec<RingLedger>) -> (RingSet, RegionAdmission) {
        let mut rings = RingSet::new();
        let mut adm = RegionAdmission::new(policy);
        for l in ledgers {
            adm.ring_up(&mut rings, l, 14);
        }
        (rings, adm)
    }

    #[test]
    fn best_fit_packs_the_tightest_ring_first() {
        let (mut rings, mut adm) = region(
            PlacementPolicy::BestFit,
            vec![
                ledger("a", 100.0, 90.0, 100), // 10 remaining
                ledger("b", 100.0, 50.0, 100), // 50 remaining
            ],
        );
        let out = adm.try_admit(&mut rings, "db-1", 8.0, SimTime::ZERO);
        assert_eq!(out, RegionOutcome::Admitted { ring: 0 });
        assert_eq!(rings.get(0).unwrap().reserved_cores, 98.0);
    }

    #[test]
    fn spread_levels_headroom() {
        let (mut rings, mut adm) = region(
            PlacementPolicy::Spread,
            vec![ledger("a", 100.0, 90.0, 100), ledger("b", 100.0, 50.0, 100)],
        );
        let out = adm.try_admit(&mut rings, "db-1", 8.0, SimTime::ZERO);
        assert_eq!(out, RegionOutcome::Admitted { ring: 1 });
    }

    #[test]
    fn density_target_ranks_by_relative_fill() {
        // Ring a: 60/120 = 0.5 fill. Ring b: 55/100 = 0.55 fill. A
        // spread policy would pick b (45 free > 60? no — a has 60 free);
        // use ledgers where absolute and relative orders differ.
        let (mut rings, mut adm) = region(
            PlacementPolicy::DensityTarget,
            vec![
                ledger("a", 120.0, 60.0, 120), // fill 0.50, 60 free
                ledger("b", 100.0, 45.0, 100), // fill 0.45, 55 free
            ],
        );
        let out = adm.try_admit(&mut rings, "db-1", 8.0, SimTime::ZERO);
        assert_eq!(out, RegionOutcome::Admitted { ring: 1 });
    }

    #[test]
    fn overflow_redirects_to_a_sibling_with_attribution() {
        let (mut rings, mut adm) = region(
            PlacementPolicy::BestFit,
            vec![
                ledger("tight", 100.0, 96.0, 100), // 4 remaining
                ledger("roomy", 100.0, 10.0, 100),
            ],
        );
        let out = adm.try_admit(&mut rings, "db-1", 16.0, SimTime::from_secs(60));
        assert_eq!(out, RegionOutcome::Redirected { ring: 1, from: 0 });
        assert_eq!(adm.redirects().len(), 1);
        assert_eq!(adm.redirects()[0].from, 0);
        assert_eq!(adm.redirects()[0].to, Some(1));
        assert_eq!(adm.stats()[0].redirects_out, 1);
        assert_eq!(adm.stats()[1].redirects_in, 1);
        // The tight ring's ledger is untouched; the roomy ring absorbed it.
        assert_eq!(rings.get(0).unwrap().reserved_cores, 96.0);
        assert_eq!(rings.get(1).unwrap().reserved_cores, 26.0);
    }

    #[test]
    fn exhausted_region_redirects_out() {
        let (mut rings, mut adm) = region(
            PlacementPolicy::Spread,
            vec![ledger("a", 10.0, 8.0, 100), ledger("b", 10.0, 9.0, 100)],
        );
        let out = adm.try_admit(&mut rings, "db-1", 16.0, SimTime::from_secs(5));
        assert_eq!(out, RegionOutcome::OutOfRegion);
        assert_eq!(adm.out_of_region(), 1);
        assert_eq!(adm.redirects().len(), 1);
        assert_eq!(adm.redirects()[0].to, None);
        assert_eq!(adm.redirects_until(SimTime::from_secs(4)), 0);
        assert_eq!(adm.redirects_until(SimTime::from_secs(5)), 1);
    }

    #[test]
    fn drained_ring_stops_admitting() {
        let (mut rings, mut adm) = region(
            PlacementPolicy::Spread,
            vec![
                ledger("old", 200.0, 40.0, 100),
                ledger("new", 100.0, 0.0, 100),
            ],
        );
        let drained = adm.drain_ring(&mut rings, 0, 7);
        assert_eq!(drained, 40.0);
        assert!(!rings.get(0).unwrap().admitting);
        // All subsequent creates land on the surviving ring even though
        // the drained ring has more (nominal) headroom.
        let out = adm.try_admit(&mut rings, "db-1", 4.0, SimTime::ZERO);
        assert_eq!(out, RegionOutcome::Admitted { ring: 1 });
    }

    #[test]
    fn drain_admit_attributes_the_move_to_the_drained_ring() {
        let (mut rings, mut adm) = region(
            PlacementPolicy::Spread,
            vec![
                ledger("old", 200.0, 40.0, 100),
                ledger("new", 100.0, 0.0, 100),
            ],
        );
        adm.drain_ring(&mut rings, 0, 1);
        let out = adm.drain_admit(&mut rings, 0, "old:db-1", 8.0, SimTime::from_secs(9));
        assert_eq!(out, RegionOutcome::Redirected { ring: 1, from: 0 });
        assert_eq!(adm.stats()[0].redirects_out, 1);
        assert_eq!(adm.stats()[1].redirects_in, 1);
        assert_eq!(rings.get(1).unwrap().reserved_cores, 8.0);
        // A tenant no sibling can hold leaves the region, still
        // attributed to the drained ring.
        let out = adm.drain_admit(&mut rings, 0, "old:db-2", 500.0, SimTime::from_secs(9));
        assert_eq!(out, RegionOutcome::OutOfRegion);
        assert_eq!(adm.stats()[0].redirects_out, 2);
        assert_eq!(adm.out_of_region(), 1);
    }

    #[test]
    fn release_returns_cores() {
        let (mut rings, mut adm) =
            region(PlacementPolicy::Spread, vec![ledger("a", 100.0, 20.0, 100)]);
        adm.release(&mut rings, 0, 8.0);
        assert_eq!(rings.get(0).unwrap().reserved_cores, 12.0);
        assert!(rings.invariants_hold());
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            PlacementPolicy::BestFit,
            PlacementPolicy::Spread,
            PlacementPolicy::DensityTarget,
        ] {
            assert_eq!(PlacementPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(PlacementPolicy::from_name("round-robin"), None);
    }
}
