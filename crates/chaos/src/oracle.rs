//! Invariant oracles: cross-cutting safety properties checked after
//! every dispatched simulation event while chaos is active.
//!
//! Each oracle states a property that must hold *no matter which faults
//! were injected*. A violation is a bug in the orchestration layers, not
//! in the plan, so oracles never panic mid-run: they emit an
//! [`toto_trace::EventKind::OracleViolation`] trace event, count the
//! violation, and let the run finish so the evidence lands in the trace
//! sidecar.
//!
//! The four oracles, and what each re-reads per check:
//!
//! 1. **`replica_on_down_node`** — no placement decision puts (or moves)
//!    a replica onto a down node. Replicas *stranded* by a crash (they
//!    were already there and nothing up fits them) are legal; the oracle
//!    is transition-based and only flags replicas that arrived on the
//!    down node since the previous check. Only a replica missing from
//!    the previous snapshot can be flagged, so the oracle walks the
//!    replicas only when [`Cluster::placement_stamp`] moved.
//! 2. **`service_total_loss`** — no service newly loses its last live
//!    replica while at least one up node could host one (same fit rule
//!    as the PLB: per-metric capacity × placement headroom, no sibling
//!    co-location). Also transition-based: entering the all-down state
//!    with an escape hatch available is the bug. Only a service with a
//!    replica on a down node can be all-down, so the oracle reads the
//!    node up flags and walks only the services hosted on down nodes.
//! 3. **`naming_consistency`** — the model XML key exists and every
//!    persisted-state key refers to a live database identity (dropped
//!    databases must scrub their keys). Its findings are a function of
//!    the Naming key set and the live-identity set alone, so the oracle
//!    walks the identities (comparing them with the previous sequence)
//!    and rescans keys only when the sequence or
//!    [`NamingService::key_set_stamp`] changed; otherwise it reports the
//!    previous findings again.
//! 4. **`cost_cache`** — every node's cached PLB cost equals a bitwise
//!    recompute from its load vector (the decision-identity contract of
//!    the cost cache). A full scan on every check: it audits the refresh
//!    hook that issues the stamps, so it must not trust them.
//!
//! Debug builds also run the whole-ring reference scan after every check
//! and assert that both give the same verdict list.

use toto_fabric::cluster::{Cluster, Replica, Service};
use toto_fabric::ids::ServiceId;
use toto_fabric::naming::NamingService;
use toto_rgmanager::MODEL_KEY;

/// Prefix under which RgManagers persist metric state in the Naming
/// Service (`toto/state/{resource}/svc-{identity}`).
const STATE_PREFIX: &str = "toto/state/";

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleViolation {
    /// Which oracle fired (stable snake_case name).
    pub oracle: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// The stateful invariant checker. One instance lives for a whole run;
/// [`InvariantOracle::check`] is called after every dispatched event.
#[derive(Debug)]
pub struct InvariantOracle {
    /// Placement headroom the PLB uses, so oracle 2 applies the same
    /// fit rule as the placement code it audits.
    headroom: f64,
    /// Oracle 1's snapshot: the raw node each replica was on at the
    /// previous walk, indexed by raw replica id, `NOT_PLACED` for an
    /// id absent then. Replica ids are dense and never reused within a
    /// ring, so a flat array updated in place replaces a sorted map.
    placed_on: Vec<u32>,
    /// [`Cluster::placement_stamp`] when `placed_on` was taken; `None`
    /// before the first check.
    placement_stamp: Option<u64>,
    /// Services that were already in the all-replicas-down state at the
    /// previous check (sorted for deterministic iteration).
    prev_all_down: Vec<u64>,
    /// Scratch for oracle 2's next all-down set (same swap scheme).
    all_down_scratch: Vec<u64>,
    /// Scratch for oracle 2's candidates: the services hosted on down
    /// nodes, sorted and deduplicated.
    down_services: Vec<ServiceId>,
    /// [`NamingService::key_set_stamp`] when `naming_found` was
    /// computed; `None` before the first check.
    naming_stamp: Option<u64>,
    /// The live identities exactly as the previous check was handed them.
    live_seq: Vec<u64>,
    /// Oracle 3's findings for (`naming_stamp`, `live_seq`).
    naming_found: Vec<OracleViolation>,
    /// Scratch for oracle 3's rescan: `(identity, key index)` of every
    /// persisted-state key, sorted, and per key index whether a live
    /// database owns the key.
    key_ids: Vec<(u64, usize)>,
    key_live: Vec<bool>,
    /// The whole-ring reference every check is compared with.
    #[cfg(debug_assertions)]
    reference: FullScan,
    /// Total checks performed.
    pub checks: u64,
    /// Total violations detected.
    pub violations: u64,
}

impl InvariantOracle {
    /// New oracle auditing a PLB configured with `placement_headroom`.
    pub fn new(placement_headroom: f64) -> Self {
        InvariantOracle {
            headroom: placement_headroom,
            placed_on: Vec::new(),
            placement_stamp: None,
            prev_all_down: Vec::new(),
            all_down_scratch: Vec::new(),
            down_services: Vec::new(),
            naming_stamp: None,
            live_seq: Vec::new(),
            naming_found: Vec::new(),
            key_ids: Vec::new(),
            key_live: Vec::new(),
            #[cfg(debug_assertions)]
            reference: FullScan::default(),
            checks: 0,
            violations: 0,
        }
    }

    /// Run all four oracles against the post-event state. Violations are
    /// returned *and* emitted as trace events / counted on `self`.
    ///
    /// `live_identities` iterates the identities of all live databases
    /// (the values of the experiment's service → identity map).
    pub fn check(
        &mut self,
        cluster: &Cluster,
        naming: &NamingService,
        live_identities: impl Iterator<Item = u64>,
    ) -> Vec<OracleViolation> {
        self.checks += 1;
        let mut found = Vec::new();
        self.check_placement(cluster, &mut found);
        self.check_total_loss(cluster, &mut found);
        self.check_naming(naming, live_identities, &mut found);
        check_cost_cache(cluster, &mut found);
        #[cfg(debug_assertions)]
        {
            let reference = self.reference.check(
                self.headroom,
                cluster,
                naming,
                self.live_seq.iter().copied(),
            );
            assert_eq!(
                found, reference,
                "incremental oracle verdicts diverged from a full scan"
            );
        }

        self.violations += found.len() as u64;
        for v in &found {
            toto_trace::emit(toto_trace::EventKind::OracleViolation, || {
                toto_trace::EventBody::OracleViolation {
                    oracle: v.oracle.to_string(),
                    detail: v.detail.clone(),
                }
            });
        }
        found
    }

    /// Oracle 1: replicas that arrived on a down node since last check.
    /// With the placement stamp unchanged every replica is in the
    /// snapshot, so nothing can be flagged and the snapshot stands.
    fn check_placement(&mut self, cluster: &Cluster, found: &mut Vec<OracleViolation>) {
        let stamp = cluster.placement_stamp();
        if self.placement_stamp == Some(stamp) {
            return;
        }
        self.placement_stamp = Some(stamp);
        // Replicas iterate in id order, so the ids skipped between two
        // of them, and those past the last, were dropped: clear them.
        let mut next = 0;
        for rep in cluster.replicas() {
            let id = rep.id.raw() as usize;
            if self.placed_on.len() <= id {
                self.placed_on.resize(id + 1, NOT_PLACED);
            }
            self.placed_on[next..id].fill(NOT_PLACED);
            if !cluster.node(rep.node).up && self.placed_on[id] != rep.node.raw() {
                found.push(on_down_node(rep));
            }
            self.placed_on[id] = rep.node.raw();
            next = id + 1;
        }
        self.placed_on.truncate(next);
    }

    /// Oracle 2: services newly stranded with every replica on a down
    /// node while an up node could host one. Such a service has its
    /// first replica on a down node, so the down nodes' services are
    /// the only candidates; with every node up there are none.
    fn check_total_loss(&mut self, cluster: &Cluster, found: &mut Vec<OracleViolation>) {
        self.down_services.clear();
        for node in cluster.nodes().iter().filter(|n| !n.up) {
            self.down_services.extend_from_slice(&node.replica_services);
        }
        self.down_services.sort_unstable();
        self.down_services.dedup();
        self.all_down_scratch.clear();
        for svc in self
            .down_services
            .iter()
            .filter_map(|&id| cluster.service(id))
        {
            if !all_replicas_down(cluster, svc) {
                continue;
            }
            self.all_down_scratch.push(svc.id.raw());
            if self.prev_all_down.binary_search(&svc.id.raw()).is_err() {
                found.extend(total_loss(cluster, svc, self.headroom));
            }
        }
        std::mem::swap(&mut self.prev_all_down, &mut self.all_down_scratch);
    }

    /// Oracle 3: Naming Service consistency, recomputed only when the
    /// key set or the live identities changed. The key-set stamp also
    /// covers the model key's presence.
    fn check_naming(
        &mut self,
        naming: &NamingService,
        live_identities: impl Iterator<Item = u64>,
        found: &mut Vec<OracleViolation>,
    ) {
        let live_changed = self.observe_live(live_identities);
        let stamp = naming.key_set_stamp();
        if live_changed || self.naming_stamp != Some(stamp) {
            self.naming_stamp = Some(stamp);
            self.rescan_naming(naming);
        }
        found.extend_from_slice(&self.naming_found);
    }

    /// Recompute `naming_found`. The persisted keys are far fewer than
    /// the live databases, so the keys' identities are sorted and each
    /// live identity marks the keys it owns; the live set is never
    /// copied or sorted.
    fn rescan_naming(&mut self, naming: &NamingService) {
        self.naming_found.clear();
        if !naming.contains_key(MODEL_KEY) {
            self.naming_found.push(model_key_missing());
        }
        self.key_ids.clear();
        let mut keys = 0;
        for (i, key) in naming.keys_with_prefix(STATE_PREFIX).enumerate() {
            keys = i + 1;
            self.key_ids
                .extend(state_key_identity(key).map(|id| (id, i)));
        }
        self.key_ids.sort_unstable();
        self.key_live.clear();
        self.key_live.resize(keys, false);
        for &id in &self.live_seq {
            let start = self.key_ids.partition_point(|&(k, _)| k < id);
            for &(_, i) in self.key_ids[start..].iter().take_while(|&&(k, _)| k == id) {
                self.key_live[i] = true;
            }
        }
        for (key, &live) in naming.keys_with_prefix(STATE_PREFIX).zip(&self.key_live) {
            if !live {
                self.naming_found.push(dangling_key(key));
            }
        }
    }

    /// Walk `live` against the previous sequence, keeping `live_seq`
    /// equal to it; true iff the sequence differs.
    fn observe_live(&mut self, live: impl Iterator<Item = u64>) -> bool {
        let mut same = 0;
        let mut changed = false;
        for id in live {
            if !changed {
                if self.live_seq.get(same) == Some(&id) {
                    same += 1;
                    continue;
                }
                self.live_seq.truncate(same);
                changed = true;
            }
            self.live_seq.push(id);
        }
        if !changed && same < self.live_seq.len() {
            self.live_seq.truncate(same);
            changed = true;
        }
        changed
    }
}

/// Oracle 1's mark for a replica id that was not placed at the previous
/// walk. No node has this raw id: node ids are below the node count.
const NOT_PLACED: u32 = u32::MAX;

fn on_down_node(rep: &Replica) -> OracleViolation {
    OracleViolation {
        oracle: "replica_on_down_node",
        detail: format!(
            "replica {} of service {} placed on down node {}",
            rep.id.raw(),
            rep.service.raw(),
            rep.node.raw()
        ),
    }
}

/// True iff `svc` has replicas and every one is on a down node.
fn all_replicas_down(cluster: &Cluster, svc: &Service) -> bool {
    !svc.replicas.is_empty()
        && svc
            .replicas
            .iter()
            .filter_map(|r| cluster.replica(*r))
            .all(|r| !cluster.node(r.node).up)
}

/// The violation of an all-down `svc`, if some up node not hosting it
/// fits its first replica under the placement headroom.
fn total_loss(cluster: &Cluster, svc: &Service, headroom: f64) -> Option<OracleViolation> {
    let sample = svc.replicas.first().and_then(|r| cluster.replica(*r))?;
    let node = cluster.nodes().iter().find(|n| {
        n.up && !n.hosts_service(svc.id)
            && cluster
                .metrics()
                .iter()
                .all(|(mid, def)| n.load[mid] + sample.load[mid] <= def.node_capacity * headroom)
    })?;
    Some(OracleViolation {
        oracle: "service_total_loss",
        detail: format!(
            "service {} lost every replica although node {} fits one",
            svc.id.raw(),
            node.id.raw()
        ),
    })
}

/// The database identity a persisted-state key names, if it parses.
fn state_key_identity(key: &str) -> Option<u64> {
    key.rsplit_once("/svc-")
        .and_then(|(_, raw)| raw.parse::<u64>().ok())
}

fn model_key_missing() -> OracleViolation {
    OracleViolation {
        oracle: "naming_consistency",
        detail: format!("model key '{MODEL_KEY}' missing"),
    }
}

fn dangling_key(key: &str) -> OracleViolation {
    OracleViolation {
        oracle: "naming_consistency",
        detail: format!("persisted-state key '{key}' has no live database"),
    }
}

/// Oracle 4: node-cost cache vs. bitwise recompute, every node.
fn check_cost_cache(cluster: &Cluster, found: &mut Vec<OracleViolation>) {
    for node in cluster.nodes() {
        let cached = cluster.node_cost(node.id);
        let fresh = cluster.metrics().cost_of(&node.load);
        if cached.to_bits() != fresh.to_bits() {
            found.push(OracleViolation {
                oracle: "cost_cache",
                detail: format!(
                    "node {} cached cost {cached:?} != recomputed {fresh:?}",
                    node.id.raw()
                ),
            });
        }
    }
}

/// The reference: every oracle re-reads the whole ring on every check —
/// every replica, every service, a fresh sort of the live identities and
/// a scan of every persisted key. [`InvariantOracle::check`] must return
/// exactly its verdicts; debug builds and the tests assert that.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Default)]
struct FullScan {
    prev_placement: Vec<(u64, u32)>,
    prev_all_down: Vec<u64>,
}

#[cfg(any(test, debug_assertions))]
impl FullScan {
    fn check(
        &mut self,
        headroom: f64,
        cluster: &Cluster,
        naming: &NamingService,
        live_identities: impl Iterator<Item = u64>,
    ) -> Vec<OracleViolation> {
        let mut found = Vec::new();
        let mut placement = Vec::new();
        for rep in cluster.replicas() {
            placement.push((rep.id.raw(), rep.node.raw()));
            let arrived = self
                .prev_placement
                .binary_search(&(rep.id.raw(), rep.node.raw()))
                .is_err();
            if arrived && !cluster.node(rep.node).up {
                found.push(on_down_node(rep));
            }
        }
        self.prev_placement = placement;

        let mut all_down = Vec::new();
        for svc in cluster.services() {
            if !all_replicas_down(cluster, svc) {
                continue;
            }
            all_down.push(svc.id.raw());
            if self.prev_all_down.binary_search(&svc.id.raw()).is_err() {
                found.extend(total_loss(cluster, svc, headroom));
            }
        }
        self.prev_all_down = all_down;

        if !naming.contains_key(MODEL_KEY) {
            found.push(model_key_missing());
        }
        let mut live: Vec<u64> = live_identities.collect();
        live.sort_unstable();
        for key in naming.keys_with_prefix(STATE_PREFIX) {
            match state_key_identity(key) {
                Some(id) if live.binary_search(&id).is_ok() => {}
                _ => found.push(dangling_key(key)),
            }
        }
        check_cost_cache(cluster, &mut found);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_fabric::cluster::{ClusterConfig, ServiceSpec};
    use toto_fabric::ids::{MetricId, NodeId};
    use toto_fabric::metrics::{MetricDef, MetricRegistry};
    use toto_fabric::plb::{Plb, PlbConfig};
    use toto_simcore::time::SimTime;

    fn cluster(nodes: u32) -> Cluster {
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        metrics.register(MetricDef {
            name: "Disk".into(),
            node_capacity: 1000.0,
            balancing_weight: 1.0,
        });
        Cluster::new(ClusterConfig {
            node_count: nodes,
            metrics,
            fault_domains: 1,
        })
    }

    fn place(
        cluster: &mut Cluster,
        plb: &mut Plb,
        name: &str,
        replicas: u32,
    ) -> toto_fabric::ids::ServiceId {
        let mut load = cluster.metrics().zero_load();
        load[MetricId(0)] = 4.0;
        load[MetricId(1)] = 50.0;
        let spec = ServiceSpec {
            name: name.into(),
            tag: 0,
            replica_count: replicas,
            default_load: load,
        };
        plb.create_service(cluster, &spec, SimTime::ZERO)
            .expect("test cluster has room")
    }

    fn healthy_naming() -> NamingService {
        let mut naming = NamingService::new();
        naming.write(MODEL_KEY, "<modelSet/>");
        naming
    }

    #[test]
    fn healthy_cluster_has_no_violations() {
        let mut c = cluster(4);
        let mut plb = Plb::new(PlbConfig::default(), 7);
        place(&mut c, &mut plb, "db", 3);
        let naming = healthy_naming();
        let mut oracle = InvariantOracle::new(1.0);
        let found = oracle.check(&c, &naming, std::iter::empty());
        assert!(found.is_empty(), "unexpected violations: {found:?}");
        assert_eq!(oracle.checks, 1);
        assert_eq!(oracle.violations, 0);
    }

    #[test]
    fn replica_moved_onto_down_node_fires_oracle_1() {
        let mut c = cluster(4);
        let mut plb = Plb::new(PlbConfig::default(), 7);
        let svc = place(&mut c, &mut plb, "db", 1);
        let naming = healthy_naming();
        let mut oracle = InvariantOracle::new(1.0);
        assert!(oracle.check(&c, &naming, std::iter::empty()).is_empty());
        // Deliberately break the invariant: move the replica onto a node
        // that has been marked down (the cluster mutator itself does not
        // police node liveness — that is the PLB's job, and the oracle's).
        let rid = c.service(svc).unwrap().replicas[0];
        let from = c.replica(rid).unwrap().node;
        let to = NodeId(if from.raw() == 3 { 2 } else { 3 });
        c.set_node_up(to, false);
        c.move_replica(rid, to);
        let found = oracle.check(&c, &naming, std::iter::empty());
        assert!(
            found.iter().any(|v| v.oracle == "replica_on_down_node"),
            "oracle 1 did not fire: {found:?}"
        );
    }

    #[test]
    fn stranded_replica_does_not_fire_oracle_1() {
        let mut c = cluster(4);
        let mut plb = Plb::new(PlbConfig::default(), 7);
        let svc = place(&mut c, &mut plb, "db", 1);
        let naming = healthy_naming();
        let mut oracle = InvariantOracle::new(1.0);
        assert!(oracle.check(&c, &naming, std::iter::empty()).is_empty());
        // The node goes down with the replica already on it: stranded,
        // not newly placed — oracle 1 must stay quiet.
        let rid = c.service(svc).unwrap().replicas[0];
        let node = c.replica(rid).unwrap().node;
        c.set_node_up(node, false);
        let found = oracle.check(&c, &naming, std::iter::empty());
        assert!(
            found.iter().all(|v| v.oracle != "replica_on_down_node"),
            "oracle 1 fired on a stranded replica: {found:?}"
        );
    }

    #[test]
    fn oracle_1_handed_another_ring_forgets_its_dropped_replicas() {
        // Ring `a` hosts replicas 0, 1 and 2 on nodes 0, 1 and 2. Each
        // check below hands the oracle a different ring; a replica the
        // previous ring lacked counts as newly placed.
        let mut a = cluster(4);
        let mut plb = Plb::new(PlbConfig::default(), 7);
        let svcs: Vec<_> = (0..3)
            .map(|i| place(&mut a, &mut plb, &format!("db{i}"), 1))
            .collect();
        let node_of = |c: &Cluster, i: usize| {
            c.replica(c.service(svcs[i]).unwrap().replicas[0])
                .unwrap()
                .node
        };
        let naming = healthy_naming();
        let mut oracle = InvariantOracle::new(1.0);
        let mut reference = FullScan::default();
        let mut check = |c: &Cluster| {
            let found = oracle.check(c, &naming, std::iter::empty());
            assert_eq!(found, reference.check(1.0, c, &naming, std::iter::empty()));
            found
                .iter()
                .filter(|v| v.oracle == "replica_on_down_node")
                .count()
        };
        assert_eq!(check(&a), 0);
        // Replica 1 dropped (an id between two live ones), then back on
        // its node, which is now down.
        let mut without = a.clone();
        without.remove_service(svcs[1]);
        assert_eq!(check(&without), 0);
        let mut down = a.clone();
        down.set_node_up(node_of(&a, 1), false);
        assert_eq!(check(&down), 1);
        // The same for replica 2, the last id.
        let mut without = a.clone();
        without.remove_service(svcs[2]);
        assert_eq!(check(&without), 0);
        let mut down = a.clone();
        down.set_node_up(node_of(&a, 2), false);
        assert_eq!(check(&down), 1);
    }

    #[test]
    fn total_loss_with_escape_hatch_fires_oracle_2() {
        let mut c = cluster(4);
        let mut plb = Plb::new(PlbConfig::default(), 7);
        let svc = place(&mut c, &mut plb, "db", 1);
        let naming = healthy_naming();
        let mut oracle = InvariantOracle::new(1.0);
        assert!(oracle.check(&c, &naming, std::iter::empty()).is_empty());
        // Deliberately break the invariant: take the hosting node down
        // without failing the replica over, while three empty up nodes
        // could trivially host it.
        let node = c.replica(c.service(svc).unwrap().replicas[0]).unwrap().node;
        c.set_node_up(node, false);
        let found = oracle.check(&c, &naming, std::iter::empty());
        assert!(
            found.iter().any(|v| v.oracle == "service_total_loss"),
            "oracle 2 did not fire: {found:?}"
        );
        // And only on the transition: the next check sees the same
        // stranded state and stays quiet.
        let again = oracle.check(&c, &naming, std::iter::empty());
        assert!(again.iter().all(|v| v.oracle != "service_total_loss"));
    }

    #[test]
    fn dangling_persisted_key_fires_oracle_3() {
        let c = cluster(2);
        let mut naming = healthy_naming();
        naming.write("toto/state/Disk/svc-999", "42.0");
        let mut oracle = InvariantOracle::new(1.0);
        // Identity 999 is not live → the key dangles.
        let found = oracle.check(&c, &naming, [7u64].into_iter());
        assert!(
            found.iter().any(|v| v.oracle == "naming_consistency"),
            "oracle 3 did not fire: {found:?}"
        );
        // A live identity silences it.
        let found = oracle.check(&c, &naming, [999u64].into_iter());
        assert!(found.iter().all(|v| v.oracle != "naming_consistency"));
    }

    #[test]
    fn missing_model_key_fires_oracle_3() {
        let c = cluster(2);
        let naming = NamingService::new();
        let mut oracle = InvariantOracle::new(1.0);
        let found = oracle.check(&c, &naming, std::iter::empty());
        assert!(found
            .iter()
            .any(|v| v.oracle == "naming_consistency" && v.detail.contains(MODEL_KEY)));
    }

    #[test]
    fn corrupted_cost_cache_fires_oracle_4() {
        let mut c = cluster(2);
        let naming = healthy_naming();
        let mut oracle = InvariantOracle::new(1.0);
        assert!(oracle.check(&c, &naming, std::iter::empty()).is_empty());
        // Deliberately corrupt the cache through the test-only hook.
        c.corrupt_node_cost_for_test(NodeId(1), 123.456);
        let found = oracle.check(&c, &naming, std::iter::empty());
        assert!(
            found.iter().any(|v| v.oracle == "cost_cache"),
            "oracle 4 did not fire: {found:?}"
        );
        assert_eq!(oracle.violations, 1);
    }

    #[test]
    fn standing_dangling_key_is_reported_on_every_check() {
        let c = cluster(2);
        let mut naming = healthy_naming();
        naming.write("toto/state/Disk/svc-999", "42.0");
        let mut oracle = InvariantOracle::new(1.0);
        for round in 1..=3u64 {
            let found = oracle.check(&c, &naming, [7u64].into_iter());
            assert_eq!(
                found
                    .iter()
                    .filter(|v| v.oracle == "naming_consistency")
                    .count(),
                1,
                "round {round}: {found:?}"
            );
            assert_eq!(oracle.violations, round);
        }
        // An overwrite keeps the key set, and the finding stands.
        naming.write("toto/state/Disk/svc-999", "43.0");
        assert_eq!(oracle.check(&c, &naming, [7u64].into_iter()).len(), 1);
        assert!(naming.delete("toto/state/Disk/svc-999"));
        assert!(oracle.check(&c, &naming, [7u64].into_iter()).is_empty());
        assert_eq!(oracle.violations, 4);
    }

    #[test]
    fn stores_with_equal_write_histories_get_their_own_verdicts() {
        let c = cluster(2);
        let mut clean = healthy_naming();
        clean.write("toto/state/Disk/svc-7", "1.0");
        let mut dangling = healthy_naming();
        dangling.write("toto/state/Disk/svc-8", "1.0");
        let mut oracle = InvariantOracle::new(1.0);
        assert!(oracle.check(&c, &clean, [7u64].into_iter()).is_empty());
        let found = oracle.check(&c, &dangling, [7u64].into_iter());
        assert!(
            found.iter().any(|v| v.detail.contains("svc-8")),
            "the second store's dangling key went unreported: {found:?}"
        );
        assert!(oracle.check(&c, &clean, [7u64].into_iter()).is_empty());
    }

    /// Random create / remove / report / crash / restart / move-onto-a-
    /// down-node / leak-a-key / corrupt-a-cost sequences: after every op
    /// the oracle's verdicts equal the full scan's.
    #[test]
    fn random_sequences_match_the_full_scan() {
        use toto_fabric::ids::ReplicaId;
        use toto_simcore::rng::DetRng;

        const NODES: u32 = 6;
        let mut fired = [0u64; 4];
        for seq in 0..200u64 {
            let mut rng = DetRng::seed_from_u64(0x0AC1E ^ seq);
            let mut c = cluster(NODES);
            let mut naming = healthy_naming();
            // Live services and their identities, in creation order.
            let mut live: Vec<(toto_fabric::ids::ServiceId, u64)> = Vec::new();
            let mut next_identity = 100u64;
            let mut oracle = InvariantOracle::new(0.9);
            let mut reference = FullScan::default();
            for step in 0..40 {
                match rng.next_below(8) {
                    0 => {
                        // Create: distinct random nodes, any liveness.
                        let count = 1 + rng.next_below(3) as usize;
                        let mut nodes: Vec<NodeId> = (0..NODES).map(NodeId).collect();
                        rng.shuffle(&mut nodes);
                        nodes.truncate(count);
                        let mut load = c.metrics().zero_load();
                        load[MetricId(0)] = 8.0 + rng.next_below(40) as f64;
                        load[MetricId(1)] = 100.0 + rng.next_below(400) as f64;
                        let spec = ServiceSpec {
                            name: format!("db-{next_identity}"),
                            tag: 0,
                            replica_count: count as u32,
                            default_load: load,
                        };
                        let svc = c.add_service(&spec, &nodes, SimTime::ZERO);
                        if rng.bernoulli(0.5) {
                            naming.write(&format!("toto/state/Disk/svc-{next_identity}"), 1.0);
                        }
                        live.push((svc, next_identity));
                        next_identity += 1;
                    }
                    1 if !live.is_empty() => {
                        // Remove; one time in four the state key leaks.
                        let (svc, identity) =
                            live.remove(rng.next_below(live.len() as u64) as usize);
                        c.remove_service(svc);
                        if !rng.bernoulli(0.25) {
                            naming.delete(&format!("toto/state/Disk/svc-{identity}"));
                        }
                    }
                    2 if !live.is_empty() => {
                        // Report: new load, and an overwrite of the state.
                        let (svc, identity) = live[rng.next_below(live.len() as u64) as usize];
                        let rid = c.service(svc).unwrap().replicas[0];
                        let metric = MetricId(rng.next_below(2) as u32);
                        c.report_load(rid, metric, rng.next_below(600) as f64);
                        naming.update_num(
                            &format!("toto/state/Disk/svc-{identity}"),
                            rng.bernoulli(0.5),
                            |prev| prev.unwrap_or(0.0) + 1.0,
                        );
                    }
                    3 => c.set_node_up(NodeId(rng.next_below(NODES as u64) as u32), false),
                    4 => c.set_node_up(NodeId(rng.next_below(NODES as u64) as u32), true),
                    5 if !live.is_empty() => {
                        // Move a replica onto a down node that lacks its service.
                        let (svc, _) = live[rng.next_below(live.len() as u64) as usize];
                        let replicas = c.service(svc).unwrap().replicas.clone();
                        let rid: ReplicaId =
                            replicas[rng.next_below(replicas.len() as u64) as usize];
                        let target = c
                            .nodes()
                            .iter()
                            .find(|n| !n.up && !n.hosts_service(svc))
                            .map(|n| n.id);
                        if let Some(to) = target {
                            c.move_replica(rid, to);
                        }
                    }
                    6 => {
                        // Leak a key no live database owns, or one that
                        // names no identity, or give a live database a
                        // second key.
                        let key = match rng.next_below(3) {
                            0 => format!("toto/state/Disk/svc-{}", next_identity + 1000),
                            1 => "toto/state/Disk/svc-x".to_string(),
                            _ => {
                                let owner = live.first().map_or(0, |&(_, identity)| identity);
                                format!("toto/state/Cpu/svc-{owner}")
                            }
                        };
                        naming.write(&key, 2.0);
                    }
                    7 => c.corrupt_node_cost_for_test(
                        NodeId(rng.next_below(NODES as u64) as u32),
                        rng.next_f64(),
                    ),
                    _ => {}
                }
                let identities = || live.iter().map(|&(_, id)| id);
                let found = oracle.check(&c, &naming, identities());
                let expected = reference.check(0.9, &c, &naming, identities());
                assert_eq!(found, expected, "sequence {seq}, step {step}");
                for v in &found {
                    let i = [
                        "replica_on_down_node",
                        "service_total_loss",
                        "naming_consistency",
                        "cost_cache",
                    ]
                    .iter()
                    .position(|o| *o == v.oracle)
                    .unwrap();
                    fired[i] += 1;
                }
            }
        }
        // Every oracle fired somewhere, so no branch went untested.
        assert!(fired.iter().all(|&n| n > 0), "oracle firings {fired:?}");
    }
}
