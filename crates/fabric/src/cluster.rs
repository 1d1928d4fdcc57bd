//! Cluster state: nodes, services, replicas and load accounting.
//!
//! The cluster is pure state plus invariant-preserving mutations; *policy*
//! (where to place, what to move) lives in [`crate::plb`]. All collections
//! iterate in deterministic order so that experiment runs are reproducible
//! given fixed seeds.

use crate::ids::{MetricId, NodeId, ReplicaId, ServiceId};
use crate::metrics::{LoadVec, MetricRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use toto_simcore::time::SimTime;

/// Source of node and placement change stamps, shared by every cluster
/// in the process so that no two mutations anywhere ever receive the
/// same stamp. Equal stamps then imply equal content across clones and
/// across rings, which is what lets one [`crate::plb::Plb`] keep its
/// cached ranking, and one invariant oracle its placement snapshot,
/// while they are handed different rings. Stamp 0 is never issued: it
/// marks a node never mutated since [`Cluster::new`], which is the same
/// zero-load, up node in every ring, and a ring that has never placed a
/// replica.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Draw a fresh stamp. `Relaxed` suffices: the counter publishes no
/// other data, and `fetch_add` alone makes every stamp unique.
fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Map an `f64` cost to a `u64` whose unsigned order matches
/// [`f64::total_cmp`]. Used as the ordering key of the candidate-node
/// index so membership updates are integer comparisons and the stored
/// key is exactly reconstructible from the cached cost bits (which
/// [`Cluster::invariants_ok`] verifies bitwise).
#[inline]
fn cost_key(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Role of a replica. Single-replica services have a primary only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Serves writes; its unavailability is customer-visible.
    Primary,
    /// Standby copy (local-store editions run three of these).
    Secondary,
}

/// One replica of a service, pinned to a node.
#[derive(Clone, Debug)]
pub struct Replica {
    /// Unique id.
    pub id: ReplicaId,
    /// Owning service.
    pub service: ServiceId,
    /// Node currently hosting the replica.
    pub node: NodeId,
    /// Current role.
    pub role: ReplicaRole,
    /// Last reported load per metric ("it is the responsibility of each
    /// individual database to report their own load to the PLB", §3.2).
    pub load: LoadVec,
}

/// A deployed service (a database, from the upper layers' view).
#[derive(Clone, Debug)]
pub struct Service {
    /// Unique id.
    pub id: ServiceId,
    /// Human-readable name.
    pub name: String,
    /// Opaque tag interpreted by upper layers (edition/SLO encoding).
    pub tag: u64,
    /// Replica ids, primary first by construction (order maintained on
    /// promotion).
    pub replicas: Vec<ReplicaId>,
    /// Creation time.
    pub created_at: SimTime,
}

/// Everything needed to create a service (placement is decided by the PLB
/// and passed separately).
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Human-readable name.
    pub name: String,
    /// Opaque tag for upper layers.
    pub tag: u64,
    /// Number of replicas to place on distinct nodes.
    pub replica_count: u32,
    /// Initial load each replica reports upon placement.
    pub default_load: LoadVec,
}

/// A cluster node with its aggregate load view.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Fault domain this node belongs to.
    pub fault_domain: u32,
    /// Aggregate reported load per metric (the PLB's "centralized view of
    /// the load on each node", §3.1).
    pub load: LoadVec,
    /// Replicas hosted here, in deterministic order.
    pub replicas: Vec<ReplicaId>,
    /// Owning service of each hosted replica, parallel to `replicas`.
    /// Denormalized so the PLB's "does this node already host a sibling?"
    /// check — run per candidate node per failover decision — is a linear
    /// scan of this vector instead of a replica-map lookup per replica.
    pub replica_services: Vec<ServiceId>,
    /// False while the node is drained for maintenance.
    pub up: bool,
}

impl Node {
    /// True iff this node hosts a replica of `service`.
    pub fn hosts_service(&self, service: ServiceId) -> bool {
        self.replica_services.contains(&service)
    }
}

/// Static cluster configuration: homogeneous nodes (SQL DB rings "can also
/// be considered homogeneous in their hardware SKU", §2) and the governed
/// metrics with their logical capacities.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of data-plane nodes.
    pub node_count: u32,
    /// Metric definitions including per-node logical capacities.
    pub metrics: MetricRegistry,
    /// Number of fault domains. Node `i` lives in domain `i % fault_domains`
    /// (Service Fabric spreads replicas across fault domains so a rack or
    /// power failure cannot take out a whole replica set). `1` disables
    /// the constraint.
    pub fault_domains: u32,
}

impl ClusterConfig {
    /// A configuration with a single fault domain (no spread constraint).
    pub fn uniform(node_count: u32, metrics: MetricRegistry) -> Self {
        ClusterConfig {
            node_count,
            metrics,
            fault_domains: 1,
        }
    }
}

/// The simulated Service Fabric cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    metrics: MetricRegistry,
    nodes: Vec<Node>,
    services: BTreeMap<ServiceId, Service>,
    /// Slot map indexed by raw replica id: ids are allocated sequentially
    /// and never reused, so lookups are O(1) and iteration (skipping the
    /// `None` slots of dropped replicas) visits replicas in id order —
    /// exactly the order the previous `BTreeMap` storage produced.
    replicas: Vec<Option<Replica>>,
    next_service: u64,
    next_replica: u64,
    /// Cached [`MetricRegistry::cost_of`] of each node's aggregate load,
    /// indexed by raw node id. Every load-mutating method refreshes the
    /// nodes it touched before it returns — [`Cluster::report_loads`]
    /// once per touched node for a whole batch — so at every public
    /// method boundary reads are O(1) and bit-identical to a
    /// from-scratch recompute (verified by [`Cluster::invariants_ok`]).
    /// This is the PLB's hot-path base cost: placement evaluates it once
    /// per candidate node per decision instead of once per comparator
    /// call.
    node_costs: Vec<f64>,
    /// Violating `(node, metric)` pairs, maintained incrementally by
    /// [`Cluster::refresh_node_cost`] — the same refresh-on-mutate hook
    /// that keeps `node_costs` exact. `BTreeSet` iteration order (node
    /// id, then metric id) is exactly the order the full scan produced,
    /// so [`Cluster::violations`] is O(violations) without changing a
    /// single PLB decision. Down nodes stay tracked: a violation does
    /// not vanish because its host was drained.
    violation_set: BTreeSet<(NodeId, MetricId)>,
    /// Per-node bitmask of currently violated metrics (bit = raw metric
    /// id), indexed by raw node id. Lets the refresh hook detect
    /// membership changes without probing `violation_set` when nothing
    /// changed — the overwhelmingly common case.
    violation_bits: Vec<u64>,
    /// All **up** nodes ordered by `(cost_key(node_cost), id)`: the
    /// PLB's candidate-node index. Walking it ascending visits the
    /// cheapest-by-cached-cost failover targets first, so target
    /// selection can stop after a bounded prefix instead of scanning
    /// every node. Maintained by `refresh_node_cost` / `set_node_up`
    /// in O(log n) per mutation.
    cost_index: BTreeSet<(u64, NodeId)>,
    /// The same index partitioned by fault domain, so spread
    /// constraints (sibling-domain avoidance) prune whole partitions
    /// before any candidate is costed.
    domain_cost_index: Vec<BTreeSet<(u64, NodeId)>>,
    /// Scratch for [`Cluster::report_loads`]: the batch's touched nodes
    /// in first-touch order, and a per-node mark (indexed by raw node
    /// id) that keeps each node in the list once. Empty and all-false
    /// between calls.
    touched: Vec<NodeId>,
    touched_mark: Vec<bool>,
    /// Per-node change stamp, indexed by raw node id: drawn afresh from
    /// the process-wide counter whenever the node's load or up state may
    /// have changed. It only tells the PLB's ranking cache which nodes to
    /// recompute; no stamp reaches a decision or an artifact.
    stamps: Vec<u64>,
    /// Placement change stamp: drawn afresh from the same counter
    /// whenever a replica is added, moved or removed.
    placement_stamp: u64,
}

impl Cluster {
    /// Build an empty cluster from its configuration.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.node_count > 0, "cluster needs at least one node");
        assert!(
            !config.metrics.is_empty(),
            "cluster needs at least one metric"
        );
        assert!(
            config.fault_domains > 0,
            "cluster needs at least one fault domain"
        );
        assert!(
            config.metrics.len() <= 64,
            "violation tracking supports at most 64 metrics"
        );
        let nodes = (0..config.node_count)
            .map(|i| Node {
                id: NodeId(i),
                fault_domain: i % config.fault_domains,
                load: config.metrics.zero_load(),
                replicas: Vec::new(),
                replica_services: Vec::new(),
                up: true,
            })
            .collect();
        let node_costs = vec![0.0; config.node_count as usize];
        let domain_count = config.fault_domains.min(config.node_count) as usize;
        let mut domain_cost_index = vec![BTreeSet::new(); domain_count];
        let mut cost_index = BTreeSet::new();
        for i in 0..config.node_count {
            let key = (cost_key(0.0), NodeId(i));
            cost_index.insert(key);
            domain_cost_index[(i % config.fault_domains) as usize].insert(key);
        }
        Cluster {
            metrics: config.metrics,
            nodes,
            services: BTreeMap::new(),
            replicas: Vec::new(),
            next_service: 0,
            next_replica: 0,
            node_costs,
            violation_set: BTreeSet::new(),
            violation_bits: vec![0; config.node_count as usize],
            cost_index,
            domain_cost_index,
            touched: Vec::new(),
            touched_mark: vec![false; config.node_count as usize],
            stamps: vec![0; config.node_count as usize],
            placement_stamp: 0,
        }
    }

    /// Give a node a fresh change stamp.
    fn stamp(&mut self, node: NodeId) {
        self.stamps[node.0 as usize] = next_stamp();
    }

    /// Every node's change stamp, indexed by raw node id.
    pub(crate) fn node_stamps(&self) -> &[u64] {
        &self.stamps
    }

    /// The placement change stamp: equal stamps mean equal `(replica,
    /// node)` placements, in this ring or any clone of it.
    /// [`Cluster::add_service`], [`Cluster::remove_service`] and
    /// [`Cluster::move_replica`] draw a fresh one; load reports, node
    /// up/down changes and promotions do not.
    pub fn placement_stamp(&self) -> u64 {
        self.placement_stamp
    }

    /// Recompute one node's cached cost from its current aggregate load.
    /// Called by every mutation that touches the node's load, keeping the
    /// cache exact (not incrementally drifted): the stored value is always
    /// `cost_of` applied to the present load bits. The same hook keeps
    /// the candidate-node index and the violation dirty-set exact, so
    /// every derived structure refreshes from one place, and the node
    /// gets a fresh change stamp.
    fn refresh_node_cost(&mut self, node: NodeId) {
        self.stamp(node);
        let i = node.0 as usize;
        let old_cost = self.node_costs[i];
        let new_cost = self.metrics.cost_of(&self.nodes[i].load);
        self.node_costs[i] = new_cost;
        if self.nodes[i].up && old_cost.to_bits() != new_cost.to_bits() {
            let domain = self.nodes[i].fault_domain as usize;
            self.cost_index.remove(&(cost_key(old_cost), node));
            self.cost_index.insert((cost_key(new_cost), node));
            self.domain_cost_index[domain].remove(&(cost_key(old_cost), node));
            self.domain_cost_index[domain].insert((cost_key(new_cost), node));
        }
        let mut bits = 0u64;
        for (mid, def) in self.metrics.iter() {
            if self.nodes[i].load[mid] > def.node_capacity {
                bits |= 1 << mid.0;
            }
        }
        let mut changed = bits ^ self.violation_bits[i];
        while changed != 0 {
            let m = changed.trailing_zeros();
            if bits >> m & 1 == 1 {
                self.violation_set.insert((node, MetricId(m)));
            } else {
                self.violation_set.remove(&(node, MetricId(m)));
            }
            changed &= changed - 1;
        }
        self.violation_bits[i] = bits;
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricRegistry {
        &self.metrics
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cached balancing cost ([`MetricRegistry::cost_of`]) of a node's
    /// current aggregate load. O(1); bit-identical to recomputing from the
    /// node's load vector.
    pub fn node_cost(&self, id: NodeId) -> f64 {
        self.node_costs[id.0 as usize]
    }

    /// All services in id order.
    pub fn services(&self) -> impl Iterator<Item = &Service> {
        self.services.values()
    }

    /// Number of live services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// One service.
    pub fn service(&self, id: ServiceId) -> Option<&Service> {
        self.services.get(&id)
    }

    /// One replica.
    pub fn replica(&self, id: ReplicaId) -> Option<&Replica> {
        self.replicas.get(id.0 as usize)?.as_ref()
    }

    fn replica_mut(&mut self, id: ReplicaId) -> Option<&mut Replica> {
        self.replicas.get_mut(id.0 as usize)?.as_mut()
    }

    /// All replicas in id order.
    pub fn replicas(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter().filter_map(|r| r.as_ref())
    }

    /// The primary replica of a service.
    pub fn primary_of(&self, service: ServiceId) -> Option<&Replica> {
        let svc = self.services.get(&service)?;
        svc.replicas
            .iter()
            .filter_map(|r| self.replica(*r))
            .find(|r| r.role == ReplicaRole::Primary)
    }

    /// Cluster-wide aggregate load for a metric.
    pub fn total_load(&self, metric: MetricId) -> f64 {
        self.nodes.iter().map(|n| n.load[metric]).sum()
    }

    /// Cluster-wide logical capacity for a metric (capacity × up nodes).
    pub fn total_capacity(&self, metric: MetricId) -> f64 {
        let per_node = self.metrics.def(metric).node_capacity;
        per_node * self.nodes.iter().filter(|n| n.up).count() as f64
    }

    /// Create a service with replicas on the given nodes (first node hosts
    /// the primary). Panics on duplicate or out-of-range nodes — the PLB
    /// is responsible for passing a legal placement.
    pub fn add_service(
        &mut self,
        spec: &ServiceSpec,
        placement: &[NodeId],
        now: SimTime,
    ) -> ServiceId {
        assert_eq!(
            placement.len(),
            spec.replica_count as usize,
            "placement arity mismatch"
        );
        assert_eq!(
            spec.default_load.len(),
            self.metrics.len(),
            "default load arity mismatch"
        );
        for (i, n) in placement.iter().enumerate() {
            assert!((n.0 as usize) < self.nodes.len(), "unknown node {n}");
            assert!(
                !placement[..i].contains(n),
                "replicas of one service must land on distinct nodes"
            );
        }
        let service_id = ServiceId(self.next_service);
        self.next_service += 1;
        self.placement_stamp = next_stamp();
        let mut replica_ids = Vec::with_capacity(placement.len());
        for (i, &node) in placement.iter().enumerate() {
            let replica_id = ReplicaId(self.next_replica);
            self.next_replica += 1;
            debug_assert_eq!(replica_id.0 as usize, self.replicas.len());
            let role = if i == 0 {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Secondary
            };
            let replica = Replica {
                id: replica_id,
                service: service_id,
                node,
                role,
                load: spec.default_load.clone(),
            };
            self.nodes[node.0 as usize].load.add(&replica.load);
            self.nodes[node.0 as usize].replicas.push(replica_id);
            self.nodes[node.0 as usize]
                .replica_services
                .push(service_id);
            self.replicas.push(Some(replica));
            self.refresh_node_cost(node);
            replica_ids.push(replica_id);
        }
        self.services.insert(
            service_id,
            Service {
                id: service_id,
                name: spec.name.clone(),
                tag: spec.tag,
                replicas: replica_ids,
                created_at: now,
            },
        );
        service_id
    }

    /// Delete a service, releasing all replica load. Returns the service
    /// record, or `None` if the id is unknown.
    pub fn remove_service(&mut self, id: ServiceId) -> Option<Service> {
        let svc = self.services.remove(&id)?;
        self.placement_stamp = next_stamp();
        for rid in &svc.replicas {
            if let Some(rep) = self.replicas.get_mut(rid.0 as usize).and_then(Option::take) {
                let node = &mut self.nodes[rep.node.0 as usize];
                node.load.sub_clamped(&rep.load);
                if let Some(pos) = node.replicas.iter().position(|r| r == rid) {
                    node.replicas.remove(pos);
                    node.replica_services.remove(pos);
                }
                self.refresh_node_cost(rep.node);
            }
        }
        Some(svc)
    }

    /// Update one metric of one replica's reported load; node aggregates
    /// follow. Returns the previous value. Panics on unknown replica.
    pub fn report_load(&mut self, replica: ReplicaId, metric: MetricId, value: f64) -> f64 {
        let (prev, node) = self.apply_report(replica, metric, value);
        self.refresh_node_cost(node);
        prev
    }

    /// A report period's loads in one call: each `(replica, metric,
    /// value)` is applied in order with exactly [`Cluster::report_load`]'s
    /// arithmetic, then each touched node's cost, index entries and
    /// violation bits are refreshed once. The result is bit-identical to
    /// calling `report_load` on each report in turn: every derived
    /// structure is a function of the final node loads. Panics on an
    /// unknown replica.
    pub fn report_loads(&mut self, reports: &[(ReplicaId, MetricId, f64)]) {
        for &(replica, metric, value) in reports {
            let (_, node) = self.apply_report(replica, metric, value);
            let mark = &mut self.touched_mark[node.0 as usize];
            if !*mark {
                *mark = true;
                self.touched.push(node);
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        for &node in &touched {
            self.touched_mark[node.0 as usize] = false;
            self.refresh_node_cost(node);
        }
        debug_assert!(
            touched.iter().all(|n| {
                let i = n.0 as usize;
                self.node_costs[i].to_bits() == self.metrics.cost_of(&self.nodes[i].load).to_bits()
            }),
            "report_loads left a touched node's cost stale"
        );
        touched.clear();
        self.touched = touched;
    }

    /// The arithmetic of one report, without the refresh: set the
    /// replica's load and move its node's aggregate by the difference,
    /// clamped at zero. Returns the previous value and the node.
    fn apply_report(&mut self, replica: ReplicaId, metric: MetricId, value: f64) -> (f64, NodeId) {
        let rep = self
            .replica_mut(replica)
            .unwrap_or_else(|| panic!("report_load: unknown replica {replica}"));
        let prev = rep.load[metric];
        rep.load[metric] = value;
        let node_id = rep.node;
        let node = &mut self.nodes[node_id.0 as usize];
        node.load[metric] = (node.load[metric] - prev + value).max(0.0);
        (prev, node_id)
    }

    /// Move a replica to another node, carrying its reported load.
    /// Panics if the destination already hosts a replica of the service.
    pub fn move_replica(&mut self, replica: ReplicaId, to: NodeId) {
        let rep = self
            .replica(replica)
            .unwrap_or_else(|| panic!("move_replica: unknown replica {replica}"));
        let service = rep.service;
        let from = rep.node;
        assert_ne!(from, to, "move_replica to the same node");
        assert!(
            !self.nodes[to.0 as usize].hosts_service(service),
            "destination {to} already hosts a replica of {service}"
        );
        self.placement_stamp = next_stamp();
        let rep = self.replica_mut(replica).expect("checked above");
        rep.node = to;
        let load = rep.load.clone();
        let from_node = &mut self.nodes[from.0 as usize];
        from_node.load.sub_clamped(&load);
        if let Some(pos) = from_node.replicas.iter().position(|r| *r == replica) {
            from_node.replicas.remove(pos);
            from_node.replica_services.remove(pos);
        }
        let to_node = &mut self.nodes[to.0 as usize];
        to_node.load.add(&load);
        to_node.replicas.push(replica);
        to_node.replica_services.push(service);
        self.refresh_node_cost(from);
        self.refresh_node_cost(to);
    }

    /// Promote a secondary to primary, demoting the current primary.
    /// Panics if the replica is unknown; a no-op if it is already primary.
    pub fn promote(&mut self, replica: ReplicaId) {
        let service = self
            .replica(replica)
            .unwrap_or_else(|| panic!("promote: unknown replica {replica}"))
            .service;
        let svc = self
            .services
            .get(&service)
            .expect("replica's service exists");
        let replica_ids = svc.replicas.clone();
        for rid in replica_ids {
            let rep = self.replica_mut(rid).expect("service replica exists");
            rep.role = if rid == replica {
                ReplicaRole::Primary
            } else {
                ReplicaRole::Secondary
            };
        }
    }

    /// Nodes whose aggregate load exceeds logical capacity, with the
    /// violated metric. A node can appear once per violated metric.
    /// Deterministic order: by node id, then metric id.
    ///
    /// O(violations): reads the dirty-set maintained by the
    /// refresh-on-mutate hook instead of scanning every (node, metric)
    /// pair. The set's iteration order is exactly the order the full
    /// scan produced, so callers see identical vectors.
    pub fn violations(&self) -> Vec<(NodeId, MetricId)> {
        self.violation_set.iter().copied().collect()
    }

    /// All up nodes in ascending order of cached node cost (ties broken
    /// by node id): the PLB's pruned candidate walk. Down nodes are
    /// excluded — they are never feasible targets.
    pub fn candidate_nodes_by_cost(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cost_index.iter().map(|&(_, n)| n)
    }

    /// Up nodes of one fault domain in ascending order of cached cost.
    /// Domains `>= fault_domain_count()` are empty.
    pub fn domain_nodes_by_cost(&self, domain: u32) -> impl Iterator<Item = NodeId> + '_ {
        self.domain_cost_index
            .get(domain as usize)
            .into_iter()
            .flat_map(|set| set.iter().map(|&(_, n)| n))
    }

    /// Number of distinct fault domains nodes can occupy.
    pub fn fault_domain_count(&self) -> usize {
        self.domain_cost_index.len()
    }

    /// Mark a node as draining (excluded as a placement/failover target).
    /// Down nodes leave the candidate index; their violations stay
    /// tracked (the load is still there).
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        let i = node.0 as usize;
        if self.nodes[i].up == up {
            return;
        }
        self.nodes[i].up = up;
        self.stamp(node);
        let key = (cost_key(self.node_costs[i]), node);
        let domain = self.nodes[i].fault_domain as usize;
        if up {
            self.cost_index.insert(key);
            self.domain_cost_index[domain].insert(key);
        } else {
            self.cost_index.remove(&key);
            self.domain_cost_index[domain].remove(&key);
        }
    }

    /// Change one metric's node-level logical capacity mid-run (chaos
    /// capacity degradation / restoration). Every node's cached cost
    /// depends on the capacity, so the whole cache is refreshed (and
    /// every node stamped) here.
    /// Returns the previous capacity.
    pub fn set_metric_capacity(&mut self, metric: MetricId, node_capacity: f64) -> f64 {
        let prev = self.metrics.set_node_capacity(metric, node_capacity);
        for i in 0..self.nodes.len() {
            self.refresh_node_cost(NodeId(i as u32));
        }
        debug_assert!(
            self.invariants_ok(),
            "set_metric_capacity broke cluster invariants"
        );
        prev
    }

    /// Deliberately corrupt one node's cached cost. Exists solely so tests
    /// can prove the cost-cache oracle fires; never call from sim code.
    #[doc(hidden)]
    pub fn corrupt_node_cost_for_test(&mut self, node: NodeId, value: f64) {
        self.node_costs[node.0 as usize] = value;
        self.stamp(node);
    }

    /// Deliberately desync the violation dirty-set. Exists solely so
    /// tests can prove the dirty-set oracle fires; never call from sim
    /// code.
    #[doc(hidden)]
    pub fn corrupt_violation_set_for_test(&mut self, node: NodeId, metric: MetricId) {
        if !self.violation_set.remove(&(node, metric)) {
            self.violation_set.insert((node, metric));
        }
    }

    /// Deliberately desync the candidate index. Exists solely so tests
    /// can prove the candidate-index oracle fires; never call from sim
    /// code.
    #[doc(hidden)]
    pub fn corrupt_cost_index_for_test(&mut self, node: NodeId) {
        let key = (cost_key(self.node_costs[node.0 as usize]), node);
        if !self.cost_index.remove(&key) {
            self.cost_index.insert(key);
        }
    }

    /// Rebuild the violation dirty-set, its per-node bitmask, and the
    /// candidate-node index from scratch. The maintained copies must
    /// equal these *exactly* (set equality over bit-derived keys — no
    /// tolerance), which is what the invariant checks verify.
    #[allow(clippy::type_complexity)]
    fn recompute_derived(
        &self,
    ) -> (
        BTreeSet<(NodeId, MetricId)>,
        Vec<u64>,
        BTreeSet<(u64, NodeId)>,
        Vec<BTreeSet<(u64, NodeId)>>,
    ) {
        let mut violations = BTreeSet::new();
        let mut bits = vec![0u64; self.nodes.len()];
        let mut index = BTreeSet::new();
        let mut domains = vec![BTreeSet::new(); self.domain_cost_index.len()];
        for node in &self.nodes {
            for (mid, def) in self.metrics.iter() {
                if node.load[mid] > def.node_capacity {
                    violations.insert((node.id, mid));
                    bits[node.id.0 as usize] |= 1 << mid.0;
                }
            }
            if node.up {
                let key = (cost_key(self.node_costs[node.id.0 as usize]), node.id);
                index.insert(key);
                domains[node.fault_domain as usize].insert(key);
            }
        }
        (violations, bits, index, domains)
    }

    /// Non-panicking consistency check: node aggregates match the sum of
    /// hosted replica loads, every service has exactly one primary, and no
    /// service co-locates replicas. The incrementally maintained derived
    /// structures — cost cache, violation dirty-set, candidate index —
    /// must match a full recompute bitwise. Intended for `debug_assert!`
    /// guards on mutating entry points (lint rule R002); see
    /// [`Cluster::check_invariants`] for the panicking variant with
    /// diagnostics.
    pub fn invariants_ok(&self) -> bool {
        for node in &self.nodes {
            let mut expect = self.metrics.zero_load();
            if node.replica_services.len() != node.replicas.len() {
                return false;
            }
            for (rid, svc) in node.replicas.iter().zip(&node.replica_services) {
                let Some(rep) = self.replica(*rid) else {
                    return false;
                };
                if rep.node != node.id || rep.service != *svc {
                    return false;
                }
                expect.add(&rep.load);
            }
            for (mid, _) in self.metrics.iter() {
                if (expect[mid] - node.load[mid]).abs() >= 1e-6 {
                    return false;
                }
            }
            // The cost cache must match a full recompute *bitwise*: the
            // cache is refreshed (not incrementally adjusted) on every
            // load mutation, so even float dust counts as corruption.
            // Bit comparison also treats NaN == NaN, so a NaN load report
            // is diagnosed as the aggregate mismatch it is, not as a
            // spurious cache failure.
            let recomputed = self.metrics.cost_of(&node.load);
            if self.node_costs[node.id.0 as usize].to_bits() != recomputed.to_bits() {
                return false;
            }
        }
        for svc in self.services.values() {
            let primaries = svc
                .replicas
                .iter()
                .filter_map(|r| self.replica(*r))
                .filter(|r| r.role == ReplicaRole::Primary)
                .count();
            if primaries != 1 {
                return false;
            }
            let mut nodes: Vec<NodeId> = svc
                .replicas
                .iter()
                .filter_map(|r| self.replica(*r))
                .map(|r| r.node)
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            if nodes.len() != svc.replicas.len() {
                return false;
            }
        }
        let (violations, bits, index, domains) = self.recompute_derived();
        violations == self.violation_set
            && bits == self.violation_bits
            && index == self.cost_index
            && domains == self.domain_cost_index
    }

    /// Verify internal consistency; used by tests and property checks.
    /// Panics with a description on the first violated invariant.
    pub fn check_invariants(&self) {
        for node in &self.nodes {
            let mut expect = self.metrics.zero_load();
            assert_eq!(
                node.replica_services.len(),
                node.replicas.len(),
                "{}: replica_services out of sync",
                node.id
            );
            for (rid, svc) in node.replicas.iter().zip(&node.replica_services) {
                let rep = self.replica(*rid).expect("node lists a live replica");
                assert_eq!(rep.node, node.id, "{rid} host mismatch");
                assert_eq!(rep.service, *svc, "{rid} service mismatch on {}", node.id);
                expect.add(&rep.load);
            }
            for (mid, _) in self.metrics.iter() {
                let diff = (expect[mid] - node.load[mid]).abs();
                assert!(
                    diff < 1e-6,
                    "{}: aggregate {} != sum {} for {mid}",
                    node.id,
                    node.load[mid],
                    expect[mid]
                );
            }
            let recomputed = self.metrics.cost_of(&node.load);
            assert!(
                self.node_costs[node.id.0 as usize].to_bits() == recomputed.to_bits(),
                "{}: cached cost {} != recomputed {recomputed}",
                node.id,
                self.node_costs[node.id.0 as usize]
            );
        }
        for svc in self.services.values() {
            let primaries = svc
                .replicas
                .iter()
                .filter(|r| {
                    self.replica(**r).expect("service replica exists").role == ReplicaRole::Primary
                })
                .count();
            assert_eq!(primaries, 1, "{} must have exactly one primary", svc.id);
            let mut nodes: Vec<NodeId> = svc
                .replicas
                .iter()
                .map(|r| self.replica(*r).expect("service replica exists").node)
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(
                nodes.len(),
                svc.replicas.len(),
                "{} has co-located replicas",
                svc.id
            );
        }
        let (violations, bits, index, domains) = self.recompute_derived();
        assert!(
            violations == self.violation_set,
            "violation dirty-set diverged from full scan: maintained {:?}, recomputed {:?}",
            self.violation_set,
            violations
        );
        assert_eq!(
            bits, self.violation_bits,
            "violation bitmask diverged from full scan"
        );
        assert!(
            index == self.cost_index,
            "candidate index diverged from full recompute: maintained {:?}, recomputed {:?}",
            self.cost_index,
            index
        );
        assert!(
            domains == self.domain_cost_index,
            "per-domain candidate index diverged from full recompute"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricDef;

    fn two_metric_cluster(nodes: u32) -> (Cluster, MetricId, MetricId) {
        let mut metrics = MetricRegistry::new();
        let cpu = metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let disk = metrics.register(MetricDef {
            name: "Disk".into(),
            node_capacity: 1000.0,
            balancing_weight: 1.0,
        });
        let cluster = Cluster::new(ClusterConfig {
            node_count: nodes,
            metrics,
            fault_domains: 1,
        });
        (cluster, cpu, disk)
    }

    fn spec(cluster: &Cluster, cpu_load: f64, disk_load: f64, replicas: u32) -> ServiceSpec {
        let mut load = cluster.metrics().zero_load();
        load[MetricId(0)] = cpu_load;
        load[MetricId(1)] = disk_load;
        ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: replicas,
            default_load: load,
        }
    }

    #[test]
    fn add_service_places_primary_first() {
        let (mut c, cpu, _) = two_metric_cluster(4);
        let s = spec(&c, 4.0, 50.0, 3);
        let id = c.add_service(&s, &[NodeId(2), NodeId(0), NodeId(1)], SimTime::ZERO);
        let svc = c.service(id).unwrap();
        assert_eq!(svc.replicas.len(), 3);
        let primary = c.primary_of(id).unwrap();
        assert_eq!(primary.node, NodeId(2));
        assert_eq!(c.node(NodeId(2)).load[cpu], 4.0);
        c.check_invariants();
    }

    #[test]
    fn remove_service_releases_load() {
        let (mut c, cpu, disk) = two_metric_cluster(3);
        let s = spec(&c, 8.0, 100.0, 2);
        let id = c.add_service(&s, &[NodeId(0), NodeId(1)], SimTime::ZERO);
        assert_eq!(c.total_load(cpu), 16.0);
        let svc = c.remove_service(id).unwrap();
        assert_eq!(svc.id, id);
        assert_eq!(c.total_load(cpu), 0.0);
        assert_eq!(c.total_load(disk), 0.0);
        assert_eq!(c.service_count(), 0);
        assert!(c.remove_service(id).is_none());
        c.check_invariants();
    }

    #[test]
    fn report_load_updates_node_aggregate() {
        let (mut c, _, disk) = two_metric_cluster(2);
        let s = spec(&c, 2.0, 10.0, 1);
        let id = c.add_service(&s, &[NodeId(1)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        let prev = c.report_load(rid, disk, 25.0);
        assert_eq!(prev, 10.0);
        assert_eq!(c.node(NodeId(1)).load[disk], 25.0);
        c.check_invariants();
    }

    #[test]
    fn move_replica_transfers_load() {
        let (mut c, cpu, _) = two_metric_cluster(3);
        let s = spec(&c, 6.0, 30.0, 1);
        let id = c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        c.move_replica(rid, NodeId(2));
        assert_eq!(c.node(NodeId(0)).load[cpu], 0.0);
        assert_eq!(c.node(NodeId(2)).load[cpu], 6.0);
        assert_eq!(c.replica(rid).unwrap().node, NodeId(2));
        c.check_invariants();
    }

    #[test]
    fn node_cost_cache_tracks_every_mutation() {
        let (mut c, _, disk) = two_metric_cluster(3);
        let verify = |c: &Cluster| {
            for n in c.nodes() {
                assert_eq!(
                    c.node_cost(n.id).to_bits(),
                    c.metrics().cost_of(&n.load).to_bits(),
                    "stale cost cache on {}",
                    n.id
                );
            }
        };
        verify(&c);
        let s = spec(&c, 6.0, 120.0, 2);
        let id = c.add_service(&s, &[NodeId(0), NodeId(2)], SimTime::ZERO);
        verify(&c);
        let rid = c.service(id).unwrap().replicas[0];
        c.report_load(rid, disk, 480.0);
        verify(&c);
        c.move_replica(rid, NodeId(1));
        verify(&c);
        c.remove_service(id);
        verify(&c);
        assert_eq!(c.node_cost(NodeId(1)), 0.0);
    }

    #[test]
    fn placement_stamp_moves_only_with_placements() {
        let (mut c, _, disk) = two_metric_cluster(3);
        let (fresh, _, _) = two_metric_cluster(3);
        assert_eq!(c.placement_stamp(), fresh.placement_stamp());
        let s = spec(&c, 6.0, 120.0, 2);
        let id = c.add_service(&s, &[NodeId(0), NodeId(2)], SimTime::ZERO);
        let placed = c.placement_stamp();
        assert_ne!(placed, fresh.placement_stamp());
        let rid = c.service(id).unwrap().replicas[0];
        let secondary = c.service(id).unwrap().replicas[1];
        c.report_load(rid, disk, 480.0);
        c.set_node_up(NodeId(1), false);
        c.promote(secondary);
        assert_eq!(c.placement_stamp(), placed);
        assert_eq!(c.clone().placement_stamp(), placed);
        c.move_replica(rid, NodeId(1));
        let moved = c.placement_stamp();
        assert_ne!(moved, placed);
        assert!(c.remove_service(ServiceId(99)).is_none());
        assert_eq!(c.placement_stamp(), moved);
        c.remove_service(id);
        assert_ne!(c.placement_stamp(), moved);
    }

    #[test]
    #[should_panic(expected = "already hosts a replica")]
    fn move_onto_sibling_panics() {
        let (mut c, _, _) = two_metric_cluster(3);
        let s = spec(&c, 1.0, 1.0, 2);
        let id = c.add_service(&s, &[NodeId(0), NodeId(1)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        c.move_replica(rid, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn duplicate_placement_panics() {
        let (mut c, _, _) = two_metric_cluster(3);
        let s = spec(&c, 1.0, 1.0, 2);
        c.add_service(&s, &[NodeId(0), NodeId(0)], SimTime::ZERO);
    }

    #[test]
    fn promote_swaps_roles() {
        let (mut c, _, _) = two_metric_cluster(4);
        let s = spec(&c, 1.0, 1.0, 3);
        let id = c.add_service(&s, &[NodeId(0), NodeId(1), NodeId(2)], SimTime::ZERO);
        let secondary = c.service(id).unwrap().replicas[1];
        c.promote(secondary);
        assert_eq!(c.primary_of(id).unwrap().id, secondary);
        c.check_invariants();
        // Promoting the current primary is a no-op that keeps one primary.
        c.promote(secondary);
        c.check_invariants();
    }

    #[test]
    fn violations_detected_per_metric() {
        let (mut c, cpu, disk) = two_metric_cluster(2);
        let s = spec(&c, 50.0, 600.0, 1);
        c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        // Node 0: cpu 100 > 96, disk 1200 > 1000 -> two violations.
        let v = c.violations();
        assert_eq!(v, vec![(NodeId(0), cpu), (NodeId(0), disk)]);
    }

    #[test]
    fn violation_dirty_set_tracks_every_mutation() {
        let (mut c, cpu, disk) = two_metric_cluster(3);
        let full_scan = |c: &Cluster| {
            let mut out = Vec::new();
            for node in c.nodes() {
                for (mid, def) in c.metrics().iter() {
                    if node.load[mid] > def.node_capacity {
                        out.push((node.id, mid));
                    }
                }
            }
            out
        };
        let s = spec(&c, 50.0, 600.0, 1);
        let a = c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        let b = c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        assert_eq!(c.violations(), vec![(NodeId(0), cpu), (NodeId(0), disk)]);
        assert_eq!(c.violations(), full_scan(&c));
        // Moving one replica clears both violations on node 0.
        let rid = c.service(b).unwrap().replicas[0];
        c.move_replica(rid, NodeId(1));
        assert_eq!(c.violations(), full_scan(&c));
        assert!(c.violations().is_empty());
        // A load report re-violates just one metric.
        c.report_load(rid, disk, 1200.0);
        assert_eq!(c.violations(), vec![(NodeId(1), disk)]);
        // Draining the host does NOT clear the violation: the load is
        // still there (the old full scan included down nodes too).
        c.set_node_up(NodeId(1), false);
        assert_eq!(c.violations(), vec![(NodeId(1), disk)]);
        c.set_node_up(NodeId(1), true);
        // Capacity change re-derives membership for every node.
        c.set_metric_capacity(cpu, 40.0);
        assert_eq!(c.violations(), full_scan(&c));
        assert!(c.violations().contains(&(NodeId(0), cpu)));
        c.remove_service(a);
        c.remove_service(b);
        assert_eq!(c.violations(), full_scan(&c));
        c.check_invariants();
    }

    #[test]
    fn candidate_index_orders_up_nodes_by_cached_cost() {
        let (mut c, _, _) = two_metric_cluster(4);
        // Distinct loads: node 2 cheapest (empty), then 3, 1, 0.
        c.add_service(&spec(&c, 30.0, 10.0, 1), &[NodeId(0)], SimTime::ZERO);
        c.add_service(&spec(&c, 20.0, 10.0, 1), &[NodeId(1)], SimTime::ZERO);
        c.add_service(&spec(&c, 10.0, 10.0, 1), &[NodeId(3)], SimTime::ZERO);
        let order: Vec<NodeId> = c.candidate_nodes_by_cost().collect();
        assert_eq!(order, vec![NodeId(2), NodeId(3), NodeId(1), NodeId(0)]);
        // A down node leaves the index; restoring it returns it.
        c.set_node_up(NodeId(3), false);
        let order: Vec<NodeId> = c.candidate_nodes_by_cost().collect();
        assert_eq!(order, vec![NodeId(2), NodeId(1), NodeId(0)]);
        c.set_node_up(NodeId(3), true);
        assert_eq!(c.candidate_nodes_by_cost().count(), 4);
        c.check_invariants();
    }

    #[test]
    fn domain_index_partitions_by_fault_domain() {
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let mut c = Cluster::new(ClusterConfig {
            node_count: 6,
            metrics,
            fault_domains: 3,
        });
        assert_eq!(c.fault_domain_count(), 3);
        // Load node 0 so node 3 becomes domain 0's cheapest.
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 12.0;
        let s = ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: 1,
            default_load: load,
        };
        c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        let d0: Vec<NodeId> = c.domain_nodes_by_cost(0).collect();
        assert_eq!(d0, vec![NodeId(3), NodeId(0)]);
        let d1: Vec<NodeId> = c.domain_nodes_by_cost(1).collect();
        assert_eq!(d1, vec![NodeId(1), NodeId(4)]);
        assert_eq!(c.domain_nodes_by_cost(99).count(), 0);
        c.check_invariants();
    }

    #[test]
    fn derived_state_oracles_fire_on_corruption() {
        let (mut c, cpu, _) = two_metric_cluster(2);
        c.add_service(&spec(&c, 50.0, 10.0, 1), &[NodeId(0)], SimTime::ZERO);
        assert!(c.invariants_ok());
        c.corrupt_violation_set_for_test(NodeId(0), cpu);
        assert!(!c.invariants_ok(), "dirty-set oracle must fire");
        c.corrupt_violation_set_for_test(NodeId(0), cpu);
        assert!(c.invariants_ok());
        c.corrupt_cost_index_for_test(NodeId(1));
        assert!(!c.invariants_ok(), "candidate-index oracle must fire");
        c.corrupt_cost_index_for_test(NodeId(1));
        assert!(c.invariants_ok());
    }

    #[test]
    fn totals_and_capacity() {
        let (mut c, cpu, _) = two_metric_cluster(3);
        let s = spec(&c, 10.0, 5.0, 1);
        c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        c.add_service(&s, &[NodeId(1)], SimTime::ZERO);
        assert_eq!(c.total_load(cpu), 20.0);
        assert_eq!(c.total_capacity(cpu), 3.0 * 96.0);
        c.set_node_up(NodeId(2), false);
        assert_eq!(c.total_capacity(cpu), 2.0 * 96.0);
    }
}
