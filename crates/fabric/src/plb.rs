//! The Placement and Load Balancer.
//!
//! §3.1: the PLB "decides the placement and movement of databases",
//! aggregates the dynamic load metrics into a per-node view, and, when a
//! node's aggregate load exceeds its logical capacity, "will select a
//! replica on the heavily loaded node and move it to another node in the
//! cluster" — a *failover*. §5.2 notes the PLB "uses the Simulated
//! Annealing algorithm to decide where to place replicas … to prevent
//! getting stuck in locally optimal solutions", and that its seed cannot
//! be fixed across runs, the source of the non-determinism quantified in
//! §5.3.4.
//!
//! The implementation mirrors that structure:
//!
//! * **Placement** starts from a greedy least-cost assignment and runs a
//!   short simulated-annealing refinement over alternative node choices.
//! * **Violation fixing** walks violating `(node, metric)` pairs in
//!   deterministic order, picks the cheapest replica whose departure
//!   clears the violation (preferring secondaries — moving a primary is
//!   customer-visible), and anneal-selects a feasible target node. When a
//!   primary must move, a secondary is promoted first, exactly like SF's
//!   swap-primary behaviour.
//! * **Balancing** proactively moves replicas from the hottest node when
//!   utilization spread exceeds a threshold.

use std::collections::BTreeSet;

use crate::cluster::{Cluster, ReplicaRole, ServiceSpec};
use crate::ids::{MetricId, NodeId, ReplicaId, ServiceId};
use crate::metrics::LoadVec;
use toto_simcore::rng::DetRng;
use toto_simcore::time::SimTime;

/// PLB tuning knobs.
#[derive(Clone, Debug)]
pub struct PlbConfig {
    /// Simulated-annealing iterations per placement decision.
    pub anneal_iterations: u32,
    /// Initial annealing temperature, in cost units.
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration, in `(0, 1)`.
    pub cooling: f64,
    /// Upper bound on failovers performed per violation-fixing pass; the
    /// next pass (at the next PLB tick) picks up whatever remains.
    pub max_moves_per_pass: u32,
    /// Fraction of logical capacity usable when *placing* new replicas.
    /// 1.0 allows filling nodes to exactly their capacity.
    pub placement_headroom: f64,
    /// Utilization spread (max − min, per metric) beyond which proactive
    /// balancing kicks in.
    pub balancing_threshold: f64,
    /// Node count at and above which failover targeting walks the
    /// cluster's cost-ordered candidate index instead of scanning every
    /// node. Pruning changes which RNG draws the anneal consumes, so
    /// the default sits well above the paper-scale rings (14 gen5
    /// nodes): their pinned seeded traces keep replaying byte-for-byte
    /// while hyperscale rings get the O(k) walk.
    pub candidate_prune_min_nodes: u32,
    /// Number of feasible candidates collected from the pruned index
    /// walk before the anneal runs. The walk visits nodes cheapest
    /// cached cost first, so the greedy best is always in the set; the
    /// limit only bounds how much of the tail the anneal may explore.
    pub candidate_limit: u32,
}

impl Default for PlbConfig {
    fn default() -> Self {
        PlbConfig {
            anneal_iterations: 200,
            initial_temperature: 0.05,
            cooling: 0.96,
            max_moves_per_pass: 16,
            placement_headroom: 1.0,
            balancing_threshold: 0.30,
            candidate_prune_min_nodes: 64,
            candidate_limit: 32,
        }
    }
}

/// Why placement failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// Fewer feasible nodes than requested replicas. The control plane
    /// reacts to this with a *creation redirect* (§5.3.1).
    NotEnoughNodes {
        /// Replicas requested.
        needed: u32,
        /// Feasible nodes found.
        feasible: u32,
    },
}

/// Why a replica was moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverReason {
    /// A node exceeded its logical capacity in this metric.
    CapacityViolation(MetricId),
    /// Proactive load balancing.
    Balancing,
    /// The source node was drained for maintenance.
    NodeDrain,
    /// The source node crashed (chaos-injected abrupt failure).
    NodeCrash,
}

/// Draining a node would leave a service with no live replica and no
/// feasible target anywhere; the drain is refused before any mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainBlocked {
    /// The node whose drain was refused.
    pub node: NodeId,
    /// The service whose last live replica cannot be re-homed.
    pub service: ServiceId,
}

impl std::fmt::Display for DrainBlocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drain of {} blocked: no feasible target for the last live replica of {}",
            self.node, self.service
        )
    }
}

impl std::error::Error for DrainBlocked {}

/// A replica movement, the paper's primary QoS event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailoverEvent {
    /// When the move happened.
    pub time: SimTime,
    /// The service whose replica moved.
    pub service: ServiceId,
    /// The moved replica.
    pub replica: ReplicaId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Role of the moved replica *at the time the move was decided* — a
    /// primary move is customer-visible (§3.1: "the application may
    /// experience a brief moment of unavailability").
    pub role: ReplicaRole,
    /// The trigger.
    pub reason: FailoverReason,
    /// The secondary promoted to primary, when a primary had to move.
    pub promoted: Option<ReplicaId>,
}

/// Reusable scratch buffers for the PLB's decision hot paths. Placement
/// and failover targeting run hundreds of thousands of times per density
/// study; keeping their working vectors here means each decision is
/// allocation-free after the first call (buffers are cleared, never
/// shrunk). Holding them on the `Plb` never aliases cluster state:
/// failover targeting rebuilds the buffers it uses from the cluster it
/// is handed, and placement's ranking cache is keyed by the cluster's
/// per-node change stamps and by every input bit of the marginal cost,
/// so a stale entry is never read — see [`Plb::place_new_service`].
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// `(marginal cost, node)` of every feasible node for the last
    /// placement, ranked ascending by `(cost by total_cmp, node id)`.
    ranked: Vec<(f64, NodeId)>,
    /// Nodes the last placement found infeasible. With `ranked` a
    /// permutation of the ring's node ids.
    skipped: Vec<NodeId>,
    /// Marginal placement cost per node, indexed by raw node id;
    /// `INFINITY` for infeasible nodes.
    marginal: Vec<f64>,
    /// Each node's change stamp as the cached ranking read it, indexed
    /// by raw node id. `u64::MAX`, which the cluster never issues,
    /// forces a recompute.
    stamps: Vec<u64>,
    /// The bits the cached ranking was computed from: placement
    /// headroom, the spec's default load, then each metric's capacity
    /// and balancing weight.
    key: Vec<u64>,
    /// Feasible nodes recomputed for the current placement.
    changed: Vec<(f64, NodeId)>,
    /// Stale nodes collected by the current placement's walk, in the
    /// previous order.
    stale: Vec<NodeId>,
    /// Merge output, swapped into `ranked`.
    merged: Vec<(f64, NodeId)>,
    /// Candidate nodes for the current decision, in evaluation order.
    candidates: Vec<NodeId>,
    /// Memoized per-candidate target costs, parallel to `candidates`.
    costs: Vec<f64>,
    /// Fault-domain working set for collision counting.
    domains: Vec<u32>,
    /// Sibling fault domains of the replica being retargeted.
    sibling_domains: Vec<u32>,
}

/// The Placement and Load Balancer.
#[derive(Clone, Debug)]
pub struct Plb {
    config: PlbConfig,
    rng: DetRng,
    scratch: Scratch,
}

impl Plb {
    /// Create a PLB with the given configuration and annealing seed.
    pub fn new(config: PlbConfig, seed: u64) -> Self {
        assert!(config.cooling > 0.0 && config.cooling < 1.0);
        assert!(config.placement_headroom > 0.0);
        Plb {
            config,
            rng: DetRng::seed_from_u64(seed),
            scratch: Scratch::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlbConfig {
        &self.config
    }

    /// Cost delta of adding `extra` to node `n`'s current load.
    /// Allocation-free: the hypothetical cost iterates metric pairs
    /// directly and the base cost is the cluster's cached per-node value,
    /// both bit-identical to the clone-and-recompute they replace.
    fn add_cost(cluster: &Cluster, n: NodeId, extra: &LoadVec) -> f64 {
        cluster.metrics().cost_with(&cluster.node(n).load, extra) - cluster.node_cost(n)
    }

    /// Cost penalty per fault-domain collision within one service's
    /// placement. Large relative to utilization costs (which are O(1)),
    /// so the annealer only ever accepts a collision when the domain
    /// count forces one.
    const DOMAIN_COLLISION_PENALTY: f64 = 10.0;

    /// Number of same-domain pairs collapsed to `n - distinct_domains`.
    /// `scratch` is a reusable working buffer (cleared on entry).
    fn domain_collisions(cluster: &Cluster, nodes: &[NodeId], scratch: &mut Vec<u32>) -> f64 {
        scratch.clear();
        scratch.extend(nodes.iter().map(|n| cluster.node(*n).fault_domain));
        scratch.sort_unstable();
        scratch.dedup();
        (nodes.len() - scratch.len()) as f64
    }

    /// True iff `extra` fits on node `n` within `headroom × capacity`.
    fn fits(cluster: &Cluster, n: NodeId, extra: &LoadVec, headroom: f64) -> bool {
        let node = cluster.node(n);
        if !node.up {
            return false;
        }
        cluster
            .metrics()
            .iter()
            .all(|(mid, def)| node.load[mid] + extra[mid] <= def.node_capacity * headroom)
    }

    /// [`fits`](Self::fits) then [`add_cost`](Self::add_cost) in one
    /// pass over node `n`'s load: the marginal cost of adding `extra`, or
    /// `None` when it does not fit. The comparisons, float expressions and
    /// summation order are those of the pair, so the cost is bit-identical.
    fn fit_cost(cluster: &Cluster, n: NodeId, extra: &LoadVec, headroom: f64) -> Option<f64> {
        let node = cluster.node(n);
        if !node.up {
            return None;
        }
        let mut cost = 0.0;
        for (mid, def) in cluster.metrics().iter() {
            let sum = node.load[mid] + extra[mid];
            let fits = sum <= def.node_capacity * headroom;
            if !fits {
                return None;
            }
            let util = sum / def.node_capacity;
            cost += def.balancing_weight * util * util;
        }
        Some(cost - cluster.node_cost(n))
    }

    /// The ranking order: marginal cost by `total_cmp`, then node id. A
    /// strict total order (even for NaN), so sorting cannot panic and any
    /// sort or merge of the same entries yields the same list.
    fn rank_cmp(a: &(f64, NodeId), b: &(f64, NodeId)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    }

    /// Decide a placement for a new service: `replica_count` distinct
    /// nodes, primary first. Does not mutate the cluster.
    ///
    /// The marginal cost of each feasible node is held in a table; the
    /// greedy start, the annealing loop and the final primary sort all
    /// read it.
    ///
    /// The ranking is incremental. The scratch buffers keep the last
    /// placement's ranking and marginal table, each node's change stamp
    /// as it was read, and the bits the costs were computed from. When
    /// those bits and the node count match, only nodes whose stamp moved
    /// are recomputed (a placement that repeats the previous load after
    /// that placement's service was added recomputes the nodes it landed
    /// on); otherwise every node is. The unchanged entries keep their order,
    /// the recomputed ones are sorted and merged in. The sort key is a
    /// strict total order, so the ranked list, the marginal table, every
    /// RNG draw and the returned placement are those of a full
    /// recompute, which debug builds check.
    pub fn place_new_service(
        &mut self,
        cluster: &Cluster,
        spec: &ServiceSpec,
    ) -> Result<Vec<NodeId>, PlacementError> {
        let k = spec.replica_count as usize;
        assert!(k >= 1, "services need at least one replica");
        self.rank(cluster, &spec.default_load);
        debug_assert!(
            self.ranking_is_exact(cluster, &spec.default_load),
            "incremental placement ranking diverged from a full recompute"
        );
        let feasible = &self.scratch.ranked;
        if feasible.len() < k {
            let found = feasible.len() as u32;
            toto_trace::emit(toto_trace::EventKind::PlacementRejected, || {
                toto_trace::EventBody::PlacementRejected {
                    needed: u64::from(spec.replica_count),
                    feasible: u64::from(found),
                }
            });
            return Err(PlacementError::NotEnoughNodes {
                needed: spec.replica_count,
                feasible: found,
            });
        }
        let marginal = &self.scratch.marginal;
        // Greedy start: cheapest nodes first, preferring fault domains not
        // already used by this placement.
        let mut chosen: Vec<NodeId> = Vec::with_capacity(k);
        let mut used_domains: Vec<u32> = Vec::with_capacity(k);
        for &(_, n) in feasible.iter() {
            if chosen.len() == k {
                break;
            }
            let d = cluster.node(n).fault_domain;
            if !used_domains.contains(&d) {
                chosen.push(n);
                used_domains.push(d);
            }
        }
        // Fewer domains than replicas: fill with the cheapest remaining.
        for &(_, n) in feasible.iter() {
            if chosen.len() == k {
                break;
            }
            if !chosen.contains(&n) {
                chosen.push(n);
            }
        }
        if feasible.len() > k {
            // Simulated-annealing refinement: try swapping a chosen node
            // for an unchosen feasible one. The candidate slot is mutated
            // in place and reverted on rejection, so the loop allocates
            // nothing; the collision count is maintained in O(1) per swap
            // from per-domain membership counts (`collisions = k −
            // distinct domains`) instead of re-sorted every iteration.
            let counts = &mut self.scratch.domains;
            counts.clear();
            counts.resize(cluster.fault_domain_count(), 0);
            let mut distinct: usize = 0;
            for &n in chosen.iter() {
                let d = cluster.node(n).fault_domain as usize;
                if counts[d] == 0 {
                    distinct += 1;
                }
                counts[d] += 1;
            }
            let mut temperature = self.config.initial_temperature;
            let mut cur_collisions = (k - distinct) as f64;
            // The accumulator must start on the same objective the deltas
            // move it along — marginal cost *plus* the collision penalty
            // of the greedy start — or it silently drifts away from the
            // real objective whenever the greedy start has collisions.
            let mut cost: f64 = chosen.iter().map(|&n| marginal[n.0 as usize]).sum::<f64>()
                + Self::DOMAIN_COLLISION_PENALTY * cur_collisions;
            let mut accepted: u64 = 0;
            for _ in 0..self.config.anneal_iterations {
                let slot = self.rng.next_below(k as u64) as usize;
                let alt = feasible[self.rng.next_below(feasible.len() as u64) as usize].1;
                if chosen.contains(&alt) {
                    temperature *= self.config.cooling;
                    continue;
                }
                let prev = chosen[slot];
                chosen[slot] = alt;
                let dp = cluster.node(prev).fault_domain as usize;
                let da = cluster.node(alt).fault_domain as usize;
                counts[dp] -= 1;
                if counts[dp] == 0 {
                    distinct -= 1;
                }
                if counts[da] == 0 {
                    distinct += 1;
                }
                counts[da] += 1;
                let alt_collisions = (k - distinct) as f64;
                debug_assert_eq!(
                    alt_collisions,
                    Self::domain_collisions(cluster, &chosen, &mut Vec::new()),
                    "incremental collision count diverged from recount"
                );
                let delta = marginal[alt.0 as usize] - marginal[prev.0 as usize]
                    + Self::DOMAIN_COLLISION_PENALTY * (alt_collisions - cur_collisions);
                if delta < 0.0 || self.rng.next_f64() < (-delta / temperature.max(1e-12)).exp() {
                    cost += delta;
                    cur_collisions = alt_collisions;
                    accepted += 1;
                } else {
                    chosen[slot] = prev;
                    counts[da] -= 1;
                    if counts[da] == 0 {
                        distinct -= 1;
                    }
                    if counts[dp] == 0 {
                        distinct += 1;
                    }
                    counts[dp] += 1;
                }
                temperature *= self.config.cooling;
            }
            if cfg!(debug_assertions) {
                // The accumulator must track the real objective through
                // every accepted swap, not merely stay finite.
                let recomputed = chosen.iter().map(|&n| marginal[n.0 as usize]).sum::<f64>()
                    + Self::DOMAIN_COLLISION_PENALTY
                        * Self::domain_collisions(cluster, &chosen, &mut Vec::new());
                debug_assert!(
                    (cost - recomputed).abs() < 1e-6,
                    "anneal cost accumulator drifted: tracked {cost}, recomputed {recomputed}"
                );
            }
            // A per-decision summary, not one event per iteration: the
            // anneal runs hundreds of iterations per placement and the
            // accept count is what diverging seeds actually perturb. The
            // service id does not exist yet at placement time.
            toto_trace::emit(toto_trace::EventKind::AnnealSummary, || {
                toto_trace::EventBody::AnnealSummary {
                    service: u64::MAX,
                    iterations: u64::from(self.config.anneal_iterations),
                    accepted,
                }
            });
        }
        // Primary on the cheapest of the chosen nodes.
        chosen.sort_by(|&a, &b| {
            marginal[a.0 as usize]
                .total_cmp(&marginal[b.0 as usize])
                .then(a.cmp(&b))
        });
        Ok(chosen)
    }

    /// Bring the cached ranking and marginal table up to date for
    /// placing `load` on `cluster`. A ring of another size starts again
    /// from id order; a change in any key bit marks every node stale.
    /// One walk over the previous order (the ranked list, then the
    /// infeasible nodes) keeps the fresh entries in place and collects
    /// the stale ones; those are recomputed, stable-sorted (the previous
    /// order makes them nearly sorted) and merged into the kept entries
    /// one binary-searched chunk at a time.
    fn rank(&mut self, cluster: &Cluster, load: &LoadVec) {
        let headroom = self.config.placement_headroom;
        let Scratch {
            ranked,
            skipped,
            marginal,
            stamps,
            key,
            stale,
            changed,
            merged,
            ..
        } = &mut self.scratch;
        let n = cluster.node_count();
        if stamps.len() != n {
            ranked.clear();
            skipped.clear();
            skipped.extend((0..n as u32).map(NodeId));
            marginal.clear();
            marginal.resize(n, f64::INFINITY);
            stamps.clear();
            stamps.resize(n, u64::MAX);
        }
        let bits = || {
            std::iter::once(headroom.to_bits())
                .chain(load.as_slice().iter().map(|v| v.to_bits()))
                .chain(cluster.metrics().iter().flat_map(|(_, def)| {
                    [def.node_capacity.to_bits(), def.balancing_weight.to_bits()]
                }))
        };
        if !key.iter().copied().eq(bits()) {
            key.clear();
            key.extend(bits());
            stamps.fill(u64::MAX);
        }
        let now = cluster.node_stamps();
        stale.clear();
        let fresh = |n: NodeId| stamps[n.0 as usize] == now[n.0 as usize];
        ranked.retain(|&(_, n)| {
            fresh(n) || {
                stale.push(n);
                false
            }
        });
        skipped.retain(|&n| {
            fresh(n) || {
                stale.push(n);
                false
            }
        });
        changed.clear();
        for &n in stale.iter() {
            let i = n.0 as usize;
            stamps[i] = now[i];
            match Self::fit_cost(cluster, n, load, headroom) {
                Some(cost) => {
                    marginal[i] = cost;
                    changed.push((cost, n));
                }
                None => {
                    marginal[i] = f64::INFINITY;
                    skipped.push(n);
                }
            }
        }
        changed.sort_by(Self::rank_cmp);
        merged.clear();
        let mut rest = &ranked[..];
        for entry in changed.iter() {
            let at = rest.partition_point(|e| Self::rank_cmp(e, entry).is_lt());
            merged.extend_from_slice(&rest[..at]);
            merged.push(*entry);
            rest = &rest[at..];
        }
        merged.extend_from_slice(rest);
        std::mem::swap(ranked, merged);
    }

    /// True iff the cached ranking and marginal table equal, bitwise, a
    /// from-scratch ranking of every node for placing `load` on
    /// `cluster`, and the ranked and infeasible nodes together are a
    /// permutation of the ring's nodes. The debug-build check behind
    /// [`Plb::place_new_service`].
    fn ranking_is_exact(&self, cluster: &Cluster, load: &LoadVec) -> bool {
        let headroom = self.config.placement_headroom;
        let mut full: Vec<(f64, NodeId)> = cluster
            .nodes()
            .iter()
            .filter_map(|node| {
                Self::fit_cost(cluster, node.id, load, headroom).map(|c| (c, node.id))
            })
            .collect();
        full.sort_by(Self::rank_cmp);
        let mut marginal = vec![f64::INFINITY; cluster.node_count()];
        for &(cost, n) in &full {
            marginal[n.0 as usize] = cost;
        }
        let s = &self.scratch;
        let bits =
            |v: &[(f64, NodeId)]| v.iter().map(|&(c, n)| (c.to_bits(), n)).collect::<Vec<_>>();
        let mut all: Vec<NodeId> = s
            .ranked
            .iter()
            .map(|&(_, n)| n)
            .chain(s.skipped.iter().copied())
            .collect();
        all.sort_unstable();
        bits(&full) == bits(&s.ranked)
            && marginal
                .iter()
                .map(|c| c.to_bits())
                .eq(s.marginal.iter().map(|c| c.to_bits()))
            && all
                .into_iter()
                .eq(cluster.nodes().iter().map(|node| node.id))
    }

    /// Place and create a service in one step.
    pub fn create_service(
        &mut self,
        cluster: &mut Cluster,
        spec: &ServiceSpec,
        now: SimTime,
    ) -> Result<ServiceId, PlacementError> {
        let placement = self.place_new_service(cluster, spec)?;
        let id = cluster.add_service(spec, &placement, now);
        debug_assert!(
            cluster.invariants_ok(),
            "create_service broke cluster invariants"
        );
        toto_trace::emit(toto_trace::EventKind::Placement, || {
            toto_trace::EventBody::Placement {
                service: id.raw(),
                replicas: placement.len() as u64,
                primary_node: u64::from(placement[0].raw()),
            }
        });
        Ok(id)
    }

    /// Pick the replica to evict from a violating node: the cheapest
    /// replica whose departure clears the violation, preferring
    /// secondaries; if no single replica suffices, the largest one.
    fn pick_eviction(cluster: &Cluster, node: NodeId, metric: MetricId) -> Option<ReplicaId> {
        let n = cluster.node(node);
        let overshoot = n.load[metric] - cluster.metrics().def(metric).node_capacity;
        if overshoot <= 0.0 {
            return None;
        }
        let mut best: Option<(f64, bool, ReplicaId)> = None; // (move_size, is_primary, id)
        let mut largest: Option<(f64, bool, ReplicaId)> = None;
        for &rid in &n.replicas {
            let rep = cluster.replica(rid).expect("node replica exists");
            let contribution = rep.load[metric];
            // The fallback applies the same secondary-then-id tie-break as
            // the clearing path: on equal contributions an equal-size
            // secondary must be preferred over a primary (a primary move
            // is customer-visible).
            let lkey = (contribution, rep.role == ReplicaRole::Primary, rid);
            let lbetter = match &largest {
                None => true,
                Some((l, p, id)) => lkey.0 > *l || (lkey.0 == *l && (lkey.1, lkey.2) < (*p, *id)),
            };
            if lbetter {
                largest = Some(lkey);
            }
            if contribution >= overshoot {
                // Prefer the smallest clearing move (SF minimises the data
                // moved, and the paper stresses avoiding Premium/BC moves —
                // big local-store replicas only move when nothing smaller
                // clears the violation), tie-breaking toward secondaries
                // and then stable id order.
                let key = (contribution, rep.role == ReplicaRole::Primary, rid);
                let better = match &best {
                    None => true,
                    Some((c, p, id)) => (key.0, key.1, key.2) < (*c, *p, *id),
                };
                if better {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, id)| id).or(largest.map(|(_, _, id)| id))
    }

    /// Anneal-select a feasible target node for moving `replica` off its
    /// current node. Returns `None` when no node can absorb it.
    ///
    /// Per-candidate target costs are memoized once before the anneal
    /// loop — the cluster cannot change mid-decision, so every iteration
    /// is a table lookup instead of a fresh cost evaluation.
    ///
    /// On rings with at least `candidate_prune_min_nodes` nodes the
    /// candidate set comes from the cluster's cost-ordered index instead
    /// of a full scan: walk up nodes cheapest-first, prune sibling fault
    /// domains *before* costing, and stop after `candidate_limit`
    /// feasible candidates. Sibling-domain partitions are only consulted
    /// (with the collision penalty) when the non-sibling walk comes up
    /// short, so the search stays complete: `None` still means no up
    /// node anywhere can absorb the replica.
    fn pick_target(&mut self, cluster: &Cluster, replica: ReplicaId) -> Option<NodeId> {
        let rep = cluster.replica(replica)?;
        let service = rep.service;
        let load = &rep.load;
        let from = rep.node;
        // Domains already hosting a sibling replica are penalised so the
        // spread survives failovers where possible.
        let sibling_domains = &mut self.scratch.sibling_domains;
        sibling_domains.clear();
        if let Some(svc) = cluster.service(service) {
            sibling_domains.extend(
                svc.replicas
                    .iter()
                    .filter(|r| **r != replica)
                    .filter_map(|r| cluster.replica(*r))
                    .map(|r| cluster.node(r.node).fault_domain),
            );
        }
        let candidates = &mut self.scratch.candidates;
        candidates.clear();
        let costs = &mut self.scratch.costs;
        costs.clear();
        let headroom = self.config.placement_headroom;
        if cluster.node_count() >= self.config.candidate_prune_min_nodes as usize {
            let limit = (self.config.candidate_limit as usize).max(1);
            // Phase 1: cheapest-first over non-sibling domains. Sibling
            // membership is a domain comparison, so pruned nodes are
            // never costed.
            for n in cluster.candidate_nodes_by_cost() {
                if candidates.len() >= limit {
                    break;
                }
                if n == from
                    || sibling_domains.contains(&cluster.node(n).fault_domain)
                    || cluster.node(n).hosts_service(service)
                {
                    continue;
                }
                if Self::fits(cluster, n, load, headroom) {
                    candidates.push(n);
                    costs.push(Self::add_cost(cluster, n, load));
                }
            }
            // Phase 2: too few spread-preserving targets — fall back to
            // the sibling domains' partitions, penalised exactly as the
            // full scan penalised them.
            if candidates.len() < limit {
                let doms = &mut self.scratch.domains;
                doms.clear();
                doms.extend_from_slice(sibling_domains);
                doms.sort_unstable();
                doms.dedup();
                'domains: for &d in doms.iter() {
                    for n in cluster.domain_nodes_by_cost(d) {
                        if candidates.len() >= limit {
                            break 'domains;
                        }
                        if n == from || cluster.node(n).hosts_service(service) {
                            continue;
                        }
                        if Self::fits(cluster, n, load, headroom) {
                            candidates.push(n);
                            costs.push(
                                Self::add_cost(cluster, n, load) + Self::DOMAIN_COLLISION_PENALTY,
                            );
                        }
                    }
                }
            }
        } else {
            // Paper-scale rings: the exhaustive scan, byte-identical to
            // the pre-index behaviour (same candidates, same order, same
            // RNG consumption).
            for n in cluster.nodes() {
                if n.id == from || n.hosts_service(service) {
                    continue;
                }
                if Self::fits(cluster, n.id, load, headroom) {
                    candidates.push(n.id);
                }
            }
            for &c in candidates.iter() {
                let mut cost = Self::add_cost(cluster, c, load);
                if sibling_domains.contains(&cluster.node(c).fault_domain) {
                    cost += Self::DOMAIN_COLLISION_PENALTY;
                }
                costs.push(cost);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        // Greedy best with annealing-style random exploration among the
        // near-best alternatives.
        let mut best = candidates[0];
        let mut best_cost = costs[0];
        for (&c, &cost) in candidates.iter().zip(costs.iter()).skip(1) {
            if cost < best_cost {
                best = c;
                best_cost = cost;
            }
        }
        // The annealing walk may accept uphill moves to keep exploring,
        // but the *returned* target is the best state ever seen — never
        // wherever the walk happens to stop. (Returning the last-accepted
        // state let a late uphill acceptance ship a strictly worse target
        // than the greedy best already in hand.)
        let mut cur_cost = best_cost;
        let mut temperature = self.config.initial_temperature;
        for _ in 0..(self.config.anneal_iterations / 4).max(1) {
            let alt_idx = self.rng.next_below(candidates.len() as u64) as usize;
            let delta = costs[alt_idx] - cur_cost;
            if delta < 0.0 || self.rng.next_f64() < (-delta / temperature.max(1e-12)).exp() {
                cur_cost = costs[alt_idx];
                if cur_cost < best_cost {
                    best = candidates[alt_idx];
                    best_cost = cur_cost;
                }
            }
            temperature *= self.config.cooling;
        }
        Some(best)
    }

    /// Execute one move, handling primary promotion, and build the event.
    fn execute_move(
        &mut self,
        cluster: &mut Cluster,
        replica: ReplicaId,
        to: NodeId,
        reason: FailoverReason,
        now: SimTime,
    ) -> FailoverEvent {
        let rep = cluster.replica(replica).expect("replica exists");
        let (rep_service, rep_node, rep_role) = (rep.service, rep.node, rep.role);
        let mut promoted = None;
        if rep_role == ReplicaRole::Primary {
            let svc = cluster.service(rep_service).expect("service exists");
            // Promote the first secondary in service order (deterministic).
            if let Some(&sec) = svc.replicas.iter().find(|r| {
                **r != replica
                    && cluster.replica(**r).expect("exists").role == ReplicaRole::Secondary
            }) {
                cluster.promote(sec);
                promoted = Some(sec);
            }
        }
        cluster.move_replica(replica, to);
        toto_trace::emit(toto_trace::EventKind::Failover, || {
            toto_trace::EventBody::Failover {
                service: rep_service.raw(),
                replica: replica.raw(),
                from: u64::from(rep_node.raw()),
                to: u64::from(to.raw()),
                primary: rep_role == ReplicaRole::Primary,
                reason: match reason {
                    FailoverReason::CapacityViolation(m) => {
                        format!("capacity_violation:{m}")
                    }
                    FailoverReason::Balancing => "balancing".to_string(),
                    FailoverReason::NodeDrain => "node_drain".to_string(),
                    FailoverReason::NodeCrash => "node_crash".to_string(),
                },
                promoted: promoted.map_or(u64::MAX, |p| p.raw()),
            }
        });
        FailoverEvent {
            time: now,
            service: rep_service,
            replica,
            from: rep_node,
            to,
            role: rep_role,
            reason,
            promoted,
        }
    }

    /// Fix capacity violations by failing over replicas, up to
    /// `max_moves_per_pass` moves. Violations that cannot be fixed (no
    /// feasible target anywhere) are left standing for the next pass.
    pub fn fix_violations(&mut self, cluster: &mut Cluster, now: SimTime) -> Vec<FailoverEvent> {
        let mut events = Vec::new();
        let mut moves = 0u32;
        // One ViolationUnresolved per (node, metric) per call: the outer
        // loop revisits standing violations every pass, and trace
        // summaries must count unresolved violations, not passes.
        let mut reported: BTreeSet<(NodeId, MetricId)> = BTreeSet::new();
        loop {
            if moves >= self.config.max_moves_per_pass {
                break;
            }
            let violations = cluster.violations();
            if violations.is_empty() {
                break;
            }
            let mut progressed = false;
            for (node, metric) in violations {
                if moves >= self.config.max_moves_per_pass {
                    break;
                }
                // Re-check: an earlier move this pass may have resolved it.
                let def = cluster.metrics().def(metric).node_capacity;
                if cluster.node(node).load[metric] <= def {
                    continue;
                }
                let reported = &mut reported;
                let mut unresolved = move || {
                    if reported.insert((node, metric)) {
                        toto_trace::emit(toto_trace::EventKind::ViolationUnresolved, || {
                            toto_trace::EventBody::ViolationUnresolved {
                                node: u64::from(node.raw()),
                                resource: u64::from(metric.raw()),
                            }
                        });
                    }
                };
                let Some(victim) = Self::pick_eviction(cluster, node, metric) else {
                    unresolved();
                    continue;
                };
                let Some(target) = self.pick_target(cluster, victim) else {
                    unresolved();
                    continue;
                };
                events.push(self.execute_move(
                    cluster,
                    victim,
                    target,
                    FailoverReason::CapacityViolation(metric),
                    now,
                ));
                moves += 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        debug_assert!(
            cluster.invariants_ok(),
            "fix_violations broke cluster invariants"
        );
        events
    }

    /// Proactive balancing: while some metric's node-utilization spread
    /// exceeds the threshold, move a replica from the hottest node to a
    /// cooler one. Bounded by half the per-pass move budget.
    pub fn balance(&mut self, cluster: &mut Cluster, now: SimTime) -> Vec<FailoverEvent> {
        let mut events = Vec::new();
        let budget = (self.config.max_moves_per_pass / 2).max(1);
        for _ in 0..budget {
            let Some((metric, hot)) = self.most_imbalanced(cluster) else {
                break;
            };
            // Try replicas on the hot node from largest contribution down.
            let mut replicas: Vec<(f64, ReplicaId)> = cluster
                .node(hot)
                .replicas
                .iter()
                .map(|&r| (cluster.replica(r).expect("exists").load[metric], r))
                .collect();
            replicas.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let before = cluster.node_cost(hot);
            let mut moved = false;
            for (_, rid) in replicas {
                if let Some(target) = self.pick_target(cluster, rid) {
                    let rep = cluster.replica(rid).expect("exists");
                    let load = &rep.load;
                    // Only move if it strictly improves the imbalance.
                    let gain = before
                        - cluster
                            .metrics()
                            .cost_without(&cluster.node(hot).load, load);
                    let mut pay = Self::add_cost(cluster, target, load);
                    // Price the move the way pick_target priced the
                    // target: landing in a fault domain that already
                    // hosts a sibling replica pays the collision
                    // penalty, so balancing never judges a
                    // spread-breaking move an improvement.
                    let target_domain = cluster.node(target).fault_domain;
                    let collides = cluster.service(rep.service).is_some_and(|svc| {
                        svc.replicas
                            .iter()
                            .filter(|r| **r != rid)
                            .filter_map(|r| cluster.replica(*r))
                            .any(|s| cluster.node(s.node).fault_domain == target_domain)
                    });
                    if collides {
                        pay += Self::DOMAIN_COLLISION_PENALTY;
                    }
                    if gain > pay {
                        events.push(self.execute_move(
                            cluster,
                            rid,
                            target,
                            FailoverReason::Balancing,
                            now,
                        ));
                        moved = true;
                        break;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        debug_assert!(cluster.invariants_ok(), "balance broke cluster invariants");
        events
    }

    /// The metric with the largest utilization spread beyond the
    /// threshold, plus its hottest node.
    fn most_imbalanced(&self, cluster: &Cluster) -> Option<(MetricId, NodeId)> {
        let mut worst: Option<(f64, MetricId, NodeId)> = None;
        for (mid, def) in cluster.metrics().iter() {
            let mut max_u = f64::NEG_INFINITY;
            let mut min_u = f64::INFINITY;
            let mut hot = NodeId(0);
            for n in cluster.nodes().iter().filter(|n| n.up) {
                let u = n.load[mid] / def.node_capacity;
                if u > max_u {
                    max_u = u;
                    hot = n.id;
                }
                min_u = min_u.min(u);
            }
            let spread = max_u - min_u;
            if spread > self.config.balancing_threshold
                && worst.as_ref().is_none_or(|(s, _, _)| spread > *s)
            {
                worst = Some((spread, mid, hot));
            }
        }
        worst.map(|(_, m, n)| (m, n))
    }

    /// Drain a node: mark it down and move every replica elsewhere.
    ///
    /// Refused with [`DrainBlocked`] — before any mutation — when the node
    /// hosts a service's last live replica and no feasible target exists:
    /// silently stranding that replica on a down node (the old behavior)
    /// turned a maintenance drain into an availability loss. Replicas
    /// that still have live siblings may strand (the node stays down);
    /// production blocks the upgrade domain in the same situation.
    pub fn drain_node(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        now: SimTime,
    ) -> Result<Vec<FailoverEvent>, DrainBlocked> {
        for &rid in &cluster.node(node).replicas {
            let rep = cluster.replica(rid).expect("node replica exists");
            let svc = cluster
                .service(rep.service)
                .expect("replica's service exists");
            let last_live = svc
                .replicas
                .iter()
                .filter(|r| **r != rid)
                .filter_map(|r| cluster.replica(*r))
                .all(|sib| !cluster.node(sib.node).up);
            if !last_live {
                continue;
            }
            // Existence check only (no annealing, no RNG draws): would
            // *any* node take this replica once its host goes down?
            let movable = cluster.nodes().iter().any(|n| {
                n.id != node
                    && !n.hosts_service(rep.service)
                    && Self::fits(cluster, n.id, &rep.load, self.config.placement_headroom)
            });
            if !movable {
                return Err(DrainBlocked {
                    node,
                    service: rep.service,
                });
            }
        }
        let events = self.evacuate(cluster, node, FailoverReason::NodeDrain, now);
        debug_assert!(
            cluster.invariants_ok(),
            "drain_node broke cluster invariants"
        );
        Ok(events)
    }

    /// Crash a node: mark it down immediately and fail over every replica
    /// that has a feasible target; the rest stay stranded on the dead node
    /// until it restarts. Unlike [`Plb::drain_node`], a crash cannot be
    /// refused — the node is already gone.
    pub fn crash_node(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        now: SimTime,
    ) -> Vec<FailoverEvent> {
        let events = self.evacuate(cluster, node, FailoverReason::NodeCrash, now);
        debug_assert!(
            cluster.invariants_ok(),
            "crash_node broke cluster invariants"
        );
        events
    }

    /// Mark `node` down and move every replica that has a feasible target
    /// off it, in the node's replica order; the rest stay on the node.
    fn evacuate(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        reason: FailoverReason,
        now: SimTime,
    ) -> Vec<FailoverEvent> {
        cluster.set_node_up(node, false);
        let mut events = Vec::new();
        let replicas: Vec<ReplicaId> = cluster.node(node).replicas.clone();
        for rid in replicas {
            if let Some(target) = self.pick_target(cluster, rid) {
                events.push(self.execute_move(cluster, rid, target, reason, now));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::metrics::{MetricDef, MetricRegistry};

    fn cluster(nodes: u32, cpu_cap: f64, disk_cap: f64) -> (Cluster, MetricId, MetricId) {
        cluster_in_domains(nodes, 1, cpu_cap, disk_cap)
    }

    fn cluster_in_domains(
        nodes: u32,
        fault_domains: u32,
        cpu_cap: f64,
        disk_cap: f64,
    ) -> (Cluster, MetricId, MetricId) {
        let mut metrics = MetricRegistry::new();
        let cpu = metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: cpu_cap,
            balancing_weight: 1.0,
        });
        let disk = metrics.register(MetricDef {
            name: "Disk".into(),
            node_capacity: disk_cap,
            balancing_weight: 1.0,
        });
        (
            Cluster::new(ClusterConfig {
                node_count: nodes,
                metrics,
                fault_domains,
            }),
            cpu,
            disk,
        )
    }

    fn spec(c: &Cluster, cpu: f64, disk: f64, replicas: u32) -> ServiceSpec {
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = cpu;
        load[MetricId(1)] = disk;
        ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: replicas,
            default_load: load,
        }
    }

    fn plb(seed: u64) -> Plb {
        Plb::new(PlbConfig::default(), seed)
    }

    #[test]
    fn placement_spreads_replicas() {
        let (mut c, _, _) = cluster(6, 96.0, 1000.0);
        let mut p = plb(1);
        let s = spec(&c, 8.0, 50.0, 4);
        let placement = p.place_new_service(&c, &s).unwrap();
        assert_eq!(placement.len(), 4);
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "distinct nodes");
        c.add_service(&s, &placement, SimTime::ZERO);
        c.check_invariants();
    }

    #[test]
    fn placement_prefers_empty_nodes() {
        let (mut c, _, _) = cluster(3, 96.0, 1000.0);
        let mut p = plb(2);
        // Pre-load node 0 heavily.
        let heavy = spec(&c, 80.0, 100.0, 1);
        c.add_service(&heavy, &[NodeId(0)], SimTime::ZERO);
        let s = spec(&c, 8.0, 10.0, 1);
        // With two empty nodes, the PLB should avoid node 0 essentially
        // always (annealing may explore, but the final answer is greedy).
        let placement = p.place_new_service(&c, &s).unwrap();
        assert_ne!(placement[0], NodeId(0));
    }

    #[test]
    fn placement_fails_when_capacity_exhausted() {
        let (mut c, _, _) = cluster(2, 16.0, 100.0);
        let mut p = plb(3);
        let filler = spec(&c, 15.0, 10.0, 1);
        c.add_service(&filler, &[NodeId(0)], SimTime::ZERO);
        c.add_service(&filler, &[NodeId(1)], SimTime::ZERO);
        let s = spec(&c, 4.0, 10.0, 1);
        let err = p.place_new_service(&c, &s).unwrap_err();
        assert_eq!(
            err,
            PlacementError::NotEnoughNodes {
                needed: 1,
                feasible: 0
            }
        );
    }

    #[test]
    fn placement_needs_enough_distinct_nodes() {
        let (c, _, _) = cluster(3, 96.0, 1000.0);
        let mut p = plb(4);
        let s = spec(&c, 1.0, 1.0, 4);
        let err = p.place_new_service(&c, &s).unwrap_err();
        assert_eq!(
            err,
            PlacementError::NotEnoughNodes {
                needed: 4,
                feasible: 3
            }
        );
    }

    #[test]
    fn violation_triggers_failover() {
        let (mut c, _, disk) = cluster(3, 96.0, 100.0);
        let mut p = plb(5);
        let a = spec(&c, 4.0, 60.0, 1);
        let id_a = c.add_service(&a, &[NodeId(0)], SimTime::ZERO);
        let b = spec(&c, 4.0, 30.0, 1);
        c.add_service(&b, &[NodeId(0)], SimTime::ZERO);
        // Grow a's disk beyond node capacity.
        let rid = c.service(id_a).unwrap().replicas[0];
        c.report_load(rid, disk, 80.0); // node 0 disk = 110 > 100
        let events = p.fix_violations(&mut c, SimTime::from_secs(10));
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.reason, FailoverReason::CapacityViolation(disk));
        assert_eq!(ev.from, NodeId(0));
        assert!(c.violations().is_empty());
        c.check_invariants();
    }

    #[test]
    fn smallest_clearing_replica_is_moved() {
        let (mut c, _, disk) = cluster(3, 96.0, 100.0);
        let mut p = plb(6);
        let big = spec(&c, 4.0, 70.0, 1);
        let small = spec(&c, 4.0, 0.0, 1);
        c.add_service(&big, &[NodeId(0)], SimTime::ZERO);
        let id_small = c.add_service(&small, &[NodeId(0)], SimTime::ZERO);
        let rid_small = c.service(id_small).unwrap().replicas[0];
        // Overshoot = 10; the 40 GB replica clears it, the 70 GB one also
        // would, but the smaller clearing replica is preferred.
        c.report_load(rid_small, disk, 40.0);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].replica, rid_small);
    }

    #[test]
    fn primary_move_promotes_secondary() {
        let (mut c, _, disk) = cluster(5, 96.0, 100.0);
        let mut p = plb(7);
        let bc = spec(&c, 8.0, 30.0, 4);
        let id = c.add_service(
            &bc,
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            SimTime::ZERO,
        );
        let filler = spec(&c, 4.0, 60.0, 1);
        c.add_service(&filler, &[NodeId(0)], SimTime::ZERO);
        let primary = c.primary_of(id).unwrap().id;
        // Grow the primary so node 0 violates disk (105 > 100) with the
        // primary as the smallest clearing replica (45 < 60).
        c.report_load(primary, disk, 45.0);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.replica, primary);
        assert_eq!(ev.role, ReplicaRole::Primary);
        let promoted = ev.promoted.expect("a secondary must be promoted");
        assert_eq!(c.primary_of(id).unwrap().id, promoted);
        assert_eq!(c.replica(primary).unwrap().role, ReplicaRole::Secondary);
        c.check_invariants();
    }

    #[test]
    fn unresolvable_violation_is_left_standing() {
        let (mut c, _, disk) = cluster(2, 96.0, 100.0);
        let mut p = plb(8);
        // Both nodes nearly full; the violating replica fits nowhere.
        let filler = spec(&c, 4.0, 90.0, 1);
        c.add_service(&filler, &[NodeId(1)], SimTime::ZERO);
        let a = spec(&c, 4.0, 50.0, 1);
        let id = c.add_service(&a, &[NodeId(0)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        c.report_load(rid, disk, 120.0);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert!(events.is_empty());
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn move_budget_is_respected() {
        let (mut c, _, disk) = cluster(4, 960.0, 100.0);
        let config = PlbConfig {
            max_moves_per_pass: 2,
            ..Default::default()
        };
        let mut p = Plb::new(config, 9);
        // Many small services on node 0, then blow its disk capacity.
        let mut rids = Vec::new();
        for _ in 0..10 {
            let s = spec(&c, 1.0, 9.0, 1);
            let id = c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
            rids.push(c.service(id).unwrap().replicas[0]);
        }
        for r in &rids {
            c.report_load(*r, disk, 15.0); // 150 total > 100
        }
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert!(events.len() <= 2, "budget exceeded: {}", events.len());
    }

    #[test]
    fn balance_reduces_spread() {
        let (mut c, cpu, _) = cluster(4, 96.0, 10_000.0);
        let mut p = plb(10);
        for _ in 0..8 {
            let s = spec(&c, 10.0, 10.0, 1);
            c.add_service(&s, &[NodeId(0)], SimTime::ZERO);
        }
        let spread_before = c.node(NodeId(0)).load[cpu] - c.node(NodeId(3)).load[cpu];
        let events = p.balance(&mut c, SimTime::ZERO);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.reason == FailoverReason::Balancing));
        let spread_after = c.node(NodeId(0)).load[cpu] - c.node(NodeId(3)).load[cpu];
        assert!(spread_after < spread_before);
        c.check_invariants();
    }

    #[test]
    fn drain_empties_node_and_marks_it_down() {
        let (mut c, _, _) = cluster(4, 96.0, 1000.0);
        let mut p = plb(11);
        for _ in 0..3 {
            let s = spec(&c, 4.0, 20.0, 1);
            c.add_service(&s, &[NodeId(2)], SimTime::ZERO);
        }
        let events = p.drain_node(&mut c, NodeId(2), SimTime::ZERO).unwrap();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.reason == FailoverReason::NodeDrain));
        assert!(c.node(NodeId(2)).replicas.is_empty());
        assert!(!c.node(NodeId(2)).up);
        // A drained node is not a placement target.
        let s = spec(&c, 1.0, 1.0, 4);
        let err = p.place_new_service(&c, &s).unwrap_err();
        assert_eq!(
            err,
            PlacementError::NotEnoughNodes {
                needed: 4,
                feasible: 3
            }
        );
        c.check_invariants();
    }

    #[test]
    fn different_seeds_can_place_differently() {
        let (c, _, _) = cluster(10, 96.0, 1000.0);
        // Equalise: all nodes empty, so every placement is cost-equal and
        // the annealing's random exploration decides.
        let s = spec(&c, 4.0, 10.0, 1);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..20 {
            let mut p = plb(seed);
            let placement = p.place_new_service(&c, &s).unwrap();
            seen.insert(placement[0]);
        }
        // Note: greedy start always picks node 0 on an empty cluster, but
        // annealing explores; with 20 seeds we expect at least 2 outcomes.
        assert!(
            seen.len() >= 2,
            "placement is fully deterministic across seeds"
        );
        c.check_invariants();
    }

    #[test]
    fn placement_spreads_across_fault_domains() {
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        // 8 nodes over 4 domains: a 4-replica service must land in four
        // distinct domains.
        let c = Cluster::new(ClusterConfig {
            node_count: 8,
            metrics,
            fault_domains: 4,
        });
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 4.0;
        let s = ServiceSpec {
            name: "bc".into(),
            tag: 0,
            replica_count: 4,
            default_load: load,
        };
        for seed in 0..10 {
            let mut p = plb(seed);
            let placement = p.place_new_service(&c, &s).unwrap();
            let mut domains: Vec<u32> = placement.iter().map(|n| c.node(*n).fault_domain).collect();
            domains.sort_unstable();
            domains.dedup();
            assert_eq!(domains.len(), 4, "placement {placement:?}");
        }
    }

    #[test]
    fn placement_tolerates_fewer_domains_than_replicas() {
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        // 4 nodes in 2 domains: a 4-replica service still places (on four
        // distinct nodes) even though domain collisions are unavoidable.
        let c = Cluster::new(ClusterConfig {
            node_count: 4,
            metrics,
            fault_domains: 2,
        });
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 4.0;
        let s = ServiceSpec {
            name: "bc".into(),
            tag: 0,
            replica_count: 4,
            default_load: load,
        };
        let placement = plb(3).place_new_service(&c, &s).unwrap();
        assert_eq!(placement.len(), 4);
    }

    #[test]
    fn failover_target_avoids_sibling_domains_when_possible() {
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let disk = MetricDef {
            name: "Disk".into(),
            node_capacity: 100.0,
            balancing_weight: 1.0,
        };
        let mut m2 = MetricRegistry::new();
        m2.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        m2.register(disk);
        // 8 nodes, 4 domains (node i in domain i % 4). Place a 3-replica
        // service on nodes 0,1,2 (domains 0,1,2), then violate node 0 so
        // the replica must move: the chosen target should be in domain 3
        // (nodes 3 or 7) when one fits.
        let mut c = Cluster::new(ClusterConfig {
            node_count: 8,
            metrics: m2,
            fault_domains: 4,
        });
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 4.0;
        load[MetricId(1)] = 60.0;
        let s = ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: 3,
            default_load: load,
        };
        let id = c.add_service(&s, &[NodeId(0), NodeId(1), NodeId(2)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        c.report_load(rid, MetricId(1), 150.0);
        // 150 > 100 violates but also cannot move (too big); shrink to a
        // movable overload by adding a filler instead.
        c.report_load(rid, MetricId(1), 60.0);
        let filler = ServiceSpec {
            name: "filler".into(),
            tag: 0,
            replica_count: 1,
            default_load: {
                let mut l = c.metrics().zero_load();
                l[MetricId(1)] = 50.0;
                l
            },
        };
        c.add_service(&filler, &[NodeId(0)], SimTime::ZERO);
        let mut p = plb(5);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        if ev.service == id {
            let d = c.node(ev.to).fault_domain;
            assert!(
                d == 3 || !matches!(d, 0..=2),
                "moved into sibling domain {d}"
            );
        }
        c.check_invariants();
    }

    #[test]
    fn failover_target_is_never_worse_than_greedy_best() {
        // Regression: pick_target used to return the annealing walk's
        // *last-accepted* state, so a late uphill acceptance could ship
        // a strictly worse target than the greedy best already in hand.
        // With memoized per-candidate costs the best-seen state can never
        // beat the greedy minimum, so across seeds the chosen target must
        // always be the least-cost feasible node. The candidate loads are
        // kept close together so uphill steps stay likely even at the
        // final annealing temperature — the last-accepted state is then
        // near-uniform over candidates and the old code fails quickly.
        for seed in 0..32 {
            let (mut c, _, _) = cluster(6, 96.0, 1000.0);
            // Distinct load levels on candidate nodes 1..=5 make the
            // cheapest target unique: node 1.
            for (i, d) in [100.0, 110.0, 120.0, 130.0, 140.0].iter().enumerate() {
                let f = spec(&c, 1.0, *d, 1);
                c.add_service(&f, &[NodeId(i as u32 + 1)], SimTime::ZERO);
            }
            let a = spec(&c, 1.0, 150.0, 1);
            let id = c.add_service(&a, &[NodeId(0)], SimTime::ZERO);
            let big = spec(&c, 1.0, 900.0, 1);
            c.add_service(&big, &[NodeId(0)], SimTime::ZERO);
            let rid = c.service(id).unwrap().replicas[0];
            let mut p = plb(seed);
            let events = p.fix_violations(&mut c, SimTime::ZERO);
            assert_eq!(events.len(), 1, "seed {seed}");
            assert_eq!(events[0].replica, rid, "seed {seed}");
            assert_eq!(
                events[0].to,
                NodeId(1),
                "seed {seed}: target is worse than the greedy best"
            );
        }
    }

    #[test]
    fn anneal_accumulator_includes_greedy_collision_penalty() {
        // Regression: place_new_service's anneal accumulator started
        // penalty-free, so a greedy start with unavoidable fault-domain
        // collisions drifted the tracked objective by
        // DOMAIN_COLLISION_PENALTY per collision. The strengthened
        // debug_assert recomputes the objective from scratch after the
        // loop; with 4 replicas on 2 domains (2 unavoidable collisions)
        // the drifted accumulator trips it for every seed.
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let c = Cluster::new(ClusterConfig {
            node_count: 8,
            metrics,
            fault_domains: 2,
        });
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 4.0;
        let s = ServiceSpec {
            name: "bc".into(),
            tag: 0,
            replica_count: 4,
            default_load: load,
        };
        for seed in 0..16 {
            let placement = plb(seed).place_new_service(&c, &s).unwrap();
            assert_eq!(placement.len(), 4);
        }
    }

    #[test]
    fn failover_respects_placement_headroom() {
        // Regression: pick_target hard-coded fits(…, 1.0) while placement
        // honored config.placement_headroom, so failovers could pack a
        // target node past the headroom placements respect.
        let config = PlbConfig {
            placement_headroom: 0.8,
            ..Default::default()
        };
        let (mut c, _, disk) = cluster(3, 96.0, 100.0);
        // Node 0 violates (110 > 100); nodes 1 and 2 sit at 60: the
        // 30-unit replica still fits their raw capacity (90 ≤ 100) but
        // not the configured headroom (90 > 80), so the violation must
        // be left standing instead of packed past headroom.
        let f = spec(&c, 1.0, 60.0, 1);
        c.add_service(&f, &[NodeId(1)], SimTime::ZERO);
        c.add_service(&f, &[NodeId(2)], SimTime::ZERO);
        let a = spec(&c, 1.0, 30.0, 1);
        c.add_service(&a, &[NodeId(0)], SimTime::ZERO);
        let big = spec(&c, 1.0, 80.0, 1);
        c.add_service(&big, &[NodeId(0)], SimTime::ZERO);
        let mut p = Plb::new(config, 7);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert!(events.is_empty(), "moved past headroom: {events:?}");
        assert_eq!(c.violations().len(), 1);
        for n in c.nodes().iter().filter(|n| n.id != NodeId(0)) {
            assert!(n.load[disk] <= 0.8 * 100.0, "{} beyond headroom", n.id);
        }
    }

    #[test]
    fn drain_respects_placement_headroom() {
        let config = PlbConfig {
            placement_headroom: 0.8,
            ..Default::default()
        };
        let (mut c, _, _) = cluster(3, 96.0, 100.0);
        let f = spec(&c, 1.0, 60.0, 1);
        c.add_service(&f, &[NodeId(1)], SimTime::ZERO);
        c.add_service(&f, &[NodeId(2)], SimTime::ZERO);
        // A 2-replica service with its secondary on node 0: the secondary
        // fits nowhere within headroom (30 onto 60-loaded nodes > 80),
        // but its primary stays live on node 1, so the drain proceeds.
        let b = spec(&c, 1.0, 30.0, 2);
        let id = c.add_service(&b, &[NodeId(1), NodeId(0)], SimTime::ZERO);
        let mut p = Plb::new(config, 8);
        let events = p.drain_node(&mut c, NodeId(0), SimTime::ZERO).unwrap();
        // No survivor may be packed past headroom; the secondary stays on
        // the drained node (production blocks the upgrade domain in the
        // same situation).
        assert!(events.is_empty());
        assert!(!c.node(NodeId(0)).up);
        let rid = c.service(id).unwrap().replicas[1];
        assert_eq!(c.replica(rid).unwrap().node, NodeId(0));
    }

    #[test]
    fn drain_blocked_on_last_replica_without_target() {
        // Regression: drain_node used to mark the node down and silently
        // strand a service's *last* replica when no target fit — an
        // availability loss reported as a successful drain. It must now
        // refuse with DrainBlocked and leave the cluster untouched.
        let config = PlbConfig {
            placement_headroom: 0.8,
            ..Default::default()
        };
        let (mut c, _, _) = cluster(3, 96.0, 100.0);
        let f = spec(&c, 1.0, 60.0, 1);
        c.add_service(&f, &[NodeId(1)], SimTime::ZERO);
        c.add_service(&f, &[NodeId(2)], SimTime::ZERO);
        let a = spec(&c, 1.0, 30.0, 1);
        let id = c.add_service(&a, &[NodeId(0)], SimTime::ZERO);
        let mut p = Plb::new(config, 8);
        let err = p.drain_node(&mut c, NodeId(0), SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            DrainBlocked {
                node: NodeId(0),
                service: id,
            }
        );
        // Nothing mutated: the node is still up and the replica in place.
        assert!(c.node(NodeId(0)).up);
        let rid = c.service(id).unwrap().replicas[0];
        assert_eq!(c.replica(rid).unwrap().node, NodeId(0));
        c.check_invariants();
    }

    #[test]
    fn crash_moves_replicas_and_strands_the_unplaceable() {
        let (mut c, _, _) = cluster(4, 96.0, 100.0);
        let mut p = plb(12);
        // A movable single-replica service and an unmovable one (90 fits
        // nowhere next to the 60-loads) both live on node 1.
        let f = spec(&c, 1.0, 60.0, 1);
        c.add_service(&f, &[NodeId(2)], SimTime::ZERO);
        c.add_service(&f, &[NodeId(3)], SimTime::ZERO);
        let movable = spec(&c, 1.0, 20.0, 1);
        let id_m = c.add_service(&movable, &[NodeId(1)], SimTime::ZERO);
        let stuck = spec(&c, 1.0, 90.0, 1);
        let id_s = c.add_service(&stuck, &[NodeId(1)], SimTime::ZERO);
        let events = p.crash_node(&mut c, NodeId(1), SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].reason, FailoverReason::NodeCrash);
        assert_eq!(events[0].service, id_m);
        assert!(!c.node(NodeId(1)).up);
        // The unplaceable replica is stranded on the dead node — a crash,
        // unlike a drain, cannot be refused.
        let rid = c.service(id_s).unwrap().replicas[0];
        assert_eq!(c.replica(rid).unwrap().node, NodeId(1));
        c.check_invariants();
    }

    #[test]
    fn eviction_fallback_prefers_equal_size_secondary() {
        // Regression: when no single replica clears the violation, the
        // largest-replica fallback took whichever replica iterated first,
        // evicting a primary even when an equal-size secondary existed.
        let (mut c, _, _) = cluster(4, 96.0, 100.0);
        // Node 0: primary X (60), secondary Y (60, its primary on node
        // 1), filler (45) → load 165, overshoot 65: nothing clears alone.
        let x = spec(&c, 1.0, 60.0, 1);
        c.add_service(&x, &[NodeId(0)], SimTime::ZERO);
        let b = spec(&c, 1.0, 60.0, 2);
        let id_b = c.add_service(&b, &[NodeId(1), NodeId(0)], SimTime::ZERO);
        let filler = spec(&c, 1.0, 45.0, 1);
        c.add_service(&filler, &[NodeId(0)], SimTime::ZERO);
        let y = c.service(id_b).unwrap().replicas[1];
        assert_eq!(c.replica(y).unwrap().role, ReplicaRole::Secondary);
        let mut p = plb(9);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        assert!(!events.is_empty());
        assert_eq!(
            events[0].replica, y,
            "evicted a primary over an equal-size secondary"
        );
        assert_eq!(events[0].role, ReplicaRole::Secondary);
        c.check_invariants();
    }

    #[test]
    fn pruned_pick_target_matches_full_scan_best() {
        // 80 nodes — above candidate_prune_min_nodes, so pick_target
        // walks the index. Distinct loads make the cheapest feasible
        // target unique (the untouched node 0); the pruned walk visits
        // cheapest-first, so the greedy best must be in the candidate
        // set and best-seen selection must return it, every seed.
        let (mut c, _, _) = cluster(80, 96.0, 1000.0);
        for i in 1..80u32 {
            let f = spec(&c, 1.0, 10.0 + f64::from(i), 1);
            c.add_service(&f, &[NodeId(i)], SimTime::ZERO);
        }
        let a = spec(&c, 1.0, 50.0, 1);
        let id = c.add_service(&a, &[NodeId(5)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        for seed in 0..8 {
            let mut p = plb(seed);
            assert!(c.node_count() >= p.config().candidate_prune_min_nodes as usize);
            assert_eq!(p.pick_target(&c, rid), Some(NodeId(0)), "seed {seed}");
        }
    }

    #[test]
    fn pruned_target_avoids_sibling_domains() {
        // 70 nodes over 7 fault domains, all empty: plenty of feasible
        // non-sibling capacity, so phase 1 alone fills the candidate set
        // and the chosen target can never share a domain with a sibling.
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let mut c = Cluster::new(ClusterConfig {
            node_count: 70,
            metrics,
            fault_domains: 7,
        });
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 4.0;
        let s = ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: 3,
            default_load: load,
        };
        let id = c.add_service(&s, &[NodeId(0), NodeId(1), NodeId(2)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        for seed in 0..8 {
            let mut p = plb(seed);
            let target = p
                .pick_target(&c, rid)
                .unwrap_or_else(|| panic!("seed {seed}: no target"));
            let d = c.node(target).fault_domain;
            assert!(
                d != 1 && d != 2,
                "seed {seed}: target {target} in sibling domain {d}"
            );
        }
    }

    #[test]
    fn pruned_pick_target_is_complete_under_scarcity() {
        // Every node is packed except one — and that one sits in a
        // sibling fault domain. Phase 1 finds nothing; the sibling-
        // partition fallback (phase 2) must still find it rather than
        // report the replica unplaceable.
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Disk".into(),
            node_capacity: 100.0,
            balancing_weight: 1.0,
        });
        let mut c = Cluster::new(ClusterConfig {
            node_count: 70,
            metrics,
            fault_domains: 7,
        });
        let mut load = c.metrics().zero_load();
        load[MetricId(0)] = 10.0;
        let s = ServiceSpec {
            name: "db".into(),
            tag: 0,
            replica_count: 2,
            default_load: load,
        };
        // Replicas on node 0 (domain 0) and node 1 (domain 1).
        let id = c.add_service(&s, &[NodeId(0), NodeId(1)], SimTime::ZERO);
        let rid = c.service(id).unwrap().replicas[0];
        // Pack every other node except node 8 (domain 1 — a sibling
        // domain) past the point where the 10-unit replica fits.
        let filler = ServiceSpec {
            name: "filler".into(),
            tag: 0,
            replica_count: 1,
            default_load: {
                let mut l = c.metrics().zero_load();
                l[MetricId(0)] = 95.0;
                l
            },
        };
        for i in 2..70u32 {
            if i == 8 {
                continue;
            }
            c.add_service(&filler, &[NodeId(i)], SimTime::ZERO);
        }
        let mut p = plb(5);
        assert_eq!(p.pick_target(&c, rid), Some(NodeId(8)));
    }

    #[test]
    fn same_seed_same_decisions() {
        let (c, _, _) = cluster(8, 96.0, 1000.0);
        let s = spec(&c, 4.0, 10.0, 3);
        let a = plb(42).place_new_service(&c, &s).unwrap();
        let b = plb(42).place_new_service(&c, &s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn balance_charges_domain_collision_penalty() {
        // Regression: balance accepted a move when `gain > pay` with
        // `pay = add_cost(target)`, but pick_target had charged
        // DOMAIN_COLLISION_PENALTY when *selecting* that target — so
        // balancing judged a spread-breaking move an improvement that
        // placement would have penalised. Four nodes over two fault
        // domains (0,1,0,1): service `a` has replicas on nodes 0 and 1,
        // node 0 also carries a 30-unit filler, node 2 (the only
        // non-sibling target) is packed so the 45-unit replica cannot
        // fit there. The only target for replica a@0 is node 3 — domain
        // 1, a collision with the sibling on node 1. The raw costs say
        // "move" (gain ≈ 0.51 > pay ≈ 0.22); the penalised accept test
        // must refuse and leave the spread intact (the filler moves
        // instead).
        let mut metrics = MetricRegistry::new();
        metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let mut c = Cluster::new(ClusterConfig {
            node_count: 4,
            metrics,
            fault_domains: 2,
        });
        let mk = |c: &Cluster, cpu: f64, replicas: u32| {
            let mut load = c.metrics().zero_load();
            load[MetricId(0)] = cpu;
            ServiceSpec {
                name: "db".into(),
                tag: 0,
                replica_count: replicas,
                default_load: load,
            }
        };
        let a = c.add_service(&mk(&c, 45.0, 2), &[NodeId(0), NodeId(1)], SimTime::ZERO);
        c.add_service(&mk(&c, 30.0, 1), &[NodeId(0)], SimTime::ZERO);
        c.add_service(&mk(&c, 60.0, 1), &[NodeId(2)], SimTime::ZERO);
        for seed in 0..8 {
            let mut cl = c.clone();
            let mut p = plb(seed);
            let events = p.balance(&mut cl, SimTime::ZERO);
            for ev in &events {
                assert_ne!(
                    ev.service, a,
                    "seed {seed}: balance moved the spread-critical replica: {ev:?}"
                );
            }
            let domains: Vec<u32> = cl
                .service(a)
                .unwrap()
                .replicas
                .iter()
                .map(|&r| cl.node(cl.replica(r).unwrap().node).fault_domain)
                .collect();
            assert_ne!(
                domains[0], domains[1],
                "seed {seed}: balance created a fault-domain collision"
            );
        }
    }

    #[test]
    fn fix_violations_reports_each_unresolved_violation_once() {
        // Regression: the outer loop of fix_violations re-emitted a
        // ViolationUnresolved trace event for the same (node, metric) on
        // every pass whenever any *other* violation progressed, so trace
        // summaries counted passes, not unresolved violations. Node 0
        // violates and is fixable (the 30-unit replica relocates to
        // node 2); node 1 violates and is hopeless (150 > every node's
        // capacity). Pass 1 fixes node 0 and reports node 1; progress
        // forces pass 2, which must not report node 1 again.
        let sink = toto_trace::Shared::new(toto_trace::BufferSink::new());
        let guard = toto_trace::SessionGuard::install(Box::new(sink.clone()));
        let (mut c, _, _) = cluster(3, 96.0, 100.0);
        let small = spec(&c, 1.0, 30.0, 1);
        let big = spec(&c, 1.0, 80.0, 1);
        let hopeless = spec(&c, 1.0, 150.0, 1);
        c.add_service(&small, &[NodeId(0)], SimTime::ZERO);
        c.add_service(&big, &[NodeId(0)], SimTime::ZERO);
        c.add_service(&hopeless, &[NodeId(1)], SimTime::ZERO);
        let mut p = plb(11);
        let events = p.fix_violations(&mut c, SimTime::ZERO);
        drop(guard);
        assert_eq!(events.len(), 1, "node 0 must be fixed: {events:?}");
        let bytes = sink.with(|b| b.bytes().to_vec());
        let file = toto_trace::codec::decode(&bytes).unwrap();
        let summary = toto_trace::report::summarize(&file);
        assert_eq!(
            summary.by_kind.get("violation_unresolved").copied(),
            Some(1),
            "one unresolved violation must be reported exactly once per call"
        );
    }

    /// A seeded ring for the ranking-cache property: a third of the
    /// nodes stay empty (cost ties broken by id), most carry a load from
    /// a coarse grid (more ties), some are too full for any spec the
    /// property places, and some are down.
    fn random_ring(nodes: u32, fault_domains: u32, rng: &mut DetRng) -> Cluster {
        let (mut c, _, _) = cluster_in_domains(nodes, fault_domains, 96.0, 1000.0);
        for n in 0..nodes {
            let cpu = match rng.next_below(6) {
                0 | 1 => continue,
                2 => 90.0,
                _ => 8.0 * rng.next_below(8) as f64,
            };
            let filler = spec(&c, cpu, 50.0 * rng.next_below(4) as f64, 1);
            c.add_service(&filler, &[NodeId(n)], SimTime::ZERO);
            if rng.next_below(10) == 0 {
                c.set_node_up(NodeId(n), false);
            }
        }
        c
    }

    /// A placement spec drawn from the property's grid.
    fn random_spec(c: &Cluster, rng: &mut DetRng) -> ServiceSpec {
        let k = 1 + rng.next_below(4) as u32;
        spec(
            c,
            1.0 + rng.next_below(12) as f64,
            10.0 * rng.next_below(10) as f64,
            k,
        )
    }

    /// One random cluster mutation, through each public mutator in turn
    /// of the draw.
    fn mutate(c: &mut Cluster, rng: &mut DetRng) {
        let nodes = c.node_count() as u64;
        let node = NodeId(rng.next_below(nodes) as u32);
        let replicas = c.replicas().count() as u64;
        let replica = (replicas > 0)
            .then(|| c.replicas().nth(rng.next_below(replicas) as usize))
            .flatten()
            .map(|r| (r.id, r.service, r.node));
        match rng.next_below(7) {
            0 => {
                let s = spec(c, 8.0 * rng.next_below(6) as f64, 50.0, 1);
                c.add_service(&s, &[node], SimTime::ZERO);
            }
            1 => {
                if let Some((_, service, _)) = replica {
                    c.remove_service(service);
                }
            }
            2 => {
                if let Some((id, _, _)) = replica {
                    let value = 4.0 * rng.next_below(30) as f64;
                    c.report_loads(&[(id, MetricId(0), value), (id, MetricId(1), value * 5.0)]);
                }
            }
            3 => {
                if let Some((id, service, from)) = replica {
                    if node != from && !c.node(node).hosts_service(service) {
                        c.move_replica(id, node);
                    }
                }
            }
            4 => {
                if let Some((id, _, _)) = replica {
                    c.promote(id);
                }
            }
            5 => c.set_node_up(node, rng.next_below(3) != 0),
            _ => {
                let metric = MetricId(rng.next_below(2) as u32);
                let capacity = [96.0, 80.0, 1000.0, 600.0][rng.next_below(4) as usize];
                c.set_metric_capacity(metric, capacity);
            }
        }
    }

    mod cache {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn placement_is_independent_of_the_ranking_cache(
                nodes in 1u32..1201,
                fault_domains in 1u32..501,
                steps in 1usize..24,
                seed: u64,
            ) {
                let mut rng = DetRng::seed_from_u64(seed);
                let mut c = random_ring(nodes, fault_domains, &mut rng);
                let mut s = random_spec(&c, &mut rng);
                let mut long = plb(seed);
                for _ in 0..steps {
                    // Placements mostly repeat the previous load, as a
                    // bootstrap population does, with mutations between.
                    if rng.next_below(4) == 0 {
                        s = random_spec(&c, &mut rng);
                    }
                    for _ in 0..rng.next_below(3) {
                        mutate(&mut c, &mut rng);
                    }
                    for n in c.nodes() {
                        let fused = Plb::fit_cost(&c, n.id, &s.default_load, 1.0);
                        let pair = Plb::fits(&c, n.id, &s.default_load, 1.0)
                            .then(|| Plb::add_cost(&c, n.id, &s.default_load));
                        prop_assert_eq!(fused.map(f64::to_bits), pair.map(f64::to_bits));
                    }
                    let mut cold = Plb {
                        scratch: Scratch::default(),
                        ..long.clone()
                    };
                    let placed = long.place_new_service(&c, &s);
                    prop_assert_eq!(&placed, &cold.place_new_service(&c, &s));
                    prop_assert_eq!(long.rng.clone().next_raw(), cold.rng.next_raw());
                    let mut order: Vec<NodeId> = long.scratch.ranked.iter().map(|&(_, n)| n)
                        .chain(long.scratch.skipped.iter().copied())
                        .collect();
                    order.sort_unstable();
                    prop_assert!(order.iter().copied().eq((0..nodes).map(NodeId)));
                    if let Ok(placement) = placed {
                        if rng.next_below(2) == 0 {
                            c.add_service(&s, &placement, SimTime::ZERO);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plb_alternating_between_rings_places_like_fresh_ones() {
        // Rings `a` and `b` receive the same number of mutations on the
        // same nodes, and `c` is a clone of `a` whose node 1 then changes
        // once, as `a`'s does. A per-ring mutation clock would give those
        // nodes equal stamps in both rings, and a shared cache would read
        // one ring's costs for the other.
        let load = |ring: &mut Cluster, node: u32, cpu: f64| {
            let s = spec(ring, cpu, 10.0, 1);
            ring.add_service(&s, &[NodeId(node)], SimTime::ZERO);
        };
        let (mut a, _, _) = cluster_in_domains(3, 3, 96.0, 1000.0);
        let (mut b, _, _) = cluster_in_domains(3, 3, 96.0, 1000.0);
        for (node, cpu_a, cpu_b) in [(0, 95.0, 1.0), (1, 1.0, 95.0), (2, 1.0, 95.0)] {
            load(&mut a, node, cpu_a);
            load(&mut b, node, cpu_b);
        }
        let mut c = a.clone();
        load(&mut a, 1, 94.0);
        load(&mut c, 1, 0.5);
        let s = spec(&a, 4.0, 10.0, 1);
        let mut p = plb(5);
        for ring in [&a, &b, &a, &c, &b, &c, &a] {
            let mut fresh = Plb {
                scratch: Scratch::default(),
                ..p.clone()
            };
            assert_eq!(
                p.place_new_service(ring, &s),
                fresh.place_new_service(ring, &s)
            );
            assert_eq!(p.rng, fresh.rng);
            assert_eq!(
                p.scratch
                    .ranked
                    .iter()
                    .map(|&(c, n)| (c.to_bits(), n))
                    .collect::<Vec<_>>(),
                fresh
                    .scratch
                    .ranked
                    .iter()
                    .map(|&(c, n)| (c.to_bits(), n))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn plb_reused_across_ring_sizes_places_like_a_fresh_one() {
        // The ranking cache is sized to the last ring placed on; a
        // smaller ring would index past its nodes and a larger one would
        // go unranked unless the cache restarts from id order.
        let mut p = plb(9);
        for nodes in [300, 40, 300, 7] {
            let (mut c, _, _) = cluster_in_domains(nodes, 5, 96.0, 1000.0);
            let mut fresh = Plb {
                scratch: Scratch::default(),
                ..p.clone()
            };
            for i in 0..20 {
                let s = spec(&c, 1.0 + f64::from(i % 5), 10.0, 1 + i % 4);
                let placed = p.place_new_service(&c, &s);
                assert_eq!(placed, fresh.place_new_service(&c, &s));
                c.add_service(&s, &placed.unwrap(), SimTime::ZERO);
            }
            assert_eq!(p.rng, fresh.rng);
        }
    }
}
