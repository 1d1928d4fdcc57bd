//! Elastic pools (§5.5 future work).
//!
//! "For our experiments the population of databases was restricted to SQL
//! DB singletons, but other offerings such as Elastic Pools (which allow
//! for multi-tenancy inside a single SQL DB instance) will add to
//! environment accuracy." An elastic pool is one orchestrated service —
//! one replica set, one CPU reservation — hosting many member databases
//! whose resource usage aggregates into the pool's reported metrics. The
//! efficiency pitch: members share the pool's reservation, so a pool of
//! bursty databases reserves far fewer cores than the same databases as
//! singletons.

use toto_fabric::cluster::Cluster;
use toto_fabric::ids::{MetricId, ServiceId};
use toto_models::compiled::{CompiledModelSet, ReplicaRoleKind, SampleContext};
use toto_simcore::time::SimTime;
use toto_spec::{EditionKind, ResourceKind};

/// One member database inside a pool.
#[derive(Clone, Debug)]
pub struct PoolMember {
    /// Stable identity (drives the member's model pattern membership).
    pub identity: u64,
    /// When the member was created.
    pub created_at: SimTime,
    /// Last modeled disk usage, GB.
    pub disk_gb: f64,
}

/// An elastic pool: a single fabric service hosting many databases.
#[derive(Clone, Debug)]
pub struct ElasticPool {
    /// The backing fabric service.
    pub service: ServiceId,
    /// Edition of the pool (governs replication and disk persistence).
    pub edition: EditionKind,
    /// Pool-level reserved vcores (shared by all members).
    pub pool_vcores: u32,
    /// Member databases.
    members: Vec<PoolMember>,
}

impl ElasticPool {
    /// Create an empty pool backed by `service`.
    pub fn new(service: ServiceId, edition: EditionKind, pool_vcores: u32) -> Self {
        ElasticPool {
            service,
            edition,
            pool_vcores,
            members: Vec::new(),
        }
    }

    /// Members currently in the pool.
    pub fn members(&self) -> &[PoolMember] {
        &self.members
    }

    /// Number of member databases.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff the pool hosts no databases.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Add a member database. Pool membership churn does not touch the
    /// orchestrator at all — that is the pools' second efficiency win:
    /// create/drop inside a pool is invisible to the PLB.
    pub fn add_member(&mut self, identity: u64, created_at: SimTime, initial_disk_gb: f64) {
        self.members.push(PoolMember {
            identity,
            created_at,
            disk_gb: initial_disk_gb.max(0.0),
        });
    }

    /// Advance every member's disk through the model set and return the
    /// pool's aggregate disk usage — the value the pool's replicas report
    /// to the PLB in place of per-database metrics.
    pub fn step_disk(&mut self, models: &CompiledModelSet, node: u32, now: SimTime) -> f64 {
        let model = models.model_for(ResourceKind::Disk, self.edition);
        let mut total = 0.0;
        for m in &mut self.members {
            if let Some(model) = model {
                let ctx = SampleContext {
                    service: m.identity,
                    node,
                    role: ReplicaRoleKind::Primary,
                    created_at: m.created_at,
                    now,
                    prev: Some(m.disk_gb),
                };
                m.disk_gb = model.next_value(&ctx);
            }
            total += m.disk_gb;
        }
        total
    }

    /// Report the pool's aggregate disk into the cluster (all replicas of
    /// the backing service carry the aggregate, as local-store pools
    /// replicate every member).
    pub fn report_to_cluster(&self, cluster: &mut Cluster, disk: MetricId, aggregate_gb: f64) {
        let replica_ids: Vec<_> = cluster
            .service(self.service)
            .map(|s| s.replicas.clone())
            .unwrap_or_default();
        for rid in replica_ids {
            cluster.report_load(rid, disk, aggregate_gb);
        }
    }
}

/// Compare the CPU reservation cost of hosting `databases` databases of
/// `per_db_vcores` each as singletons vs in pools of `pool_size` members
/// sharing `pool_vcores`. Returns `(singleton_cores, pooled_cores)` —
/// the §5.5 "environment accuracy" motivation quantified.
pub fn reservation_comparison(
    databases: u32,
    per_db_vcores: u32,
    pool_size: u32,
    pool_vcores: u32,
    edition: EditionKind,
) -> (f64, f64) {
    let replicas = edition.replica_count() as f64;
    let singleton = databases as f64 * per_db_vcores as f64 * replicas;
    let pools = (databases as f64 / pool_size as f64).ceil();
    let pooled = pools * pool_vcores as f64 * replicas;
    (singleton, pooled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defaults::gen5_model_set;
    use toto_fabric::cluster::{ClusterConfig, ServiceSpec};
    use toto_fabric::ids::NodeId;
    use toto_fabric::metrics::{MetricDef, MetricRegistry};

    fn pool_cluster() -> (Cluster, MetricId, ServiceId) {
        let mut metrics = MetricRegistry::new();
        let _cpu = metrics.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        let disk = metrics.register(MetricDef {
            name: "Disk".into(),
            node_capacity: 7000.0,
            balancing_weight: 1.0,
        });
        let mut cluster = Cluster::new(ClusterConfig::uniform(5, metrics));
        let mut load = cluster.metrics().zero_load();
        load[MetricId(0)] = 16.0;
        let spec = ServiceSpec {
            name: "pool-1".into(),
            tag: 0,
            replica_count: 4,
            default_load: load,
        };
        let id = cluster.add_service(
            &spec,
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            SimTime::ZERO,
        );
        (cluster, disk, id)
    }

    #[test]
    fn membership_churn_is_invisible_to_the_orchestrator() {
        let (cluster, _, id) = pool_cluster();
        let mut pool = ElasticPool::new(id, EditionKind::PremiumBc, 16);
        let services_before = cluster.service_count();
        for i in 0..20 {
            pool.add_member(i, SimTime::ZERO, 10.0);
        }
        assert_eq!(pool.len(), 20);
        // No new services, no new replicas.
        assert_eq!(cluster.service_count(), services_before);
    }

    #[test]
    fn pool_reports_aggregate_disk() {
        let (mut cluster, disk, id) = pool_cluster();
        let models = CompiledModelSet::compile(&gen5_model_set(7, 1200));
        let mut pool = ElasticPool::new(id, EditionKind::PremiumBc, 16);
        for i in 0..10 {
            pool.add_member(1000 + i, SimTime::ZERO, 50.0);
        }
        let aggregate = pool.step_disk(&models, 0, SimTime::from_secs(604_800 + 1200));
        assert!(aggregate > 400.0, "10 members x ~50GB, got {aggregate}");
        pool.report_to_cluster(&mut cluster, disk, aggregate);
        // Every replica of the pool carries the aggregate.
        let svc = cluster.service(id).unwrap();
        for rid in &svc.replicas {
            assert_eq!(cluster.replica(*rid).unwrap().load[disk], aggregate);
        }
        cluster.check_invariants();
    }

    #[test]
    fn member_growth_follows_the_models() {
        let (_, _, id) = pool_cluster();
        let models = CompiledModelSet::compile(&gen5_model_set(7, 1200));
        let mut pool = ElasticPool::new(id, EditionKind::PremiumBc, 16);
        pool.add_member(42, SimTime::ZERO, 100.0);
        let a = pool.step_disk(&models, 0, SimTime::from_secs(604_800 + 1200));
        let b = pool.step_disk(&models, 0, SimTime::from_secs(604_800 + 2400));
        // Disk evolves (steady growth is non-degenerate) and stays
        // non-negative.
        assert!(a >= 0.0 && b >= 0.0);
        assert_ne!(a, b);
    }

    #[test]
    fn pooling_reserves_fewer_cores_for_bursty_fleets() {
        // 100 bursty 2-vcore databases as singletons: 100 x 2 x 4 = 800
        // reserved cores (BC). Pools of 20 sharing 8 vcores: 5 x 8 x 4 =
        // 160 cores — a 5x densification.
        let (singleton, pooled) = reservation_comparison(100, 2, 20, 8, EditionKind::PremiumBc);
        assert_eq!(singleton, 800.0);
        assert_eq!(pooled, 160.0);
        // GP singletons are single-replica.
        let (s, p) = reservation_comparison(10, 4, 5, 10, EditionKind::StandardGp);
        assert_eq!(s, 40.0);
        assert_eq!(p, 20.0);
    }
}
