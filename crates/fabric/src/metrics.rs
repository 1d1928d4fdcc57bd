//! Dynamic load metrics.
//!
//! §3.1: "Every orchestration framework needs to be informed of application
//! load … The PLB in Service Fabric addresses this with the notion of
//! dynamic load metrics. A metric can be arbitrary and model anything …
//! Each resource metric has a predefined node-level logical capacity,
//! which specifies the load threshold at which PLB will initiate a
//! failover."

use crate::ids::MetricId;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Definition of one dynamic load metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Human-readable name ("Cpu", "Disk", …).
    pub name: String,
    /// Node-level logical capacity; aggregate replica load beyond this
    /// threshold triggers PLB violation fixing.
    pub node_capacity: f64,
    /// Weight of this metric in the PLB's balancing cost function.
    pub balancing_weight: f64,
}

/// The set of metrics a cluster governs. Fixed at cluster construction
/// (matching SF, where capacities are part of cluster configuration).
#[derive(Clone, Debug, Default)]
pub struct MetricRegistry {
    defs: Vec<MetricDef>,
}

impl MetricRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a metric; returns its id.
    pub fn register(&mut self, def: MetricDef) -> MetricId {
        assert!(
            def.node_capacity > 0.0,
            "metric '{}' needs a positive capacity",
            def.name
        );
        assert!(
            self.defs.iter().all(|d| d.name != def.name),
            "duplicate metric name '{}'",
            def.name
        );
        let id = MetricId(self.defs.len() as u32);
        self.defs.push(def);
        id
    }

    /// Change a metric's node-level logical capacity mid-run (chaos
    /// capacity degradation / restoration). Callers owning derived state
    /// (cached node costs) must refresh it afterwards. Returns the
    /// previous capacity. Panics on a non-positive capacity.
    pub fn set_node_capacity(&mut self, id: MetricId, node_capacity: f64) -> f64 {
        assert!(
            node_capacity > 0.0,
            "metric '{}' needs a positive capacity",
            self.defs[id.0 as usize].name
        );
        let prev = self.defs[id.0 as usize].node_capacity;
        self.defs[id.0 as usize].node_capacity = node_capacity;
        prev
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True iff no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Definition lookup.
    pub fn def(&self, id: MetricId) -> &MetricDef {
        &self.defs[id.0 as usize]
    }

    /// Find a metric id by name.
    pub fn by_name(&self, name: &str) -> Option<MetricId> {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .map(|i| MetricId(i as u32))
    }

    /// Iterate `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, &MetricDef)> {
        self.defs
            .iter()
            .enumerate()
            .map(|(i, d)| (MetricId(i as u32), d))
    }

    /// A zeroed load vector of the right arity.
    pub fn zero_load(&self) -> LoadVec {
        LoadVec {
            values: vec![0.0; self.defs.len()],
        }
    }

    /// Weighted squared-utilization cost of a load vector — the PLB's
    /// per-node balancing objective. Summation order is the registration
    /// order, so the result is bit-identical however often it is
    /// recomputed for the same load.
    pub fn cost_of(&self, load: &LoadVec) -> f64 {
        debug_assert_eq!(load.values.len(), self.defs.len());
        let mut cost = 0.0;
        for (def, &value) in self.defs.iter().zip(&load.values) {
            let util = value / def.node_capacity;
            cost += def.balancing_weight * util * util;
        }
        cost
    }

    /// [`cost_of`](Self::cost_of) of `load + extra`, computed without
    /// materialising the sum. Bit-identical to cloning `load`, calling
    /// [`LoadVec::add`] and costing the result.
    pub fn cost_with(&self, load: &LoadVec, extra: &LoadVec) -> f64 {
        debug_assert_eq!(load.values.len(), self.defs.len());
        debug_assert_eq!(extra.values.len(), self.defs.len());
        let mut cost = 0.0;
        for ((def, &a), &b) in self.defs.iter().zip(&load.values).zip(&extra.values) {
            let util = (a + b) / def.node_capacity;
            cost += def.balancing_weight * util * util;
        }
        cost
    }

    /// [`cost_of`](Self::cost_of) of `load - extra`, clamped at zero per
    /// component exactly like [`LoadVec::sub_clamped`], computed without
    /// materialising the difference.
    pub fn cost_without(&self, load: &LoadVec, extra: &LoadVec) -> f64 {
        debug_assert_eq!(load.values.len(), self.defs.len());
        debug_assert_eq!(extra.values.len(), self.defs.len());
        let mut cost = 0.0;
        for ((def, &a), &b) in self.defs.iter().zip(&load.values).zip(&extra.values) {
            let util = (a - b).max(0.0) / def.node_capacity;
            cost += def.balancing_weight * util * util;
        }
        cost
    }
}

/// A per-metric load vector (replica-reported loads or node aggregates).
#[derive(Clone, PartialEq, Default)]
pub struct LoadVec {
    values: Vec<f64>,
}

impl LoadVec {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Component-wise addition of `other`.
    pub fn add(&mut self, other: &LoadVec) {
        debug_assert_eq!(self.values.len(), other.values.len());
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// Component-wise subtraction of `other`, clamped at zero to absorb
    /// floating-point dust when a replica's load is fully removed.
    pub fn sub_clamped(&mut self, other: &LoadVec) {
        debug_assert_eq!(self.values.len(), other.values.len());
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a = (*a - b).max(0.0);
        }
    }

    /// Raw component slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

impl Index<MetricId> for LoadVec {
    type Output = f64;
    fn index(&self, id: MetricId) -> &f64 {
        &self.values[id.0 as usize]
    }
}

impl IndexMut<MetricId> for LoadVec {
    fn index_mut(&mut self, id: MetricId) -> &mut f64 {
        &mut self.values[id.0 as usize]
    }
}

impl fmt::Debug for LoadVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LoadVec{:?}", self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricRegistry {
        let mut r = MetricRegistry::new();
        r.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 96.0,
            balancing_weight: 1.0,
        });
        r.register(MetricDef {
            name: "Disk".into(),
            node_capacity: 7000.0,
            balancing_weight: 1.0,
        });
        r
    }

    #[test]
    fn register_and_lookup() {
        let r = registry();
        assert_eq!(r.len(), 2);
        let cpu = r.by_name("Cpu").unwrap();
        assert_eq!(r.def(cpu).node_capacity, 96.0);
        assert!(r.by_name("Network").is_none());
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let mut r = registry();
        r.register(MetricDef {
            name: "Cpu".into(),
            node_capacity: 1.0,
            balancing_weight: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_panics() {
        let mut r = MetricRegistry::new();
        r.register(MetricDef {
            name: "X".into(),
            node_capacity: 0.0,
            balancing_weight: 1.0,
        });
    }

    #[test]
    fn load_vec_arithmetic() {
        let r = registry();
        let cpu = r.by_name("Cpu").unwrap();
        let disk = r.by_name("Disk").unwrap();
        let mut a = r.zero_load();
        a[cpu] = 4.0;
        a[disk] = 100.0;
        let mut b = r.zero_load();
        b[cpu] = 2.0;
        b[disk] = 150.0;
        a.add(&b);
        assert_eq!(a[cpu], 6.0);
        assert_eq!(a[disk], 250.0);
        a.sub_clamped(&b);
        a.sub_clamped(&b);
        assert_eq!(a[cpu], 2.0);
        // Clamped: 250 - 150 - 150 -> 0, not -50.
        assert_eq!(a[disk], 0.0);
    }

    #[test]
    fn cost_with_and_without_match_materialised_vectors_bitwise() {
        let r = registry();
        let cpu = r.by_name("Cpu").unwrap();
        let disk = r.by_name("Disk").unwrap();
        let mut load = r.zero_load();
        load[cpu] = 37.3;
        load[disk] = 4111.25;
        let mut extra = r.zero_load();
        extra[cpu] = 8.1;
        extra[disk] = 350.7;

        let mut sum = load.clone();
        sum.add(&extra);
        assert_eq!(
            r.cost_with(&load, &extra).to_bits(),
            r.cost_of(&sum).to_bits()
        );

        let mut diff = load.clone();
        diff.sub_clamped(&extra);
        assert_eq!(
            r.cost_without(&load, &extra).to_bits(),
            r.cost_of(&diff).to_bits()
        );

        // Clamping also matches when the subtrahend dominates.
        let mut big = r.zero_load();
        big[cpu] = 90.0;
        big[disk] = 9000.0;
        let mut clamped = load.clone();
        clamped.sub_clamped(&big);
        assert_eq!(
            r.cost_without(&load, &big).to_bits(),
            r.cost_of(&clamped).to_bits()
        );
    }

    #[test]
    fn cost_of_zero_load_is_zero() {
        let r = registry();
        assert_eq!(r.cost_of(&r.zero_load()), 0.0);
    }
}
