//! Population Manager specifications.
//!
//! §3.3.3: "The Population Manager's models describe how many databases to
//! create/drop per hour, the service tier/edition and the Service Level
//! Objective (SLO) of the databases to create, and the initial metric load
//! for each database." This module is the declarative form of those three
//! ingredients. Unlike the model set it is not a Naming Service blob: the
//! Population Manager takes the struct directly, either the built-in gen5
//! model or one fitted from a scenario's `[workload]` table.

use crate::model::HourlyTable;

/// One entry of an SLO mix: a named SLO and its relative weight among
/// creations of that edition.
#[derive(Clone, Debug, PartialEq)]
pub struct SloMixEntry {
    /// SLO name as registered in the control plane catalog (e.g. "GP_4").
    pub slo_name: String,
    /// Relative weight (need not be normalised).
    pub weight: f64,
}

/// The Population Manager's full model: create and drop hourly-normal
/// tables per edition (the paper's 96 + 96 models), the SLO mix, and the
/// initial-disk equal-probability bins per edition.
#[derive(Clone, Debug, PartialEq)]
pub struct PopulationModelSpec {
    /// The Population Manager's single RNG seed (§5.2: "The Population
    /// Manager used a single seed which fixed the order and the SLO of the
    /// databases that were created").
    pub seed: u64,
    /// `create[edition.index()]` is the hourly-normal table of creations
    /// per hour for that edition.
    pub create: [HourlyTable; 2],
    /// `drop[edition.index()]`, likewise for drops.
    pub drop: [HourlyTable; 2],
    /// `slo_mix[edition.index()]`: relative SLO weights for new databases.
    pub slo_mix: [Vec<SloMixEntry>; 2],
    /// `initial_disk_bins[edition.index()]`: equal-probability bin edges
    /// (GB) for the initial disk load of a new database.
    pub initial_disk_bins: [Vec<f64>; 2],
}
