//! `toto-region`: a multi-ring region control plane with cross-ring
//! admission, overflow redirects and ring lifecycle events.
//!
//! §5.3.1 of the paper measures creation redirects — "Instead of being
//! placed in this tenant ring, the database will be redirected to
//! another tenant ring that has enough capacity" — but the seed
//! simulation only ever models the *rejecting* side: one ring, one
//! redirect counter. This crate builds the other side. A **region**
//! hosts several simulated fabric rings (heterogeneous node counts and
//! density targets, each with its own cluster, PLB, RgManager set and
//! naming service) behind one region-level admission layer
//! ([`toto_controlplane::RegionAdmission`]): a configurable placement
//! policy picks a home ring per create, rejections fall through sibling
//! rings as attributed **cross-ring redirects**, and ring lifecycle —
//! build-out and decommission drains — runs as first-class simulation
//! events.
//!
//! A region run is a three-phase pipeline:
//!
//! 1. [`plan`] — the region control plane decides all routing as a small
//!    deterministic simulation and emits one directed schedule per ring.
//! 2. [`run`] — each ring replays its schedule as an independent
//!    `DensityExperiment` fleet job (parallel, byte-identical artifacts
//!    at any worker count).
//! 3. [`record`] — per-ring KPI summaries, revenue splits and redirect
//!    attribution aggregate into the [`record::RegionRunRecord`].
//!
//! The `study_region` binary of `toto-bench` compares single-ring
//! density runs against a mixed-density region; `toto run` runs any
//! region scenario (a built-in region or rings spelled out in
//! `[region]`) through the worker pool and stores its rings the way it
//! stores any fleet.

pub mod plan;
pub mod record;
pub mod run;
pub mod spec;

pub use plan::{build_region_plan, RegionPlan, RingPlan};
pub use record::{RegionRunRecord, RingEntry, REGION_SCHEMA_VERSION};
pub use run::{RegionRunOutput, RegionRunner, REGION_RECORD_FILE, REGION_TRACE_FILE};
pub use spec::{RegionSpec, RingSpec};
pub use toto_controlplane::PlacementPolicy;
