//! Synthetic production telemetry.
//!
//! The paper trains its models on Azure telemetry we cannot access. This
//! module generates traces with the *documented* statistical structure so
//! the full §4 training-and-validation pipeline can run end-to-end:
//!
//! * hourly create/drop counts with diurnal shape, weekday/weekend split
//!   and edition asymmetry (Figure 6's features: "hourly patterns", "more
//!   creates and drops during the weekdays", "Premium/BC … significantly
//!   fewer creates");
//! * per-database CPU/memory utilization with the low-utilization mass of
//!   Figure 3b ("a large proportion of databases have low CPU and memory
//!   utilization");
//! * per-cluster local-store fractions differing by region (Figure 3a);
//! * per-database disk-delta traces that are ~99.8 % steady-state with
//!   initial-creation and ETL-spike minorities (§4.2.1's decomposition).

use toto_models::training::{DeltaTrace, HourlyObservation};
use toto_simcore::rng::SeedTree;
use toto_simcore::time::{DayKind, SimDuration, SimTime};
use toto_spec::EditionKind;
use toto_stats::dist::{Distribution, Normal};

/// Regional workload parameters (regions differ systematically, §2:
/// "there are distinct regional differences in workloads and edition/SLO
/// demographics").
#[derive(Clone, Debug, PartialEq)]
pub struct RegionProfile {
    /// Region name.
    pub name: String,
    /// Peak weekday-hour mean creates for Standard/GP, region level.
    pub gp_create_peak: f64,
    /// Ratio of BC to GP create volume (well below 1).
    pub bc_fraction: f64,
    /// Weekend volume as a fraction of weekday volume.
    pub weekend_factor: f64,
    /// Drop volume as a fraction of create volume (population grows when
    /// below 1).
    pub drop_factor: f64,
    /// Mean local-store share of cluster populations (Figure 3a).
    pub local_store_mean: f64,
    /// Dispersion of the local-store share across clusters.
    pub local_store_sd: f64,
}

impl RegionProfile {
    /// A Region-1-like profile (low local-store share).
    pub fn region1() -> Self {
        RegionProfile {
            name: "Region 1".into(),
            gp_create_peak: 60.0,
            bc_fraction: 0.12,
            weekend_factor: 0.45,
            drop_factor: 0.9,
            local_store_mean: 0.08,
            local_store_sd: 0.03,
        }
    }

    /// A Region-2-like profile (markedly higher local-store share).
    pub fn region2() -> Self {
        RegionProfile {
            name: "Region 2".into(),
            gp_create_peak: 90.0,
            bc_fraction: 0.18,
            weekend_factor: 0.5,
            drop_factor: 0.92,
            local_store_mean: 0.22,
            local_store_sd: 0.05,
        }
    }
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Root seed for all generated streams.
    pub seed: u64,
    /// Region parameters.
    pub region: RegionProfile,
}

/// The trace generator.
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    seeds: SeedTree,
    region: RegionProfile,
}

/// Diurnal multiplier: low overnight, ramping through business hours and
/// peaking mid-afternoon (the paper's "business hours and week days must
/// be treated differently than evenings or weekends").
fn diurnal_shape(hour: u32) -> f64 {
    let h = hour as f64;
    // A raised cosine centred on 14:00 with a 0.25 floor.
    let phase = (h - 14.0) / 24.0 * std::f64::consts::TAU;
    0.25 + 0.75 * (0.5 + 0.5 * phase.cos())
}

impl TraceGenerator {
    /// Build a generator.
    pub fn new(config: SynthConfig) -> Self {
        TraceGenerator {
            seeds: SeedTree::new(config.seed),
            region: config.region,
        }
    }

    /// The region profile in use.
    pub fn region(&self) -> &RegionProfile {
        &self.region
    }

    /// Mean creates per hour at `t` for an edition, region level.
    pub fn mean_creates(&self, edition: EditionKind, t: SimTime) -> f64 {
        let base = self.region.gp_create_peak * diurnal_shape(t.hour_of_day());
        let day = match t.day_kind() {
            DayKind::Weekday => 1.0,
            DayKind::Weekend => self.region.weekend_factor,
        };
        let edition_factor = match edition {
            EditionKind::StandardGp => 1.0,
            EditionKind::PremiumBc => self.region.bc_fraction,
        };
        base * day * edition_factor
    }

    /// Generate `weeks` of hourly create counts for an edition.
    pub fn hourly_creates(&self, edition: EditionKind, weeks: u64) -> Vec<HourlyObservation> {
        self.hourly_counts(edition, weeks, 1.0, "creates")
    }

    /// Generate `weeks` of hourly drop counts for an edition.
    pub fn hourly_drops(&self, edition: EditionKind, weeks: u64) -> Vec<HourlyObservation> {
        self.hourly_counts(edition, weeks, self.region.drop_factor, "drops")
    }

    fn hourly_counts(
        &self,
        edition: EditionKind,
        weeks: u64,
        factor: f64,
        label: &str,
    ) -> Vec<HourlyObservation> {
        let mut rng = self.seeds.child(label, edition.index() as u64).rng();
        let hours = weeks * 7 * 24;
        let mut out = Vec::with_capacity(hours as usize);
        for h in 0..hours {
            let t = SimTime::ZERO + SimDuration::from_hours(h);
            let mu = self.mean_creates(edition, t) * factor;
            // Counts are noisy around the diurnal mean; sd scales like a
            // slightly over-dispersed Poisson.
            let sd = (mu.max(0.5)).sqrt() * 1.2;
            let v = Normal::new(mu, sd).sample(&mut rng).round().max(0.0);
            out.push(HourlyObservation { time: t, value: v });
        }
        out
    }

    /// Per-database average CPU/memory utilization pairs over a daytime
    /// window, idle databases removed (Figure 3b). Utilizations are
    /// percentages in `[0, 100]`, concentrated at the low end with a
    /// correlated memory component.
    pub fn utilization_scatter(&self, databases: usize) -> Vec<(f64, f64)> {
        let mut rng = self.seeds.child("util", 0).rng();
        let mut out = Vec::with_capacity(databases);
        while out.len() < databases {
            // Exponential-ish CPU mass: most databases are nearly idle.
            let u: f64 = rng.next_f64().max(1e-9);
            let cpu = (-u.ln() * 8.0).min(100.0);
            // Memory: baseline buffer-pool residency plus correlation
            // with CPU and noise; clamped to [0, 100].
            let noise = Normal::new(0.0, 12.0).sample(&mut rng);
            let mem = (18.0 + 0.55 * cpu + noise).clamp(0.0, 100.0);
            // "we have removed all of the completely idle databases".
            if cpu < 0.05 {
                continue;
            }
            out.push((cpu, mem));
        }
        out
    }

    /// Daily local-store fractions for `clusters` clusters over `days`
    /// days (Figure 3a's dispersion box plots). Values in `[0, 1]`.
    pub fn local_store_fractions(&self, clusters: usize, days: usize) -> Vec<f64> {
        let mut rng = self.seeds.child("localstore", 0).rng();
        let mut out = Vec::with_capacity(clusters * days);
        for c in 0..clusters {
            // Each cluster has a stable identity around the region mean…
            let cluster_mean =
                Normal::new(self.region.local_store_mean, self.region.local_store_sd)
                    .sample(&mut rng)
                    .clamp(0.0, 1.0);
            let mut day_rng = self.seeds.child("localstore-day", c as u64).rng();
            for _ in 0..days {
                // …with small day-to-day drift.
                let v = Normal::new(cluster_mean, 0.01).sample(&mut day_rng);
                out.push(v.clamp(0.0, 1.0));
            }
        }
        out
    }

    /// A per-database disk-delta trace at 20-minute periods (§4.2.1).
    ///
    /// `profile` selects the behaviour: most databases are pure
    /// steady-state; a small minority adds initial-creation growth or the
    /// ETL spike cycle.
    pub fn disk_delta_trace(&self, db_index: u64, periods: usize) -> DeltaTrace {
        let mut rng = self.seeds.child("disk", db_index).rng();
        let period_secs = 20 * 60;
        let kind = rng.next_f64();
        let mut deltas = Vec::with_capacity(periods);
        for i in 0..periods {
            let t = SimTime::from_secs(i as u64 * period_secs);
            // Steady state: small diurnal deltas (databases "largely
            // growing over time", §2), occasionally negative. The diurnal
            // signal is strong relative to the noise, which is what makes
            // time-aware models worth their complexity (§4.2.2).
            let mu = 0.020 * diurnal_shape(t.hour_of_day());
            let sd = 0.008;
            let mut d = Normal::new(mu, sd).sample(&mut rng);
            if kind < 0.05 && i < 2 {
                // ~5% of databases: high initial growth — a restore or
                // bulk load in the first half hour (§4.2.3's 12 GB / 5 min
                // threshold is comfortably exceeded).
                d += Normal::new(120.0, 40.0).sample(&mut rng).max(20.0) / 2.0;
            }
            if (0.05..0.08).contains(&kind) {
                // ~3% of databases: daily ETL cycle — load at a fixed hour,
                // age out twelve hours later.
                let hour = t.hour_of_day();
                if hour == 0 && t.minute_of_hour() < 20 {
                    d += Normal::new(30.0, 5.0).sample(&mut rng).max(10.0);
                } else if hour == 12 && t.minute_of_hour() < 20 {
                    d -= Normal::new(28.0, 5.0).sample(&mut rng).max(10.0);
                }
            }
            deltas.push(d);
        }
        DeltaTrace {
            period_secs,
            deltas,
        }
    }

    /// Cumulative disk usage from a delta trace, starting at `initial_gb`
    /// and clamped at zero (for Figure 9 style comparisons).
    pub fn accumulate(initial_gb: f64, trace: &DeltaTrace) -> Vec<f64> {
        let mut v = initial_gb.max(0.0);
        trace
            .deltas
            .iter()
            .map(|d| {
                v = (v + d).max(0.0);
                v
            })
            .collect()
    }
}

/// One tenant cohort inside a [`WorkloadProfile`]: a sub-population with
/// its own arrival weight, lifetime statistics and edition mix. Cohorts
/// are how scenarios express "mostly short-lived dev databases plus a
/// small long-lived enterprise tail" without new Rust.
#[derive(Clone, Debug, PartialEq)]
pub struct CohortProfile {
    /// Cohort name (used as part of the stream label; must be unique
    /// within a profile).
    pub name: String,
    /// Relative arrival weight; weights are normalized across cohorts.
    pub weight: f64,
    /// Mean tenant lifetime in hours. Shorter lifetimes raise the
    /// cohort's drop volume relative to its create volume.
    pub lifetime_hours: f64,
    /// Share of this cohort's creates that are Premium/BC.
    pub bc_fraction: f64,
}

/// A regional launch spike: create volume jumps by `magnitude` at
/// `at_hour` and decays exponentially back to baseline (a marketing
/// launch, a conference demo wave, a regional failin).
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchSpike {
    /// Hour since epoch at which the spike lands.
    pub at_hour: u64,
    /// Peak multiplier at the spike instant (1.0 = no spike).
    pub magnitude: f64,
    /// e-folding time of the decay, in hours.
    pub decay_hours: f64,
}

/// ETL-season modulation of disk growth: a slow sinusoid over `period_days`
/// scaling per-database disk deltas (quarter-end load seasons).
#[derive(Clone, Debug, PartialEq)]
pub struct EtlSeason {
    /// Relative amplitude of the seasonal swing (0.3 = ±30 %).
    pub amplitude: f64,
    /// Season length in days.
    pub period_days: f64,
}

/// Serverless auto-pause/resume behaviour: pauses concentrate in the
/// overnight trough, resumes concentrate around `resume_hour`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerlessProfile {
    /// Peak mean pauses per hour at the deepest overnight point.
    pub pause_peak: f64,
    /// Hour of day the resume wave is centred on.
    pub resume_hour: u32,
    /// Weekend volume as a fraction of weekday volume.
    pub weekend_factor: f64,
}

/// Scenario-addressable workload description: a region baseline plus the
/// optional structures scenarios can layer on top of it. The plain
/// [`TraceGenerator`] streams are the degenerate case (one cohort, no
/// spikes, no season, no serverless population).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadProfile {
    /// Regional baseline (diurnal/weekly shape, volumes, edition mix).
    pub region: RegionProfile,
    /// Tenant cohorts; must be non-empty.
    pub cohorts: Vec<CohortProfile>,
    /// Launch spikes layered onto create volume.
    pub spikes: Vec<LaunchSpike>,
    /// Optional ETL-season disk modulation.
    pub etl: Option<EtlSeason>,
    /// Optional serverless auto-pause/resume population.
    pub serverless: Option<ServerlessProfile>,
}

impl WorkloadProfile {
    /// The degenerate profile equivalent to the plain region generator:
    /// one cohort whose lifetime reproduces the region's drop factor.
    pub fn baseline(region: RegionProfile) -> Self {
        let bc_fraction = region.bc_fraction;
        WorkloadProfile {
            region,
            cohorts: vec![CohortProfile {
                name: "base".into(),
                weight: 1.0,
                lifetime_hours: 24.0 * 30.0,
                bc_fraction,
            }],
            spikes: Vec::new(),
            etl: None,
            serverless: None,
        }
    }
}

/// Diurnal multiplier centred on an arbitrary hour (the plain
/// [`diurnal_shape`] is the `centre == 14` case).
fn shifted_diurnal_shape(hour: u32, centre: u32) -> f64 {
    let h = hour as f64;
    let phase = (h - centre as f64) / 24.0 * std::f64::consts::TAU;
    0.25 + 0.75 * (0.5 + 0.5 * phase.cos())
}

/// The widened, scenario-addressable generator. Wraps the same seeded
/// stream discipline as [`TraceGenerator`] (every stream is a distinct
/// `SeedTree` child, so streams never alias) but draws its means from a
/// [`WorkloadProfile`] instead of a bare region.
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    seeds: SeedTree,
    profile: WorkloadProfile,
}

impl WorkloadGenerator {
    /// Build a generator over `profile`, seeding all streams from `seed`.
    pub fn new(seed: u64, profile: WorkloadProfile) -> Self {
        WorkloadGenerator {
            seeds: SeedTree::new(seed),
            profile,
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Launch-spike multiplier at `t` (1.0 when no spike is active).
    pub fn spike_multiplier(&self, t: SimTime) -> f64 {
        let h = t.hours_since_epoch() as f64;
        let mut m = 1.0;
        for spike in &self.profile.spikes {
            let at = spike.at_hour as f64;
            if h >= at && spike.decay_hours > 1e-9 {
                m += (spike.magnitude - 1.0) * (-(h - at) / spike.decay_hours).exp();
            }
        }
        m
    }

    /// Seasonal disk-growth multiplier at `t` (1.0 without a season).
    pub fn season_multiplier(&self, t: SimTime) -> f64 {
        match &self.profile.etl {
            None => 1.0,
            Some(season) => {
                let day = t.as_secs() as f64 / 86_400.0;
                let phase = std::f64::consts::TAU * day / season.period_days.max(1e-9);
                (1.0 + season.amplitude * phase.sin()).max(0.0)
            }
        }
    }

    fn cohort_weight_norm(&self) -> f64 {
        let total: f64 = self.profile.cohorts.iter().map(|c| c.weight).sum();
        total.max(1e-9)
    }

    /// Mean creates per hour for one cohort and edition at `t`.
    pub fn mean_cohort_creates(
        &self,
        cohort: &CohortProfile,
        edition: EditionKind,
        t: SimTime,
    ) -> f64 {
        let region = &self.profile.region;
        let base = region.gp_create_peak * diurnal_shape(t.hour_of_day());
        let day = match t.day_kind() {
            DayKind::Weekday => 1.0,
            DayKind::Weekend => region.weekend_factor,
        };
        let edition_factor = match edition {
            EditionKind::StandardGp => 1.0 - cohort.bc_fraction,
            EditionKind::PremiumBc => cohort.bc_fraction,
        };
        let weight = cohort.weight / self.cohort_weight_norm();
        base * day * edition_factor * weight * self.spike_multiplier(t)
    }

    /// Drop volume of a cohort as a fraction of its create volume over a
    /// window of `horizon_hours`: tenants created earlier in the window
    /// die with probability `horizon / (horizon + lifetime)` — short-lived
    /// cohorts churn, long-lived cohorts accumulate.
    pub fn cohort_drop_factor(&self, cohort: &CohortProfile, horizon_hours: f64) -> f64 {
        let h = horizon_hours.max(1.0);
        (h / (h + cohort.lifetime_hours.max(0.0))).min(1.0)
    }

    /// Generate `weeks` of hourly create counts for an edition, summed
    /// across cohorts with launch spikes applied.
    pub fn hourly_creates(&self, edition: EditionKind, weeks: u64) -> Vec<HourlyObservation> {
        self.hourly_counts(edition, weeks, false)
    }

    /// Generate `weeks` of hourly drop counts for an edition; each
    /// cohort's drop volume follows its lifetime statistics.
    pub fn hourly_drops(&self, edition: EditionKind, weeks: u64) -> Vec<HourlyObservation> {
        self.hourly_counts(edition, weeks, true)
    }

    fn hourly_counts(
        &self,
        edition: EditionKind,
        weeks: u64,
        drops: bool,
    ) -> Vec<HourlyObservation> {
        let hours = weeks * 7 * 24;
        // Drops lag creates by half the window on average.
        let horizon = (hours as f64 / 2.0).max(1.0);
        let mut out: Vec<HourlyObservation> = (0..hours)
            .map(|h| HourlyObservation {
                time: SimTime::ZERO + SimDuration::from_hours(h),
                value: 0.0,
            })
            .collect();
        for (ci, cohort) in self.profile.cohorts.iter().enumerate() {
            let label = if drops { "wl-drops" } else { "wl-creates" };
            let stream = (ci as u64) * 2 + edition.index() as u64;
            let mut rng = self.seeds.child(label, stream).rng();
            let factor = if drops {
                // Lifetime-driven churn, anchored to the regional drop
                // factor so the single-cohort baseline tracks the region.
                self.profile.region.drop_factor * self.cohort_drop_factor(cohort, horizon)
                    / self
                        .cohort_drop_factor(
                            &CohortProfile {
                                name: String::new(),
                                weight: 1.0,
                                lifetime_hours: 24.0 * 30.0,
                                bc_fraction: 0.0,
                            },
                            horizon,
                        )
                        .max(1e-9)
            } else {
                1.0
            };
            for slot in out.iter_mut() {
                let mu = (self.mean_cohort_creates(cohort, edition, slot.time) * factor).max(0.0);
                let sd = (mu.max(0.5)).sqrt() * 1.2;
                let v = Normal::new(mu, sd).sample(&mut rng).round().max(0.0);
                slot.value += v;
            }
        }
        out
    }

    /// Hourly serverless auto-pause counts over `weeks` (empty when the
    /// profile has no serverless population). Pauses concentrate where
    /// activity is lowest.
    pub fn serverless_pauses(&self, weeks: u64) -> Vec<HourlyObservation> {
        self.serverless_counts(weeks, "wl-pause", |sls, t| {
            sls.pause_peak * (1.25 - diurnal_shape(t.hour_of_day()))
        })
    }

    /// Hourly serverless resume counts over `weeks`: a diurnal wave
    /// centred on the profile's `resume_hour`.
    pub fn serverless_resumes(&self, weeks: u64) -> Vec<HourlyObservation> {
        self.serverless_counts(weeks, "wl-resume", |sls, t| {
            sls.pause_peak * shifted_diurnal_shape(t.hour_of_day(), sls.resume_hour)
        })
    }

    fn serverless_counts(
        &self,
        weeks: u64,
        label: &str,
        mean: impl Fn(&ServerlessProfile, SimTime) -> f64,
    ) -> Vec<HourlyObservation> {
        let Some(sls) = &self.profile.serverless else {
            return Vec::new();
        };
        let mut rng = self.seeds.child(label, 0).rng();
        let hours = weeks * 7 * 24;
        let mut out = Vec::with_capacity(hours as usize);
        for h in 0..hours {
            let t = SimTime::ZERO + SimDuration::from_hours(h);
            let day = match t.day_kind() {
                DayKind::Weekday => 1.0,
                DayKind::Weekend => sls.weekend_factor,
            };
            let mu = (mean(sls, t) * day).max(0.0);
            let sd = (mu.max(0.5)).sqrt() * 1.2;
            let v = Normal::new(mu, sd).sample(&mut rng).round().max(0.0);
            out.push(HourlyObservation { time: t, value: v });
        }
        out
    }

    /// A per-database disk-delta trace with the ETL season applied on top
    /// of the base steady-state/spike decomposition.
    pub fn seasonal_disk_trace(&self, db_index: u64, periods: usize) -> DeltaTrace {
        let mut rng = self.seeds.child("wl-disk", db_index).rng();
        let period_secs = 20 * 60;
        let mut deltas = Vec::with_capacity(periods);
        for i in 0..periods {
            let t = SimTime::from_secs(i as u64 * period_secs);
            let mu = 0.020 * diurnal_shape(t.hour_of_day()) * self.season_multiplier(t);
            let d = Normal::new(mu, 0.008).sample(&mut rng);
            deltas.push(d);
        }
        DeltaTrace {
            period_secs,
            deltas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_stats::describe;

    fn generator() -> TraceGenerator {
        TraceGenerator::new(SynthConfig {
            seed: 7,
            region: RegionProfile::region1(),
        })
    }

    #[test]
    fn creates_have_diurnal_and_weekly_structure() {
        let g = generator();
        let noon = SimTime::from_secs(13 * 3600);
        let night = SimTime::from_secs(3 * 3600);
        assert!(
            g.mean_creates(EditionKind::StandardGp, noon)
                > 2.0 * g.mean_creates(EditionKind::StandardGp, night)
        );
        let weekend_noon = noon + SimDuration::from_days(5);
        assert!(
            g.mean_creates(EditionKind::StandardGp, weekend_noon)
                < g.mean_creates(EditionKind::StandardGp, noon)
        );
        assert!(
            g.mean_creates(EditionKind::PremiumBc, noon)
                < 0.3 * g.mean_creates(EditionKind::StandardGp, noon)
        );
    }

    #[test]
    fn hourly_series_have_expected_length_and_nonnegative_counts() {
        let g = generator();
        let creates = g.hourly_creates(EditionKind::StandardGp, 4);
        assert_eq!(creates.len(), 4 * 7 * 24);
        assert!(creates
            .iter()
            .all(|o| o.value >= 0.0 && o.value.fract() == 0.0));
        // Reproducible.
        let again = g.hourly_creates(EditionKind::StandardGp, 4);
        assert_eq!(creates, again);
    }

    #[test]
    fn drops_track_creates_scaled_down() {
        let g = generator();
        let creates = g.hourly_creates(EditionKind::StandardGp, 6);
        let drops = g.hourly_drops(EditionKind::StandardGp, 6);
        let mc = describe::mean(&creates.iter().map(|o| o.value).collect::<Vec<_>>());
        let md = describe::mean(&drops.iter().map(|o| o.value).collect::<Vec<_>>());
        assert!(md < mc, "drops mean {md} should trail creates mean {mc}");
        assert!(md > 0.5 * mc);
    }

    #[test]
    fn utilization_scatter_is_low_mass() {
        let g = generator();
        let pts = g.utilization_scatter(2000);
        assert_eq!(pts.len(), 2000);
        let cpu: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let mem: Vec<f64> = pts.iter().map(|p| p.1).collect();
        assert!(cpu.iter().all(|c| (0.0..=100.0).contains(c)));
        assert!(mem.iter().all(|m| (0.0..=100.0).contains(m)));
        // Most databases sit below 25% CPU.
        let low = cpu.iter().filter(|c| **c < 25.0).count();
        assert!(low as f64 > 0.8 * cpu.len() as f64);
        assert!(describe::mean(&cpu) < 20.0);
    }

    #[test]
    fn regions_differ_in_local_store_share() {
        let g1 = generator();
        let g2 = TraceGenerator::new(SynthConfig {
            seed: 7,
            region: RegionProfile::region2(),
        });
        let f1 = g1.local_store_fractions(40, 7);
        let f2 = g2.local_store_fractions(40, 7);
        assert_eq!(f1.len(), 280);
        assert!(describe::mean(&f2) > describe::mean(&f1) + 0.05);
    }

    #[test]
    fn disk_traces_are_mostly_steady_state() {
        let g = generator();
        let mut spiky = 0usize;
        let n = 300;
        for db in 0..n {
            let trace = g.disk_delta_trace(db, 500);
            if trace.deltas.iter().any(|d| d.abs() > 5.0) {
                spiky += 1;
            }
        }
        // ~8% of databases carry a non-steady pattern; the other >90% are
        // steady (the paper's decomposition has 99.8% of *deltas* steady).
        assert!(spiky > 5 && spiky < 50, "spiky = {spiky}");
    }

    #[test]
    fn accumulate_clamps_at_zero() {
        let trace = DeltaTrace {
            period_secs: 1200,
            deltas: vec![1.0, -5.0, 2.0],
        };
        let usage = TraceGenerator::accumulate(1.0, &trace);
        assert_eq!(usage, vec![2.0, 0.0, 2.0]);
    }

    fn workload() -> WorkloadGenerator {
        WorkloadGenerator::new(7, WorkloadProfile::baseline(RegionProfile::region1()))
    }

    #[test]
    fn baseline_workload_streams_are_reproducible_and_shaped() {
        let g = workload();
        let creates = g.hourly_creates(EditionKind::StandardGp, 4);
        assert_eq!(creates.len(), 4 * 7 * 24);
        assert!(creates
            .iter()
            .all(|o| o.value >= 0.0 && o.value.fract() == 0.0));
        assert_eq!(creates, g.hourly_creates(EditionKind::StandardGp, 4));
        let drops = g.hourly_drops(EditionKind::StandardGp, 4);
        let mc = describe::mean(&creates.iter().map(|o| o.value).collect::<Vec<_>>());
        let md = describe::mean(&drops.iter().map(|o| o.value).collect::<Vec<_>>());
        assert!(md < mc, "drops mean {md} should trail creates mean {mc}");
    }

    #[test]
    fn cohort_weights_split_volume_and_lifetimes_drive_churn() {
        let mut profile = WorkloadProfile::baseline(RegionProfile::region1());
        profile.cohorts = vec![
            CohortProfile {
                name: "dev".into(),
                weight: 3.0,
                lifetime_hours: 48.0,
                bc_fraction: 0.05,
            },
            CohortProfile {
                name: "enterprise".into(),
                weight: 1.0,
                lifetime_hours: 24.0 * 365.0,
                bc_fraction: 0.6,
            },
        ];
        let g = WorkloadGenerator::new(7, profile.clone());
        let noon = SimTime::from_secs(13 * 3600);
        let dev = g.mean_cohort_creates(&profile.cohorts[0], EditionKind::StandardGp, noon);
        let ent = g.mean_cohort_creates(&profile.cohorts[1], EditionKind::StandardGp, noon);
        assert!(dev > 2.0 * ent, "dev {dev} vs enterprise {ent}");
        // Short lifetimes churn much harder than the long tail.
        let short = g.cohort_drop_factor(&profile.cohorts[0], 336.0);
        let long = g.cohort_drop_factor(&profile.cohorts[1], 336.0);
        assert!(short > 5.0 * long, "short {short} vs long {long}");
        // The enterprise cohort skews the BC stream upward.
        let bc = g.hourly_creates(EditionKind::PremiumBc, 2);
        let baseline_bc = workload().hourly_creates(EditionKind::PremiumBc, 2);
        let m = describe::mean(&bc.iter().map(|o| o.value).collect::<Vec<_>>());
        let mb = describe::mean(&baseline_bc.iter().map(|o| o.value).collect::<Vec<_>>());
        assert!(m > mb, "cohort mix should raise BC volume: {m} vs {mb}");
    }

    #[test]
    fn launch_spike_decays_back_to_baseline() {
        let mut profile = WorkloadProfile::baseline(RegionProfile::region1());
        profile.spikes = vec![LaunchSpike {
            at_hour: 100,
            magnitude: 3.0,
            decay_hours: 6.0,
        }];
        let g = WorkloadGenerator::new(7, profile);
        let before = SimTime::ZERO + SimDuration::from_hours(99);
        let at = SimTime::ZERO + SimDuration::from_hours(100);
        let later = SimTime::ZERO + SimDuration::from_hours(160);
        assert!((g.spike_multiplier(before) - 1.0).abs() < 1e-12);
        assert!((g.spike_multiplier(at) - 3.0).abs() < 1e-12);
        assert!(g.spike_multiplier(later) < 1.001);
    }

    #[test]
    fn serverless_pauses_trough_when_resumes_peak() {
        let mut profile = WorkloadProfile::baseline(RegionProfile::region1());
        profile.serverless = Some(ServerlessProfile {
            pause_peak: 40.0,
            resume_hour: 8,
            weekend_factor: 0.5,
        });
        let g = WorkloadGenerator::new(7, profile);
        let pauses = g.serverless_pauses(4);
        let resumes = g.serverless_resumes(4);
        assert_eq!(pauses.len(), 4 * 7 * 24);
        // Overnight (03:00) pauses outnumber mid-afternoon pauses.
        let mean_at = |obs: &[HourlyObservation], hour: u32| {
            let vals: Vec<f64> = obs
                .iter()
                .filter(|o| o.time.hour_of_day() == hour)
                .map(|o| o.value)
                .collect();
            describe::mean(&vals)
        };
        assert!(mean_at(&pauses, 3) > mean_at(&pauses, 14));
        // Resumes peak near the configured resume hour, not at 14:00.
        assert!(mean_at(&resumes, 8) > mean_at(&resumes, 20));
        // No serverless profile ⇒ no streams.
        assert!(workload().serverless_pauses(1).is_empty());
    }

    #[test]
    fn etl_season_modulates_disk_growth() {
        let mut profile = WorkloadProfile::baseline(RegionProfile::region1());
        profile.etl = Some(EtlSeason {
            amplitude: 0.5,
            period_days: 4.0,
        });
        let g = WorkloadGenerator::new(7, profile);
        // Quarter of the season (day 1 of 4) sits at the sinusoid peak.
        let peak = g.season_multiplier(SimTime::from_secs(86_400));
        let trough = g.season_multiplier(SimTime::from_secs(3 * 86_400));
        assert!(peak > 1.4 && trough < 0.6, "peak {peak} trough {trough}");
        let trace = g.seasonal_disk_trace(0, 2000);
        assert_eq!(trace.deltas.len(), 2000);
        assert_eq!(trace.period_secs, 1200);
        // Season off ⇒ multiplier pinned at 1.
        let flat = workload().season_multiplier(SimTime::from_secs(86_400));
        assert!((flat - 1.0).abs() < 1e-12);
    }
}
