//! Modeled adjusted revenue (§5.1).
//!
//! "The modeled revenue of each database (the price the customer paid)
//! was determined by its SLO … the compute revenue was calculated by
//! multiplying the price of database instance by the lifetime of the
//! database. The storage revenue was calculated by multiplying the size
//! of the data by the price of storage and the lifetime … we assumed that
//! if a database was down 0.01 % or more of its lifetime, service credits
//! based on the SLA would be paid back to the customer and subtracted
//! from the revenue."

use toto_simcore::time::SimTime;
use toto_spec::EditionKind;

/// Billing inputs for one database over one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct BillingRecord {
    /// Raw service id.
    pub service: u64,
    /// Edition (BC "generate\[s\] more revenue than Standard/GP").
    pub edition: EditionKind,
    /// SLO compute price, $/hour.
    pub compute_price_per_hour: f64,
    /// Storage price, $/GB/hour.
    pub storage_price_per_gb_hour: f64,
    /// Creation time (clamped to experiment start by the caller).
    pub created_at: SimTime,
    /// Drop time; `None` = still alive at experiment end.
    pub dropped_at: Option<SimTime>,
    /// Average data size over the billed lifetime, GB.
    pub avg_data_gb: f64,
    /// Total unavailability inflicted during the lifetime, seconds.
    pub downtime_secs: f64,
}

/// SLA parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct RevenueParams {
    /// Downtime fraction at which credits start (paper: 0.0001 = 0.01 %,
    /// the complement of the 99.99 % SLA).
    pub sla_downtime_threshold: f64,
    /// Credit tiers: `(availability floor, credit fraction)` — if
    /// availability falls below the floor, the fraction of the bill is
    /// credited back. Evaluated from most to least severe.
    pub credit_tiers: Vec<(f64, f64)>,
    /// The billing window the credit fraction applies to, in hours. Azure
    /// service credits are a percentage of the *monthly* bill (730 h),
    /// even when the measured lifetime is shorter — a 6-day experiment
    /// therefore pays back roughly 5x the in-window share.
    pub credit_window_hours: f64,
}

impl Default for RevenueParams {
    /// The Azure SQL DB SLA the paper cites \[55\]: 99.99 % with credit
    /// tiers of 10 % / 25 % / 100 % below 99.99 % / 99 % / 95 %.
    fn default() -> Self {
        RevenueParams {
            sla_downtime_threshold: 1.0 - 0.9999,
            credit_tiers: vec![(0.95, 1.0), (0.99, 0.25), (0.9999, 0.10)],
            credit_window_hours: 730.0,
        }
    }
}

/// Revenue breakdown for one database or an aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RevenueBreakdown {
    /// Compute revenue, $.
    pub compute: f64,
    /// Storage revenue, $.
    pub storage: f64,
    /// SLA service credits paid back, $.
    pub penalty: f64,
}

impl RevenueBreakdown {
    /// Adjusted revenue: compute + storage − penalty.
    pub fn adjusted(&self) -> f64 {
        self.compute + self.storage - self.penalty
    }

    /// Accumulate another breakdown.
    pub fn add(&mut self, other: &RevenueBreakdown) {
        self.compute += other.compute;
        self.storage += other.storage;
        self.penalty += other.penalty;
    }
}

impl RevenueParams {
    /// The credit fraction owed at a given availability.
    pub fn credit_fraction(&self, availability: f64) -> f64 {
        let mut owed = 0.0f64;
        for &(floor, fraction) in &self.credit_tiers {
            if availability < floor {
                owed = owed.max(fraction);
            }
        }
        owed
    }

    /// Score one billing record against the experiment window ending at
    /// `experiment_end`.
    pub fn score(&self, record: &BillingRecord, experiment_end: SimTime) -> RevenueBreakdown {
        let end = record
            .dropped_at
            .unwrap_or(experiment_end)
            .min(experiment_end);
        let lifetime_secs = end.saturating_since(record.created_at).as_secs() as f64;
        if lifetime_secs <= 0.0 {
            return RevenueBreakdown::default();
        }
        let lifetime_hours = lifetime_secs / 3600.0;
        let compute = record.compute_price_per_hour * lifetime_hours;
        let storage =
            record.avg_data_gb.max(0.0) * record.storage_price_per_gb_hour * lifetime_hours;
        let downtime_fraction = (record.downtime_secs / lifetime_secs).clamp(0.0, 1.0);
        let penalty = if downtime_fraction >= self.sla_downtime_threshold {
            let availability = 1.0 - downtime_fraction;
            // Credits are a fraction of the *monthly* bill. A database
            // still alive at the end of the window keeps accruing its
            // monthly bill, so the credit scales up to the credit window;
            // a dropped database's monthly invoice is just what it ever
            // paid, so its credit is capped at the actual bill.
            let window_scale = if record.dropped_at.is_some_and(|d| d < experiment_end) {
                1.0
            } else {
                (self.credit_window_hours / lifetime_hours).max(1.0)
            };
            (compute + storage) * window_scale * self.credit_fraction(availability)
        } else {
            0.0
        };
        RevenueBreakdown {
            compute,
            storage,
            penalty,
        }
    }

    /// Score and sum a whole population.
    pub fn score_all<'a>(
        &self,
        records: impl IntoIterator<Item = &'a BillingRecord>,
        experiment_end: SimTime,
    ) -> RevenueBreakdown {
        let mut total = RevenueBreakdown::default();
        for r in records {
            total.add(&self.score(r, experiment_end));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toto_simcore::time::SimDuration;

    fn record(downtime_secs: f64, lifetime_hours: u64) -> BillingRecord {
        BillingRecord {
            service: 1,
            edition: EditionKind::StandardGp,
            compute_price_per_hour: 0.36,
            storage_price_per_gb_hour: 0.000_2,
            created_at: SimTime::ZERO,
            dropped_at: Some(SimTime::ZERO + SimDuration::from_hours(lifetime_hours)),
            avg_data_gb: 100.0,
            downtime_secs,
        }
    }

    #[test]
    fn revenue_without_downtime_has_no_penalty() {
        let params = RevenueParams::default();
        let b = params.score(&record(0.0, 100), SimTime::from_secs(u64::MAX / 2));
        assert!((b.compute - 36.0).abs() < 1e-9);
        assert!((b.storage - 2.0).abs() < 1e-9);
        assert_eq!(b.penalty, 0.0);
        assert!((b.adjusted() - 38.0).abs() < 1e-9);
    }

    #[test]
    fn sub_threshold_downtime_is_free() {
        // 100 h = 360 000 s lifetime; threshold 0.01 % = 36 s.
        let params = RevenueParams::default();
        let b = params.score(&record(35.0, 100), SimTime::from_secs(u64::MAX / 2));
        assert_eq!(b.penalty, 0.0);
    }

    #[test]
    fn downtime_beyond_threshold_credits_ten_percent() {
        let params = RevenueParams::default();
        // The record is dropped before the window end, so the credit is
        // capped at the actual bill: 10% of $38.
        let b = params.score(&record(40.0, 100), SimTime::from_secs(u64::MAX / 2));
        assert!((b.penalty - 0.10 * 38.0).abs() < 1e-9);
        // A record still alive at the window end scales to the credit
        // window (the monthly bill keeps accruing): 10% of 7.3x the bill.
        let mut alive = record(40.0, 100);
        alive.dropped_at = None;
        let end = SimTime::ZERO + SimDuration::from_hours(100);
        let b = params.score(&alive, end);
        assert!((b.penalty - 0.10 * 38.0 * 7.3).abs() < 1e-9);
    }

    #[test]
    fn deep_outage_escalates_tiers() {
        let params = RevenueParams::default();
        // 2% downtime -> availability 98% -> 25% credit (dropped: actual bill).
        let lifetime = 100.0 * 3600.0;
        let b = params.score(
            &record(0.02 * lifetime, 100),
            SimTime::from_secs(u64::MAX / 2),
        );
        assert!((b.penalty - 0.25 * 38.0).abs() < 1e-9);
        // 10% downtime -> availability 90% -> full credit of the bill.
        let b = params.score(
            &record(0.10 * lifetime, 100),
            SimTime::from_secs(u64::MAX / 2),
        );
        assert!((b.penalty - 1.0 * 38.0).abs() < 1e-9);
        // A database still alive at window end scales to the monthly bill.
        let mut alive = record(40.0, 100);
        alive.dropped_at = None;
        let end = SimTime::ZERO + SimDuration::from_hours(100);
        let b = params.score(&alive, end);
        assert!((b.penalty - 0.10 * 38.0 * 7.3).abs() < 1e-9);
    }

    #[test]
    fn lifetime_clamped_to_experiment_window() {
        let params = RevenueParams::default();
        let mut r = record(0.0, 1000);
        r.dropped_at = None; // alive at end
        let end = SimTime::ZERO + SimDuration::from_hours(10);
        let b = params.score(&r, end);
        assert!((b.compute - 3.6).abs() < 1e-9);
    }

    #[test]
    fn zero_lifetime_is_zero_revenue() {
        let params = RevenueParams::default();
        let mut r = record(0.0, 0);
        r.dropped_at = Some(SimTime::ZERO);
        assert_eq!(
            params.score(&r, SimTime::from_secs(100)),
            RevenueBreakdown::default()
        );
    }

    #[test]
    fn score_all_sums() {
        let params = RevenueParams::default();
        let records = vec![record(0.0, 100), record(40.0, 100)];
        let end = SimTime::from_secs(u64::MAX / 2);
        let total = params.score_all(&records, end);
        let a = params.score(&records[0], end);
        let b = params.score(&records[1], end);
        assert!((total.adjusted() - a.adjusted() - b.adjusted()).abs() < 1e-9);
        assert!(total.penalty > 0.0);
    }

    #[test]
    fn credit_fraction_tiers() {
        let p = RevenueParams::default();
        assert_eq!(p.credit_fraction(0.99995), 0.0);
        assert_eq!(p.credit_fraction(0.999), 0.10);
        assert_eq!(p.credit_fraction(0.98), 0.25);
        assert_eq!(p.credit_fraction(0.90), 1.0);
    }

    #[test]
    fn credit_tiers_are_exclusive_at_their_floors() {
        // Tier floors use strict `<`: availability exactly AT a floor is
        // not below it, so each exact edge lands in the milder tier.
        let p = RevenueParams::default();
        assert_eq!(p.credit_fraction(0.9999), 0.0, "exactly 99.99%: no credit");
        assert_eq!(p.credit_fraction(0.99), 0.10, "exactly 99%: the 10% tier");
        assert_eq!(p.credit_fraction(0.95), 0.25, "exactly 95%: the 25% tier");
        // One ulp-ish step below each floor escalates to the next tier.
        assert_eq!(p.credit_fraction(0.9999 - 1e-12), 0.10);
        assert_eq!(p.credit_fraction(0.99 - 1e-12), 0.25);
        assert_eq!(p.credit_fraction(0.95 - 1e-12), 1.0);
    }

    #[test]
    fn score_at_exact_sla_boundaries() {
        let params = RevenueParams::default();
        // 100 h = 360 000 s lifetime. Downtime of exactly 36 s puts the
        // downtime fraction exactly at the 0.01 % threshold (>= fires)
        // but availability exactly at 99.99 % — at the floor, not below
        // it, so the owed credit is still zero.
        let b = params.score(&record(36.0, 100), SimTime::from_secs(u64::MAX / 2));
        assert_eq!(b.penalty, 0.0);
        // Exactly 1 % downtime: availability exactly 99 % -> 10 % tier
        // (dropped before window end, so capped at the actual bill).
        let b = params.score(
            &record(0.01 * 360_000.0, 100),
            SimTime::from_secs(u64::MAX / 2),
        );
        assert!((b.penalty - 0.10 * 38.0).abs() < 1e-9);
        // Exactly 5 % downtime: availability exactly 95 % -> 25 % tier,
        // not the full-credit tier.
        let b = params.score(
            &record(0.05 * 360_000.0, 100),
            SimTime::from_secs(u64::MAX / 2),
        );
        assert!((b.penalty - 0.25 * 38.0).abs() < 1e-9);
    }

    #[test]
    fn zero_lifetime_service_with_downtime_is_still_zero() {
        // A create-then-immediately-dropped database must not divide by
        // its zero lifetime even when it somehow accrued downtime.
        let params = RevenueParams::default();
        let mut r = record(500.0, 0);
        r.dropped_at = Some(SimTime::ZERO);
        let b = params.score(&r, SimTime::from_secs(3600));
        assert_eq!(b, RevenueBreakdown::default());
        assert_eq!(b.adjusted(), 0.0);
    }

    #[test]
    fn service_created_at_experiment_end_is_zero() {
        // Lifetime clamps to the window: a database created at (or after)
        // the end instant has nothing billable and no penalty.
        let params = RevenueParams::default();
        let end = SimTime::from_secs(7200);
        let mut r = record(100.0, 10);
        r.created_at = end;
        r.dropped_at = None;
        assert_eq!(params.score(&r, end), RevenueBreakdown::default());
    }
}
