//! The persistent run-artifact store.
//!
//! Two kinds of artifact, with a deliberate split:
//!
//! * [`RunRecord`] — one per job, **deterministic**: label, seed, the
//!   scenario XML, KPI summary, revenue. No wall-clock, no hostnames, no
//!   thread counts. Records from a 1-thread run and a 16-thread run of
//!   the same plan are byte-identical, and that property is what the
//!   determinism integration test asserts.
//! * [`FleetManifest`] — one per fleet, **observational**: thread count,
//!   wall-clock per job and total, job statuses. This is where timing
//!   lives, so it never contaminates the records.
//!
//! Layout under the store root (conventionally `results/`), written for
//! an executed fleet by [`RunStore::save_run`]:
//!
//! ```text
//! results/
//!   runs/<fleet>/manifest.json          (FleetManifest, every job)
//!   runs/<fleet>/<job-label>.json       (RunRecord, one per completed job)
//!   runs/<fleet>/<job-label>.trace      (trace sidecar, traced jobs)
//!   runs/<fleet>/<job-label>.chaos.json (chaos sidecar, chaos jobs)
//! ```
//!
//! Every record and manifest carries [`RUN_SCHEMA_VERSION`]. The store
//! writes artifacts and reads back only their bytes: determinism checks
//! compare bytes, and a tool that reads an artifact parses it with
//! [`Json::parse`] and checks the version itself.

use crate::executor::FleetReport;
use crate::job::JobOutput;
use crate::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use toto::experiment::ExperimentResult;
use toto_telemetry::kpi::KpiSummary;
use toto_telemetry::revenue::RevenueBreakdown;

/// Current artifact schema version. Bump on any field change (version 2:
/// objects serialize with canonically sorted keys; version 3: kpis gained
/// `bootstrap_placement_failures`, and jobs may carry a `<label>.trace`
/// flight-recorder sidecar).
pub const RUN_SCHEMA_VERSION: u64 = 3;

/// The deterministic per-job artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Schema version this record was written with.
    pub schema_version: u64,
    /// Job label (also the file stem).
    pub label: String,
    /// The job's derived seed.
    pub seed: u64,
    /// Full scenario, as the canonical XML the spec crate round-trips.
    pub scenario_xml: String,
    /// Flat telemetry digest.
    pub kpis: KpiSummary,
    /// Modeled revenue split (§5.1).
    pub revenue: RevenueBreakdown,
    /// Creation redirects during the run.
    pub redirect_count: u64,
    /// Databases the Population Manager created during the run.
    pub created_during_run: u64,
}

impl RunRecord {
    /// Digest one experiment result into a record.
    pub fn from_result(label: &str, seed: u64, result: &ExperimentResult) -> Self {
        RunRecord {
            schema_version: RUN_SCHEMA_VERSION,
            label: label.to_string(),
            seed,
            scenario_xml: result.scenario.to_xml_string(),
            kpis: result.telemetry.summarize(),
            revenue: result.revenue,
            redirect_count: result.redirect_count as u64,
            created_during_run: result.created_during_run,
        }
    }

    /// One record per completed job of an executed fleet, submission
    /// order.
    pub fn from_report(report: &FleetReport<JobOutput>) -> Vec<Self> {
        report
            .completed()
            .map(|(job, out)| RunRecord::from_result(&job.label, job.seed, &out.result))
            .collect()
    }

    /// Serialize. Field order is fixed, so equal records render to equal
    /// bytes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(self.schema_version)),
            ("label", Json::Str(self.label.clone())),
            ("seed", Json::Uint(self.seed)),
            ("scenario_xml", Json::Str(self.scenario_xml.clone())),
            ("kpis", kpis_to_json(&self.kpis)),
            ("revenue", revenue_to_json(&self.revenue)),
            ("redirect_count", Json::Uint(self.redirect_count)),
            ("created_during_run", Json::Uint(self.created_during_run)),
        ])
    }
}

/// Render a KPI summary as the fixed-order JSON object every run-record
/// artifact embeds (region records reuse this shape for per-ring and
/// aggregated summaries).
pub fn kpis_to_json(k: &KpiSummary) -> Json {
    Json::obj(vec![
        ("failover_count", Json::Uint(k.failover_count)),
        ("failed_over_cores", Json::Num(k.failed_over_cores)),
        ("gp_failover_count", Json::Uint(k.gp_failover_count)),
        ("bc_failover_count", Json::Uint(k.bc_failover_count)),
        ("total_downtime_secs", Json::Num(k.total_downtime_secs)),
        ("final_reserved_cores", Json::Num(k.final_reserved_cores)),
        ("final_disk_gb", Json::Num(k.final_disk_gb)),
        ("creation_redirects", Json::Uint(k.creation_redirects)),
        (
            "throttled_core_intervals",
            Json::Num(k.throttled_core_intervals),
        ),
        (
            "contended_governance_passes",
            Json::Uint(k.contended_governance_passes),
        ),
        ("kpi_samples", Json::Uint(k.kpi_samples)),
        ("node_snapshot_count", Json::Uint(k.node_snapshot_count)),
        (
            "bootstrap_placement_failures",
            Json::Uint(k.bootstrap_placement_failures),
        ),
    ])
}

/// Render a revenue breakdown (with its derived `adjusted` total) as the
/// fixed-order JSON object run records embed.
pub fn revenue_to_json(r: &RevenueBreakdown) -> Json {
    Json::obj(vec![
        ("compute", Json::Num(r.compute)),
        ("storage", Json::Num(r.storage)),
        ("penalty", Json::Num(r.penalty)),
        ("adjusted", Json::Num(r.adjusted())),
    ])
}

/// One job's entry in a fleet manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestJob {
    /// Job label.
    pub label: String,
    /// Job seed.
    pub seed: u64,
    /// `completed` / `failed` / `cancelled`.
    pub status: String,
    /// Wall-clock the job took, seconds.
    pub wall_secs: f64,
}

/// The observational per-fleet artifact: where timing and topology live.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetManifest {
    /// Schema version.
    pub schema_version: u64,
    /// Fleet name (the directory under `runs/`).
    pub fleet: String,
    /// Root seed the plan derived all job seeds from.
    pub root_seed: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Total fleet wall-clock, seconds.
    pub wall_secs: f64,
    /// Per-job status and timing, submission order.
    pub jobs: Vec<ManifestJob>,
}

impl FleetManifest {
    /// The manifest of an executed fleet: every job's status and
    /// wall-clock, submission order.
    pub fn from_report<O>(fleet: &str, root_seed: u64, report: &FleetReport<O>) -> Self {
        FleetManifest {
            schema_version: RUN_SCHEMA_VERSION,
            fleet: fleet.to_string(),
            root_seed,
            threads: report.threads as u64,
            wall_secs: report.wall_secs,
            jobs: report
                .jobs
                .iter()
                .map(|j| ManifestJob {
                    label: j.label.clone(),
                    seed: j.seed,
                    status: j.outcome.status().to_string(),
                    wall_secs: j.wall_secs,
                })
                .collect(),
        }
    }

    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(self.schema_version)),
            ("fleet", Json::Str(self.fleet.clone())),
            ("root_seed", Json::Uint(self.root_seed)),
            ("threads", Json::Uint(self.threads)),
            ("wall_secs", Json::Num(self.wall_secs)),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            Json::obj(vec![
                                ("label", Json::Str(j.label.clone())),
                                ("seed", Json::Uint(j.seed)),
                                ("status", Json::Str(j.status.clone())),
                                ("wall_secs", Json::Num(j.wall_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Filesystem-backed artifact store rooted at a results directory.
#[derive(Clone, Debug)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// A store rooted at `root` (conventionally `results/`). Nothing is
    /// created until the first save.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RunStore { root: root.into() }
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn fleet_dir(&self, fleet: &str) -> PathBuf {
        self.root.join("runs").join(fleet)
    }

    /// Persist a fleet: its manifest plus one record file per record.
    /// Returns the fleet directory.
    pub fn save_fleet(
        &self,
        manifest: &FleetManifest,
        records: &[RunRecord],
    ) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(&manifest.fleet);
        fs::create_dir_all(&dir)?;
        fs::write(dir.join("manifest.json"), manifest.to_json().render())?;
        for record in records {
            fs::write(
                dir.join(format!("{}.json", record.label)),
                record.to_json().render(),
            )?;
        }
        Ok(dir)
    }

    /// Persist an executed fleet: the manifest, then for each completed
    /// job in submission order its run record and its trace and chaos
    /// sidecars when it produced them. Failed and cancelled jobs appear
    /// only in the manifest. Returns the fleet directory.
    pub fn save_run(
        &self,
        fleet: &str,
        root_seed: u64,
        report: &FleetReport<JobOutput>,
    ) -> io::Result<PathBuf> {
        let manifest = FleetManifest::from_report(fleet, root_seed, report);
        let dir = self.save_fleet(&manifest, &RunRecord::from_report(report))?;
        for (job, out) in report.completed() {
            if let Some(trace) = &out.trace {
                self.save_trace(fleet, &job.label, trace)?;
            }
            if let Some(chaos) = &out.result.chaos {
                self.save_chaos(fleet, &job.label, &chaos.to_json())?;
            }
        }
        Ok(dir)
    }

    /// Write one job's encoded trace stream as a `<label>.trace` sidecar
    /// next to its run record. Traces are opt-in (see `FleetJob::trace`)
    /// and, like records, are pure functions of the job descriptor — two
    /// runs of the same job write byte-identical sidecars.
    pub fn save_trace(&self, fleet: &str, label: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(fleet);
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{label}.trace"));
        fs::write(&path, bytes)?;
        Ok(path)
    }

    /// Load one job's trace sidecar bytes (decode with `toto-trace`).
    pub fn trace_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.trace")))
    }

    /// Write one job's chaos report as a `<label>.chaos.json` sidecar.
    /// Like the record, the report is a pure function of (spec, seed);
    /// chaos fleets use their own fleet name so pinned plain-run
    /// artifacts are never touched.
    pub fn save_chaos(&self, fleet: &str, label: &str, json: &str) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(fleet);
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{label}.chaos.json"));
        fs::write(&path, json)?;
        Ok(path)
    }

    /// Write an arbitrary named artifact into a fleet directory (region
    /// run records and the region control-plane trace use this). The
    /// file name is used verbatim; callers own the naming convention.
    pub fn save_artifact(&self, fleet: &str, file_name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        let dir = self.fleet_dir(fleet);
        fs::create_dir_all(&dir)?;
        let path = dir.join(file_name);
        fs::write(&path, bytes)?;
        Ok(path)
    }

    /// Load a named artifact's bytes from a fleet directory.
    pub fn artifact_bytes(&self, fleet: &str, file_name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(file_name))
    }

    /// Raw bytes of one job's record (for byte-identity comparisons).
    pub fn record_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(label: &str) -> RunRecord {
        RunRecord {
            schema_version: RUN_SCHEMA_VERSION,
            label: label.to_string(),
            seed: 0xDEAD_BEEF_CAFE_F00D,
            scenario_xml: "<Scenario name=\"t\"/>".to_string(),
            kpis: KpiSummary {
                failover_count: 7,
                failed_over_cores: 28.5,
                gp_failover_count: 5,
                bc_failover_count: 2,
                total_downtime_secs: 310.25,
                final_reserved_cores: 812.0,
                final_disk_gb: 55_000.125,
                creation_redirects: 3,
                throttled_core_intervals: 19.75,
                contended_governance_passes: 11,
                kpi_samples: 144,
                node_snapshot_count: 2016,
                bootstrap_placement_failures: 0,
            },
            revenue: RevenueBreakdown {
                compute: 100.5,
                storage: 20.25,
                penalty: 1.125,
            },
            redirect_count: 3,
            created_during_run: 42,
        }
    }

    #[test]
    fn store_saves_and_loads_fleets() {
        let dir =
            std::env::temp_dir().join(format!("toto-fleet-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RunStore::new(&dir);
        let manifest = FleetManifest {
            schema_version: RUN_SCHEMA_VERSION,
            fleet: "density-study".to_string(),
            root_seed: 42,
            threads: 8,
            wall_secs: 12.5,
            jobs: vec![ManifestJob {
                label: "density-120".to_string(),
                seed: 0xDEAD_BEEF_CAFE_F00D,
                status: "completed".to_string(),
                wall_secs: 12.5,
            }],
        };
        let records = vec![sample_record("density-120")];
        store.save_fleet(&manifest, &records).unwrap();

        assert_eq!(
            store
                .artifact_bytes("density-study", "manifest.json")
                .unwrap(),
            manifest.to_json().render().into_bytes()
        );
        assert_eq!(
            store.record_bytes("density-study", "density-120").unwrap(),
            records[0].to_json().render().into_bytes()
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_run_lists_a_failed_job_but_stores_only_completed_ones() {
        use crate::executor::{JobOutcome, JobReport};

        let dir =
            std::env::temp_dir().join(format!("toto-fleet-save-run-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let plan = crate::job::density_fleet(42, &[100, 110, 120], 2);
        let completed = |index: usize, trace: Option<&[u8]>, chaos: bool| {
            let job = &plan.jobs()[index];
            let mut result = job.execute();
            if chaos {
                result.chaos = Some(toto_chaos::ChaosReport::default());
            }
            JobReport {
                index,
                label: job.label.clone(),
                seed: job.seed,
                outcome: JobOutcome::Completed(JobOutput {
                    result,
                    trace: trace.map(<[u8]>::to_vec),
                }),
                wall_secs: 0.5,
            }
        };
        let failed = JobReport {
            index: 1,
            label: plan.jobs()[1].label.clone(),
            seed: plan.jobs()[1].seed,
            outcome: JobOutcome::Failed("boom".to_string()),
            wall_secs: 0.25,
        };
        let report = FleetReport {
            jobs: vec![
                completed(0, Some(b"trace-0"), true),
                failed,
                completed(2, None, false),
            ],
            threads: 2,
            wall_secs: 1.0,
        };
        let store = RunStore::new(&dir);
        let fleet_dir = store.save_run("mixed", 42, &report).unwrap();
        assert_eq!(fleet_dir, dir.join("runs").join("mixed"));

        let manifest = FleetManifest::from_report("mixed", 42, &report);
        let statuses: Vec<&str> = manifest.jobs.iter().map(|j| j.status.as_str()).collect();
        assert_eq!(statuses, ["completed", "failed", "completed"]);
        assert_eq!(
            store.artifact_bytes("mixed", "manifest.json").unwrap(),
            manifest.to_json().render().into_bytes()
        );

        let records = RunRecord::from_report(&report);
        let labels: Vec<&str> = records.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["density-100", "density-120"]);
        for record in &records {
            assert_eq!(
                store.record_bytes("mixed", &record.label).unwrap(),
                record.to_json().render().into_bytes()
            );
        }
        assert_eq!(
            store.trace_bytes("mixed", "density-100").unwrap(),
            b"trace-0"
        );
        assert_eq!(
            store
                .artifact_bytes("mixed", "density-100.chaos.json")
                .unwrap(),
            toto_chaos::ChaosReport::default().to_json().into_bytes()
        );

        let mut files: Vec<String> = fs::read_dir(&fleet_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            [
                "density-100.chaos.json",
                "density-100.json",
                "density-100.trace",
                "density-120.json",
                "manifest.json",
            ],
            "nothing is written for the failed job"
        );

        let _ = fs::remove_dir_all(&dir);
    }
}
