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
//! Layout under the store root (conventionally `results/`):
//!
//! ```text
//! results/
//!   runs/<fleet>/manifest.json        (FleetManifest)
//!   runs/<fleet>/<job-label>.json     (RunRecord, one per job)
//! ```
//!
//! Every record and manifest carries [`RUN_SCHEMA_VERSION`]; loading a
//! record with a different version is an error, not a silent reinterpretation.

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

    /// Deserialize, rejecting unknown schema versions.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != RUN_SCHEMA_VERSION {
            return Err(format!(
                "run record schema {version} != supported {RUN_SCHEMA_VERSION}"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key}"))
        };
        let uint_field = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing uint field {key}"))
        };
        let kpis_json = json.get("kpis").ok_or("missing kpis")?;
        let revenue_json = json.get("revenue").ok_or("missing revenue")?;
        Ok(RunRecord {
            schema_version: version,
            label: str_field("label")?,
            seed: uint_field(json, "seed")?,
            scenario_xml: str_field("scenario_xml")?,
            kpis: kpis_from_json(kpis_json)?,
            revenue: revenue_from_json(revenue_json)?,
            redirect_count: uint_field(json, "redirect_count")?,
            created_during_run: uint_field(json, "created_during_run")?,
        })
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

/// Parse a KPI summary from the object [`kpis_to_json`] renders.
pub fn kpis_from_json(json: &Json) -> Result<KpiSummary, String> {
    let uint = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing uint field {key}"))
    };
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key}"))
    };
    Ok(KpiSummary {
        failover_count: uint("failover_count")?,
        failed_over_cores: num("failed_over_cores")?,
        gp_failover_count: uint("gp_failover_count")?,
        bc_failover_count: uint("bc_failover_count")?,
        total_downtime_secs: num("total_downtime_secs")?,
        final_reserved_cores: num("final_reserved_cores")?,
        final_disk_gb: num("final_disk_gb")?,
        creation_redirects: uint("creation_redirects")?,
        throttled_core_intervals: num("throttled_core_intervals")?,
        contended_governance_passes: uint("contended_governance_passes")?,
        kpi_samples: uint("kpi_samples")?,
        node_snapshot_count: uint("node_snapshot_count")?,
        bootstrap_placement_failures: uint("bootstrap_placement_failures")?,
    })
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

/// Parse a revenue breakdown from the object [`revenue_to_json`]
/// renders (the derived `adjusted` field is ignored).
pub fn revenue_from_json(json: &Json) -> Result<RevenueBreakdown, String> {
    let num = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {key}"))
    };
    Ok(RevenueBreakdown {
        compute: num("compute")?,
        storage: num("storage")?,
        penalty: num("penalty")?,
    })
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

    /// Deserialize, rejecting unknown schema versions.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != RUN_SCHEMA_VERSION {
            return Err(format!(
                "manifest schema {version} != supported {RUN_SCHEMA_VERSION}"
            ));
        }
        let jobs = json
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("missing jobs")?
            .iter()
            .map(|j| {
                Ok(ManifestJob {
                    label: j
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or("missing job label")?
                        .to_string(),
                    seed: j
                        .get("seed")
                        .and_then(Json::as_u64)
                        .ok_or("missing job seed")?,
                    status: j
                        .get("status")
                        .and_then(Json::as_str)
                        .ok_or("missing job status")?
                        .to_string(),
                    wall_secs: j
                        .get("wall_secs")
                        .and_then(Json::as_f64)
                        .ok_or("missing job wall_secs")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FleetManifest {
            schema_version: version,
            fleet: json
                .get("fleet")
                .and_then(Json::as_str)
                .ok_or("missing fleet")?
                .to_string(),
            root_seed: json
                .get("root_seed")
                .and_then(Json::as_u64)
                .ok_or("missing root_seed")?,
            threads: json
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("missing threads")?,
            wall_secs: json
                .get("wall_secs")
                .and_then(Json::as_f64)
                .ok_or("missing wall_secs")?,
            jobs,
        })
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

    /// Load one job's chaos-report sidecar bytes.
    pub fn chaos_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.chaos.json")))
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

    /// Load one job's record from a saved fleet.
    pub fn load_record(&self, fleet: &str, label: &str) -> io::Result<RunRecord> {
        let path = self.fleet_dir(fleet).join(format!("{label}.json"));
        let text = fs::read_to_string(&path)?;
        let json = Json::parse(&text).map_err(invalid)?;
        RunRecord::from_json(&json).map_err(invalid)
    }

    /// Load a saved fleet's manifest.
    pub fn load_manifest(&self, fleet: &str) -> io::Result<FleetManifest> {
        let text = fs::read_to_string(self.fleet_dir(fleet).join("manifest.json"))?;
        let json = Json::parse(&text).map_err(invalid)?;
        FleetManifest::from_json(&json).map_err(invalid)
    }

    /// Raw bytes of one job's record (for byte-identity comparisons).
    pub fn record_bytes(&self, fleet: &str, label: &str) -> io::Result<Vec<u8>> {
        fs::read(self.fleet_dir(fleet).join(format!("{label}.json")))
    }
}

fn invalid(message: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
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
    fn record_round_trips_through_json() {
        let record = sample_record("density-120");
        let back = RunRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
        // Byte-stable: render(parse(render(x))) == render(x).
        assert_eq!(back.to_json().render(), record.to_json().render());
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut record = sample_record("x");
        record.schema_version = RUN_SCHEMA_VERSION + 1;
        let err = RunRecord::from_json(&record.to_json()).unwrap_err();
        assert!(err.contains("schema"), "got: {err}");
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

        assert_eq!(store.load_manifest("density-study").unwrap(), manifest);
        assert_eq!(
            store.load_record("density-study", "density-120").unwrap(),
            records[0]
        );

        let _ = fs::remove_dir_all(&dir);
    }
}
