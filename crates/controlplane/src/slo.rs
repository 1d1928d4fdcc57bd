//! Service Level Objectives and pricing.
//!
//! §2: SLOs configure "the amount of compute units (cores) or the amount
//! of DRAM memory available to the SQL process", differ per edition, and
//! local-store editions come "at higher cost (and revenue) due to local
//! SSD and replication". §5.1 models revenue as SLO price × lifetime plus
//! storage price × size × lifetime. The dollar figures below are modeled
//! constants in the spirit of the public Azure price list the paper cites
//! (\[9\]); only their *relative* magnitudes matter for the study.

use toto_spec::EditionKind;

/// One purchasable service level objective.
#[derive(Clone, Debug, PartialEq)]
pub struct Slo {
    /// Catalog name, e.g. `GP_4` or `BC_8`.
    pub name: String,
    /// Edition group.
    pub edition: EditionKind,
    /// Reserved vcores. This is the CPU reservation the PLB accounts.
    pub vcores: u32,
    /// Memory available to the SQL process, GB.
    pub memory_gb: f64,
    /// Maximum data size, GB (local-store SLOs have high caps that can
    /// "consume a significant fraction of a single machine", §2).
    pub max_data_gb: f64,
    /// Modeled compute price, $/hour for the whole instance.
    pub compute_price_per_hour: f64,
    /// Modeled storage price, $/GB/hour.
    pub storage_price_per_gb_hour: f64,
}

impl Slo {
    /// Replicas the orchestrator must place for this SLO.
    pub fn replica_count(&self) -> u32 {
        self.edition.replica_count()
    }

    /// Total cores reserved across all replicas.
    pub fn total_reserved_cores(&self) -> f64 {
        (self.vcores * self.replica_count()) as f64
    }
}

/// The SLO catalog for one hardware generation.
#[derive(Clone, Debug, Default)]
pub struct SloCatalog {
    slos: Vec<Slo>,
}

impl SloCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gen5 catalog used by the experiments. Compute prices follow
    /// the public per-core rates (GP ≈ $0.09/core/h, BC ≈ $0.24/core/h);
    /// storage at GP ≈ $0.115/GB/month and BC ≈ $0.25/GB/month, converted
    /// to hours (÷ 730).
    pub fn gen5() -> Self {
        let mut catalog = SloCatalog::new();
        let gp_core_hour = 0.09;
        let bc_core_hour = 0.24;
        let gp_gb_hour = 0.115 / 730.0;
        let bc_gb_hour = 0.25 / 730.0;
        for &cores in &[2u32, 4, 8, 16, 24] {
            catalog.register(Slo {
                name: format!("GP_{cores}"),
                edition: EditionKind::StandardGp,
                vcores: cores,
                memory_gb: cores as f64 * 5.1,
                max_data_gb: 4096.0,
                compute_price_per_hour: gp_core_hour * cores as f64,
                storage_price_per_gb_hour: gp_gb_hour,
            });
        }
        for &cores in &[2u32, 4, 8, 16, 24] {
            catalog.register(Slo {
                name: format!("BC_{cores}"),
                edition: EditionKind::PremiumBc,
                vcores: cores,
                memory_gb: cores as f64 * 5.1,
                // BC max data: 1 TB on small SLOs, up to 4 TB on large ones
                // ("a high maximum allowable capacity which consumes a
                // significant fraction of a single machine", §2).
                max_data_gb: match cores {
                    2 | 4 => 1024.0,
                    8 => 2048.0,
                    _ => 4096.0,
                },
                compute_price_per_hour: bc_core_hour * cores as f64,
                storage_price_per_gb_hour: bc_gb_hour,
            });
        }
        catalog
    }

    /// Add an SLO; returns its index. Panics on duplicate names.
    pub fn register(&mut self, slo: Slo) -> usize {
        assert!(
            self.slos.iter().all(|s| s.name != slo.name),
            "duplicate SLO '{}'",
            slo.name
        );
        self.slos.push(slo);
        self.slos.len() - 1
    }

    /// All SLOs.
    pub fn slos(&self) -> &[Slo] {
        &self.slos
    }

    /// Number of SLOs.
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Lookup by index.
    pub fn get(&self, index: usize) -> Option<&Slo> {
        self.slos.get(index)
    }

    /// Lookup by name.
    pub fn by_name(&self, name: &str) -> Option<(usize, &Slo)> {
        self.slos.iter().enumerate().find(|(_, s)| s.name == name)
    }

    /// SLOs of one edition, `(index, slo)` pairs.
    pub fn of_edition(&self, edition: EditionKind) -> impl Iterator<Item = (usize, &Slo)> {
        self.slos
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.edition == edition)
    }
}

/// Encode `(edition, slo_index)` into the opaque fabric service tag.
pub fn encode_tag(edition: EditionKind, slo_index: usize) -> u64 {
    ((edition.index() as u64) << 32) | slo_index as u64
}

/// Decode a fabric service tag back into `(edition, slo_index)`.
pub fn decode_tag(tag: u64) -> (EditionKind, usize) {
    let edition = if (tag >> 32) & 1 == 0 {
        EditionKind::StandardGp
    } else {
        EditionKind::PremiumBc
    };
    (edition, (tag & 0xFFFF_FFFF) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen5_catalog_has_both_editions() {
        let c = SloCatalog::gen5();
        assert_eq!(c.len(), 10);
        assert_eq!(c.of_edition(EditionKind::StandardGp).count(), 5);
        assert_eq!(c.of_edition(EditionKind::PremiumBc).count(), 5);
    }

    #[test]
    fn bc_is_pricier_and_replicated() {
        let c = SloCatalog::gen5();
        let (_, gp4) = c.by_name("GP_4").unwrap();
        let (_, bc4) = c.by_name("BC_4").unwrap();
        assert!(bc4.compute_price_per_hour > 2.0 * gp4.compute_price_per_hour);
        assert!(bc4.storage_price_per_gb_hour > gp4.storage_price_per_gb_hour);
        assert_eq!(gp4.total_reserved_cores(), 4.0);
        // Replicated x4: a 24-core BC database reserves 96 cores total,
        // the paper's §5.3.1 example.
        let (_, bc24) = c.by_name("BC_24").unwrap();
        assert_eq!(bc24.total_reserved_cores(), 96.0);
    }

    #[test]
    fn tag_roundtrip() {
        let c = SloCatalog::gen5();
        for (i, slo) in c.slos().iter().enumerate() {
            let tag = encode_tag(slo.edition, i);
            assert_eq!(decode_tag(tag), (slo.edition, i));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate SLO")]
    fn duplicate_slo_panics() {
        let mut c = SloCatalog::gen5();
        let dup = c.get(0).unwrap().clone();
        c.register(dup);
    }

    #[test]
    fn lookup_by_name_and_index_agree() {
        let c = SloCatalog::gen5();
        let (i, slo) = c.by_name("BC_8").unwrap();
        assert_eq!(c.get(i).unwrap(), slo);
        assert!(c.by_name("HS_2").is_none());
        assert!(c.get(999).is_none());
    }
}
