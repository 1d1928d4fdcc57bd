//! The Naming Service — Service Fabric's highly available metastore.
//!
//! §3.3.1: "Naming Service is a highly available metastore database in
//! Service Fabric. In production today, Azure SQL DB uses it to store
//! metadata about the services that are running in the cluster." Toto uses
//! it twice over: the orchestrator writes the serialized model XML here
//! (re-read by every RgManager every 15 minutes), and §3.3.2 stores the
//! previously reported value of *persisted* metrics here so a newly
//! promoted primary reports the same disk usage as the old one.
//!
//! The simulation keeps it as a versioned key-value store with operation
//! counters (so benches can report naming-service traffic).

use std::collections::BTreeMap;

/// A value plus the version at which it was last written.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    value: String,
    version: u64,
}

/// Operation counters for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamingStats {
    /// Total writes (including overwrites).
    pub writes: u64,
    /// Total reads (hits and misses).
    pub reads: u64,
    /// Total deletes of existing keys.
    pub deletes: u64,
}

/// The simulated Naming Service.
#[derive(Clone, Debug, Default)]
pub struct NamingService {
    entries: BTreeMap<String, Entry>,
    counter: u64,
    stats: NamingStats,
}

impl NamingService {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) a key. Returns the new version.
    ///
    /// Overwrites update the entry in place, reusing the stored key
    /// allocation — persisted-metric state is rewritten every report
    /// period, so the overwrite path is far hotter than first insert.
    pub fn write(&mut self, key: &str, value: impl Into<String>) -> u64 {
        let version = self.bump_write();
        match self.entries.get_mut(key) {
            Some(e) => {
                e.value = value.into();
                e.version = version;
            }
            None => {
                self.entries.insert(
                    key.to_string(),
                    Entry {
                        value: value.into(),
                        version,
                    },
                );
            }
        }
        self.emit_write(key, version);
        version
    }

    /// Write (or overwrite) a key by formatting straight into the stored
    /// buffer. On overwrite neither the key nor the value allocates: the
    /// existing value `String` is cleared and refilled. Counts, versions,
    /// and trace events are identical to [`NamingService::write`].
    pub fn write_with(&mut self, key: &str, fill: impl FnOnce(&mut String)) -> u64 {
        let version = self.bump_write();
        match self.entries.get_mut(key) {
            Some(e) => {
                e.value.clear();
                fill(&mut e.value);
                e.version = version;
            }
            None => {
                let mut value = String::new();
                fill(&mut value);
                self.entries
                    .insert(key.to_string(), Entry { value, version });
            }
        }
        self.emit_write(key, version);
        version
    }

    fn bump_write(&mut self) -> u64 {
        self.counter += 1;
        self.stats.writes += 1;
        self.counter
    }

    fn emit_write(&self, key: &str, version: u64) {
        toto_trace::emit(toto_trace::EventKind::NamingWrite, || {
            toto_trace::EventBody::NamingWrite {
                key: key.to_string(),
                version,
            }
        });
    }

    /// Read a key's value without cloning it. Counts as a read — the
    /// RgManager report path calls this once per persisted-metric report,
    /// which at density 140 is tens of thousands of reads per simulated
    /// hour.
    pub fn get(&mut self, key: &str) -> Option<&str> {
        self.stats.reads += 1;
        self.entries.get(key).map(|e| e.value.as_str())
    }

    /// Read a key's value together with its version, for callers that
    /// only want to re-parse when the blob changed (RgManager's 15-minute
    /// refresh does exactly this). Borrows: the model XML blob runs to
    /// kilobytes and every node's RgManager re-reads it every simulated
    /// 15 minutes, so the refresh path must not clone it just to discover
    /// the version is unchanged.
    pub fn get_versioned(&mut self, key: &str) -> Option<(&str, u64)> {
        self.stats.reads += 1;
        self.entries.get(key).map(|e| (e.value.as_str(), e.version))
    }

    /// Delete a key. Returns true if it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        let existed = self.entries.remove(key).is_some();
        if existed {
            self.stats.deletes += 1;
        }
        toto_trace::emit(toto_trace::EventKind::NamingDelete, || {
            toto_trace::EventBody::NamingDelete {
                key: key.to_string(),
                existed: u64::from(existed),
            }
        });
        existed
    }

    /// True iff the key exists. Unlike [`NamingService::get`] this does
    /// not count toward [`NamingStats`], so it is safe to call from
    /// `debug_assert!` guards without perturbing reported traffic.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys with a given prefix, in lexicographic order. Borrows from
    /// the store — the chaos oracle walks every persisted-state key
    /// after every dispatched event, so this path must not clone.
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.entries
            .range::<str, _>((
                std::ops::Bound::Included(prefix),
                std::ops::Bound::Unbounded,
            ))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
    }

    /// Operation counters.
    pub fn stats(&self) -> NamingStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut ns = NamingService::new();
        ns.write("toto/models", "<xml/>");
        assert_eq!(ns.get("toto/models"), Some("<xml/>"));
        assert_eq!(ns.get("missing"), None);
        assert_eq!(ns.len(), 1);
    }

    #[test]
    fn versions_increase_on_overwrite() {
        let mut ns = NamingService::new();
        let v1 = ns.write("k", "a");
        let v2 = ns.write("k", "b");
        assert!(v2 > v1);
        let (val, ver) = ns.get_versioned("k").unwrap();
        assert_eq!(val, "b");
        assert_eq!(ver, v2);
    }

    #[test]
    fn delete_and_stats() {
        let mut ns = NamingService::new();
        ns.write("a", "1");
        ns.get("a");
        ns.get("nope");
        assert!(ns.delete("a"));
        assert!(!ns.delete("a"));
        let st = ns.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 2);
        assert_eq!(st.deletes, 1);
        assert!(ns.is_empty());
    }

    #[test]
    fn prefix_scan_is_sorted() {
        let mut ns = NamingService::new();
        ns.write("toto/state/rep-2", "x");
        ns.write("toto/state/rep-1", "y");
        ns.write("toto/models", "z");
        ns.write("other", "w");
        assert_eq!(
            ns.keys_with_prefix("toto/state/").collect::<Vec<_>>(),
            vec!["toto/state/rep-1", "toto/state/rep-2"]
        );
        assert_eq!(ns.keys_with_prefix("zzz").count(), 0);
    }
}
