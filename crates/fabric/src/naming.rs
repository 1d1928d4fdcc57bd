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
//! counters (so benches can report naming-service traffic). Keys are
//! text; values are text (the model XML) or numbers (persisted metric
//! state), so the per-report read-modify-write neither parses nor
//! formats.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of key-set stamps, shared by every store in the process so
/// that two different stores never hold the same stamp unless one is a
/// clone of the other with no key created or deleted since. Stamp 0 is
/// never issued: it marks a store that has never held a key.
static NEXT_KEY_SET_STAMP: AtomicU64 = AtomicU64::new(1);

/// A stored value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Text, such as the serialized model XML.
    Text(String),
    /// A number, such as a persisted metric's last reported value.
    Num(f64),
}

impl Value {
    /// The text of a [`Value::Text`]; `None` for a number.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            Value::Num(_) => None,
        }
    }

    /// The numeric view: a number as stored, or text parsed as `f64`
    /// (`None` when it does not parse).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Text(s) => s.parse().ok(),
            Value::Num(n) => Some(*n),
        }
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

/// A value plus the version at which it was last written.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    value: Value,
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
    /// Drawn afresh whenever a key is created or an existing key is
    /// deleted; overwrites keep it. See [`NamingService::key_set_stamp`].
    key_set_stamp: u64,
}

impl NamingService {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write (or overwrite) a key. Returns the new version.
    ///
    /// Overwrites update the entry in place, reusing the stored key
    /// allocation.
    pub fn write(&mut self, key: &str, value: impl Into<Value>) -> u64 {
        let version = self.bump_write();
        let value = value.into();
        match self.entries.get_mut(key) {
            Some(e) => {
                e.value = value;
                e.version = version;
            }
            None => {
                self.entries
                    .insert(key.to_string(), Entry { value, version });
                self.restamp_key_set();
            }
        }
        self.emit_write(key, version);
        version
    }

    /// Read-modify-write a numeric value with one map probe: the hot
    /// path of every persisted-metric report. `next` receives the
    /// stored value's numeric view ([`Value::as_num`]; `None` when the
    /// key is absent) and returns the new value, which is returned.
    /// Counts one read. With `write` set the new value is also stored
    /// as a [`Value::Num`], and the version, write count and
    /// `NamingWrite` event are exactly those of [`NamingService::write`];
    /// without it the store is untouched.
    pub fn update_num(
        &mut self,
        key: &str,
        write: bool,
        next: impl FnOnce(Option<f64>) -> f64,
    ) -> f64 {
        self.stats.reads += 1;
        let version = write.then(|| self.bump_write());
        let entry = self.entries.get_mut(key);
        let value = next(entry.as_ref().and_then(|e| e.value.as_num()));
        if let Some(version) = version {
            match entry {
                Some(e) => {
                    e.value = Value::Num(value);
                    e.version = version;
                }
                None => {
                    self.entries.insert(
                        key.to_string(),
                        Entry {
                            value: Value::Num(value),
                            version,
                        },
                    );
                    self.restamp_key_set();
                }
            }
            debug_assert!(
                self.entries.get(key).map(|e| e.version) == Some(version),
                "update_num did not store version {version} under {key}"
            );
            self.emit_write(key, version);
        }
        value
    }

    /// Draw a fresh key-set stamp. `Relaxed` suffices: the counter
    /// publishes no other data, and `fetch_add` alone makes every stamp
    /// unique.
    fn restamp_key_set(&mut self) {
        self.key_set_stamp = NEXT_KEY_SET_STAMP.fetch_add(1, Ordering::Relaxed);
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

    /// Read a key's value without cloning it. Counts as a read.
    pub fn get(&mut self, key: &str) -> Option<&Value> {
        self.stats.reads += 1;
        self.entries.get(key).map(|e| &e.value)
    }

    /// Read a key's value together with its version, for callers that
    /// only want to re-parse when the blob changed (RgManager's 15-minute
    /// refresh does exactly this). Borrows: the model XML blob runs to
    /// kilobytes and every node's RgManager re-reads it every simulated
    /// 15 minutes, so the refresh path must not clone it just to discover
    /// the version is unchanged.
    pub fn get_versioned(&mut self, key: &str) -> Option<(&Value, u64)> {
        self.stats.reads += 1;
        self.entries.get(key).map(|e| (&e.value, e.version))
    }

    /// Delete a key. Returns true if it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        let existed = self.entries.remove(key).is_some();
        if existed {
            self.stats.deletes += 1;
            self.restamp_key_set();
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

    /// The key-set stamp: equal stamps mean equal key sets, in this
    /// store or any clone of it. Creating a key or deleting an existing
    /// one draws a fresh stamp; overwriting a key, reading and deleting
    /// an absent key do not. Lets a reader that depends only on which
    /// keys exist (the chaos oracle's naming check) skip its scan while
    /// the set stands still.
    pub fn key_set_stamp(&self) -> u64 {
        self.key_set_stamp
    }

    /// Keys with a given prefix, in lexicographic order. Borrows from
    /// the store, so a scan does not clone.
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
        assert_eq!(
            ns.get("toto/models").and_then(Value::as_text),
            Some("<xml/>")
        );
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
        assert_eq!(val, &Value::Text("b".into()));
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
    fn key_set_stamp_moves_only_when_the_key_set_does() {
        let mut ns = NamingService::new();
        assert_eq!(ns.key_set_stamp(), NamingService::new().key_set_stamp());
        ns.write("a", "1");
        let created = ns.key_set_stamp();
        ns.write("a", "2");
        ns.update_num("a", true, |_| 3.0);
        ns.update_num("b", false, |_| 3.0);
        ns.get("a");
        assert!(!ns.delete("b"));
        assert_eq!(ns.key_set_stamp(), created);
        assert_eq!(ns.clone().key_set_stamp(), created);
        ns.update_num("b", true, |_| 3.0);
        let inserted = ns.key_set_stamp();
        assert_ne!(inserted, created);
        assert!(ns.delete("b"));
        assert_ne!(ns.key_set_stamp(), inserted);
        // Two stores with equal write histories never share a stamp.
        let mut other = NamingService::new();
        other.write("a", "1");
        assert_ne!(other.key_set_stamp(), created);
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

    #[test]
    fn update_num_reads_once_and_writes_only_when_asked() {
        let mut ns = NamingService::new();
        // Text written elsewhere parses on the numeric path.
        let v1 = ns.write("k", "1.5");
        let secondary = ns.update_num("k", false, |prev| prev.unwrap_or(0.0) + 1.0);
        assert_eq!(secondary, 2.5);
        assert_eq!(ns.get("k"), Some(&Value::Text("1.5".into())));
        let primary = ns.update_num("k", true, |prev| prev.unwrap_or(0.0) + 1.0);
        assert_eq!(primary, 2.5);
        let (val, v2) = ns.get_versioned("k").unwrap();
        assert_eq!(val, &Value::Num(2.5));
        assert_eq!(v2, v1 + 1);
        // An absent key sees `None` and is inserted only on a write.
        assert_eq!(ns.update_num("new", false, |prev| prev.unwrap_or(7.0)), 7.0);
        assert!(!ns.contains_key("new"));
        assert_eq!(ns.update_num("new", true, |prev| prev.unwrap_or(7.0)), 7.0);
        assert_eq!(ns.get("new").and_then(Value::as_num), Some(7.0));
        let st = ns.stats();
        assert_eq!(st.writes, 3);
        assert_eq!(st.reads, 7);
    }
}
