//! The metrics registry: one process-wide interning table from metric/span
//! names to shared metric cells.
//!
//! The registry mutex is **off the hot path**: the `counter!`/`gauge!`/
//! `histogram!`/`span!` macros cache the returned handle in a per-call-site
//! `OnceLock`, so instrumented code locks the registry exactly once per
//! call site per process and afterwards touches only the metric's atomics.
//!
//! # Lock hierarchy
//!
//! `Registry::inner` is a leaf lock (rank 90 in `lockranks.toml`): no other
//! workspace lock is ever acquired while it is held, so instrumentation may
//! be called from inside any broker/engine/RSU critical section without
//! widening the lock graph.

use crate::metrics::{Counter, Exemplar, Gauge, Histogram, HistogramSnapshot};
use crate::sync::{Arc, Mutex};
use std::collections::BTreeMap;
use std::sync::OnceLock;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    /// Interned span/event names; the flight recorder stores the index.
    names: Vec<&'static str>,
    name_ids: BTreeMap<&'static str, u32>,
}

/// A registry of named metrics. Normally used through the process-wide
/// [`registry`]; tests may build private instances.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry { inner: Mutex::new(Inner::default()) }
    }

    /// The counter named `name`, created on first use. Lookups of an
    /// existing name take no allocation; new names in a dynamic family past
    /// its cardinality cap collapse onto the family's `.overflow` cell (see
    /// [`crate::names::DYNAMIC_FAMILIES`]).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Registry::inner");
        let mut inner = self.inner.lock();
        if let Some(cell) = inner.counters.get(name) {
            return Arc::clone(cell);
        }
        let overflow = admit(&inner.counters, name);
        if overflow.is_some() {
            count_drop(&mut inner);
        }
        let key = overflow.unwrap_or_else(|| name.to_owned());
        Arc::clone(inner.counters.entry(key).or_default())
    }

    /// The gauge named `name`, created on first use (same dedupe and
    /// family-cap policy as [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Registry::inner");
        let mut inner = self.inner.lock();
        if let Some(cell) = inner.gauges.get(name) {
            return Arc::clone(cell);
        }
        let overflow = admit(&inner.gauges, name);
        if overflow.is_some() {
            count_drop(&mut inner);
        }
        let key = overflow.unwrap_or_else(|| name.to_owned());
        Arc::clone(inner.gauges.entry(key).or_default())
    }

    /// The histogram named `name`, created on first use (same dedupe and
    /// family-cap policy as [`Self::counter`]). Names in the
    /// [`crate::names::EXEMPLAR_HISTOGRAMS`] catalogue are created with
    /// per-bucket exemplar slots.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Registry::inner");
        let mut inner = self.inner.lock();
        if let Some(cell) = inner.histograms.get(name) {
            return Arc::clone(cell);
        }
        let overflow = admit(&inner.histograms, name);
        if overflow.is_some() {
            count_drop(&mut inner);
        }
        let key = overflow.unwrap_or_else(|| name.to_owned());
        let cell = inner.histograms.entry(key).or_insert_with(|| {
            if crate::names::EXEMPLAR_HISTOGRAMS.contains(&name) {
                Arc::new(Histogram::with_exemplars())
            } else {
                Arc::new(Histogram::new())
            }
        });
        Arc::clone(cell)
    }

    /// Interns a static name (span names, event names), returning a dense id
    /// the flight recorder can store in an atomic slot.
    pub fn intern_name(&self, name: &'static str) -> u32 {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Registry::inner");
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.name_ids.get(name) {
            return id;
        }
        let id = inner.names.len() as u32;
        inner.names.push(name);
        inner.name_ids.insert(name, id);
        id
    }

    /// The name behind an interned id (`"?"` for an unknown id).
    pub fn name_of(&self, id: u32) -> &'static str {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Registry::inner");
        let inner = self.inner.lock();
        inner.names.get(id as usize).copied().unwrap_or("?")
    }

    /// Merges every registered metric into one consistent snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Clone the Arcs under the lock, merge the shards outside it, so a
        // slow merge never blocks instrumentation registering new metrics.
        let (counters, gauges, histograms) = {
            let _held = cad3_lockrank::rank_scope!("cad3_obs::Registry::inner");
            let inner = self.inner.lock();
            (inner.counters.clone(), inner.gauges.clone(), inner.histograms.clone())
        };
        let exemplars = histograms
            .iter()
            .filter_map(|(k, v)| {
                let ex = v.exemplars();
                (!ex.is_empty()).then(|| (k.clone(), ex))
            })
            .collect();
        MetricsSnapshot {
            counters: counters.into_iter().map(|(k, v)| (k, v.value())).collect(),
            gauges: gauges.into_iter().map(|(k, v)| (k, v.value())).collect(),
            histograms: histograms.into_iter().map(|(k, v)| (k, v.snapshot())).collect(),
            exemplars,
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// The process-wide registry all instrumentation macros write to.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Whether `key` is a member of dynamic family `family`
/// (`<family>.<anything>`).
fn is_family_member(key: &str, family: &str) -> bool {
    key.strip_prefix(family).is_some_and(|rest| rest.starts_with('.'))
}

/// Cardinality-cap admission for a *new* name (the caller has already
/// checked `map` does not contain it). Names outside every dynamic family
/// are always admitted (`None`). A family member is admitted while the
/// family holds fewer than [`crate::names::DYNAMIC_FAMILY_CAP`] keys;
/// past that, `Some("<family>.overflow")` routes it to the shared
/// overflow cell. Registration-path only — lookups of existing names
/// never get here.
fn admit<T>(map: &BTreeMap<String, T>, name: &str) -> Option<String> {
    let family = crate::names::DYNAMIC_FAMILIES.iter().find(|f| is_family_member(name, f))?;
    let members = map.keys().filter(|k| is_family_member(k, family)).count();
    (members >= crate::names::DYNAMIC_FAMILY_CAP).then(|| format!("{family}.overflow"))
}

/// Counts one capped registration on the `obs.names.dropped` counter
/// (stored in the same map, so it appears in snapshots and exports).
fn count_drop(inner: &mut Inner) {
    inner.counters.entry(crate::names::OBS_NAMES_DROPPED.to_owned()).or_default().inc();
}

/// A point-in-time merge of every registered metric — the API the bench
/// crate and the exporters consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Merged histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Published tail exemplars by histogram name, as (bucket index,
    /// exemplar) pairs — only histograms with at least one exemplar appear.
    pub exemplars: BTreeMap<String, Vec<(usize, Exemplar)>>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Exemplars of the named histogram (empty when none are published).
    pub fn exemplars_of(&self, name: &str) -> &[(usize, Exemplar)] {
        self.exemplars.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_cell() {
        let r = Registry::new();
        let a = r.counter("x.y");
        let b = r.counter("x.y");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x.y").value(), 5);
        assert_eq!(r.counter("other").value(), 0);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(7);
        r.gauge("g").set(9);
        r.histogram("h").observe(100);
        let s = r.snapshot();
        assert_eq!(s.counter("c"), 7);
        assert_eq!(s.gauge("g"), 9);
        assert_eq!(s.histogram("h").map(|h| h.count), Some(1));
        assert_eq!(s.counter("missing"), 0);
        assert!(s.histogram("missing").is_none());
    }

    #[test]
    fn name_interning_is_stable() {
        let r = Registry::new();
        let a = r.intern_name("rsu.micro_batch");
        let b = r.intern_name("rsu.detect");
        assert_ne!(a, b);
        assert_eq!(r.intern_name("rsu.micro_batch"), a);
        assert_eq!(r.name_of(a), "rsu.micro_batch");
        assert_eq!(r.name_of(9999), "?");
    }

    #[test]
    fn global_registry_is_one_instance() {
        registry().counter("selftest.registry").add(1);
        assert!(registry().snapshot().counter("selftest.registry") >= 1);
    }

    #[test]
    fn catalogued_exemplar_histograms_capture_and_snapshot() {
        let r = Registry::new();
        let name = crate::names::EXEMPLAR_HISTOGRAMS[0];
        r.histogram(name).observe_with_exemplar(5000, 0x1234);
        r.histogram("plain.hist").observe_with_exemplar(5000, 0x1234);
        let snap = r.snapshot();
        assert_eq!(
            snap.exemplars_of(name),
            &[(13, Exemplar { trace_id: 0x1234, value: 5000 })],
            "catalogued names get exemplar slots"
        );
        assert!(snap.exemplars_of("plain.hist").is_empty(), "uncatalogued names do not");
        assert_eq!(snap.histogram("plain.hist").map(|h| h.count), Some(1));
    }

    #[test]
    fn family_cardinality_is_capped_with_shared_overflow() {
        use crate::names::{DYNAMIC_FAMILY_CAP, OBS_NAMES_DROPPED, RSU_LAG_PREFIX};
        let r = Registry::new();
        // Repeated registration of the same member neither grows the
        // family nor counts a drop.
        for _ in 0..3 {
            r.gauge(&format!("{RSU_LAG_PREFIX}.repeat"));
        }
        for i in 0..(DYNAMIC_FAMILY_CAP + 10) {
            r.gauge(&format!("{RSU_LAG_PREFIX}.g{i}")).set(u64::try_from(i).unwrap());
        }
        let snap = r.snapshot();
        let overflow = format!("{RSU_LAG_PREFIX}.overflow");
        let members = snap
            .gauges
            .keys()
            .filter(|k| is_family_member(k, RSU_LAG_PREFIX) && **k != overflow)
            .count();
        assert_eq!(members, DYNAMIC_FAMILY_CAP, "family stops growing at the cap");
        // 1 (repeat) + 63 admitted from the loop fill the cap; the
        // remaining 11 loop registrations were capped.
        assert_eq!(snap.counter(OBS_NAMES_DROPPED), 11);
        // The rejects share one overflow cell.
        assert!(snap.gauges.contains_key(&overflow));
        let a = r.gauge(&format!("{RSU_LAG_PREFIX}.another"));
        a.set(777);
        assert_eq!(r.gauge(&overflow).value(), 777, "overflow members share the cell");
        // Un-capped names are untouched.
        r.gauge("plain.gauge").set(1);
        assert_eq!(r.snapshot().gauge("plain.gauge"), 1);
    }
}
