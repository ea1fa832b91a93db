//! The named metric registry: families of labelled series, text
//! exposition, and cheap snapshot/delta arithmetic.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

type LabelSet = Vec<(String, String)>;
type DerivedFn = Arc<dyn Fn() -> f64 + Send + Sync>;

/// The Prometheus-style type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing ([`Counter`]).
    Counter,
    /// Goes up and down ([`Gauge`] and derived gauges).
    Gauge,
    /// Fixed-boundary distribution ([`Histogram`]).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// Computed at snapshot/render time from other instruments (hit
    /// ratios). The closure must not call back into the registry — it runs
    /// with the registry lock held.
    Derived(DerivedFn),
}

impl Instrument {
    fn kind(&self) -> MetricKind {
        match self {
            Instrument::Counter(_) => MetricKind::Counter,
            Instrument::Gauge(_) | Instrument::Derived(_) => MetricKind::Gauge,
            Instrument::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Family {
    kind: MetricKind,
    help: String,
    series: BTreeMap<LabelSet, Instrument>,
}

/// A registry of named metric families. Registration takes a lock; the
/// returned `Arc` handles are lock-free thereafter, so layers register
/// their instruments once at wiring time and only touch atomics on the
/// hot path.
///
/// Registering the same `(name, labels)` pair again returns the existing
/// instrument, so independent components (e.g. every server of a
/// [`SharedNothingCluster`]) can share one series. Registering a name with
/// a conflicting kind panics — metric names are compile-time constants in
/// this workspace, so that is a programming error, not an input error.
///
/// [`SharedNothingCluster`]: https://docs.rs/mq-parallel
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The family map, locked. Every critical section leaves the map
    /// consistent — a kind conflict panics before anything is inserted, and
    /// a panicking derived gauge only interrupts a read — so a lock one of
    /// them poisoned is taken over rather than turning every later
    /// registration, render and snapshot into a panic.
    fn families(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
        extract: impl Fn(&Instrument) -> Option<Arc<T>>,
    ) -> Arc<T> {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name {name:?} contains characters outside [a-zA-Z0-9_:]"
        );
        let mut owned: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        let mut families = self.families();
        let instrument = make();
        let kind = instrument.kind();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} registered twice with conflicting kinds ({:?} vs {kind:?})",
            family.kind
        );
        let slot = family.series.entry(owned).or_insert(instrument);
        extract(slot).expect("series kind matches family kind")
    }

    /// Registers (or fetches) a [`Counter`] series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Counter(Arc::new(Counter::new())),
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) a [`Gauge`] series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or fetches) a [`Histogram`] series with the given bucket
    /// bounds. If the series already exists its original bounds win.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::new(bounds))),
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Registers a derived gauge: `f` is evaluated at every snapshot or
    /// render (with the registry lock held — it must not call back into
    /// the registry). Used for ratio metrics like buffer hit rate. A
    /// second registration for the same series replaces the closure.
    pub fn derived_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        let mut owned: LabelSet = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        let mut families = self.families();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind: MetricKind::Gauge,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == MetricKind::Gauge,
            "metric {name} registered twice with conflicting kinds ({:?} vs Gauge)",
            family.kind
        );
        family
            .series
            .insert(owned, Instrument::Derived(Arc::new(f)));
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (`# HELP`/`# TYPE` comments, one sample per line, histograms
    /// as cumulative `_bucket{le=...}` series plus `_sum` and `_count`).
    pub fn render(&self) -> String {
        let families = self.families();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, instrument) in &family.series {
                for (sample_name, extra, value) in flatten(name, instrument) {
                    let _ = writeln!(
                        out,
                        "{sample_name}{} {value}",
                        format_labels(labels, extra.as_deref())
                    );
                }
            }
        }
        out
    }

    /// Captures every sample as a flat `series -> value` map, keyed
    /// exactly like the exposition lines (`name{label="v"}`). Histograms
    /// flatten to their `_bucket`/`_sum`/`_count` samples.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families();
        let mut samples = BTreeMap::new();
        for (name, family) in families.iter() {
            for (labels, instrument) in &family.series {
                for (sample_name, extra, value) in flatten(name, instrument) {
                    let key = format!("{sample_name}{}", format_labels(labels, extra.as_deref()));
                    samples.insert(key, value);
                }
            }
        }
        Snapshot { samples }
    }
}

/// Expands one instrument into `(sample_name, optional le label, value)`
/// triples: a single sample for scalar instruments, the cumulative bucket
/// series plus `_sum`/`_count` for histograms.
fn flatten(name: &str, instrument: &Instrument) -> Vec<(String, Option<String>, f64)> {
    match instrument {
        Instrument::Counter(c) => vec![(name.to_string(), None, c.get() as f64)],
        Instrument::Gauge(g) => vec![(name.to_string(), None, g.get() as f64)],
        Instrument::Derived(f) => vec![(name.to_string(), None, f())],
        Instrument::Histogram(h) => {
            let counts = h.bucket_counts();
            let mut out = Vec::with_capacity(counts.len() + 2);
            let mut cumulative = 0u64;
            for (i, count) in counts.iter().enumerate() {
                cumulative += count;
                let le = match h.bounds().get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                out.push((format!("{name}_bucket"), Some(le), cumulative as f64));
            }
            out.push((format!("{name}_sum"), None, h.sum()));
            out.push((format!("{name}_count"), None, cumulative as f64));
            out
        }
    }
}

/// Formats a label set as `{k="v",...}` (empty string when there are no
/// labels), escaping backslashes, quotes and newlines in values. The
/// histogram `le` label, when present, is appended last per Prometheus
/// convention.
fn format_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(le.map(|v| ("le", v)))
    {
        if !first {
            out.push(',');
        }
        first = false;
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// A point-in-time capture of every sample in a [`Registry`], keyed like
/// the exposition lines. Supports [`delta`](Snapshot::delta) arithmetic
/// for windowed reporting (the periodic server log prints
/// `now.delta(&last)` each interval).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    samples: BTreeMap<String, f64>,
}

impl Snapshot {
    /// The value of one series (e.g. `mq_core_steps_total` or
    /// `mq_server_batch_size_bucket{le="4"}`), if present.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.samples.get(series).copied()
    }

    /// Like [`get`](Snapshot::get) but defaults to `0.0` for missing
    /// series, which is the natural reading for counters.
    pub fn value(&self, series: &str) -> f64 {
        self.get(series).unwrap_or(0.0)
    }

    /// `self - earlier`, per series. Series missing from `earlier` count
    /// as zero there; series missing from `self` are omitted.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.value(k)))
            .collect();
        Snapshot { samples }
    }

    /// Iterates over `(series, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.samples.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Parses a Prometheus text exposition (what
    /// [`Registry::render`](crate::Registry::render) produces and the
    /// MQNW `STATS` opcode serves) back into a snapshot. `# HELP`/`# TYPE`
    /// comments and blank lines are skipped; any other unparseable line is
    /// an error — a scrape that fails here is torn or corrupt.
    pub fn from_exposition(text: &str) -> Result<Snapshot, String> {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, raw) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
            let value: f64 = raw
                .parse()
                .map_err(|_| format!("unparseable sample value in line: {line:?}"))?;
            if samples.insert(series.to_string(), value).is_some() {
                return Err(format!("duplicate series in exposition: {series:?}"));
            }
        }
        Ok(Snapshot { samples })
    }

    /// The `q`-quantile of the histogram family `name`, reconstructed
    /// from its cumulative `_bucket{le=...}` samples; `None` if the
    /// family is absent or empty. When the family has several label sets
    /// (e.g. per-partition series) their buckets are summed, so the
    /// result is the aggregate distribution's quantile.
    ///
    /// Same estimator and edge-case behavior as
    /// [`Histogram::quantile`](crate::Histogram::quantile): linear
    /// interpolation within the selected bucket, overflow mass clamped to
    /// the largest finite bound.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        // Collect cumulative counts per `le` bound, summed across label
        // sets. Keys look like `name_bucket{le="0.5"}` or
        // `name_bucket{shard="3",le="0.5"}` — `le` is always last.
        let prefix = format!("{name}_bucket{{");
        let mut by_bound: Vec<(f64, f64)> = Vec::new();
        let mut overflow = 0.0f64;
        for (key, value) in self.samples.range(prefix.clone()..) {
            if !key.starts_with(&prefix) {
                break;
            }
            let le = key
                .rsplit_once("le=\"")
                .and_then(|(_, rest)| rest.strip_suffix("\"}"))?;
            if le == "+Inf" {
                overflow += *value;
            } else {
                let bound: f64 = le.parse().ok()?;
                match by_bound.iter_mut().find(|(b, _)| *b == bound) {
                    Some((_, v)) => *v += *value,
                    None => by_bound.push((bound, *value)),
                }
            }
        }
        if overflow == 0.0 && by_bound.is_empty() {
            return None;
        }
        by_bound.sort_by(|a, b| a.0.total_cmp(&b.0));
        // De-cumulate into per-bucket counts (the exposition is
        // cumulative), appending the overflow bucket's own mass.
        let bounds: Vec<f64> = by_bound.iter().map(|(b, _)| *b).collect();
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        let mut prev = 0.0f64;
        for (_, cumulative) in &by_bound {
            counts.push((cumulative - prev).max(0.0).round() as u64);
            prev = *cumulative;
        }
        counts.push((overflow - prev).max(0.0).round() as u64);
        crate::metrics::quantile_from_buckets(&bounds, &counts, q)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the snapshot holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("mq_test_total", "help", &[("who", "a")]);
        let b = r.counter("mq_test_total", "help", &[("who", "a")]);
        a.add(3);
        assert_eq!(b.get(), 3, "same series must share one instrument");
        let other = r.counter("mq_test_total", "help", &[("who", "b")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("mq_test_total", "help", &[]);
        let _ = r.gauge("mq_test_total", "help", &[]);
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_registry_serving() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let r = Registry::new();
        r.counter("mq_test_total", "help", &[]).inc();
        let conflict = catch_unwind(AssertUnwindSafe(|| r.gauge("mq_test_total", "help", &[])));
        assert!(conflict.is_err(), "a kind conflict still panics");
        r.derived_gauge("mq_ratio", "help", &[], || panic!("derived gauge failed"));
        assert!(catch_unwind(AssertUnwindSafe(|| r.render())).is_err());
        r.derived_gauge("mq_ratio", "help", &[], || 0.5);
        r.counter("mq_test_total", "help", &[]).inc();
        let text = r.render();
        assert!(text.contains("mq_test_total 2"), "{text}");
        assert!(text.contains("mq_ratio 0.5"), "{text}");
        assert_eq!(r.snapshot().value("mq_test_total"), 2.0);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let r = Registry::new();
        r.counter("mq_a_total", "a counter", &[("k", "v")]).add(7);
        r.gauge("mq_b", "a gauge", &[]).set(-2);
        let h = r.histogram("mq_c_seconds", "a histogram", &[], &[0.5, 1.0]);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(9.0);
        let text = r.render();
        assert!(text.contains("# TYPE mq_a_total counter"));
        assert!(text.contains("mq_a_total{k=\"v\"} 7"));
        assert!(text.contains("# TYPE mq_b gauge"));
        assert!(text.contains("mq_b -2"));
        assert!(text.contains("mq_c_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("mq_c_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("mq_c_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mq_c_seconds_count 3"));
        assert!(text.contains("mq_c_seconds_sum 10"));
    }

    #[test]
    fn derived_gauges_compute_at_render_time() {
        let r = Registry::new();
        let hits = r.counter("mq_hits_total", "hits", &[]);
        let misses = r.counter("mq_misses_total", "misses", &[]);
        let (h, m) = (Arc::clone(&hits), Arc::clone(&misses));
        r.derived_gauge("mq_hit_ratio", "hit ratio", &[], move || {
            let (h, m) = (h.get() as f64, m.get() as f64);
            if h + m == 0.0 {
                0.0
            } else {
                h / (h + m)
            }
        });
        hits.add(3);
        misses.add(1);
        assert_eq!(r.snapshot().value("mq_hit_ratio"), 0.75);
        assert!(r.render().contains("mq_hit_ratio 0.75"));
    }

    #[test]
    fn snapshot_delta_subtracts_per_series() {
        let r = Registry::new();
        let c = r.counter("mq_x_total", "x", &[]);
        c.add(5);
        let before = r.snapshot();
        c.add(7);
        let after = r.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.value("mq_x_total"), 7.0);
        assert_eq!(after.value("mq_x_total"), 12.0);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("mq_esc_total", "esc", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = r.render();
        assert!(text.contains("mq_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn exposition_roundtrips_through_from_exposition() {
        let r = Registry::new();
        r.counter("mq_rt_total", "rt", &[("k", "v")]).add(3);
        let h = r.histogram("mq_rt_seconds", "rt", &[], &[0.5, 1.0]);
        h.observe(0.25);
        h.observe(2.0);
        let direct = r.snapshot();
        let parsed = Snapshot::from_exposition(&r.render()).expect("parse rendered exposition");
        assert_eq!(direct, parsed, "render/parse must round-trip exactly");
        assert!(Snapshot::from_exposition("garbage without value\n").is_err());
        assert!(Snapshot::from_exposition("mq_x notafloat\n").is_err());
    }

    #[test]
    fn snapshot_quantile_matches_histogram_quantile() {
        let r = Registry::new();
        let bounds: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = r.histogram("mq_lat_seconds", "lat", &[], &bounds);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let snap = r.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(
                snap.quantile("mq_lat_seconds", q),
                h.quantile(q),
                "snapshot and histogram disagree at q={q}"
            );
        }
        assert_eq!(snap.quantile("mq_lat_seconds", 0.5), Some(50.0));
        assert_eq!(snap.quantile("mq_absent_seconds", 0.5), None);
    }

    #[test]
    fn snapshot_quantile_aggregates_label_sets_and_clamps_overflow() {
        let r = Registry::new();
        let a = r.histogram("mq_m_seconds", "m", &[("shard", "0")], &[1.0, 10.0]);
        let b = r.histogram("mq_m_seconds", "m", &[("shard", "1")], &[1.0, 10.0]);
        a.observe(0.5);
        b.observe(5.0);
        b.observe(1e6); // overflow
        let snap = r.snapshot();
        // 3 observations total: p50 is in (1, 10], p100 clamps to 10.
        let p50 = snap.quantile("mq_m_seconds", 0.5).unwrap();
        assert!(p50 > 1.0 && p50 <= 10.0, "p50 = {p50}");
        assert_eq!(snap.quantile("mq_m_seconds", 1.0), Some(10.0));
        // A quantile entirely inside the overflow mass stays finite.
        assert!(snap.quantile("mq_m_seconds", 0.999).unwrap().is_finite());
    }

    #[test]
    fn every_sample_line_parses() {
        let r = Registry::new();
        r.counter("mq_p_total", "p", &[("a", "b")]).add(2);
        let h = r.histogram("mq_q_seconds", "q", &[], &crate::DURATION_BOUNDS);
        h.observe(0.003);
        for line in r.render().lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample line: {line}"
            );
        }
    }
}
