//! The handle the runtime crates actually thread around.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::registry::{Registry, Snapshot};
use std::sync::Arc;

/// A cloneable handle to a [`Registry`] — or to nothing.
///
/// Layers accept a `&Recorder` at wiring time, register their instruments
/// through it, and keep the returned `Option<Arc<...>>` handles. With
/// [`Recorder::disabled`] every registration returns `None`, so the hot
/// path degenerates to a single `Option` discriminant check and no
/// atomics are touched: the equivalence suites prove answers stay
/// bit-identical with observability on or off, and this is why.
#[derive(Clone, Default)]
pub struct Recorder {
    registry: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder backed by `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self {
            registry: Some(registry),
        }
    }

    /// A recorder backed by a fresh private registry (convenient in
    /// tests).
    pub fn enabled() -> Self {
        Self::new(Arc::new(Registry::new()))
    }

    /// The no-op recorder: every registration returns `None` and nothing
    /// is ever recorded.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// Whether this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, if enabled.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Registers a [`Counter`] series (`None` when disabled).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Option<Arc<Counter>> {
        self.registry
            .as_ref()
            .map(|r| r.counter(name, help, labels))
    }

    /// Registers a [`Gauge`] series (`None` when disabled).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Option<Arc<Gauge>> {
        self.registry.as_ref().map(|r| r.gauge(name, help, labels))
    }

    /// Registers a [`Histogram`] series (`None` when disabled).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Option<Arc<Histogram>> {
        self.registry
            .as_ref()
            .map(|r| r.histogram(name, help, labels, bounds))
    }

    /// Registers a derived gauge (no-op when disabled).
    pub fn derived_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        if let Some(r) = self.registry.as_ref() {
            r.derived_gauge(name, help, labels, f);
        }
    }

    /// Renders the backing registry (empty string when disabled).
    pub fn render(&self) -> String {
        self.registry
            .as_ref()
            .map(|r| r.render())
            .unwrap_or_default()
    }

    /// Snapshots the backing registry (empty snapshot when disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.registry
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_registers_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        assert!(r.counter("mq_x_total", "x", &[]).is_none());
        assert!(r.histogram("mq_y_seconds", "y", &[], &[1.0]).is_none());
        assert!(r.render().is_empty());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn enabled_recorder_shares_its_registry_across_clones() {
        let r = Recorder::enabled();
        let c1 = r.counter("mq_x_total", "x", &[]).unwrap();
        let c2 = r.clone().counter("mq_x_total", "x", &[]).unwrap();
        c1.add(2);
        c2.add(3);
        assert_eq!(r.snapshot().value("mq_x_total"), 5.0);
    }
}
