//! Named vector metrics: a closed enum over the metrics the server, CLI
//! and wire protocol can select by name.

use crate::cosine::{Cosine, DotProduct};
use crate::distance::Metric;
use crate::euclidean::{Euclidean, Manhattan};
use crate::object::Vector;

/// A vector metric selectable by name (`--metric` on the CLI, the
/// `metric` server-config knob). Dispatch is a match over unit variants,
/// so a `VectorMetric` is as cheap to call as the concrete metric and
/// stays `Copy`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VectorMetric {
    /// L2 — [`Euclidean`], the default everywhere.
    #[default]
    Euclidean,
    /// L1 — [`Manhattan`].
    Manhattan,
    /// Angular cosine distance — [`Cosine`].
    Cosine,
    /// Negated inner product — [`DotProduct`] (not a metric; disables
    /// triangle-based avoidance and pruning).
    Dot,
}

impl VectorMetric {
    /// Every accepted metric name, for help text and error messages.
    pub const NAMES: &'static [&'static str] = &["euclidean", "manhattan", "cosine", "dot"];

    /// Parses a metric name (case-insensitive; accepts the aliases `l2`,
    /// `l1` and `dotproduct`). `None` for an unknown name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "euclidean" | "l2" => Some(VectorMetric::Euclidean),
            "manhattan" | "l1" => Some(VectorMetric::Manhattan),
            "cosine" => Some(VectorMetric::Cosine),
            "dot" | "dotproduct" | "dot-product" => Some(VectorMetric::Dot),
            _ => None,
        }
    }
}

macro_rules! forward {
    ($self:ident, $m:ident, $body:expr) => {
        match $self {
            VectorMetric::Euclidean => {
                let $m = Euclidean;
                $body
            }
            VectorMetric::Manhattan => {
                let $m = Manhattan;
                $body
            }
            VectorMetric::Cosine => {
                let $m = Cosine;
                $body
            }
            VectorMetric::Dot => {
                let $m = DotProduct;
                $body
            }
        }
    };
}

impl Metric<Vector> for VectorMetric {
    #[inline]
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        forward!(self, m, m.distance(a, b))
    }

    #[inline]
    fn distance_batch(&self, query: &Vector, objects: &[&Vector], out: &mut [f64]) {
        forward!(self, m, m.distance_batch(query, objects, out))
    }

    #[inline]
    fn distance_le(&self, a: &Vector, b: &Vector, bound: f64) -> Option<f64> {
        forward!(self, m, m.distance_le(a, b, bound))
    }

    fn name(&self) -> &str {
        match self {
            VectorMetric::Euclidean => "euclidean",
            VectorMetric::Manhattan => "manhattan",
            VectorMetric::Cosine => "cosine",
            VectorMetric::Dot => "dot",
        }
    }

    fn supports_triangle_avoidance(&self) -> bool {
        forward!(self, m, m.supports_triangle_avoidance())
    }

    fn nonnegative(&self) -> bool {
        forward!(self, m, m.nonnegative())
    }

    fn distance_price(&self, payload_bytes: usize) -> f64 {
        forward!(self, m, m.distance_price(payload_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_name() {
        for name in VectorMetric::NAMES {
            let metric = VectorMetric::parse(name).expect("listed name must parse");
            assert_eq!(&metric.name(), name);
        }
        assert_eq!(VectorMetric::parse("L2"), Some(VectorMetric::Euclidean));
        assert_eq!(VectorMetric::parse("l1"), Some(VectorMetric::Manhattan));
        assert_eq!(VectorMetric::parse("DotProduct"), Some(VectorMetric::Dot));
        assert_eq!(VectorMetric::parse("chebyshev"), None);
    }

    #[test]
    fn forwards_bit_identical_to_concrete_metrics() {
        let a = Vector::new(vec![1.0, -2.0, 3.5, 0.25, 7.0]);
        let b = Vector::new(vec![0.5, 2.0, -3.0, 1.25, -1.0]);
        let pairs: [(VectorMetric, f64); 4] = [
            (VectorMetric::Euclidean, Euclidean.distance(&a, &b)),
            (VectorMetric::Manhattan, Manhattan.distance(&a, &b)),
            (VectorMetric::Cosine, Cosine.distance(&a, &b)),
            (VectorMetric::Dot, DotProduct.distance(&a, &b)),
        ];
        for (metric, want) in pairs {
            assert_eq!(metric.distance(&a, &b).to_bits(), want.to_bits());
            let refs = [&b];
            let mut out = [f64::NAN];
            metric.distance_batch(&a, &refs, &mut out);
            assert_eq!(out[0].to_bits(), want.to_bits());
            assert_eq!(metric.distance_le(&a, &b, want), Some(want));
        }
    }

    #[test]
    fn capability_flags_forward() {
        assert!(VectorMetric::Euclidean.supports_triangle_avoidance());
        assert!(VectorMetric::Euclidean.nonnegative());
        assert!(VectorMetric::Cosine.supports_triangle_avoidance());
        assert!(!VectorMetric::Dot.supports_triangle_avoidance());
        assert!(!VectorMetric::Dot.nonnegative());
        for metric in [VectorMetric::Euclidean, VectorMetric::Cosine] {
            assert_eq!(metric.distance_price(256), Euclidean.distance_price(256));
        }
    }
}
