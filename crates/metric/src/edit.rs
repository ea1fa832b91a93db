//! Levenshtein edit distance over symbol sequences.
//!
//! This covers the paper's *general metric database* case (§1/§2): objects
//! that are **not** from a vector space, e.g. WWW access-log sessions modelled
//! as sequences of visited URLs. Unit-cost insertion/deletion/substitution
//! edit distance is a metric, so the full multiple-similarity-query machinery
//! (and the M-tree index) applies unchanged.

use crate::distance::Metric;

/// A database object that is a sequence of symbols (e.g. URL ids of one
/// web session).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Symbols {
    symbols: Box<[u32]>,
}

impl Symbols {
    /// Creates a symbol sequence.
    pub fn new(symbols: impl Into<Box<[u32]>>) -> Self {
        Self {
            symbols: symbols.into(),
        }
    }

    /// The raw symbols.
    pub fn symbols(&self) -> &[u32] {
        &self.symbols
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Heap size in bytes (for page-capacity accounting).
    pub fn payload_bytes(&self) -> usize {
        self.symbols.len() * std::mem::size_of::<u32>()
    }
}

impl From<Vec<u32>> for Symbols {
    fn from(v: Vec<u32>) -> Self {
        Symbols::new(v)
    }
}

impl From<&str> for Symbols {
    fn from(s: &str) -> Self {
        Symbols::new(s.chars().map(|c| c as u32).collect::<Vec<_>>())
    }
}

/// Unit-cost Levenshtein edit distance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditDistance;

impl Metric<Symbols> for EditDistance {
    fn distance(&self, a: &Symbols, b: &Symbols) -> f64 {
        let (xs, ys) = (a.symbols(), b.symbols());
        if xs.is_empty() {
            return ys.len() as f64;
        }
        if ys.is_empty() {
            return xs.len() as f64;
        }
        // Single-row dynamic program: O(|a|·|b|) time, O(|b|) space.
        let mut row: Vec<u32> = (0..=ys.len() as u32).collect();
        for (i, &xc) in xs.iter().enumerate() {
            let mut prev_diag = row[0];
            row[0] = i as u32 + 1;
            for (j, &yc) in ys.iter().enumerate() {
                let cost = u32::from(xc != yc);
                let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
                prev_diag = row[j + 1];
                row[j + 1] = next;
            }
        }
        row[ys.len()] as f64
    }

    fn name(&self) -> &str {
        "edit-distance"
    }

    /// Quadratic in the query's length `L`, taking the other sequence to be
    /// as long: the dynamic program fills `L²` cells. On the host of
    /// [`crate::cost`] a distance took `15 ns + 1.32 ns · L²` (L = 2…32,
    /// equal lengths), i.e. `9.4 + 0.83 · L²` visits of 1.6 ns — 63 visits
    /// at `L = 8`.
    fn distance_price(&self, payload_bytes: usize) -> f64 {
        let len = (payload_bytes / std::mem::size_of::<u32>()) as f64;
        9.4 + 0.83 * len * len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Symbols {
        Symbols::from(text)
    }

    #[test]
    fn classic_kitten_sitting() {
        assert_eq!(EditDistance.distance(&s("kitten"), &s("sitting")), 3.0);
    }

    #[test]
    fn identity_and_symmetry() {
        let a = s("abcdef");
        let b = s("azced");
        assert_eq!(EditDistance.distance(&a, &a), 0.0);
        assert_eq!(EditDistance.distance(&a, &b), EditDistance.distance(&b, &a));
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(EditDistance.distance(&s(""), &s("")), 0.0);
        assert_eq!(EditDistance.distance(&s(""), &s("abc")), 3.0);
        assert_eq!(EditDistance.distance(&s("abc"), &s("")), 3.0);
    }

    #[test]
    fn substitution_only() {
        assert_eq!(EditDistance.distance(&s("abc"), &s("axc")), 1.0);
    }

    #[test]
    fn triangle_inequality_sample() {
        let (a, b, c) = (s("flaw"), s("lawn"), s("flown"));
        let ab = EditDistance.distance(&a, &b);
        let bc = EditDistance.distance(&b, &c);
        let ac = EditDistance.distance(&a, &c);
        assert!(ac <= ab + bc);
    }

    #[test]
    fn price_grows_quadratically_with_length() {
        let price = |len: usize| EditDistance.distance_price(len * 4);
        assert!(price(8) > 50.0);
        assert!(price(16) > 3.0 * price(8));
    }

    #[test]
    fn url_session_use_case() {
        // Sessions as sequences of URL ids.
        let s1 = Symbols::from(vec![10u32, 20, 30, 40]);
        let s2 = Symbols::from(vec![10u32, 25, 30, 40]);
        let s3 = Symbols::from(vec![99u32, 98, 97]);
        assert_eq!(EditDistance.distance(&s1, &s2), 1.0);
        assert!(EditDistance.distance(&s1, &s3) >= 3.0);
        assert_eq!(s1.payload_bytes(), 16);
    }
}
