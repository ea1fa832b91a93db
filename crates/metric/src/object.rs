//! Database objects: identifiers and feature vectors.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Identifier of a database object.
///
/// Object ids are dense (`0..n`) within one database, which lets query-state
/// bookkeeping (answer buffers, DBSCAN cluster assignment, …) use flat arrays
/// instead of hash maps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

impl From<u32> for ObjectId {
    fn from(v: u32) -> Self {
        ObjectId(v)
    }
}

/// A feature vector: the dominant special case of metric database objects
/// (paper §1 — color histograms, star feature vectors, …).
///
/// Components are stored as `f32` (like the paper's 20-d/64-d feature files);
/// all distance arithmetic is carried out in `f64`.
///
/// The payload is immutable and shared: a clone is a reference-count bump,
/// so the paged database, an index built over it and a session's query
/// objects all point at one copy of the components.
#[derive(Clone, PartialEq, Debug)]
pub struct Vector {
    components: Arc<[f32]>,
}

impl Vector {
    /// Creates a vector from its components.
    ///
    /// # Panics
    /// Panics if `components` is empty or contains a non-finite value; a
    /// metric space over NaN coordinates would violate the identity axiom.
    pub fn new(components: impl Into<Arc<[f32]>>) -> Self {
        let components = components.into();
        assert!(
            !components.is_empty(),
            "vector must have at least one dimension"
        );
        assert!(
            components.iter().all(|c| c.is_finite()),
            "vector components must be finite"
        );
        Self { components }
    }

    /// Dimensionality of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.components.len()
    }

    /// The raw components.
    #[inline]
    pub fn components(&self) -> &[f32] {
        &self.components
    }

    /// Heap size of this vector in bytes, used by the storage layer to decide
    /// how many objects fit into one disk page.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.components.len() * std::mem::size_of::<f32>()
    }

    /// Euclidean norm of the vector.
    pub fn norm(&self) -> f64 {
        self.components
            .iter()
            .map(|&c| (c as f64) * (c as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Component sum (e.g. total mass of a histogram).
    pub fn sum(&self) -> f64 {
        self.components.iter().map(|&c| c as f64).sum()
    }
}

impl Index<usize> for Vector {
    type Output = f32;

    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.components[i]
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector::new(v)
    }
}

impl From<&[f32]> for Vector {
    fn from(v: &[f32]) -> Self {
        Vector::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_basics() {
        let v = Vector::new(vec![3.0, 4.0]);
        assert_eq!(v.dim(), 2);
        assert_eq!(v[0], 3.0);
        assert_eq!(v.payload_bytes(), 8);
        assert!((v.norm() - 5.0).abs() < 1e-12);
        assert!((v.sum() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn clone_shares_its_payload() {
        let v = Vector::new(vec![1.0, 2.0, 3.0]);
        let c = v.clone();
        assert!(std::ptr::eq(
            v.components().as_ptr(),
            c.components().as_ptr()
        ));
        assert_eq!(v, c);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_vector_rejected() {
        let _ = Vector::new(Vec::<f32>::new());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_vector_rejected() {
        let _ = Vector::new(vec![1.0, f32::NAN]);
    }

    #[test]
    fn object_id_roundtrip() {
        let id = ObjectId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "O7");
    }
}
