//! Tier selection and its wire/CLI syntax: `bq:<budget>`.

use crate::sketch::{BinarySketch, BqPrescreen};
use crate::{DEFAULT_PLANES, SKETCH_FILE};
use mq_core::CandidatePrescreen;
use mq_metric::Vector;
use mq_storage::PagedDatabase;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

/// Which approximate candidate tier to run in front of the exact
/// multi-query re-rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApproxTier {
    /// Binary-quantized Hamming pre-screen with a per-query candidate
    /// budget.
    Bq {
        /// Candidates kept per query (the Hamming-closest ids).
        budget: usize,
    },
}

impl ApproxTier {
    /// Per-query candidate volume.
    pub fn budget(&self) -> usize {
        let ApproxTier::Bq { budget } = *self;
        budget
    }

    /// Builds this tier's prescreen over `db`'s id space. With a
    /// `sidecar_dir` (file-backed stores) the binary sketch is persisted as
    /// `sketch.mqbq` next to the partition's page files and reloaded —
    /// checksum-verified — on later opens.
    pub fn prescreen(
        &self,
        db: &PagedDatabase<Vector>,
        sidecar_dir: Option<&Path>,
    ) -> Arc<dyn CandidatePrescreen<Vector>> {
        let sketch = match sidecar_dir {
            Some(dir) => BinarySketch::load_or_build(&dir.join(SKETCH_FILE), db, DEFAULT_PLANES).0,
            None => BinarySketch::build(db, DEFAULT_PLANES),
        };
        Arc::new(BqPrescreen::new(Arc::new(sketch), self.budget()))
    }
}

impl fmt::Display for ApproxTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bq:{}", self.budget())
    }
}

impl FromStr for ApproxTier {
    type Err = String;

    /// Parses `bq:<budget>`; the budget must be positive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, num) = s
            .split_once(':')
            .ok_or_else(|| format!("expected bq:<budget>, got '{s}'"))?;
        let n: usize = num
            .parse()
            .map_err(|_| format!("'{num}' is not a number in approx tier '{s}'"))?;
        if n == 0 {
            return Err(format!("approx tier '{s}' needs a positive budget"));
        }
        match kind {
            "bq" => Ok(ApproxTier::Bq { budget: n }),
            other => Err(format!("unknown approx tier '{other}' (use bq)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_displays_round_trip() {
        assert_eq!(
            "bq:500".parse::<ApproxTier>().unwrap().to_string(),
            "bq:500"
        );
        assert_eq!(
            "bq:500".parse::<ApproxTier>().unwrap(),
            ApproxTier::Bq { budget: 500 }
        );
        assert_eq!("bq:500".parse::<ApproxTier>().unwrap().budget(), 500);
    }

    #[test]
    fn rejects_malformed() {
        for s in ["bq", "bq:", "bq:x", "bq:0", "bq:-3", "lsh:5"] {
            assert!(s.parse::<ApproxTier>().is_err(), "'{s}' should not parse");
        }
    }
}
