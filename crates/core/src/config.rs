//! Pipeline configuration: scheme selection and parameters.

use sfa_json::{Json, ToJson};

/// Which signature/candidate scheme the pipeline runs, with its parameters.
///
/// The `delta` slack of the Min-Hashing schemes widens the candidate
/// admission threshold to `(1 − δ)·s*` so that pairs right at the threshold
/// are not lost to estimator variance (Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// MH with `k` independent min-hash values per column, Hash-Count
    /// candidate generation.
    Mh {
        /// Signature size.
        k: usize,
        /// Admission slack.
        delta: f64,
    },
    /// MH with Row-Sorting candidate generation (same output as `Mh`,
    /// different phase-2 mechanics — kept separate for the ablation bench).
    MhRowSort {
        /// Signature size.
        k: usize,
        /// Admission slack.
        delta: f64,
    },
    /// K-MH bottom-k sketches with Hash-Count + unbiased re-scoring.
    Kmh {
        /// Sketch size.
        k: usize,
        /// Admission slack.
        delta: f64,
    },
    /// M-LSH banding over `k` min-hash values.
    MLsh {
        /// Signature size (`≥ r·l` for contiguous banding).
        k: usize,
        /// Rows per band.
        r: usize,
        /// Number of bands.
        l: usize,
        /// `true` = sampled bands (`Q_{r,l,k}` mode), `false` = contiguous.
        sampled: bool,
    },
    /// H-LSH over the density ladder (works on the raw rows; no min-hash).
    HLsh {
        /// Pattern width (sampled rows per run).
        r: usize,
        /// Runs per level.
        l: usize,
        /// Density gate parameter (paper: 4).
        t: u32,
        /// Ladder depth cap.
        max_levels: usize,
    },
}

impl Scheme {
    /// A short stable name for tables and CSV output.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Self::Mh { .. } => "MH",
            Self::MhRowSort { .. } => "MH-rowsort",
            Self::Kmh { .. } => "K-MH",
            Self::MLsh { .. } => "M-LSH",
            Self::HLsh { .. } => "H-LSH",
        }
    }
}

impl ToJson for Scheme {
    /// Externally tagged encoding, e.g. `{"Mh": {"k": 400, "delta": 0.2}}`.
    fn to_json(&self) -> Json {
        let (tag, body) = match *self {
            Self::Mh { k, delta } => ("Mh", Json::obj().field("k", k).field("delta", delta)),
            Self::MhRowSort { k, delta } => {
                ("MhRowSort", Json::obj().field("k", k).field("delta", delta))
            }
            Self::Kmh { k, delta } => ("Kmh", Json::obj().field("k", k).field("delta", delta)),
            Self::MLsh { k, r, l, sampled } => (
                "MLsh",
                Json::obj()
                    .field("k", k)
                    .field("r", r)
                    .field("l", l)
                    .field("sampled", sampled),
            ),
            Self::HLsh {
                r,
                l,
                t,
                max_levels,
            } => (
                "HLsh",
                Json::obj()
                    .field("r", r)
                    .field("l", l)
                    .field("t", t)
                    .field("max_levels", max_levels),
            ),
        };
        Json::Obj(vec![(tag.to_owned(), body)])
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// The scheme and its parameters.
    pub scheme: Scheme,
    /// The similarity threshold `s*`: verified pairs below it are dropped
    /// from the output (they are still reported as false-positive
    /// candidates in the result's accounting).
    pub s_star: f64,
    /// Root seed; every random choice in the run derives from it.
    pub seed: u64,
}

impl PipelineConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `s_star` is outside `(0, 1]`.
    #[must_use]
    pub fn new(scheme: Scheme, s_star: f64, seed: u64) -> Self {
        assert!(
            s_star > 0.0 && s_star <= 1.0,
            "similarity threshold must be in (0, 1]"
        );
        Self {
            scheme,
            s_star,
            seed,
        }
    }
}

impl ToJson for PipelineConfig {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("scheme", self.scheme)
            .field("s_star", self.s_star)
            .field("seed", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Scheme::Mh { k: 1, delta: 0.0 }.name(), "MH");
        assert_eq!(Scheme::Kmh { k: 1, delta: 0.0 }.name(), "K-MH");
        assert_eq!(
            Scheme::MLsh {
                k: 10,
                r: 5,
                l: 2,
                sampled: false
            }
            .name(),
            "M-LSH"
        );
        assert_eq!(
            Scheme::HLsh {
                r: 8,
                l: 4,
                t: 4,
                max_levels: 10
            }
            .name(),
            "H-LSH"
        );
    }

    #[test]
    #[should_panic(expected = "similarity threshold")]
    fn rejects_zero_threshold() {
        let _ = PipelineConfig::new(Scheme::Mh { k: 10, delta: 0.1 }, 0.0, 1);
    }
}
