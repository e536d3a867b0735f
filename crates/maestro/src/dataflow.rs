//! Dataflow styles (loop orders / stationarity choices).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// The three dataflows of the paper's Table I.
///
/// Following the paper's citations: weight-stationary after NVDLA \[6\],
/// output-stationary after ShiDianNao \[8\], row-stationary after
/// Eyeriss \[7\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weights (`B`, `K×N`) pinned in the PE array; inputs stream.
    WeightStationary,
    /// Outputs (`C`, `M×N`) accumulate in place; both inputs stream.
    OutputStationary,
    /// Input rows (`A`, `M×K`) pinned; weights and outputs stream.
    RowStationary,
}

impl Dataflow {
    /// All dataflows, in the categorical-encoding order used by the DSE
    /// dataset (index 0, 1, 2).
    pub const ALL: [Dataflow; 3] = [
        Dataflow::WeightStationary,
        Dataflow::OutputStationary,
        Dataflow::RowStationary,
    ];

    /// Categorical index (0 = WS, 1 = OS, 2 = RS) used as a model input.
    pub fn index(self) -> usize {
        match self {
            Dataflow::WeightStationary => 0,
            Dataflow::OutputStationary => 1,
            Dataflow::RowStationary => 2,
        }
    }

    /// Inverse of [`Dataflow::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx > 2`.
    pub fn from_index(idx: usize) -> Dataflow {
        Dataflow::ALL[idx]
    }

    /// Short lowercase mnemonic (`ws`, `os`, `rs`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "ws",
            Dataflow::OutputStationary => "os",
            Dataflow::RowStationary => "rs",
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Dataflow::WeightStationary => "weight-stationary",
            Dataflow::OutputStationary => "output-stationary",
            Dataflow::RowStationary => "row-stationary",
        };
        f.write_str(name)
    }
}

/// Error returned when parsing a [`Dataflow`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDataflowError(String);

impl fmt::Display for ParseDataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown dataflow {:?} (expected ws, os or rs)", self.0)
    }
}

impl std::error::Error for ParseDataflowError {}

impl FromStr for Dataflow {
    type Err = ParseDataflowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ws" | "weight-stationary" | "weight_stationary" => Ok(Dataflow::WeightStationary),
            "os" | "output-stationary" | "output_stationary" => Ok(Dataflow::OutputStationary),
            "rs" | "row-stationary" | "row_stationary" => Ok(Dataflow::RowStationary),
            other => Err(ParseDataflowError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for df in Dataflow::ALL {
            assert_eq!(Dataflow::from_index(df.index()), df);
        }
    }

    #[test]
    fn parse_mnemonics() {
        assert_eq!(
            "ws".parse::<Dataflow>().unwrap(),
            Dataflow::WeightStationary
        );
        assert_eq!(
            "OS".parse::<Dataflow>().unwrap(),
            Dataflow::OutputStationary
        );
        assert_eq!(
            "row-stationary".parse::<Dataflow>().unwrap(),
            Dataflow::RowStationary
        );
        assert!("xs".parse::<Dataflow>().is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Dataflow::WeightStationary.to_string(), "weight-stationary");
        assert_eq!(Dataflow::RowStationary.mnemonic(), "rs");
    }
}
