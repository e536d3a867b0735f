//! Unified Ordinal Vectors (UOV) — the paper's output representation that
//! blends classification (which bucket) with regression (where inside the
//! bucket).
//!
//! A discrete design choice with `C` options (e.g. the 64 PE counts of
//! Table I) is embedded into a continuous coordinate, discretized into
//! `K` buckets by [`Discretization`] (space-increasing by default, after
//! the paper's citation \[30\]), and encoded by [`UovCodec`] following the
//! paper's Algorithm 1:
//!
//! ```text
//! O_i = 1 − exp(−β·(t − r_i))   if t ≥ r_i
//! O_i = 0                        otherwise
//! ```
//!
//! where `t` is the coordinate of the ground-truth choice and `r_i` the
//! bucket anchors. Buckets below the target are non-zero and increase
//! with distance; buckets above are exactly zero; the fractional value at
//! the boundary bucket carries the regression information.
//!
//! [`OneHotCodec`] (pure classification) and [`RegressionCodec`] (pure
//! regression) implement the same [`ConfigCodec`] interface so that the
//! paper's ablations (Figs. 8b and 9 — "a single bucket reverts to
//! regression, many buckets shift toward classification") drop in
//! without touching the model code.
//!
//! # Example
//!
//! ```
//! use ai2_uov::{ConfigCodec, UovCodec};
//!
//! let codec = UovCodec::new(16, 64); // 16 buckets over 64 choices
//! let v = codec.encode(37);
//! assert_eq!(v.len(), 16);
//! assert_eq!(codec.decode(&v), 37); // lossless roundtrip
//! ```

mod codec;
mod discretization;

pub use codec::{ConfigCodec, OneHotCodec, RegressionCodec, UovCodec};
pub use discretization::{Discretization, DiscretizationKind};
