//! Bucketization of a discrete choice axis.

use serde::{Deserialize, Serialize};

/// How bucket widths grow along the axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DiscretizationKind {
    /// Equal-width buckets.
    Uniform,
    /// Space-Increasing Discretization: bucket `i` has width ∝ `i + 1`,
    /// so early (small-valued, densely favored) choices get fine buckets
    /// and the long tail gets coarse ones — following the paper's
    /// citation \[30\].
    #[default]
    SpaceIncreasing,
}

/// A partition of the continuous choice coordinate `[0, C)` (where `C` is
/// the number of discrete options) into `K` buckets with anchors at the
/// left edges — the `Λ = {r_0 … r_{K−1}}` of the paper's Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discretization {
    /// Bucket boundaries, `K + 1` ascending values from 0 to `C`.
    boundaries: Vec<f32>,
    num_choices: usize,
}

impl Discretization {
    /// Partitions `num_choices` options into `num_buckets` buckets.
    ///
    /// If `num_buckets ≥ num_choices` the partition degenerates to one
    /// bucket per choice (pure classification), matching the paper's
    /// observation in Fig. 8b.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(kind: DiscretizationKind, num_buckets: usize, num_choices: usize) -> Self {
        assert!(num_buckets > 0, "Discretization: zero buckets");
        assert!(num_choices > 0, "Discretization: zero choices");
        let k = num_buckets.min(num_choices);
        let c = num_choices as f32;
        let mut boundaries = Vec::with_capacity(k + 1);
        match kind {
            DiscretizationKind::Uniform => {
                for i in 0..=k {
                    boundaries.push((num_choices as f64 * i as f64 / k as f64) as f32);
                }
            }
            DiscretizationKind::SpaceIncreasing => {
                // width_i = 1 cell + extra ∝ (i + 1): every bucket holds at
                // least one choice and widths strictly increase. Boundary
                // `i` comes from the closed form in f64 — the previous
                // running f32 accumulation drifted for large `C`, letting
                // the final boundary miss `C` and the top choice fall
                // outside the last bucket.
                let extra = (num_choices - k) as f64;
                let total = (k * (k + 1)) as f64 / 2.0;
                for i in 0..=k {
                    let tri = (i * (i + 1)) as f64 / 2.0;
                    boundaries.push((i as f64 + extra * tri / total) as f32);
                }
            }
        }
        // pin the end point to exactly C, then guard every interior
        // boundary so each bucket keeps at least one whole choice cell —
        // which also keeps the sequence strictly ascending after any
        // f64→f32 rounding
        *boundaries.last_mut().expect("non-empty") = c;
        for (i, b) in boundaries.iter_mut().enumerate().take(k).skip(1) {
            *b = b.clamp(i as f32, (num_choices - (k - i)) as f32);
        }
        debug_assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries not strictly ascending: {boundaries:?}"
        );
        Discretization {
            boundaries,
            num_choices,
        }
    }

    /// Number of buckets `K`.
    pub fn num_buckets(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Number of discrete choices `C`.
    pub fn num_choices(&self) -> usize {
        self.num_choices
    }

    /// Bucket anchors `r_i` (left edges), length `K`.
    pub fn anchors(&self) -> &[f32] {
        &self.boundaries[..self.boundaries.len() - 1]
    }

    /// The bucket containing choice `index` (mid-cell coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ num_choices`.
    pub fn bucket_of(&self, index: usize) -> usize {
        assert!(
            index < self.num_choices,
            "bucket_of: index {index} ≥ {} choices",
            self.num_choices
        );
        let x = index as f32 + 0.5;
        match self
            .boundaries
            .windows(2)
            .position(|w| x >= w[0] && x < w[1])
        {
            Some(b) => b,
            None => self.num_buckets() - 1,
        }
    }

    /// Continuous normalized coordinate of choice `index`: the bucket id
    /// plus the fractional position inside the bucket, in `[0, K)`.
    pub fn coordinate_of(&self, index: usize) -> f32 {
        let b = self.bucket_of(index);
        let lo = self.boundaries[b];
        let hi = self.boundaries[b + 1];
        let x = index as f32 + 0.5;
        b as f32 + (x - lo) / (hi - lo)
    }

    /// Inverse of [`Discretization::coordinate_of`]: maps a normalized
    /// coordinate back to the nearest choice index.
    pub fn index_of_coordinate(&self, t: f32) -> usize {
        let k = self.num_buckets();
        let t = t.clamp(0.0, k as f32 - 1e-6);
        let b = (t.floor() as usize).min(k - 1);
        let frac = t - b as f32;
        let lo = self.boundaries[b];
        let hi = self.boundaries[b + 1];
        let x = lo + frac * (hi - lo);
        // choice `i` occupies the cell [i, i+1) with its coordinate at the
        // midpoint, so flooring inverts coordinate_of exactly
        (x.floor() as usize).min(self.num_choices - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_boundaries_are_equal_width() {
        let d = Discretization::new(DiscretizationKind::Uniform, 4, 64);
        assert_eq!(d.num_buckets(), 4);
        assert_eq!(d.anchors(), &[0.0, 16.0, 32.0, 48.0]);
    }

    #[test]
    fn sid_widths_increase() {
        let d = Discretization::new(DiscretizationKind::SpaceIncreasing, 8, 64);
        let b = d.anchors();
        let mut prev_width = 0.0;
        for i in 1..b.len() {
            let width = b[i] - b[i - 1];
            assert!(width > prev_width, "widths not increasing at {i}");
            prev_width = width;
        }
    }

    #[test]
    fn more_buckets_than_choices_degenerates() {
        let d = Discretization::new(DiscretizationKind::SpaceIncreasing, 16, 12);
        assert_eq!(d.num_buckets(), 12);
        // each choice gets its own coordinate/bucket
        for i in 0..12 {
            assert_eq!(d.index_of_coordinate(d.coordinate_of(i)), i);
        }
    }

    #[test]
    fn coordinate_roundtrip_every_choice() {
        for kind in [
            DiscretizationKind::Uniform,
            DiscretizationKind::SpaceIncreasing,
        ] {
            for k in [1usize, 2, 4, 8, 16, 32] {
                let d = Discretization::new(kind, k, 64);
                for i in 0..64 {
                    let t = d.coordinate_of(i);
                    assert_eq!(
                        d.index_of_coordinate(t),
                        i,
                        "roundtrip failed: kind {kind:?}, k {k}, choice {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_of_is_monotone() {
        let d = Discretization::new(DiscretizationKind::SpaceIncreasing, 16, 64);
        let mut prev = 0;
        for i in 0..64 {
            let b = d.bucket_of(i);
            assert!(b >= prev);
            prev = b;
        }
        assert_eq!(d.bucket_of(0), 0);
        assert_eq!(d.bucket_of(63), 15);
    }
}
