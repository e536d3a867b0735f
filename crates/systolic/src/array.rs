//! The PE grid and its cycle-stepping semantics.

use serde::{Deserialize, Serialize};

/// Physical shape of the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// PE rows (output rows mapped here).
    pub rows: usize,
    /// PE columns (output columns mapped here).
    pub cols: usize,
}

impl ArrayConfig {
    /// Creates an array shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "ArrayConfig: zero dimension");
        ArrayConfig { rows, cols }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Squarest array shape for a PE budget (how the DSE grid's flat PE
    /// counts map onto a 2-D array).
    pub fn squarest(num_pes: usize) -> Self {
        assert!(num_pes > 0, "ArrayConfig: zero PEs");
        let mut best = (1usize, num_pes);
        for r in 1..=num_pes {
            if r * r > num_pes {
                break;
            }
            if num_pes.is_multiple_of(r) {
                best = (r, num_pes / r);
            }
        }
        ArrayConfig {
            rows: best.0,
            cols: best.1,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Pe {
    /// Operand of `A` currently held (flows left → right).
    a: f32,
    /// Validity of `a` (distinguishes skew bubbles from data zeros).
    av: bool,
    /// Operand of `B` currently held (flows top → bottom).
    b: f32,
    /// Validity of `b`.
    bv: bool,
    /// Output-stationary accumulator.
    acc: f32,
}

/// The cycle-stepped PE grid for one output tile.
///
/// Output-stationary semantics, as in ShiDianNao \[8\] and Scale-Sim's
/// `os` mode: PE `(i, j)` owns output element `(i, j)` of the current
/// tile. Each cycle, `A` operands shift one PE to the right, `B`
/// operands one PE down, and every PE multiplies the operands it held at
/// the *start* of the cycle into its accumulator.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    cfg: ArrayConfig,
    pes: Vec<Pe>,
    cycles: u64,
    macs: u64,
}

impl SystolicArray {
    /// Builds an idle array.
    pub fn new(cfg: ArrayConfig) -> Self {
        SystolicArray {
            cfg,
            pes: vec![Pe::default(); cfg.num_pes()],
            cycles: 0,
            macs: 0,
        }
    }

    /// The array shape.
    pub fn config(&self) -> ArrayConfig {
        self.cfg
    }

    /// Cycles elapsed since construction or the last [`SystolicArray::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Useful MACs executed (zero-operand multiplies are not counted).
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Clears accumulators and operand registers for the next tile.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            *pe = Pe::default();
        }
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        r * self.cfg.cols + c
    }

    /// Advances one cycle: every PE macs its held operands, then operands
    /// shift (A right, B down) with the new edge inputs injected at
    /// column 0 / row 0.
    ///
    /// `a_edge[r]` is the `A` operand entering row `r` this cycle;
    /// `b_edge[c]` the `B` operand entering column `c`. `None` is a skew
    /// bubble.
    ///
    /// # Panics
    ///
    /// Panics if edge slices don't match the array shape.
    pub fn step(&mut self, a_edge: &[Option<f32>], b_edge: &[Option<f32>]) {
        assert_eq!(a_edge.len(), self.cfg.rows, "step: a_edge width");
        assert_eq!(b_edge.len(), self.cfg.cols, "step: b_edge width");
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        // 1. compute with operands currently in place (bubbles excluded)
        let mut new_macs = 0u64;
        for pe in &mut self.pes {
            if pe.av && pe.bv {
                pe.acc += pe.a * pe.b;
                new_macs += 1;
            }
        }
        self.macs += new_macs;
        // 2. shift A right (process columns from the right edge)
        #[allow(clippy::needless_range_loop)]
        for r in 0..rows {
            for c in (1..cols).rev() {
                let src = self.pes[r * cols + c - 1];
                let dst = &mut self.pes[r * cols + c];
                dst.a = src.a;
                dst.av = src.av;
            }
            let dst = &mut self.pes[r * cols];
            dst.a = a_edge[r].unwrap_or(0.0);
            dst.av = a_edge[r].is_some();
        }
        // 3. shift B down
        #[allow(clippy::needless_range_loop)]
        for c in 0..cols {
            for r in (1..rows).rev() {
                let src = self.pes[(r - 1) * cols + c];
                let dst = &mut self.pes[r * cols + c];
                dst.b = src.b;
                dst.bv = src.bv;
            }
            let dst = &mut self.pes[c];
            dst.b = b_edge[c].unwrap_or(0.0);
            dst.bv = b_edge[c].is_some();
        }
        self.cycles += 1;
    }

    /// Accumulator of PE `(r, c)`.
    pub fn accumulator(&self, r: usize, c: usize) -> f32 {
        self.pes[self.idx(r, c)].acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarest_factorization() {
        assert_eq!(ArrayConfig::squarest(16), ArrayConfig::new(4, 4));
        assert_eq!(ArrayConfig::squarest(12), ArrayConfig::new(3, 4));
        assert_eq!(ArrayConfig::squarest(7), ArrayConfig::new(1, 7));
        assert_eq!(ArrayConfig::squarest(64).num_pes(), 64);
    }

    #[test]
    fn single_pe_accumulates_dot_product() {
        let mut arr = SystolicArray::new(ArrayConfig::new(1, 1));
        // dot([1,2,3],[4,5,6]) = 32; operands mac one cycle after entry
        for (a, b) in [
            (Some(1.0), Some(4.0)),
            (Some(2.0), Some(5.0)),
            (Some(3.0), Some(6.0)),
            (None, None),
        ] {
            arr.step(&[a], &[b]);
        }
        assert_eq!(arr.accumulator(0, 0), 32.0);
        assert_eq!(arr.macs(), 3);
        assert_eq!(arr.cycles(), 4);
    }

    #[test]
    fn reset_clears_state() {
        let mut arr = SystolicArray::new(ArrayConfig::new(2, 2));
        arr.step(&[Some(1.0), Some(1.0)], &[Some(1.0), Some(1.0)]);
        arr.step(&[Some(1.0), Some(1.0)], &[Some(1.0), Some(1.0)]);
        arr.reset();
        assert_eq!(arr.accumulator(0, 0), 0.0);
        assert_eq!(arr.accumulator(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "a_edge width")]
    fn wrong_edge_width_panics() {
        let mut arr = SystolicArray::new(ArrayConfig::new(2, 2));
        arr.step(&[Some(1.0)], &[Some(1.0), Some(1.0)]);
    }
}
