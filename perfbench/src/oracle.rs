//! The answer oracle: exact integer prefix sums of the generated cube plus
//! a shadow of every committed update box.
//!
//! A served answer `got` passes when `|got - want| <= REL_TOL * max(|want|, 1)`.
//! The cube and the box deltas are integers, so `want` is exact; the
//! tolerance only absorbs the floating-point rounding of the wavelet
//! reconstruction.

use crate::gen::UpdateBox;
use ss_serve::Query;

/// Relative tolerance of an answer check.
pub const REL_TOL: f64 = 1e-9;

/// Whether `got` matches the exact answer `want` within [`REL_TOL`].
pub fn matches(got: f64, want: i64) -> bool {
    let want = want as f64;
    got.is_finite() && (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

/// Exact prefix sums over a `d`-dimensional integer cube.
pub struct Oracle {
    dims: Vec<usize>,
    /// Prefix sums over the cube padded by one leading zero plane per axis.
    prefix: Vec<i64>,
    /// Strides of the padded array.
    strides: Vec<usize>,
}

impl Oracle {
    /// Builds the prefix sums of the row-major `cells` of shape `dims`.
    pub fn new(dims: &[usize], cells: &[i64]) -> Oracle {
        let d = dims.len();
        let padded: Vec<usize> = dims.iter().map(|&n| n + 1).collect();
        let mut strides = vec![1usize; d];
        for t in (0..d.saturating_sub(1)).rev() {
            strides[t] = strides[t + 1] * padded[t + 1];
        }
        let total: usize = padded.iter().product();
        let mut prefix = vec![0i64; total];
        // Scatter the cells one past each axis origin, then run a
        // cumulative sum along every axis in turn.
        let mut idx = vec![0usize; d];
        for &v in cells {
            let off: usize = idx.iter().zip(&strides).map(|(&i, &s)| (i + 1) * s).sum();
            prefix[off] = v;
            for t in (0..d).rev() {
                idx[t] += 1;
                if idx[t] < dims[t] {
                    break;
                }
                idx[t] = 0;
            }
        }
        for t in 0..d {
            let s = strides[t];
            for off in 0..total {
                if !(off / s).is_multiple_of(padded[t]) {
                    prefix[off] += prefix[off - s];
                }
            }
        }
        Oracle {
            dims: dims.to_vec(),
            prefix,
            strides,
        }
    }

    /// Domain extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Exact sum of the cube over the inclusive box `[lo, hi]`.
    pub fn range_sum(&self, lo: &[usize], hi: &[usize]) -> i64 {
        let d = self.dims.len();
        let mut sum = 0i64;
        for mask in 0..(1usize << d) {
            let mut off = 0;
            let mut lows = 0;
            for t in 0..d {
                if mask >> t & 1 == 1 {
                    off += (hi[t] + 1) * self.strides[t];
                } else {
                    off += lo[t] * self.strides[t];
                    lows += 1;
                }
            }
            if lows % 2 == 0 {
                sum += self.prefix[off];
            } else {
                sum -= self.prefix[off];
            }
        }
        sum
    }

    /// Exact answer to `q` on the base cube plus `boxes` (committed updates).
    pub fn answer(&self, q: &Query, boxes: &[UpdateBox]) -> i64 {
        let (lo, hi) = bounds(q);
        self.range_sum(lo, hi) + boxes.iter().map(|b| b.overlap_sum(lo, hi)).sum::<i64>()
    }
}

/// The inclusive box a point or range query covers.
pub fn bounds(q: &Query) -> (&[usize], &[usize]) {
    match q {
        Query::Point { pos } => (pos, pos),
        Query::RangeSum { lo, hi } => (lo, hi),
        Query::Partial { .. } => panic!("the benchmark never generates partial sub-plans"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn brute(dims: &[usize], cells: &[i64], lo: &[usize], hi: &[usize]) -> i64 {
        let mut sum = 0;
        for (k, &v) in cells.iter().enumerate() {
            let mut rest = k;
            let mut inside = true;
            for t in (0..dims.len()).rev() {
                let i = rest % dims[t];
                rest /= dims[t];
                inside &= lo[t] <= i && i <= hi[t];
            }
            if inside {
                sum += v;
            }
        }
        sum
    }

    #[test]
    fn prefix_sums_match_brute_force_in_2d_and_3d() {
        for dims in [vec![8, 16], vec![4, 8, 8]] {
            let cells = gen::cube(5, &dims);
            let o = Oracle::new(&dims, &cells);
            let mut r = gen::rng(5, gen::TAG_READS);
            for _ in 0..200 {
                let q = gen::next_query(&mut r, &dims);
                let (lo, hi) = bounds(&q);
                assert_eq!(o.range_sum(lo, hi), brute(&dims, &cells, lo, hi));
            }
        }
    }

    #[test]
    fn oracle_catches_a_perturbed_answer() {
        let dims = [16, 16];
        let cells = gen::cube(9, &dims);
        let o = Oracle::new(&dims, &cells);
        let mut r = gen::rng(9, gen::TAG_READS);
        let boxes = vec![gen::next_box(&mut r, &dims, 8)];
        for _ in 0..100 {
            let q = gen::next_query(&mut r, &dims);
            let want = o.answer(&q, &boxes);
            assert!(matches(want as f64, want));
            // Rounding noise far below the tolerance still passes ...
            assert!(matches(want as f64 * (1.0 + 1e-12), want));
            // ... a wrong answer does not.
            assert!(!matches(want as f64 + 0.5, want));
            assert!(!matches(want as f64 * (1.0 + 1e-6) + 1e-3, want));
            assert!(!matches(f64::NAN, want));
            // Forgetting a committed box is caught too, when it overlaps.
            let without = o.answer(&q, &[]);
            if without != want {
                assert!(!matches(without as f64, want));
            }
        }
    }
}
