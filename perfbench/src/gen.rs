//! Seeded input generation: the cube, the read stream of each client and
//! the update boxes all come from [`SplitMix64`] streams derived from the
//! workload seed, so one seed always yields the same inputs.

use ss_datagen::SplitMix64;
use ss_serve::Query;

/// Stream tags: each input gets its own generator derived from the seed.
pub const TAG_CUBE: u64 = 1;
/// Read stream of client `c` is `TAG_READS + c`.
pub const TAG_READS: u64 = 16;
/// The update-box stream of the writer connection.
pub const TAG_BOXES: u64 = 32;
/// Sampled queries checked after the run (reopen / scrub checks).
pub const TAG_SAMPLES: u64 = 48;

/// Cells of the generated cube take integer values in `[0, CELL_MAX)`.
pub const CELL_MAX: usize = 1000;
/// Update boxes carry integer deltas in `[-BOX_DELTA, BOX_DELTA]`.
pub const BOX_DELTA: usize = 8;
/// Share of point queries in the read mix, in percent (the rest are range sums).
pub const POINT_PCT: usize = 70;

/// The generator for input `tag` under workload seed `seed`.
pub fn rng(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Row-major cube (last axis fastest) of `dims`, integer-valued so the
/// oracle's prefix sums are exact.
pub fn cube(seed: u64, dims: &[usize]) -> Vec<i64> {
    let mut r = rng(seed, TAG_CUBE);
    let cells: usize = dims.iter().product();
    (0..cells).map(|_| r.below(CELL_MAX) as i64).collect()
}

/// The next query of a read stream: 70% point lookups, 30% range sums,
/// positions uniform over the domain.
pub fn next_query(r: &mut SplitMix64, dims: &[usize]) -> Query {
    if r.below(100) < POINT_PCT {
        Query::Point {
            pos: dims.iter().map(|&d| r.below(d)).collect(),
        }
    } else {
        let mut lo = Vec::with_capacity(dims.len());
        let mut hi = Vec::with_capacity(dims.len());
        for &d in dims {
            let (a, b) = (r.below(d), r.below(d));
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
        Query::RangeSum { lo, hi }
    }
}

/// One update box: lower corner, extents and row-major integer deltas.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateBox {
    /// Lower corner.
    pub at: Vec<usize>,
    /// Per-axis extents.
    pub dims: Vec<usize>,
    /// Row-major deltas.
    pub data: Vec<f64>,
}

impl UpdateBox {
    /// Sum of the box's deltas over the cells it shares with `[lo, hi]`.
    pub fn overlap_sum(&self, lo: &[usize], hi: &[usize]) -> i64 {
        let d = self.at.len();
        let mut a = vec![0usize; d];
        let mut b = vec![0usize; d];
        for t in 0..d {
            let (s, e) = (self.at[t], self.at[t] + self.dims[t] - 1);
            if e < lo[t] || s > hi[t] {
                return 0;
            }
            a[t] = s.max(lo[t]) - s;
            b[t] = e.min(hi[t]) - s;
        }
        let mut sum = 0i64;
        let mut idx = a.clone();
        loop {
            let off = idx
                .iter()
                .zip(&self.dims)
                .fold(0, |off, (&i, &e)| off * e + i);
            sum += self.data[off] as i64;
            let mut t = d;
            loop {
                if t == 0 {
                    return sum;
                }
                t -= 1;
                if idx[t] < b[t] {
                    idx[t] += 1;
                    break;
                }
                idx[t] = a[t];
            }
        }
    }
}

/// The next `side`-cube update box, placed uniformly inside the domain.
pub fn next_box(r: &mut SplitMix64, dims: &[usize], side: usize) -> UpdateBox {
    let at = dims.iter().map(|&d| r.below(d - side + 1)).collect();
    let ext = vec![side; dims.len()];
    let cells = side.pow(dims.len() as u32);
    let data = (0..cells)
        .map(|_| r.below(2 * BOX_DELTA + 1) as f64 - BOX_DELTA as f64)
        .collect();
    UpdateBox {
        at,
        dims: ext,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(cube(7, &[8, 8]), cube(7, &[8, 8]));
        assert_ne!(cube(7, &[8, 8]), cube(8, &[8, 8]));
        let (mut a, mut b) = (rng(3, TAG_READS), rng(3, TAG_READS));
        for _ in 0..100 {
            assert_eq!(next_query(&mut a, &[64, 64]), next_query(&mut b, &[64, 64]));
        }
    }

    #[test]
    fn overlap_sum_clips_to_the_range() {
        let b = UpdateBox {
            at: vec![2, 2],
            dims: vec![2, 2],
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert_eq!(b.overlap_sum(&[0, 0], &[9, 9]), 10);
        assert_eq!(b.overlap_sum(&[3, 0], &[9, 9]), 7);
        assert_eq!(b.overlap_sum(&[2, 3], &[2, 3]), 2);
        assert_eq!(b.overlap_sum(&[4, 4], &[9, 9]), 0);
    }
}
