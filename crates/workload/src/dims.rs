//! The six canonical loop dimensions and a small fixed-size map keyed by them.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of loop dimensions in a convolution-shaped workload.
pub const NUM_DIMS: usize = 6;

/// A loop dimension of a convolution-shaped workload.
///
/// The naming follows the paper (Fig. 3(g)): `K` output channels, `C` input
/// channels, `Y`/`X` output rows/columns, `R`/`S` filter rows/columns.
/// GEMMs are expressed with `K←M, C←K, Y←N, X=R=S=1` (see
/// [`LayerKind::Gemm`](crate::LayerKind::Gemm)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Dim {
    /// Output channels.
    K = 0,
    /// Input channels (reduction).
    C = 1,
    /// Output rows.
    Y = 2,
    /// Output columns.
    X = 3,
    /// Filter rows (reduction).
    R = 4,
    /// Filter columns (reduction).
    S = 5,
}

impl Dim {
    /// All dimensions, in canonical `K, C, Y, X, R, S` order.
    pub const ALL: [Dim; NUM_DIMS] = [Dim::K, Dim::C, Dim::Y, Dim::X, Dim::R, Dim::S];

    /// Returns the canonical index of this dimension (0..6).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the dimension with canonical index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 6`.
    #[inline]
    pub fn from_index(i: usize) -> Dim {
        Dim::ALL[i]
    }

    /// Whether this dimension participates in the output reduction
    /// (`C`, `R`, `S` accumulate partial sums; `K`, `Y`, `X` index outputs).
    #[inline]
    pub fn is_reduction(self) -> bool {
        matches!(self, Dim::C | Dim::R | Dim::S)
    }

    /// One-letter name used in encodings and reports.
    pub fn letter(self) -> char {
        match self {
            Dim::K => 'K',
            Dim::C => 'C',
            Dim::Y => 'Y',
            Dim::X => 'X',
            Dim::R => 'R',
            Dim::S => 'S',
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// A fixed-size map from [`Dim`] to `T`.
///
/// This is the workhorse container of the whole reproduction: workload
/// extents, tile sizes, and iteration counts are all `DimVec`s.
///
/// # Examples
///
/// ```
/// use digamma_workload::{Dim, DimVec};
///
/// let mut tiles = DimVec::splat(1u64);
/// tiles[Dim::K] = 16;
/// assert_eq!(tiles.product(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimVec<T>(pub [T; NUM_DIMS]);

impl<T: Copy> DimVec<T> {
    /// Creates a `DimVec` with every entry set to `value`.
    pub fn splat(value: T) -> Self {
        DimVec([value; NUM_DIMS])
    }

    /// Applies `f` to every entry, producing a new `DimVec`.
    pub fn map<U, F: FnMut(T) -> U>(self, mut f: F) -> DimVec<U> {
        let [k, c, y, x, r, s] = self.0;
        DimVec([f(k), f(c), f(y), f(x), f(r), f(s)])
    }

    /// Combines two `DimVec`s entry-wise.
    pub fn zip_with<U: Copy, V, F: FnMut(T, U) -> V>(
        self,
        other: DimVec<U>,
        mut f: F,
    ) -> DimVec<V> {
        let a = self.0;
        let b = other.0;
        DimVec([
            f(a[0], b[0]),
            f(a[1], b[1]),
            f(a[2], b[2]),
            f(a[3], b[3]),
            f(a[4], b[4]),
            f(a[5], b[5]),
        ])
    }

    /// Iterates `(Dim, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Dim, T)> + '_ {
        Dim::ALL.iter().map(move |&d| (d, self.0[d.index()]))
    }
}

impl DimVec<u64> {
    /// Product of all entries (uses `u128` internally to avoid overflow).
    ///
    /// # Panics
    ///
    /// Panics if the product does not fit in `u64` (workload extents in this
    /// crate are far below that).
    pub fn product(&self) -> u64 {
        let p: u128 = self.0.iter().map(|&v| v as u128).product();
        u64::try_from(p).expect("dimension product overflows u64")
    }

    /// Entry-wise minimum with another `DimVec`.
    pub fn min(&self, other: &DimVec<u64>) -> DimVec<u64> {
        self.zip_with(*other, u64::min)
    }

    /// True when every entry is at least 1.
    pub fn all_positive(&self) -> bool {
        self.0.iter().all(|&v| v >= 1)
    }

    /// True when `self[d] <= other[d]` for every dimension.
    pub fn fits_within(&self, other: &DimVec<u64>) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a <= b)
    }
}

impl<T> Index<Dim> for DimVec<T> {
    type Output = T;
    #[inline]
    fn index(&self, d: Dim) -> &T {
        &self.0[d.index()]
    }
}

impl<T> IndexMut<Dim> for DimVec<T> {
    #[inline]
    fn index_mut(&mut self, d: Dim) -> &mut T {
        &mut self.0[d.index()]
    }
}

impl<T: Copy + Default> Default for DimVec<T> {
    fn default() -> Self {
        DimVec([T::default(); NUM_DIMS])
    }
}

impl<T: fmt::Display> fmt::Display for DimVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in Dim::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}:{}", d, self.0[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_roundtrips_through_index() {
        for d in Dim::ALL {
            assert_eq!(Dim::from_index(d.index()), d);
        }
    }

    #[test]
    fn reduction_dims_are_c_r_s() {
        let reductions: Vec<Dim> = Dim::ALL.iter().copied().filter(|d| d.is_reduction()).collect();
        assert_eq!(reductions, vec![Dim::C, Dim::R, Dim::S]);
    }

    #[test]
    fn dimvec_indexing_and_product() {
        let mut v = DimVec::splat(2u64);
        v[Dim::Y] = 5;
        assert_eq!(v[Dim::Y], 5);
        assert_eq!(v.product(), 2 * 2 * 5 * 2 * 2 * 2);
    }

    #[test]
    fn dimvec_zip_and_min() {
        let a = DimVec([1u64, 2, 3, 4, 5, 6]);
        let b = DimVec([6u64, 5, 4, 3, 2, 1]);
        assert_eq!(a.min(&b), DimVec([1, 2, 3, 3, 2, 1]));
        let sum = a.zip_with(b, |x, y| x + y);
        assert_eq!(sum, DimVec::splat(7));
    }

    #[test]
    fn fits_within_is_entrywise() {
        let small = DimVec([1u64, 2, 3, 1, 1, 1]);
        let big = DimVec([2u64, 2, 3, 1, 1, 1]);
        assert!(small.fits_within(&big));
        assert!(!big.fits_within(&small));
    }

    #[test]
    fn display_is_nonempty() {
        let v = DimVec::splat(3u64);
        let s = format!("{v}");
        assert!(s.contains("K:3"));
        assert!(s.contains("S:3"));
    }
}
