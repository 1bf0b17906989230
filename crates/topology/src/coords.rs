//! Mixed-radix coordinates for k-ary n-cube nodes.
//!
//! A node of a k-ary n-cube is addressed by one coordinate per dimension.
//! Coordinates are a small fixed-capacity value type ([`Coords`]) so that
//! hot routing paths never allocate.

/// Maximum number of dimensions supported. The paper targets
/// low-dimensional topologies (2D/3D meshes and tori); eight dimensions
/// comfortably covers hypercubes up to 256 nodes as well.
pub const MAX_DIMS: usize = 8;

/// Travel direction along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Increasing coordinate.
    Plus,
    /// Decreasing coordinate.
    Minus,
}

impl Dir {
    /// The opposite direction.
    #[inline]
    #[must_use]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::Plus => Dir::Minus,
            Dir::Minus => Dir::Plus,
        }
    }

    /// 0 for `Plus`, 1 for `Minus` (used for dense port indexing).
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Dir::Plus => 0,
            Dir::Minus => 1,
        }
    }

    /// Inverse of [`Dir::index`].
    ///
    /// # Panics
    /// Panics if `i > 1`.
    #[inline]
    #[must_use]
    pub fn from_index(i: usize) -> Dir {
        match i {
            0 => Dir::Plus,
            1 => Dir::Minus,
            _ => panic!("direction index {i} out of range"),
        }
    }
}

/// A point in a mixed-radix coordinate space; cheap to copy, never heap
/// allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coords {
    d: [u16; MAX_DIMS],
    n: u8,
}

impl Coords {
    /// Builds coordinates from a slice (one entry per dimension).
    ///
    /// # Panics
    /// Panics if `vals.len() > MAX_DIMS`.
    #[must_use]
    pub fn new(vals: &[u16]) -> Self {
        assert!(
            vals.len() <= MAX_DIMS,
            "at most {MAX_DIMS} dimensions supported, got {}",
            vals.len()
        );
        let mut d = [0u16; MAX_DIMS];
        d[..vals.len()].copy_from_slice(vals);
        Self {
            d,
            n: vals.len() as u8,
        }
    }

    /// Number of dimensions.
    #[must_use]
    pub fn ndims(&self) -> usize {
        self.n as usize
    }

    /// Coordinate along dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim >= ndims()`.
    #[must_use]
    pub fn get(&self, dim: usize) -> u16 {
        assert!(dim < self.ndims(), "dimension {dim} out of range");
        self.d[dim]
    }

    /// Sets the coordinate along `dim`.
    ///
    /// # Panics
    /// Panics if `dim >= ndims()`.
    pub fn set(&mut self, dim: usize, val: u16) {
        assert!(dim < self.ndims(), "dimension {dim} out of range");
        self.d[dim] = val;
    }

    /// The coordinates as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u16] {
        &self.d[..self.ndims()]
    }

    /// Sum of coordinates — the paper's §3.1 suggests node `(x, y)` try
    /// initial switch `1 + (x + y) mod k`; this generalises to n dims.
    #[must_use]
    pub fn coord_sum(&self) -> u64 {
        self.as_slice().iter().map(|&c| u64::from(c)).sum()
    }
}

impl std::fmt::Display for Coords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let c = Coords::new(&[3, 5, 7]);
        assert_eq!(c.ndims(), 3);
        assert_eq!(c.get(0), 3);
        assert_eq!(c.get(2), 7);
        assert_eq!(c.as_slice(), &[3, 5, 7]);
        assert_eq!(c.coord_sum(), 15);
        assert_eq!(c.to_string(), "(3,5,7)");
    }

    #[test]
    fn set_updates() {
        let mut c = Coords::new(&[0, 0]);
        c.set(1, 9);
        assert_eq!(c.get(1), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let c = Coords::new(&[1]);
        let _ = c.get(1);
    }

    #[test]
    fn dir_roundtrip() {
        for d in [Dir::Plus, Dir::Minus] {
            assert_eq!(Dir::from_index(d.index()), d);
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_ne!(Dir::Plus, Dir::Minus);
    }

    #[test]
    fn zero_dims_is_legal_point() {
        let c = Coords::new(&[]);
        assert_eq!(c.ndims(), 0);
        assert_eq!(c.coord_sum(), 0);
    }
}
