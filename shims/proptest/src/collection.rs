//! Collection strategies (`collection::vec`).

use core::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::strategy::{Strategy, TestRng};

/// Inclusive size bounds for a generated collection.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.min..=self.max)
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max: exact,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty collection size range");
        SizeRange {
            min: range.start,
            max: range.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> Self {
        assert!(range.start() <= range.end(), "empty collection size range");
        SizeRange {
            min: *range.start(),
            max: *range.end(),
        }
    }
}

/// Generates a `Vec` whose length is drawn from `size` and whose
/// elements are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
