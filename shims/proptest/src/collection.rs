//! Collection strategies.

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        assert!(self.size.start < self.size.end, "empty vec size range");
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Generates `Vec`s whose length falls in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}
