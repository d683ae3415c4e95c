//! Collection strategies (subset of `proptest::collection`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::TestRng;

/// Strategy for `Vec`s whose length is drawn from `size` and whose
/// elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty size range for collection::vec");
    VecStrategy { element, size }
}

/// Result of [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.start + rng.below(self.size.end - self.size.start);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
