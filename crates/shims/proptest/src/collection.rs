//! `prop::collection` — strategies for containers.

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;
use rand::Rng;

/// A `Vec` whose length is drawn from `len` and whose elements are drawn
/// from `element`.
pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, len }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: core::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        let n = runner.rng().gen_range(self.len.clone());
        (0..n).map(|_| self.element.sample(runner)).collect()
    }
}
