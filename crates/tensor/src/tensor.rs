//! The dense NCHW [`Tensor`] type.

use crate::shape::Shape;
use std::fmt;

/// A dense, row-major NCHW tensor of `f32` values.
///
/// This is the working currency of the EyeCoD reproduction: images, feature
/// maps, weights and gradients are all `Tensor`s. The type deliberately keeps
/// a single element type and layout; the accelerator simulator reasons about
/// layouts symbolically instead.
///
/// # Example
///
/// ```
/// use eyecod_tensor::{Tensor, Shape};
/// let mut t = Tensor::zeros(Shape::new(1, 1, 2, 2));
/// *t.at_mut(0, 0, 1, 1) = 3.0;
/// assert_eq!(t.at(0, 0, 1, 1), 3.0);
/// assert_eq!(t.sum(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: Shape) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape} ({} elements)",
            data.len(),
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Creates a tensor by evaluating `f(n, c, h, w)` at every position.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize, usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        data.push(f(n, c, h, w));
                    }
                }
            }
        }
        Tensor { shape, data }
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// A read-only view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its data buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by 4-D coordinates.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Mutable element access by 4-D coordinates.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.shape.index(n, c, h, w);
        &mut self.data[i]
    }

    /// Reinterprets the data with a new shape of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.shape.len(),
            shape.len(),
            "cannot reshape {} into {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equal-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other * s` (AXPY), used by optimisers.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Fills the tensor with a constant value.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum absolute value (`‖·‖∞`).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Extracts one batch item as a new single-item tensor.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn batch_item(&self, n: usize) -> Tensor {
        assert!(n < self.shape.n, "batch index {n} out of range");
        let item = self.shape.item_len();
        let shape = Shape::new(1, self.shape.c, self.shape.h, self.shape.w);
        Tensor::from_vec(shape, self.data[n * item..(n + 1) * item].to_vec())
    }

    /// Borrows batch item `n` as a contiguous `c*h*w` slice — the
    /// allocation-free gather/scatter primitive for batching many
    /// single-item tensors into one batch buffer (and reading per-item
    /// rows back out).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn batch_item_slice(&self, n: usize) -> &[f32] {
        assert!(n < self.shape.n, "batch index {n} out of range");
        let item = self.shape.item_len();
        &self.data[n * item..(n + 1) * item]
    }

    /// Stacks single-item tensors along the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or item shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let first = items[0].shape();
        let mut data = Vec::with_capacity(first.item_len() * items.len());
        let mut n_total = 0;
        for t in items {
            assert_eq!(
                (t.shape().c, t.shape().h, t.shape().w),
                (first.c, first.h, first.w),
                "stacked tensors must share item shape"
            );
            n_total += t.shape().n;
            data.extend_from_slice(t.as_slice());
        }
        Tensor::from_vec(Shape::new(n_total, first.c, first.h, first.w), data)
    }

    /// A single channel plane `(h, w)` of batch item `n`, as a flat slice.
    pub fn channel_plane(&self, n: usize, c: usize) -> &[f32] {
        let start = self.shape.index(n, c, 0, 0);
        &self.data[start..start + self.shape.spatial_len()]
    }

    /// Returns true if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Reshapes this tensor in place to `shape`, zero-filled, reusing the
    /// existing allocation when its capacity suffices. The workhorse of the
    /// workspace (`*_into`) kernels: after warm-up, reshaping a scratch
    /// tensor allocates nothing.
    pub fn reset(&mut self, shape: Shape) {
        self.data.clear();
        self.data.resize(shape.len(), 0.0);
        self.shape = shape;
    }

    /// Makes this tensor an element-wise copy of `other`, reusing the
    /// existing allocation when possible.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        self.shape = other.shape;
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor({}, min={:.4}, max={:.4}, mean={:.4})",
            self.shape,
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: Shape) -> Tensor {
        let len = shape.len();
        Tensor::from_vec(shape, (0..len).map(|i| i as f32).collect())
    }

    #[test]
    fn constructors() {
        let s = Shape::new(1, 2, 2, 2);
        assert_eq!(Tensor::zeros(s).sum(), 0.0);
        assert_eq!(Tensor::ones(s).sum(), 8.0);
        assert_eq!(Tensor::full(s, 2.5).mean(), 2.5);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_len() {
        Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![1.0; 3]);
    }

    #[test]
    fn from_fn_ordering() {
        let t = Tensor::from_fn(Shape::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 4 + h * 2 + w) as f32
        });
        assert_eq!(t.as_slice(), &[0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn elementwise_math() {
        let a = seq(Shape::new(1, 1, 2, 2));
        let b = Tensor::ones(Shape::new(1, 1, 2, 2));
        assert_eq!(a.add(&b).as_slice(), &[1., 2., 3., 4.]);
        assert_eq!(a.sub(&b).as_slice(), &[-1., 0., 1., 2.]);
        assert_eq!(a.mul(&a).as_slice(), &[0., 1., 4., 9.]);
        assert_eq!(a.scale(2.0).as_slice(), &[0., 2., 4., 6.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(Shape::new(1, 1, 1, 3));
        let g = Tensor::from_vec(Shape::new(1, 1, 1, 3), vec![1., 2., 3.]);
        a.axpy(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_vec(Shape::new(1, 1, 1, 4), vec![-2., 0., 1., 5.]);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.max_abs(), 5.0);
        assert_eq!(t.mean(), 1.0);
        assert!((t.norm() - (4.0f32 + 1.0 + 25.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn batch_item_and_stack_round_trip() {
        let t = seq(Shape::new(3, 2, 2, 2));
        let items: Vec<Tensor> = (0..3).map(|n| t.batch_item(n)).collect();
        let restacked = Tensor::stack(&items);
        assert_eq!(restacked, t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = seq(Shape::new(1, 2, 2, 2)).reshape(Shape::vector(2, 4));
        assert_eq!(t.shape().dims(), (2, 4, 1, 1));
        assert_eq!(t.at(1, 3, 0, 0), 7.0);
    }

    #[test]
    fn channel_plane_view() {
        let t = seq(Shape::new(1, 2, 2, 2));
        assert_eq!(t.channel_plane(0, 1), &[4., 5., 6., 7.]);
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut t = seq(Shape::new(1, 2, 2, 2));
        let cap_probe = t.as_slice().as_ptr();
        t.reset(Shape::new(1, 1, 2, 2));
        assert_eq!(t.shape().dims(), (1, 1, 2, 2));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(t.as_slice().as_ptr(), cap_probe, "no realloc on shrink");
        let src = seq(Shape::new(1, 1, 1, 3));
        t.copy_from(&src);
        assert_eq!(t, src);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(Shape::new(1, 1, 1, 2));
        assert!(!t.has_non_finite());
        *t.at_mut(0, 0, 0, 1) = f32::NAN;
        assert!(t.has_non_finite());
    }
}
