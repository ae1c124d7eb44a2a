//! A single DNN operator expressed as a 6-dimensional loop nest.

use crate::dims::{Dim, DimVec};
use std::fmt;

/// The three operand tensors of a convolution-shaped operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tensor {
    /// Filter weights (`K×C×R×S` for dense convolution).
    Weight,
    /// Input activations (`C×Y'×X'` including the sliding-window halo).
    Input,
    /// Output activations / partial sums (`K×Y×X`).
    Output,
}

impl Tensor {
    /// All three tensors.
    pub const ALL: [Tensor; 3] = [Tensor::Weight, Tensor::Input, Tensor::Output];
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Tensor::Weight => 'W',
            Tensor::Input => 'I',
            Tensor::Output => 'O',
        };
        write!(f, "{c}")
    }
}

/// The operator family of a [`Layer`].
///
/// The cost model only cares about the loop structure, so every operator is
/// normalized to the six dims `K, C, Y, X, R, S`:
///
/// * [`LayerKind::Conv`] — dense convolution; all six dims are free.
/// * [`LayerKind::DepthwiseConv`] — depthwise convolution; `C` is pinned to 1
///   and the input tensor becomes `K`-indexed (each output channel reads its
///   own input plane).
/// * [`LayerKind::Gemm`] — `O[m,n] = Σ_k A[m,k]·B[k,n]`, expressed as
///   `K←M, C←K, Y←N, X=R=S=1`. Embedding gathers are GEMMs with `C = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Dense convolution.
    Conv,
    /// Depthwise convolution (channel multiplier 1).
    DepthwiseConv,
    /// General matrix multiply.
    Gemm,
}

impl LayerKind {
    /// Which dimensions index `tensor` for this operator family.
    ///
    /// The returned mask drives the reuse analysis: a loop over an
    /// *irrelevant* dimension leaves the tensor stationary.
    pub fn relevance(self, tensor: Tensor) -> DimVec<bool> {
        let mut m = DimVec::splat(false);
        match (self, tensor) {
            (LayerKind::Conv | LayerKind::Gemm, Tensor::Weight) => {
                m[Dim::K] = true;
                m[Dim::C] = true;
                m[Dim::R] = true;
                m[Dim::S] = true;
            }
            (LayerKind::DepthwiseConv, Tensor::Weight) => {
                m[Dim::K] = true;
                m[Dim::R] = true;
                m[Dim::S] = true;
            }
            (LayerKind::Conv | LayerKind::Gemm, Tensor::Input) => {
                m[Dim::C] = true;
                m[Dim::Y] = true;
                m[Dim::X] = true;
                m[Dim::R] = true;
                m[Dim::S] = true;
            }
            (LayerKind::DepthwiseConv, Tensor::Input) => {
                m[Dim::K] = true;
                m[Dim::Y] = true;
                m[Dim::X] = true;
                m[Dim::R] = true;
                m[Dim::S] = true;
            }
            (_, Tensor::Output) => {
                m[Dim::K] = true;
                m[Dim::Y] = true;
                m[Dim::X] = true;
            }
        }
        m
    }
}

/// Footprint (in data words) of `tensor` for a tile of extents `tile`.
///
/// The input footprint includes the sliding-window halo:
/// `C·((Y−1)·stride+R)·((X−1)·stride+S)`. This refines the paper's
/// Fig. 3(f) formula (`I = C·X·Y`), which ignores the halo; the halo-aware
/// value is never smaller, so buffer requirements remain safe.
///
/// # Examples
///
/// ```
/// use digamma_workload::{tensor_footprint, DimVec, LayerKind, Tensor};
///
/// // A 1×1 conv tile: input footprint is C·Y·X exactly.
/// let tile = DimVec([4u64, 8, 3, 3, 1, 1]);
/// assert_eq!(tensor_footprint(LayerKind::Conv, Tensor::Input, &tile, 1), 8 * 3 * 3);
/// ```
pub fn tensor_footprint(kind: LayerKind, tensor: Tensor, tile: &DimVec<u64>, stride: u64) -> u64 {
    let t = |d: Dim| tile[d];
    match (kind, tensor) {
        (LayerKind::Conv | LayerKind::Gemm, Tensor::Weight) => {
            t(Dim::K) * t(Dim::C) * t(Dim::R) * t(Dim::S)
        }
        (LayerKind::DepthwiseConv, Tensor::Weight) => t(Dim::K) * t(Dim::R) * t(Dim::S),
        (LayerKind::Conv | LayerKind::Gemm, Tensor::Input) => {
            let h = (t(Dim::Y) - 1) * stride + t(Dim::R);
            let w = (t(Dim::X) - 1) * stride + t(Dim::S);
            t(Dim::C) * h * w
        }
        (LayerKind::DepthwiseConv, Tensor::Input) => {
            let h = (t(Dim::Y) - 1) * stride + t(Dim::R);
            let w = (t(Dim::X) - 1) * stride + t(Dim::S);
            t(Dim::K) * h * w
        }
        (_, Tensor::Output) => t(Dim::K) * t(Dim::Y) * t(Dim::X),
    }
}

/// One operator of a DNN model: a named 6-dim loop nest with a stride.
///
/// Extents use *output* spatial coordinates (`Y`, `X` are output rows and
/// columns); the input halo is reconstructed by [`tensor_footprint`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    dims: DimVec<u64>,
    stride: u64,
}

impl Layer {
    /// Creates a dense convolution layer.
    ///
    /// `k, c` are output/input channels; `y, x` output rows/cols; `r, s`
    /// filter rows/cols; `stride` the convolution stride.
    ///
    /// # Panics
    ///
    /// Panics if any extent or the stride is zero.
    pub fn conv(
        name: impl Into<String>,
        k: u64,
        c: u64,
        y: u64,
        x: u64,
        r: u64,
        s: u64,
        stride: u64,
    ) -> Layer {
        let dims = DimVec([k, c, y, x, r, s]);
        assert!(dims.all_positive() && stride >= 1, "layer extents must be positive");
        Layer { name: name.into(), kind: LayerKind::Conv, dims, stride }
    }

    /// Creates a depthwise convolution layer with `k` channels.
    ///
    /// # Panics
    ///
    /// Panics if any extent or the stride is zero.
    pub fn depthwise(
        name: impl Into<String>,
        k: u64,
        y: u64,
        x: u64,
        r: u64,
        s: u64,
        stride: u64,
    ) -> Layer {
        let dims = DimVec([k, 1, y, x, r, s]);
        assert!(dims.all_positive() && stride >= 1, "layer extents must be positive");
        Layer { name: name.into(), kind: LayerKind::DepthwiseConv, dims, stride }
    }

    /// Creates a GEMM layer computing `O[m,n] = Σ_k A[m,k]·B[k,n]`.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn gemm(name: impl Into<String>, m: u64, n: u64, k: u64) -> Layer {
        let dims = DimVec([m, k, n, 1, 1, 1]);
        assert!(dims.all_positive(), "layer extents must be positive");
        Layer { name: name.into(), kind: LayerKind::Gemm, dims, stride: 1 }
    }

    /// The layer's name (unique within a model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the layer (used when composing models).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The operator family.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Loop-nest extents in canonical `K, C, Y, X, R, S` order.
    pub fn dims(&self) -> &DimVec<u64> {
        &self.dims
    }

    /// Convolution stride (1 for GEMMs).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total multiply-accumulate operations: the product of all six extents.
    ///
    /// This is invariant under any mapping — a property the cost-model test
    /// suite checks.
    pub fn macs(&self) -> u64 {
        self.dims.product()
    }

    /// Footprint of `tensor` over the whole layer, in words.
    pub fn tensor_size(&self, tensor: Tensor) -> u64 {
        tensor_footprint(self.kind, tensor, &self.dims, self.stride)
    }

    /// Sum of all three tensor footprints over the whole layer, in words.
    pub fn total_data(&self) -> u64 {
        Tensor::ALL.iter().map(|&t| self.tensor_size(t)).sum()
    }

    /// Arithmetic intensity: MACs per data word moved at minimum.
    ///
    /// CNN layers land in the hundreds (compute-bound); embedding gathers
    /// land below 1 (memory-bound). The paper's edge/cloud narratives hinge
    /// on this spread.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.macs() as f64 / self.total_data() as f64
    }

    /// A shape key identifying layers that are interchangeable for mapping
    /// purposes (same kind, extents, and stride, ignoring the name).
    pub fn shape_key(&self) -> (LayerKind, DimVec<u64>, u64) {
        (self.kind, self.dims, self.stride)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?} {} s{}", self.name, self.kind, self.dims, self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macs_and_footprints() {
        // 64 output channels, 32 input, 16x16 outputs, 3x3 filters.
        let l = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        assert_eq!(l.macs(), 64 * 32 * 16 * 16 * 3 * 3);
        assert_eq!(l.tensor_size(Tensor::Weight), 64 * 32 * 3 * 3);
        assert_eq!(l.tensor_size(Tensor::Output), 64 * 16 * 16);
        // Input includes the halo: (16-1)*1+3 = 18 per spatial dim.
        assert_eq!(l.tensor_size(Tensor::Input), 32 * 18 * 18);
    }

    #[test]
    fn strided_conv_halo() {
        let l = Layer::conv("l", 8, 8, 10, 10, 3, 3, 2);
        // (10-1)*2+3 = 21.
        assert_eq!(l.tensor_size(Tensor::Input), 8 * 21 * 21);
    }

    #[test]
    fn gemm_maps_to_conv_dims() {
        let l = Layer::gemm("g", 768, 512, 3072);
        assert_eq!(l.dims()[Dim::K], 768);
        assert_eq!(l.dims()[Dim::C], 3072);
        assert_eq!(l.dims()[Dim::Y], 512);
        assert_eq!(l.macs(), 768 * 512 * 3072);
        assert_eq!(l.tensor_size(Tensor::Weight), 768 * 3072);
        assert_eq!(l.tensor_size(Tensor::Input), 3072 * 512);
        assert_eq!(l.tensor_size(Tensor::Output), 768 * 512);
    }

    #[test]
    fn depthwise_input_is_k_indexed() {
        let l = Layer::depthwise("dw", 32, 14, 14, 3, 3, 1);
        assert_eq!(l.dims()[Dim::C], 1);
        assert_eq!(l.tensor_size(Tensor::Weight), 32 * 3 * 3);
        assert_eq!(l.tensor_size(Tensor::Input), 32 * 16 * 16);
        let rel = LayerKind::DepthwiseConv.relevance(Tensor::Input);
        assert!(rel[Dim::K]);
        assert!(!rel[Dim::C]);
    }

    #[test]
    fn relevance_masks_cover_expected_dims() {
        let w = LayerKind::Conv.relevance(Tensor::Weight);
        assert_eq!(Dim::ALL.map(|d| w[d]), [true, true, false, false, true, true]);
        let o = LayerKind::Gemm.relevance(Tensor::Output);
        assert_eq!(Dim::ALL.map(|d| o[d]), [true, false, true, true, false, false]);
    }

    #[test]
    fn embedding_gather_is_memory_bound() {
        // Embedding row gather: 64-wide rows, batch 256, no reduction.
        let l = Layer::gemm("emb", 64, 256, 1);
        assert!(l.arithmetic_intensity() < 1.0);
        let conv = Layer::conv("c", 256, 256, 14, 14, 3, 3, 1);
        assert!(conv.arithmetic_intensity() > 50.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = Layer::conv("bad", 0, 1, 1, 1, 1, 1, 1);
    }

    #[test]
    fn shape_key_ignores_name() {
        let a = Layer::conv("a", 8, 8, 8, 8, 3, 3, 1);
        let b = Layer::conv("b", 8, 8, 8, 8, 3, 3, 1);
        assert_eq!(a.shape_key(), b.shape_key());
    }
}
