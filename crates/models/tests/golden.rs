//! Golden output bits of the frame path's networks.
//!
//! The convolution kernels are free to change their loop structure and
//! memory layout, but never a single output bit: every kernel keeps the
//! per-element accumulation order (f32: mul then add, no FMA, taps in
//! ascending order) or accumulates exactly (int8 in `i32`). These digests
//! were recorded from the kernels before their inner loops were vectorised,
//! and every dispatch mode (`EYECOD_NO_SIMD=1` or not) must reproduce them.
//!
//! Each digest is FNV-1a over the raw bit patterns, so a one-ulp drift in
//! any element changes it.

use eyecod_models::infer::GazeInferWorkspace;
use eyecod_models::proxy::{predict_seg, GazeFamily, ProxyGazeNet, ProxySegNet};
use eyecod_models::quantized::QuantizedGazeNet;
use eyecod_tensor::{Layer, Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn digest(t: &Tensor) -> u64 {
    fnv1a(t.as_slice().iter().map(|v| v.to_bits()))
}

fn random_batch(n: usize, h: usize, w: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape::new(n, 1, h, w), |_, _, _, _| rng.gen_range(0.0..1.0))
}

/// A seeded gaze network whose batch-norm running statistics were moved
/// off the identity by training-mode forwards (which run the direct
/// `conv2d`, so they are pinned too).
fn gaze_net(family: GazeFamily, seed: u64) -> ProxyGazeNet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = ProxyGazeNet::new(family, &mut rng);
    let batch = random_batch(6, 24, 32, seed ^ 0x5A);
    for _ in 0..3 {
        net.forward(&batch, true);
    }
    net
}

/// f32 `forward_infer` (channel and position tiles) for one crop and a
/// batch of three.
fn f32_digests(family: GazeFamily, seed: u64) -> [u64; 2] {
    let net = gaze_net(family, seed);
    let mut ws = GazeInferWorkspace::new();
    let mut out = Tensor::zeros(Shape::vector(1, 1));
    [1, 3].map(|n| {
        net.forward_infer(&random_batch(n, 24, 32, seed + n as u64), &mut ws, &mut out);
        digest(&out)
    })
}

#[test]
fn f32_gaze_forward_bits_are_pinned() {
    let got = [
        f32_digests(GazeFamily::ResNetLike, 11),
        f32_digests(GazeFamily::FbnetLike, 12),
    ];
    assert_eq!(got, GOLDEN_F32, "f32 forward_infer output bits changed");
}

#[test]
fn int8_gaze_forward_and_activation_bits_are_pinned() {
    let mut got = Vec::new();
    for (family, seed) in [(GazeFamily::ResNetLike, 21), (GazeFamily::FbnetLike, 22)] {
        let net = gaze_net(family, seed);
        let qnet = QuantizedGazeNet::from_calibrated(&net, &random_batch(4, 24, 32, seed));
        let scales: Vec<u32> = qnet.conv_out_scales().iter().map(|s| s.to_bits()).collect();
        got.push(fnv1a(scales));
        let x = random_batch(3, 24, 32, seed + 1);
        // every dequantised int8 activation, layer by layer
        got.push(fnv1a(
            qnet.layer_outputs(&x)
                .iter()
                .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits())),
        ));
        let mut ws = GazeInferWorkspace::new();
        let mut out = Tensor::zeros(Shape::vector(1, 1));
        qnet.forward_into(&x, &mut ws, &mut out);
        got.push(digest(&out));
    }
    assert_eq!(
        got, GOLDEN_INT8,
        "int8 calibration, activations or gaze changed"
    );
}

#[test]
fn segmentation_logits_and_labels_are_pinned() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut net = ProxySegNet::new(8, &mut rng);
    let x = random_batch(2, 24, 24, 32);
    let logits = net.forward(&x, false);
    let labels = predict_seg(&net, &x);
    let got = [digest(&logits), fnv1a(labels.iter().map(|&l| l as u32))];
    assert_eq!(got, GOLDEN_SEG, "segmentation logits or labels changed");
}

/// `[ResNet-like, FBNet-like] × [1 crop, 3 crops]`.
const GOLDEN_F32: [[u64; 2]; 2] = [
    [17727287685282230559, 594716530627269003],
    [12018468677762893905, 3563272912280870128],
];
/// Per family (ResNet-like, FBNet-like): calibrated scales, every layer's
/// activations, the gaze output.
const GOLDEN_INT8: [u64; 6] = [
    2533550100907393271,
    16009568286513948415,
    14136197108826914576,
    5831325073209353533,
    16706304784709894495,
    15501788414703517506,
];
/// Logits, labels.
const GOLDEN_SEG: [u64; 2] = [17734213617425183915, 16643805383319527878];
