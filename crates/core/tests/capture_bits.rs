//! Golden bits of the capture stage, and the sensor-noise kernel against
//! its libm oracle.
//!
//! The capture kernels (the FlatCam GEMMs and the sensor-noise kernel) may
//! change their loop structure, operand layout and transcendental
//! functions, but never a measurement bit. The digests below were recorded
//! from the scalar libm noise loop and the transposed-B capture product,
//! and every dispatch mode (`EYECOD_NO_SIMD=1` or not) must reproduce
//! them. Each digest is FNV-1a over the raw bit patterns, so a one-ulp
//! drift in any element changes it.

use eyecod_core::acquisition::Acquisition;
use eyecod_eyedata::render::{render_eye, EyeParams};
use eyecod_optics::imaging::FlatCam;
use eyecod_optics::mask::SeparableMask;
use eyecod_optics::mat::Mat;
use eyecod_optics::sensor::SensorModel;
use eyecod_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn tensor_digest(t: &Tensor) -> u64 {
    fnv1a(t.as_slice().iter().map(|v| v.to_bits() as u64))
}

fn mat_digest(m: &Mat) -> u64 {
    fnv1a(m.as_slice().iter().map(|v| v.to_bits()))
}

/// `n` random rendered eyes at the working scene size, drawn from `seed`.
fn eyes(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| render_eye(&EyeParams::random(&mut rng), 48, seed + i as u64).image)
        .collect()
}

/// Per `(acquisition, scene, seed)`: the image `acquire` hands the
/// pipeline, then the raw `f64` measurement underneath it (the FlatCam
/// capture, or the noisy focused image on the lens path).
fn acquire_digests(acq: &Acquisition, scene: &Tensor, seed: u64) -> [u64; 2] {
    let image = acq.acquire(scene, seed);
    let m = Mat::from_tensor(scene);
    let raw = match acq {
        Acquisition::FlatCam { camera, .. } => camera.capture(&m, seed),
        Acquisition::Lens { sensor } => sensor.apply(&m, seed),
    };
    [tensor_digest(&image), mat_digest(&raw)]
}

#[test]
fn flatcam_and_lens_acquisitions_are_pinned() {
    let mut got = Vec::new();
    for acq in [Acquisition::flatcam(48, 64, 1e-4, 7), Acquisition::lens()] {
        for scene in eyes(2, 40) {
            for seed in [1u64, 2, 0x5EED_0BAD] {
                got.push(acquire_digests(&acq, &scene, seed));
            }
        }
    }
    assert_eq!(
        got, GOLDEN_ACQUIRE,
        "acquired image or raw measurement bits changed"
    );
}

/// The dispatched noise kernel quantises every pixel of a rendered-eye
/// FlatCam capture to the same ADC code as the libm oracle: 1,200 eyes ×
/// 3 sensor presets × 4,096 pixels, each preset with its own seeds.
#[test]
fn noise_kernel_matches_the_libm_oracle_on_rendered_captures() {
    let mask = SeparableMask::mls_differential(64, 48, 7);
    let clean_cam = FlatCam::new(mask, SensorModel::noiseless());
    let presets = [
        SensorModel::nir_eye_tracking(),
        SensorModel::low_light(),
        SensorModel::bright(),
    ];
    let (mut fast, mut oracle) = (Mat::zeros(1, 1), Mat::zeros(1, 1));
    let mut differing = [0usize; 3];
    for (i, scene) in eyes(1_200, 7).iter().enumerate() {
        let clean = clean_cam.capture(&Mat::from_tensor(scene), 0);
        for (p, sensor) in presets.iter().enumerate() {
            let seed = (i * presets.len() + p) as u64;
            fast.copy_from(&clean);
            oracle.copy_from(&clean);
            sensor.apply_inplace(&mut fast, seed);
            sensor.apply_inplace_reference(&mut oracle, seed);
            differing[p] += fast
                .as_slice()
                .iter()
                .zip(oracle.as_slice())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
        }
    }
    assert_eq!(
        differing, [0; 3],
        "pixels whose ADC code differs from the oracle's (nir, low-light, bright)"
    );
}

/// Per acquisition (FlatCam 48/64, then lens), per scene, per seed:
/// `[acquire output, raw measurement]`.
const GOLDEN_ACQUIRE: [[u64; 2]; 12] = [
    [4163327054793887547, 3991103114033124856],
    [18365578173941157464, 224707240236345147],
    [16837946987457204252, 14949133046417616089],
    [15467041792844399365, 16090310266085874773],
    [12932959771903775405, 2654482299282159436],
    [1494077997528017522, 13550456927907448934],
    [17329813705697734942, 4209353678349537741],
    [11580366404748876136, 8715606351835079228],
    [18200965446580937389, 4180154414959497424],
    [5101003662443763259, 13856459074300461630],
    [10272381144257949717, 4874598965560694310],
    [1371918989654862522, 5646354578690338809],
];
