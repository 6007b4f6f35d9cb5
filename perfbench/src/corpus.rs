//! Seeded inputs: watermarked models of the quick-MLP and quick-CNN shapes.
//!
//! The recipes are those of `zkrownn_bench::quick_mlp_spec` and
//! `quick_cnn_spec` (same layer dimensions, trigger count, signature
//! length and BER threshold, so the same circuit), but the data, the
//! initial weights and the watermark keys come from the workload seed.
//! The program under test only ever receives the generated specs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkrownn::benchmarks::spec_from_keys;
use zkrownn::ExtractionSpec;
use zkrownn_deepsigns::{embed, generate_keys, EmbedConfig, KeyGenConfig};
use zkrownn_gadgets::FixedConfig;
use zkrownn_nn::{generate_gmm, Conv2d, Dense, GmmConfig, Layer, Network};

/// Derives the RNG of input `index` of a workload seeded with `seed`.
pub fn input_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ index.wrapping_mul(0x94d0_49bb_1331_11eb),
    )
}

/// A watermarked 96-32-10 MLP (watermark on the hidden ReLU): 27 553
/// constraints and 3 106 public inputs, like the quick-MLP spec.
pub fn mlp_spec(rng: &mut StdRng) -> ExtractionSpec {
    let cfg = FixedConfig::default();
    let gmm = GmmConfig {
        input_shape: vec![96],
        num_classes: 10,
        mean_scale: 1.0,
        noise_std: 0.35,
    };
    let data = generate_gmm(&gmm, 200, rng);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(96, 32, rng)),
        Layer::ReLU,
        Layer::Dense(Dense::new(32, 10, rng)),
    ]);
    net.train(&data.xs, &data.ys, 2, 0.02);
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 1,
            activation_dim: 32,
            signature_bits: 8,
            num_triggers: 3,
            projection_std: 1.0 / (32f32).sqrt(),
        },
        &data,
        rng,
    );
    embed(&mut net, &keys, &data.xs, &data.ys, &EmbedConfig::default());
    spec_from_keys(&net, &keys, false, 1, &cfg)
}

/// A watermarked 3×16×16 → conv(8, k3, s2) CNN (watermark on the first
/// convolution, averaging folded into the projection): 88 129 constraints
/// and 226 public inputs, like the quick-CNN spec.
pub fn cnn_spec(rng: &mut StdRng) -> ExtractionSpec {
    let cfg = FixedConfig::default();
    let gmm = GmmConfig {
        input_shape: vec![3, 16, 16],
        num_classes: 4,
        mean_scale: 1.0,
        noise_std: 0.35,
    };
    let data = generate_gmm(&gmm, 120, rng);
    let mut net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(3, 8, 3, 2, rng)),
        Layer::ReLU,
        Layer::Flatten,
        Layer::Dense(Dense::new(8 * 7 * 7, 4, rng)),
    ]);
    net.train(&data.xs, &data.ys, 2, 0.01);
    let keys = generate_keys(
        &KeyGenConfig {
            layer: 0,
            activation_dim: 8 * 7 * 7,
            signature_bits: 8,
            num_triggers: 2,
            projection_std: 1.0 / (8f32 * 49.0).sqrt(),
        },
        &data,
        rng,
    );
    embed(&mut net, &keys, &data.xs, &data.ys, &EmbedConfig::default());
    spec_from_keys(&net, &keys, true, 1, &cfg)
}
