//! What every workload shares: its arguments, its outcome, the metric
//! names, and the tampered claims of the negative controls.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use zkrownn::{Artifact, QuantLayer, SignedClaim};

use crate::stats::{beyond, median, percentile};
use crate::trace::{Trace, SETUP_OP};

/// Fails the run with a message when `cond` does not hold.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}
pub(crate) use ensure;

/// Command-line arguments of one run.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for key stores (inside the checkout).
    pub work_dir: PathBuf,
}

/// Setups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Input streams of [`crate::corpus::input_rng`].
pub const MODEL_STREAM: u64 = 1;
pub const SETUP_STREAM: u64 = 2;
pub const LOOP_STREAM: u64 = 3;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p90", "ms"),
    ("claims_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("claim_bytes", "B"),
];

/// Per-layer metrics, reported by every traced run; a layer that a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("service.overhead_ms_p50", "ms"),
    ("service.mean_batch", "ratio"),
    ("service.busy", "count"),
    ("core.decode_claim_ms", "ms"),
    ("core.circuit_id_ms", "ms"),
    ("core.statement_digest_ms", "ms"),
    ("core.public_inputs_ms", "ms"),
    ("verifier.decode_vk_ms", "ms"),
    ("verifier.decode_statement_ms", "ms"),
    ("groth16.prepare_vk_ms", "ms"),
    ("groth16.prepare_inputs_ms", "ms"),
    ("pairing.miller_ms", "ms"),
    ("pairing.final_exp_ms", "ms"),
    ("r1cs.synthesize_ms", "ms"),
    ("r1cs.satisfied_ms", "ms"),
    ("r1cs.assignment_ms", "ms"),
    ("groth16.witness_map_ms", "ms"),
    ("store.read_ms", "ms"),
    ("curves.msm_a_ms", "ms"),
    ("curves.msm_b_g1_ms", "ms"),
    ("curves.msm_b_g2_ms", "ms"),
    ("curves.msm_l_ms", "ms"),
    ("curves.msm_h_ms", "ms"),
    ("groth16.assemble_ms", "ms"),
    ("r1cs.setup_synthesize_ms", "ms"),
    ("groth16.setup_context_ms", "ms"),
    ("groth16.setup_qap_ms", "ms"),
    ("groth16.setup_commit_ms", "ms"),
    ("store.finish_ms", "ms"),
    ("r1cs.constraints", "count"),
    ("poly.domain_size", "count"),
    ("groth16.public_inputs", "count"),
    ("curves.msm_terms", "count"),
    ("store.segments", "count"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Span names of the timed operations whose self times become the
/// `<name>_ms` per-layer metrics.
pub const OP_LAYERS: [&str; 21] = [
    "core.decode_claim",
    "core.circuit_id",
    "core.statement_digest",
    "core.public_inputs",
    "verifier.decode_vk",
    "verifier.decode_statement",
    "groth16.prepare_vk",
    "groth16.prepare_inputs",
    "pairing.miller",
    "pairing.final_exp",
    "r1cs.synthesize",
    "r1cs.satisfied",
    "r1cs.assignment",
    "groth16.witness_map",
    "store.read",
    "curves.msm_a",
    "curves.msm_b_g1",
    "curves.msm_b_g2",
    "curves.msm_l",
    "curves.msm_h",
    "groth16.assemble",
];

/// Span names of the traced setup whose self times become metrics.
pub const SETUP_LAYERS: [&str; 3] = [
    "r1cs.setup_synthesize",
    "groth16.setup_context",
    "store.finish",
];

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; names come from [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines for the report on standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets the `<span>_ms` metrics: for each layer of the timed operation,
    /// the median over `ops` of its per-operation self time; for each layer
    /// of the setup, its self time in the traced setup.
    pub fn set_layer_times(&mut self, trace: &Trace, ops: &[u64]) {
        let by_op = trace.self_ms_by_op();
        let self_ms = |op: u64, name: &str| {
            by_op
                .get(&op)
                .and_then(|layers| layers.get(name))
                .copied()
                .unwrap_or(0.0)
        };
        for name in OP_LAYERS {
            let per_op: Vec<f64> = ops.iter().map(|&op| self_ms(op, name)).collect();
            self.set(format!("{name}_ms"), median(&per_op));
        }
        for name in SETUP_LAYERS {
            self.set(format!("{name}_ms"), self_ms(SETUP_OP, name));
        }
    }

    /// Sets the timing metrics shared by the untraced runs. The median
    /// operation time goes to the report only: on a shared host the speed
    /// switches between two modes, and the median jumps with their mix
    /// (see the README).
    pub fn set_op_times(&mut self, setup_s: &[f64], op_ms: &[f64], elapsed_s: f64) {
        self.set("setup_s", median(setup_s));
        self.set("op_ms_p90", percentile(op_ms, 0.9));
        self.set("claims_per_s", op_ms.len() as f64 / elapsed_s);
        self.notes.push(format!(
            "samples {} ({} beyond p90), op_ms_p50 {:.4}, timed phase {elapsed_s:.2} s, \
             setup runs {:?} s",
            op_ms.len(),
            beyond(op_ms, 0.9),
            percentile(op_ms, 0.5),
            setup_s
        ));
    }
}

/// Runs `setup` once, timed.
pub fn timed_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let state = setup()?;
    Ok((state, secs(start)))
}

/// The setup times of an untraced run: `first_s`, the setup whose state the
/// timed phase used, then `SETUP_REPS - 1` more setups, each torn down
/// before the next. They run after the timed phase and its peak-RSS reading,
/// so `peak_rss_mb` covers one setup, as a deployment pays it.
pub fn setup_times<T>(
    first_s: f64,
    mut setup: impl FnMut(u64) -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<Vec<f64>, String> {
    let mut seconds = vec![first_s];
    for rep in 1..SETUP_REPS as u64 {
        let (state, s) = timed_setup(|| setup(rep))?;
        seconds.push(s);
        tear_down(state);
    }
    Ok(seconds)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`.
pub fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The claim's bytes with one byte of its proof flipped (the envelope
/// checksum no longer matches).
pub fn flip_proof_byte(claim_bytes: &[u8]) -> Vec<u8> {
    let mut out = claim_bytes.to_vec();
    // the proof artifact closes the claim; its 128-byte Groth16 proof sits
    // inside the last 200 bytes
    let at = out.len() - 100;
    out[at] ^= 0x01;
    out
}

/// A well-formed claim whose proof does not verify: `A` is negated.
pub fn forge_proof(claim: &SignedClaim) -> Vec<u8> {
    let mut forged = claim.clone();
    forged.proof.proof.a = forged.proof.proof.a.neg();
    forged.to_bytes()
}

/// A well-formed claim about a different statement than the registered
/// one: the first weight of the model is changed, the proof is kept.
pub fn other_statement(claim: &SignedClaim) -> Vec<u8> {
    let mut moved = claim.clone();
    let layer = moved
        .statement
        .model
        .layers
        .iter_mut()
        .find_map(|layer| match layer {
            QuantLayer::Dense { w, .. } | QuantLayer::Conv { w, .. } => Some(w),
            _ => None,
        })
        .expect("the model has a weighted layer");
    layer[0] += 1;
    moved.to_bytes()
}
