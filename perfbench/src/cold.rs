//! `verify-cold-cnn`: the paper's third-party verifier.
//!
//! One thread calls `zkrownn_verify(vk, statement, claim)` on raw bytes in
//! a closed loop, with nothing cached across calls. The claims are about
//! [`MODELS`] different watermarked models of the quick-CNN shape, proved
//! under one key with `ProverKit::from_parts(pk, spec_i)`, and consecutive
//! calls never share a statement. The service, the registry and every
//! digest cache are bypassed.

use crate::common::{
    ensure, flip_proof_byte, forge_proof, ms, secs, setup_times, timed_setup, Args, Outcome,
    MODEL_STREAM, SETUP_STREAM,
};
use crate::corpus::{cnn_spec, input_rng};
use crate::replay;
use crate::stats::{median, peak_rss_mb};
use crate::trace::{Recorder, SETUP_OP};
use rand::rngs::StdRng;
use std::time::Instant;
use zkrownn::{Artifact, Authority, CircuitId, ExtractionSpec, ProverKit, SignedClaim};
use zkrownn_verifier::{zkrownn_verify, VerifyError};

/// Distinct models (statements) the calls cycle through.
const MODELS: usize = 3;

/// The three public artifacts of each dispute, as bytes.
struct Corpus {
    vk: Vec<u8>,
    statements: Vec<Vec<u8>>,
    claims: Vec<Vec<u8>>,
    digests: Vec<[u8; 32]>,
    circuit_id: CircuitId,
    /// `circuit_id()` of every spec, as its prover kit derived it.
    spec_ids: Vec<CircuitId>,
}

/// Keys for the first model's statement, then one claim per model.
fn build(specs: &[ExtractionSpec], rng: &mut StdRng) -> Result<Corpus, String> {
    let (pk, verifier) = Authority::setup_statement(&specs[0].statement(), rng);
    let mut corpus = Corpus {
        vk: Artifact::to_bytes(verifier.verifying_key()),
        statements: Vec::new(),
        claims: Vec::new(),
        digests: Vec::new(),
        circuit_id: verifier.circuit_id(),
        spec_ids: Vec::new(),
    };
    for spec in specs {
        let kit = ProverKit::from_parts(pk.clone(), spec.clone());
        let claim = kit.prove(rng).map_err(|e| format!("corpus proof: {e}"))?;
        let statement = spec.statement();
        corpus.digests.push(statement.content_digest());
        corpus.statements.push(statement.to_bytes());
        corpus.claims.push(claim.to_bytes());
        corpus.spec_ids.push(kit.circuit_id());
    }
    Ok(corpus)
}

/// One circuit, pairwise-distinct statements, and claims about them.
fn check_corpus(c: &Corpus) -> Result<(), String> {
    ensure!(
        c.spec_ids.iter().all(|&id| id == c.circuit_id),
        "the models do not share one circuit"
    );
    for i in 0..c.digests.len() {
        for j in 0..i {
            ensure!(
                c.digests[i] != c.digests[j],
                "models {j} and {i} have one statement"
            );
        }
    }
    Ok(())
}

/// The call succeeded for the statement it was given.
fn verified(c: &Corpus, i: usize, result: &Result<zkrownn_verifier::Verdict, VerifyError>) -> bool {
    matches!(result, Ok(v) if v.statement_digest() == c.digests[i] && v.circuit_id() == c.circuit_id)
}

/// Negative controls: each tampered input must fail with its typed error.
fn controls(c: &Corpus) -> Result<(), String> {
    let honest = SignedClaim::from_bytes(&c.claims[0]).map_err(|e| e.to_string())?;
    let flipped = zkrownn_verify(&c.vk, &c.statements[0], &flip_proof_byte(&c.claims[0]));
    ensure!(
        matches!(flipped, Err(VerifyError::Claim(_))),
        "control flipped proof byte: got {flipped:?}"
    );
    let forged = zkrownn_verify(&c.vk, &c.statements[0], &forge_proof(&honest));
    ensure!(
        forged == Err(VerifyError::InvalidProof),
        "control forged proof: got {forged:?}"
    );
    let other = zkrownn_verify(&c.vk, &c.statements[1], &c.claims[0]);
    ensure!(
        other == Err(VerifyError::StatementMismatch),
        "control other statement: got {other:?}"
    );
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs: Vec<ExtractionSpec> = (0..MODELS)
        .map(|i| cnn_spec(&mut input_rng(args.seed, MODEL_STREAM, i as u64)))
        .collect();
    let setup = |rep| build(&specs, &mut input_rng(args.seed, SETUP_STREAM, rep));
    let (c, first_s) = timed_setup(|| setup(0))?;
    check_corpus(&c)?;

    let mut out = Outcome::default();
    if args.trace {
        traced(args, &specs, &c, &mut out)?;
        controls(&c)?;
    } else {
        let mut call_ms = Vec::new();
        let start = Instant::now();
        while secs(start) < args.seconds {
            let i = out.attempted as usize % MODELS;
            let t = Instant::now();
            let result = zkrownn_verify(&c.vk, &c.statements[i], &c.claims[i]);
            let elapsed = ms(t);
            out.attempted += 1;
            if verified(&c, i, &result) {
                call_ms.push(elapsed);
            } else {
                out.failed += 1;
                out.notes
                    .push(format!("call {} failed: {result:?}", out.attempted));
            }
        }
        let elapsed = secs(start);
        out.set("peak_rss_mb", peak_rss_mb());
        controls(&c)?;
        let bytes: usize = c.claims.iter().map(Vec::len).sum();
        out.set("claim_bytes", bytes as f64 / c.claims.len() as f64);
        drop(c);
        let setup_s = setup_times(first_s, setup, drop)?;
        out.set_op_times(&setup_s, &call_ms, elapsed);
    }
    out.notes.push(format!(
        "calls {} ok {} failed {}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    ));
    Ok(out)
}

/// Each call is made twice: once through `zkrownn_verify` (untraced) and
/// once as the layer replay, which must reach the same verdict.
fn traced(
    args: &Args,
    specs: &[ExtractionSpec],
    c: &Corpus,
    out: &mut Outcome,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    rec.set_op(SETUP_OP);
    let (pk, keygen) = replay::keygen(
        &mut rec,
        &specs[0].statement(),
        &mut input_rng(args.seed, SETUP_STREAM, 0),
    );
    ensure!(
        keygen.circuit_id == c.circuit_id && Artifact::to_bytes(&pk.vk) == c.vk,
        "setup replay produced other keys than Authority::setup_statement"
    );

    let mut untraced_ms = Vec::new();
    let mut ops = Vec::new();
    let mut msm_terms = 0;
    let start = Instant::now();
    while secs(start) < args.seconds {
        let op = out.attempted;
        let i = op as usize % MODELS;
        let t = Instant::now();
        let result = zkrownn_verify(&c.vk, &c.statements[i], &c.claims[i]);
        untraced_ms.push(ms(t));
        rec.set_op(op);
        let v = replay::cold_verify(&mut rec, &c.vk, &c.statements[i], &c.claims[i]);
        out.attempted += 1;
        let ok = verified(c, i, &result);
        if !ok {
            out.failed += 1;
        }
        ensure!(
            v.accepted == ok && v.pairing_equal == Some(ok),
            "call {op}: replay {v:?} disagrees with zkrownn_verify {result:?}"
        );
        ops.push(op);
        msm_terms = v.msm_terms;
    }
    let honest = SignedClaim::from_bytes(&c.claims[0]).map_err(|e| e.to_string())?;
    let v = replay::cold_verify(
        &mut Recorder::new(origin),
        &c.vk,
        &c.statements[0],
        &forge_proof(&honest),
    );
    ensure!(
        v.pairing_equal == Some(false) && !v.accepted,
        "replay accepted a forged proof"
    );

    let trace = rec.finish();
    out.set_layer_times(&trace, &ops);
    out.set(
        "groth16.setup_qap_ms",
        keygen.timings.qap_eval.as_secs_f64() * 1e3,
    );
    out.set(
        "groth16.setup_commit_ms",
        keygen.timings.commit.as_secs_f64() * 1e3,
    );
    out.set("r1cs.constraints", keygen.constraints as f64);
    out.set("poly.domain_size", keygen.domain_size as f64);
    out.set("groth16.public_inputs", pk.vk.gamma_abc_g1.len() as f64);
    out.set("curves.msm_terms", msm_terms as f64);
    out.set("trace.unattributed_frac", trace.unattributed_frac("verify"));
    let replayed = median(&trace.root_ms("verify"));
    out.set("trace.overhead_frac", replayed / median(&untraced_ms) - 1.0);
    crate::write_trace(args, "verify-cold-cnn", &trace)
}
