//! `prove-store-mlp`: the owner's side.
//!
//! Setup streams the quick-MLP proving key into a `.zkst` store with
//! `Authority::setup_statement_stored` at a memory budget below the size of
//! every query family, so each family is written and read in more than one
//! chunk. The timed operation is `StoredProverKit::prove` (buffered
//! backend, same budget); every claim is then verified with the authority's
//! bound verifier kit, outside the prove timing.

use crate::common::{
    ensure, flip_proof_byte, forge_proof, ms, other_statement, secs, setup_times, timed_setup,
    Args, Outcome, LOOP_STREAM, MODEL_STREAM, SETUP_STREAM,
};
use crate::corpus::{input_rng, mlp_spec};
use crate::replay;
use crate::stats::{median, peak_rss_mb};
use crate::trace::{Recorder, SETUP_OP};
use std::path::Path;
use std::time::Instant;
use zkrownn::{
    Artifact, Authority, ExtractionSpec, MemoryBudget, SignedClaim, StoreBackend, StoredProverKit,
    VerifierKit, ZkrownnError,
};
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::ProverContext;
use zkrownn_store::{create_proof_streamed, segment_kind};

/// Point memory per streamed chunk, below every query family's size.
const BUDGET_BYTES: usize = 1 << 20;

const QUERY_FAMILIES: [u32; 5] = [
    segment_kind::A_QUERY,
    segment_kind::B_G1_QUERY,
    segment_kind::B_G2_QUERY,
    segment_kind::H_QUERY,
    segment_kind::L_QUERY,
];

fn budget() -> MemoryBudget {
    MemoryBudget::from_bytes(BUDGET_BYTES)
}

/// Keys streamed to the store, then the store-backed prover kit.
fn deploy(
    spec: &ExtractionSpec,
    path: &Path,
    rng: &mut rand::rngs::StdRng,
) -> Result<(VerifierKit, StoredProverKit), String> {
    let verifier = Authority::setup_statement_stored(&spec.statement(), path, rng, budget())
        .map_err(|e| format!("stored setup: {e}"))?;
    let kit = StoredProverKit::open_with(path, spec.clone(), budget(), StoreBackend::Buffered)
        .map_err(|e| format!("open store: {e}"))?;
    Ok((verifier, kit))
}

/// Every query family spans more than one chunk at the budget.
fn check_store(kit: &StoredProverKit) -> Result<(), String> {
    let file = kit.store().file();
    for kind in QUERY_FAMILIES {
        let entry = file.require(kind).map_err(|e| e.to_string())?;
        let point_bytes = (entry.len / entry.count.max(1)) as usize;
        ensure!(
            entry.count as usize > budget().chunk_len(point_bytes),
            "segment {kind} fits in one chunk of the budget"
        );
    }
    Ok(())
}

/// Negative controls against the bound verifier kit.
fn controls(verifier: &VerifierKit, claim: &SignedClaim) -> Result<(), String> {
    let bytes = claim.to_bytes();
    ensure!(
        SignedClaim::from_bytes(&flip_proof_byte(&bytes)).is_err(),
        "control flipped proof byte: the claim still decodes"
    );
    let decode = |b: Vec<u8>| SignedClaim::from_bytes(&b).map_err(|e| e.to_string());
    let forged = verifier.verify(&decode(forge_proof(claim))?);
    ensure!(
        matches!(forged, Err(ZkrownnError::InvalidProof(_))),
        "control forged proof: got {forged:?}"
    );
    let other = verifier.verify(&decode(other_statement(claim))?);
    ensure!(
        matches!(other, Err(ZkrownnError::StatementMismatch)),
        "control other statement: got {other:?}"
    );
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = mlp_spec(&mut input_rng(args.seed, MODEL_STREAM, 0));
    let path = args.work_dir.join("mlp.zkst");
    let setup = |rep| deploy(&spec, &path, &mut input_rng(args.seed, SETUP_STREAM, rep));
    let ((verifier, kit), first_s) = timed_setup(|| setup(0))?;
    check_store(&kit)?;

    let mut out = Outcome::default();
    let mut rng = input_rng(args.seed, LOOP_STREAM, 0);
    if args.trace {
        let claim = traced(args, &spec, &verifier, &kit, &mut rng, &mut out)?;
        controls(&verifier, &claim)?;
    } else {
        let mut prove_ms = Vec::new();
        let mut claim_bytes = 0usize;
        let mut last_claim = None;
        let start = Instant::now();
        while secs(start) < args.seconds {
            out.attempted += 1;
            let t = Instant::now();
            let proved = kit.prove(&mut rng);
            let elapsed = ms(t);
            match proved.and_then(|claim| verifier.verify(&claim).map(|()| claim)) {
                Ok(claim) => {
                    prove_ms.push(elapsed);
                    claim_bytes += claim.to_bytes().len();
                    last_claim = Some(claim);
                }
                Err(e) => {
                    out.failed += 1;
                    out.notes
                        .push(format!("claim {} failed: {e}", out.attempted));
                }
            }
        }
        let elapsed = secs(start);
        out.set("peak_rss_mb", peak_rss_mb());
        let claim = last_claim.ok_or("no claim was proved and verified")?;
        controls(&verifier, &claim)?;
        out.set("claim_bytes", claim_bytes as f64 / prove_ms.len() as f64);
        // the kit's store handle reads the file the next setups replace
        drop(kit);
        let setup_s = setup_times(first_s, setup, drop)?;
        out.set_op_times(&setup_s, &prove_ms, elapsed);
    }
    out.notes.push(format!(
        "claims {} ok {} failed {}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    ));
    Ok(out)
}

/// Each claim is proved twice: once by `StoredProverKit::prove`
/// (untraced) and once as the layer replay with the same `(r, s)`, which
/// must give the same proof bytes.
fn traced(
    args: &Args,
    spec: &ExtractionSpec,
    verifier: &VerifierKit,
    kit: &StoredProverKit,
    rng: &mut rand::rngs::StdRng,
    out: &mut Outcome,
) -> Result<SignedClaim, String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    rec.set_op(SETUP_OP);
    // the same randomness as the measured setup, so the same store bytes
    let replay_path = args.work_dir.join("mlp-replay.zkst");
    let keygen = replay::keygen_stored(
        &mut rec,
        &spec.statement(),
        &replay_path,
        &mut input_rng(args.seed, SETUP_STREAM, 0),
        budget(),
    )?;
    let written = std::fs::read(&replay_path).map_err(|e| e.to_string())?;
    let stored = std::fs::read(args.work_dir.join("mlp.zkst")).map_err(|e| e.to_string())?;
    ensure!(
        written == stored && keygen.circuit_id == kit.circuit_id(),
        "setup replay wrote another store than Authority::setup_statement_stored"
    );
    std::fs::remove_file(&replay_path).map_err(|e| e.to_string())?;

    let ctx = ProverContext::for_circuit(&spec.shape_circuit())
        .map_err(|e| format!("prover context: {e:?}"))?;
    let mut untraced_ms = Vec::new();
    let mut ops = Vec::new();
    let mut last = None;
    let mut proved = None;
    let start = Instant::now();
    while secs(start) < args.seconds {
        let op = out.attempted;
        out.attempted += 1;
        let mut randomness = rng.clone();
        let t = Instant::now();
        let claim = kit.prove(rng).map_err(|e| format!("prove: {e}"))?;
        untraced_ms.push(ms(t));
        if verifier.verify(&claim).is_err() {
            out.failed += 1;
        }
        // StoredProverKit::prove draws r, then s, and nothing else
        let r = Fr::random(&mut randomness);
        let s = Fr::random(&mut randomness);
        rec.set_op(op);
        let p = replay::stored_prove(&mut rec, spec, &ctx, kit.store(), budget(), r, s)?;
        ensure!(
            p.proof.to_bytes() == claim.proof.proof.to_bytes() && p.verdict == claim.verdict(),
            "op {op}: replayed proof differs from StoredProverKit::prove"
        );
        if op == 0 {
            let z = spec
                .build()
                .map_err(|e| format!("synthesis: {e:?}"))?
                .cs
                .full_assignment();
            let direct = create_proof_streamed(kit.store(), &ctx, &z, r, s, budget())
                .map_err(|e| format!("create_proof_streamed: {e}"))?;
            ensure!(
                direct.to_bytes() == p.proof.to_bytes(),
                "replayed assemble_proof differs from create_proof_streamed"
            );
        }
        ops.push(op);
        last = Some(claim);
        proved = Some(p);
    }
    let p = proved.ok_or("no claim was proved")?;

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
    let vk = verifier.verifying_key();
    out.set("groth16.public_inputs", vk.gamma_abc_g1.len() as f64);
    out.set("curves.msm_terms", p.msm_terms as f64);
    out.set("store.segments", kit.store().segment_count() as f64);
    out.set("store.bytes_read", p.bytes_read as f64);
    out.set("store.bytes_written", stored.len() as f64);
    out.set("trace.unattributed_frac", trace.unattributed_frac("prove"));
    let replayed = median(&trace.root_ms("prove"));
    out.set("trace.overhead_frac", replayed / median(&untraced_ms) - 1.0);
    crate::write_trace(args, "prove-store-mlp", &trace)?;
    last.ok_or_else(|| "no claim was proved".to_string())
}
