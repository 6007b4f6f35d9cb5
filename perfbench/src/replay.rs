//! Layer-by-layer replays of the program's public entry points.
//!
//! Each replay calls the same public functions, in the same order, as the
//! entry point it mirrors, with one span per call:
//!
//! * [`registry_verify`] — what `ShardedKeyRegistry::verify` does to the
//!   bytes of one claim (the service's per-claim verification);
//! * [`cold_verify`] — `zkrownn_verifier::zkrownn_verify`;
//! * [`stored_prove`] — `StoredProverKit::prove` from the proving-mode
//!   synthesis to `assemble_proof`;
//! * [`keygen`] / [`keygen_stored`] — `Authority::setup_statement` and
//!   `Authority::setup_statement_stored`.
//!
//! Nothing inside the program is instrumented: a replay that falls out of
//! step with the entry point it mirrors shows up as a failed equality check
//! in the traced run.

use crate::trace::Recorder;
use std::path::Path;
use std::time::Instant;
use zkrownn::artifact::TraceHasher;
use zkrownn::{
    Artifact, CircuitId, ExtractionCircuit, ExtractionSpec, OwnershipStatement, SignedClaim,
    VerifierKit,
};
use zkrownn_curves::{G1Config, G2Config, MemoryBudget, MsmAccumulator, Projective, SwCurveConfig};
use zkrownn_ff::Fr;
use zkrownn_groth16::{
    assemble_proof, prepare_inputs, PreparedVerifyingKey, Proof, ProofSums, ProverContext,
    ProvingKey, SetupContext, SetupTimings, ToxicWaste, VerifyingKey,
};
use zkrownn_pairing::{final_exponentiation, multi_miller_loop, G2Prepared};
use zkrownn_r1cs::{Circuit, SetupSynthesizer};
use zkrownn_store::{segment_kind, KeyStore, KeyStoreWriter, StoreMeta};

/// What a verification replay concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verified {
    /// Whether the pairing product equalled `pvk.alpha_beta`; `None` when
    /// an earlier check rejected the claim before the pairing.
    pub pairing_equal: Option<bool>,
    /// Whether every check passed (the entry point would accept).
    pub accepted: bool,
    /// Terms of the instance MSM (`groth16.prepare_inputs`).
    pub msm_terms: usize,
}

const REJECTED: Verified = Verified {
    pairing_equal: None,
    accepted: false,
    msm_terms: 0,
};

/// The cryptographic tail shared by every verification path: public
/// inputs, the instance MSM, the Miller loop and the final exponentiation,
/// then the verdict gate.
fn crypto(rec: &mut Recorder, pvk: &PreparedVerifyingKey, claim: &SignedClaim) -> Verified {
    let verdict = claim.proof.verdict;
    let inputs = rec.leaf("core.public_inputs", || {
        claim.statement.public_inputs(verdict)
    });
    let msm_terms = inputs.len();
    let Ok(prepared) = rec.leaf("groth16.prepare_inputs", || prepare_inputs(pvk, &inputs)) else {
        return REJECTED;
    };
    let proof = &claim.proof.proof;
    let ml = rec.leaf("pairing.miller", || {
        multi_miller_loop(&[
            (proof.a, G2Prepared::from(proof.b)),
            (
                prepared.commitment().into_affine().neg(),
                pvk.gamma_prepared.clone(),
            ),
            (proof.c.neg(), pvk.delta_prepared.clone()),
        ])
    });
    let product = rec.leaf("pairing.final_exp", || final_exponentiation(&ml));
    let pairing_equal = product == Some(pvk.alpha_beta);
    Verified {
        pairing_equal: Some(pairing_equal),
        accepted: pairing_equal && verdict,
        msm_terms,
    }
}

/// Replays the registry's verification of one claim's bytes against the
/// prepared key registered for `expected`.
pub fn registry_verify(
    rec: &mut Recorder,
    pvk: &PreparedVerifyingKey,
    expected: CircuitId,
    claim_bytes: &[u8],
) -> Verified {
    rec.span("verify", |rec| {
        let Ok(claim) = rec.leaf("core.decode_claim", || SignedClaim::from_bytes(claim_bytes))
        else {
            return REJECTED;
        };
        if claim.proof.circuit_id != expected {
            return REJECTED;
        }
        if rec.leaf("core.circuit_id", || claim.statement.circuit_id()) != expected {
            return REJECTED;
        }
        crypto(rec, pvk, &claim)
    })
}

/// Replays `zkrownn_verify(vk_bytes, statement_bytes, claim_bytes)`.
pub fn cold_verify(
    rec: &mut Recorder,
    vk_bytes: &[u8],
    statement_bytes: &[u8],
    claim_bytes: &[u8],
) -> Verified {
    rec.span("verify", |rec| {
        let Ok(vk) = rec.leaf("verifier.decode_vk", || {
            <VerifyingKey as Artifact>::from_bytes(vk_bytes)
        }) else {
            return REJECTED;
        };
        let Ok(statement) = rec.leaf("verifier.decode_statement", || {
            OwnershipStatement::from_bytes(statement_bytes)
        }) else {
            return REJECTED;
        };
        let Ok(claim) = rec.leaf("core.decode_claim", || SignedClaim::from_bytes(claim_bytes))
        else {
            return REJECTED;
        };
        let circuit_id = rec.leaf("core.circuit_id", || statement.circuit_id());
        let digest = rec.leaf("core.statement_digest", || statement.content_digest());
        let pvk = rec.leaf("groth16.prepare_vk", || vk.prepare());
        // the bound kit's checks: statement digest, then the proof's circuit
        if rec.leaf("core.statement_digest", || claim.statement.content_digest()) != digest {
            return REJECTED;
        }
        if claim.proof.circuit_id != circuit_id {
            return REJECTED;
        }
        crypto(rec, &pvk, &claim)
    })
}

/// A proof produced by [`stored_prove`], with what it read and computed.
pub struct Proved {
    pub proof: Proof,
    pub verdict: bool,
    pub msm_terms: usize,
    pub bytes_read: u64,
}

/// Replays `StoredProverKit::prove` with fixed zero-knowledge randomness
/// `(r, s)`: synthesis, the satisfaction check, the witness map, the five
/// streamed MSMs (store reads and MSM work as separate spans) and the
/// proof assembly.
pub fn stored_prove(
    rec: &mut Recorder,
    spec: &ExtractionSpec,
    ctx: &ProverContext,
    store: &KeyStore,
    budget: MemoryBudget,
    r: Fr,
    s: Fr,
) -> Result<Proved, String> {
    rec.span("prove", |rec| {
        let built = rec
            .leaf("r1cs.synthesize", || spec.build())
            .map_err(|e| format!("synthesis: {e:?}"))?;
        rec.leaf("r1cs.satisfied", || built.cs.is_satisfied())
            .map_err(|row| format!("constraint {row} unsatisfied"))?;
        let z = rec.leaf("r1cs.assignment", || built.cs.full_assignment());
        let h = rec.leaf("groth16.witness_map", || ctx.witness_map(&z));
        let num_instance = ctx.matrices().num_instance;
        let mut bytes_read = 0u64;
        let a_sum = stream_msm::<G1Config>(
            rec,
            store,
            segment_kind::A_QUERY,
            &z,
            budget,
            "curves.msm_a",
            &mut bytes_read,
        )?;
        let b_g1_sum = stream_msm::<G1Config>(
            rec,
            store,
            segment_kind::B_G1_QUERY,
            &z,
            budget,
            "curves.msm_b_g1",
            &mut bytes_read,
        )?;
        let b_g2_sum = stream_msm::<G2Config>(
            rec,
            store,
            segment_kind::B_G2_QUERY,
            &z,
            budget,
            "curves.msm_b_g2",
            &mut bytes_read,
        )?;
        let l_sum = stream_msm::<G1Config>(
            rec,
            store,
            segment_kind::L_QUERY,
            &z[num_instance..],
            budget,
            "curves.msm_l",
            &mut bytes_read,
        )?;
        let h_sum = stream_msm::<G1Config>(
            rec,
            store,
            segment_kind::H_QUERY,
            &h,
            budget,
            "curves.msm_h",
            &mut bytes_read,
        )?;
        let constants = rec
            .leaf("store.read", || store.constants())
            .map_err(|e| format!("constants: {e}"))?;
        let proof = rec.leaf("groth16.assemble", || {
            let sums = ProofSums {
                a_sum,
                b_g1_sum,
                b_g2_sum,
                lh_sum: l_sum + h_sum,
            };
            assemble_proof(&constants, &sums, r, s)
        });
        rec.leaf("core.statement", || spec.statement());
        Ok(Proved {
            proof,
            verdict: built.verdict,
            msm_terms: 3 * z.len() + (z.len() - num_instance) + h.len(),
            bytes_read,
        })
    })
}

/// One family MSM streamed from the store: the time between chunk
/// deliveries is `store.read` (chunk read, point decode, checksum), the
/// time inside the consumer is the MSM span `name`.
fn stream_msm<C: SwCurveConfig>(
    rec: &mut Recorder,
    store: &KeyStore,
    kind: u32,
    scalars: &[Fr],
    budget: MemoryBudget,
    name: &'static str,
    bytes_read: &mut u64,
) -> Result<Projective<C>, String> {
    let mut last = Instant::now();
    let entry = *store
        .file()
        .require(kind)
        .map_err(|e| format!("segment {kind}: {e}"))?;
    if entry.count != scalars.len() as u64 {
        return Err(format!(
            "segment {kind} holds {} points for {} scalars",
            entry.count,
            scalars.len()
        ));
    }
    let mut acc = MsmAccumulator::<C>::new();
    let streamed = store.stream_family::<C>(kind, budget, |at, points| {
        rec.interval("store.read", last, Instant::now());
        let at = at as usize;
        rec.leaf(name, || {
            acc.accumulate(points, &scalars[at..at + points.len()])
        });
        last = Instant::now();
    });
    rec.interval("store.read", last, Instant::now());
    streamed.map_err(|e| format!("segment {kind}: {e}"))?;
    *bytes_read += entry.len;
    Ok(acc.finish())
}

/// What a key-generation replay produced.
pub struct Keygen {
    pub circuit_id: CircuitId,
    pub constraints: usize,
    pub domain_size: usize,
    pub timings: SetupTimings,
}

/// The setup-mode synthesis both setup paths start with: the lowered
/// matrices, the trace digest and the constraint count.
fn setup_synthesis(
    rec: &mut Recorder,
    statement: &OwnershipStatement,
) -> (SetupContext, CircuitId, usize) {
    let (matrices, circuit_id, constraints) = rec.leaf("r1cs.setup_synthesize", || {
        let circuit = ExtractionCircuit::from_statement(statement);
        let mut cs = SetupSynthesizer::with_sink(TraceHasher::new());
        circuit
            .synthesize(&mut cs)
            .expect("setup-mode synthesis evaluates no value closure");
        let matrices = cs.to_matrices();
        let constraints = cs.num_constraints();
        (
            matrices,
            CircuitId::from_bytes(cs.into_sink().finalize()),
            constraints,
        )
    });
    let ctx = rec.leaf("groth16.setup_context", || SetupContext::new(matrices));
    (ctx, circuit_id, constraints)
}

/// Replays `Authority::setup_statement` (in-memory keys).
pub fn keygen<R: rand::Rng>(
    rec: &mut Recorder,
    statement: &OwnershipStatement,
    rng: &mut R,
) -> (ProvingKey, Keygen) {
    rec.span("setup", |rec| {
        let (ctx, circuit_id, constraints) = setup_synthesis(rec, statement);
        let (pk, timings) = rec.leaf("groth16.keygen", || {
            ctx.generate_timed(&ToxicWaste::sample(rng))
        });
        let digest = rec.leaf("core.statement_digest", || statement.content_digest());
        rec.leaf("core.verifier_kit", || {
            VerifierKit::from_parts(pk.vk.clone(), circuit_id).bind_statement(digest)
        });
        let keygen = Keygen {
            circuit_id,
            constraints,
            domain_size: ctx.domain().size,
            timings,
        };
        (pk, keygen)
    })
}

/// Replays `Authority::setup_statement_stored`, streaming the key to
/// `path`.
pub fn keygen_stored<R: rand::Rng>(
    rec: &mut Recorder,
    statement: &OwnershipStatement,
    path: &Path,
    rng: &mut R,
    budget: MemoryBudget,
) -> Result<Keygen, String> {
    rec.span("setup", |rec| {
        let (ctx, circuit_id, constraints) = setup_synthesis(rec, statement);
        let digest = rec.leaf("core.statement_digest", || statement.content_digest());
        let meta = StoreMeta {
            circuit_id: *circuit_id.as_bytes(),
            statement_digest: digest,
        };
        let mut sink = rec
            .leaf("store.create", || KeyStoreWriter::create(path, Some(meta)))
            .map_err(|e| format!("store create: {e}"))?;
        let timings = rec
            .leaf("groth16.keygen", || {
                ctx.generate_streaming_with(&ToxicWaste::sample(rng), &mut sink, budget)
            })
            .map_err(|e| format!("streaming keygen: {e}"))?;
        rec.leaf("store.finish", || sink.finish())
            .map_err(|e| format!("store finish: {e}"))?;
        let vk = rec
            .leaf("store.open", || {
                KeyStore::open(path).and_then(|store| store.verifying_key())
            })
            .map_err(|e| format!("store reopen: {e}"))?;
        rec.leaf("core.verifier_kit", || {
            VerifierKit::from_parts(vk, circuit_id).bind_statement(digest)
        });
        Ok(Keygen {
            circuit_id,
            constraints,
            domain_size: ctx.domain().size,
            timings,
        })
    })
}
