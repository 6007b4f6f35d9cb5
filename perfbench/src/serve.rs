//! `serve-mlp`: the authority's steady traffic.
//!
//! An in-process authority (`zkrownn_service::serve` at
//! `ServerConfig::default()`) holds the key of one registered quick-MLP
//! statement; one plain `Client` connection, driven from the calling
//! thread, sends `VERIFY` requests for claims about that statement in a
//! closed loop.
//! The timed operation is the client-observed round trip.
//!
//! One client, not two: a round trip costs the same at one and two clients
//! on a two-core host, but with both cores busy any other runnable thread
//! preempts a request, and the median round trip spread more from run to
//! run. One client leaves a core free.
//!
//! The traced run sends the same requests, and after each round trip
//! verifies the same claim bytes in-process, once through the registry and
//! once as a layer-by-layer replay; `service.overhead_ms_p50` is the median
//! of round trip minus the in-process verification that followed it. Each
//! pair runs back to back, so a drift in the host's speed during the run
//! does not enter the difference.

use crate::common::{
    ensure, flip_proof_byte, forge_proof, ms, other_statement, secs, setup_times, timed_setup,
    Args, Outcome, MODEL_STREAM, SETUP_STREAM,
};
use crate::corpus::{input_rng, mlp_spec};
use crate::replay;
use crate::stats::{median, peak_rss_mb};
use crate::trace::{Recorder, SETUP_OP};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;
use zkrownn::{Artifact, Authority, CircuitId, ExtractionSpec, SignedClaim};
use zkrownn_groth16::VerifyingKey;
use zkrownn_service::{
    serve, stats_field_u64, Client, LedgeredRegistry, ServerConfig, ServerHandle, Status,
};

/// Distinct claims in the corpus (all about the one registered statement).
const CLAIMS: usize = 4;

/// A running authority with its connected client and claim corpus.
struct Deployment {
    handle: ServerHandle,
    registry: Arc<LedgeredRegistry>,
    client: Client,
    claims: Vec<Vec<u8>>,
    circuit_id: CircuitId,
    digest: [u8; 32],
    vk: VerifyingKey,
}

impl Deployment {
    fn shut_down(self) {
        drop(self.client);
        self.handle.shutdown_and_join();
    }
}

/// Keys, corpus, server start and registration: everything before the
/// first timed request.
fn deploy(spec: &ExtractionSpec, rng: &mut StdRng) -> Result<Deployment, String> {
    let (prover, verifier) = Authority::setup(spec, rng);
    let claims = (0..CLAIMS)
        .map(|_| prover.prove(rng).map(|claim| claim.to_bytes()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("corpus proof: {e}"))?;
    let registry = Arc::new(LedgeredRegistry::new());
    registry.register_kit(&verifier);
    let handle = serve(ServerConfig::default(), Arc::clone(&registry))
        .map_err(|e| format!("server start: {e}"))?;
    let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Deployment {
        handle,
        registry,
        client,
        claims,
        circuit_id: verifier.circuit_id(),
        digest: verifier
            .expected_statement()
            .expect("authority-issued kits are bound to their statement"),
        vk: verifier.verifying_key().clone(),
    })
}

/// Every corpus claim is about the registered statement and attests
/// ownership.
fn check_corpus(d: &Deployment) -> Result<(), String> {
    for (i, bytes) in d.claims.iter().enumerate() {
        let claim = SignedClaim::from_bytes(bytes).map_err(|e| format!("claim {i}: {e}"))?;
        ensure!(
            claim.statement.content_digest() == d.digest,
            "claim {i} is not about the registered statement"
        );
        ensure!(
            claim.circuit_id() == d.circuit_id && claim.verdict(),
            "claim {i} names another circuit or a negative verdict"
        );
    }
    Ok(())
}

/// One timed request.
struct Request {
    claim: usize,
    sent: Instant,
    done: Instant,
    status: Result<Status, String>,
}

impl Request {
    fn ok(&self) -> bool {
        matches!(self.status, Ok(Status::Ok))
    }

    fn rtt_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// One `VERIFY` round trip of corpus claim `claim`. A `Busy` shed or a
/// transport error is a failed request; the client then reconnects.
fn send(d: &mut Deployment, claim: usize) -> Request {
    let bytes = d.claims[claim].clone();
    let sent = Instant::now();
    let response = d.client.verify_bytes(bytes);
    let done = Instant::now();
    let status = response.map(|r| r.status).map_err(|e| e.to_string());
    if matches!(status, Ok(Status::Busy) | Err(_)) {
        if let Ok(fresh) = Client::connect(d.handle.addr()) {
            d.client = fresh;
        }
    }
    Request {
        claim,
        sent,
        done,
        status,
    }
}

/// The closed loop: the client sends its next claim as soon as the
/// previous verdict arrives, until `seconds` have passed.
fn closed_loop(d: &mut Deployment, seconds: f64) -> (Vec<Request>, f64) {
    let start = Instant::now();
    let mut requests = Vec::new();
    while secs(start) < seconds {
        requests.push(send(d, requests.len() % CLAIMS));
    }
    (requests, secs(start))
}

/// Negative controls over the client's connection: each tampered claim must
/// be rejected with its typed status.
fn controls(d: &mut Deployment) -> Result<(), String> {
    let honest = SignedClaim::from_bytes(&d.claims[0]).map_err(|e| e.to_string())?;
    // the registry binds keys to circuits, not statements: a claim about
    // another statement of the circuit fails at the pairing
    let cases = [
        (
            "flipped proof byte",
            flip_proof_byte(&d.claims[0]),
            Status::MalformedClaim,
        ),
        ("forged proof", forge_proof(&honest), Status::InvalidProof),
        (
            "other statement",
            other_statement(&honest),
            Status::InvalidProof,
        ),
        ("honest claim", d.claims[0].clone(), Status::Ok),
    ];
    for (name, bytes, expected) in cases {
        let got = d
            .client
            .verify_bytes(bytes)
            .map_err(|e| format!("control {name}: {e}"))?
            .status;
        ensure!(
            got == expected,
            "control {name}: got {got:?}, expected {expected:?}"
        );
    }
    Ok(())
}

fn stats(d: &mut Deployment) -> Result<String, String> {
    d.client.stats_json().map_err(|e| format!("stats: {e}"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = mlp_spec(&mut input_rng(args.seed, MODEL_STREAM, 0));
    let setup = |rep| deploy(&spec, &mut input_rng(args.seed, SETUP_STREAM, rep));
    let (mut d, first_s) = timed_setup(|| setup(0))?;
    check_corpus(&d)?;

    let mut out = Outcome::default();
    let before = stats(&mut d)?;
    let (requests, elapsed) = if args.trace {
        traced(args, &spec, &mut d, &mut out)?
    } else {
        closed_loop(&mut d, args.seconds)
    };
    let after = stats(&mut d)?;
    out.attempted = requests.len() as u64;
    out.failed = requests.iter().filter(|r| !r.ok()).count() as u64;
    let busy = requests
        .iter()
        .filter(|r| matches!(r.status, Ok(Status::Busy)))
        .count();
    out.notes.push(format!(
        "requests {} ok {} failed {} (busy {busy})",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    ));
    if args.trace {
        controls(&mut d)?;
        let field = |json: &str, key: &str| stats_field_u64(json, key).unwrap_or(0) as f64;
        let batches = field(&after, "batches") - field(&before, "batches");
        let batched = field(&after, "batched_claims") - field(&before, "batched_claims");
        out.set("service.mean_batch", batched / batches.max(1.0));
        out.set("service.busy", busy as f64);
        d.shut_down();
    } else {
        out.set("peak_rss_mb", peak_rss_mb());
        controls(&mut d)?;
        let bytes: usize = d.claims.iter().map(Vec::len).sum();
        out.set("claim_bytes", bytes as f64 / d.claims.len() as f64);
        d.shut_down();
        let rtt: Vec<f64> = requests
            .iter()
            .filter(|r| r.ok())
            .map(Request::rtt_ms)
            .collect();
        let setup_s = setup_times(first_s, setup, Deployment::shut_down)?;
        out.set_op_times(&setup_s, &rtt, elapsed);
    }
    Ok(out)
}

/// The traced run: the setup replay, then for `args.seconds` each round
/// trip as a span, followed by the untraced and the replayed in-process
/// verification of the same claim. Returns the requests sent and the
/// seconds the loop took.
fn traced(
    args: &Args,
    spec: &ExtractionSpec,
    d: &mut Deployment,
    out: &mut Outcome,
) -> Result<(Vec<Request>, f64), String> {
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    rec.set_op(SETUP_OP);
    // the same randomness as the measured setup, so the same keys
    let (pk, keygen) = replay::keygen(
        &mut rec,
        &spec.statement(),
        &mut input_rng(args.seed, SETUP_STREAM, 0),
    );
    ensure!(
        keygen.circuit_id == d.circuit_id && pk.vk == d.vk,
        "setup replay produced other keys than Authority::setup"
    );
    let pvk = d.vk.prepare();
    let registry = Arc::clone(d.registry.keys());
    let start = Instant::now();
    let mut requests = Vec::new();
    let mut ops = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut msm_terms = 0;
    while secs(start) < args.seconds {
        let op = requests.len();
        let r = send(d, op % CLAIMS);
        rec.set_op(op as u64);
        rec.interval("service.rtt", r.sent, r.done);
        let bytes = &d.claims[r.claim];
        let t = Instant::now();
        let real = SignedClaim::from_bytes(bytes)
            .map_err(zkrownn::ZkrownnError::from)
            .and_then(|claim| registry.verify(&claim));
        let in_process_ms = ms(t);
        let v = replay::registry_verify(&mut rec, &pvk, d.circuit_id, bytes);
        ensure!(
            v.accepted == real.is_ok() && v.accepted == r.ok(),
            "op {op}: replay accepted={}, registry {:?}, service {:?}",
            v.accepted,
            real,
            r.status
        );
        ensure!(
            v.pairing_equal == Some(v.accepted),
            "op {op}: pairing product disagrees with the verdict"
        );
        ops.push(op as u64);
        untraced_ms.push(in_process_ms);
        overhead_ms.push(r.rtt_ms() - in_process_ms);
        msm_terms = v.msm_terms;
        requests.push(r);
    }
    let elapsed = secs(start);
    ensure!(!ops.is_empty(), "no request was replayed");
    let forged = forge_proof(&SignedClaim::from_bytes(&d.claims[0]).map_err(|e| e.to_string())?);
    let v = replay::registry_verify(&mut Recorder::new(origin), &pvk, d.circuit_id, &forged);
    ensure!(
        v.pairing_equal == Some(false) && !v.accepted,
        "replay accepted a forged proof"
    );
    let trace = rec.finish();

    out.set_layer_times(&trace, &ops);
    out.set("service.overhead_ms_p50", median(&overhead_ms));
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
    out.set("groth16.public_inputs", d.vk.gamma_abc_g1.len() as f64);
    out.set("curves.msm_terms", msm_terms as f64);
    out.set("trace.unattributed_frac", trace.unattributed_frac("verify"));
    let replayed = median(&trace.root_ms("verify"));
    out.set("trace.overhead_frac", replayed / median(&untraced_ms) - 1.0);
    out.notes.push(format!("replayed {} requests", ops.len()));
    crate::write_trace(args, "serve-mlp", &trace)?;
    Ok((requests, elapsed))
}
