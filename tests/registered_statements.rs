//! The registry's statement-identity check: a claim about a statement
//! registered for the circuit its proof names takes its circuit id from the
//! registration and is never re-synthesized; any other statement is
//! re-synthesized, with the same checks and errors as before.
//!
//! The two paths are told apart with a statement that *lies* about its
//! shape: registered for a circuit it does not synthesize to, it skips the
//! identity check and fails at the pairing, while unregistered it fails the
//! identity check.

use rand::SeedableRng;
use zkrownn::{
    Authority, CircuitId, ExtractionSpec, KeyRegistry, OwnershipStatement, QuantLayer,
    QuantizedModel, ShardedKeyRegistry, SignedClaim, VerifierKit, ZkrownnError,
};
use zkrownn_gadgets::FixedConfig;
use zkrownn_groth16::VerificationError;

/// A tiny, deterministic extraction spec (no training needed) whose
/// verdict is positive.
fn tiny_spec() -> ExtractionSpec {
    let cfg = FixedConfig::default();
    let model = QuantizedModel {
        layers: vec![
            QuantLayer::Dense {
                in_dim: 2,
                out_dim: 2,
                w: vec![cfg.encode(0.5); 4],
                b: vec![0; 2],
            },
            QuantLayer::ReLU,
        ],
        input_len: 2,
        cfg,
    };
    ExtractionSpec {
        model,
        triggers: vec![vec![cfg.encode(1.0); 2]; 2],
        projection: vec![cfg.encode(0.25); 8],
        signature: vec![true; 4],
        max_errors: 0,
        fold_average: false,
        cfg,
    }
}

/// `statement` with different first-layer weights: the same shape (and
/// circuit id) but different public inputs.
fn reweighted(statement: &OwnershipStatement) -> OwnershipStatement {
    let mut other = statement.clone();
    let QuantLayer::Dense { w, .. } = &mut other.model.layers[0] else {
        unreachable!("tiny spec starts with a dense layer")
    };
    w[0] = statement.cfg.encode(0.75);
    other
}

struct Fixture {
    verifier: VerifierKit,
    honest: SignedClaim,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (prover, verifier) = Authority::setup(&tiny_spec(), &mut rng);
    let honest = prover.prove(&mut rng).expect("honest claim");
    assert!(honest.verdict());
    Fixture { verifier, honest }
}

fn with_statement(claim: &SignedClaim, statement: OwnershipStatement) -> SignedClaim {
    SignedClaim {
        statement,
        proof: claim.proof.clone(),
    }
}

fn is_pairing_failure(result: &Result<(), ZkrownnError>) -> bool {
    matches!(
        result,
        Err(ZkrownnError::InvalidProof(VerificationError::InvalidProof))
    )
}

#[test]
fn a_registered_statement_skips_synthesis_and_an_unregistered_one_does_not() {
    let f = fixture(901);
    let id = f.verifier.circuit_id();
    let vk = f.verifier.verifying_key();

    // a different shape (θ is baked into the circuit) with different
    // public-input values, carried by a proof that names `id`
    let mut lying = reweighted(&f.honest.statement);
    lying.max_errors += 1;
    let lying_id = lying.circuit_id();
    assert_ne!(lying_id, id);
    let claim = with_statement(&f.honest, lying.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(902);

    // bound: the registry trusts the registration, skips synthesis, and the
    // pairing rejects the proof over the lying statement's inputs
    let mut bound = KeyRegistry::new();
    assert!(bound.register_statement(id, lying.content_digest(), vk));
    assert!(bound.has_statement(id, &lying.content_digest()));
    assert!(is_pairing_failure(&bound.verify(&claim)));
    let batch = bound.verify_batch(&[f.honest.clone(), claim.clone()], &mut rng);
    assert_eq!(batch[0], Ok(()));
    assert!(is_pairing_failure(&batch[1]), "{:?}", batch[1]);

    // unbound: the same claim is re-synthesized and fails the identity check
    let mismatch = Err(ZkrownnError::CircuitMismatch {
        expected: id,
        got: lying_id,
    });
    let mut unbound = KeyRegistry::new();
    assert!(unbound.register(id, vk));
    assert!(!unbound.has_statement(id, &lying.content_digest()));
    assert_eq!(unbound.verify(&claim), mismatch);
    let batch = unbound.verify_batch(&[f.honest.clone(), claim.clone()], &mut rng);
    assert_eq!(batch[0], Ok(()));
    assert_eq!(batch[1], mismatch);

    // the sharded registry forwards both paths
    let sharded = ShardedKeyRegistry::new();
    assert!(sharded.register(id, vk));
    assert_eq!(sharded.verify(&claim), mismatch);
    assert!(!sharded.register_statement(id, lying.content_digest(), vk));
    assert!(sharded.has_statement(id, &lying.content_digest()));
    assert!(is_pairing_failure(&sharded.verify(&claim)));
    let batch = sharded.verify_batch(&[f.honest.clone(), claim], &mut rng);
    assert_eq!(batch[0], Ok(()));
    assert!(is_pairing_failure(&batch[1]), "{:?}", batch[1]);
}

#[test]
fn an_unregistered_same_shape_statement_still_reaches_the_pairing() {
    let f = fixture(903);
    let id = f.verifier.circuit_id();
    let other = reweighted(&f.honest.statement);
    assert_eq!(other.circuit_id(), id, "same shape, same circuit");
    let claim = with_statement(&f.honest, other.clone());

    // the setup-issued kit registers its own statement, not this one
    let mut registry = KeyRegistry::new();
    assert!(registry.register_kit(&f.verifier));
    assert!(registry.has_statement(id, &f.honest.statement.content_digest()));
    assert!(!registry.has_statement(id, &other.content_digest()));

    assert_eq!(registry.verify(&f.honest), Ok(()));
    assert!(is_pairing_failure(&registry.verify(&claim)));
    let mut rng = rand::rngs::StdRng::seed_from_u64(904);
    let batch = registry.verify_batch(&[claim, f.honest.clone()], &mut rng);
    assert!(is_pairing_failure(&batch[0]), "{:?}", batch[0]);
    assert_eq!(batch[1], Ok(()));
}

#[test]
fn registering_an_unbound_kit_binds_no_statement() {
    let f = fixture(905);
    let id = f.verifier.circuit_id();
    let unbound = VerifierKit::from_parts(f.verifier.verifying_key().clone(), id);
    assert_eq!(unbound.expected_statement(), None);

    let mut registry = KeyRegistry::new();
    assert!(registry.register_kit(&unbound));
    assert!(!registry.has_statement(id, &f.honest.statement.content_digest()));
    assert!(!registry.has_statement(id, &[0u8; 32]));
    assert_eq!(registry.verify(&f.honest), Ok(()));

    // the bound kit adds its statement without re-preparing the key
    assert!(!registry.register_kit(&f.verifier));
    assert!(registry.has_statement(id, &f.honest.statement.content_digest()));
    assert_eq!(registry.preparations(), 1);

    let sharded = ShardedKeyRegistry::new();
    assert!(sharded.register_kit(&unbound));
    assert!(!sharded.has_statement(id, &f.honest.statement.content_digest()));
    assert!(!sharded.register_kit(&f.verifier));
    assert!(sharded.has_statement(id, &f.honest.statement.content_digest()));
    assert!(!sharded.has_statement(CircuitId::from_bytes([0; 32]), &[0u8; 32]));
}
