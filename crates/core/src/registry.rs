//! The verifier-side key registry: cached pairing precomputation and
//! amortized batch verification.
//!
//! A verification service receives many claims from many claimants, most of
//! them against a handful of circuits (one per disputed model family). Four
//! costs dominate a naive per-claim loop and are amortizable:
//!
//! * **pairing precomputation** — `VerifyingKey::prepare` runs `e(α, β)`
//!   and the G2 line precomputations; the [`KeyRegistry`] does it once per
//!   [`CircuitId`] and caches the result;
//! * **statement identity** — checking that a claim's statement really
//!   describes the circuit its proof names means re-synthesizing the
//!   circuit from the statement ([`OwnershipStatement::circuit_id`]), by
//!   far the largest cost of verifying a claim. The registry remembers the
//!   statement digests each circuit was registered with
//!   ([`KeyRegistry::register_statement`]); a claim about a registered
//!   statement takes its circuit id from that record and is never
//!   re-synthesized, while any other statement still is, with the same
//!   checks and errors;
//! * **input preparation** — folding the suspect model's parameters into
//!   the instance commitment (one MSM over the key's `γ_abc` bases);
//!   [`KeyRegistry::verify_batch`] does it once per distinct
//!   statement-and-verdict, not once per claim — including on the
//!   per-claim fallback path after a failed combined check;
//! * **final exponentiations** — `verify_batch` folds all `n` positive
//!   same-circuit claims into one random-linear-combination pairing check
//!   (`n + 2` Miller loops and one final exponentiation instead of `3n`
//!   and `n`), falling back to per-claim verification only when the
//!   combined check fails — so a batch with a single forged claim still
//!   yields precise per-claim verdicts.
//!
//! Skipping synthesis for a registered statement is safe for three
//! reasons. A registered `(circuit, statement digest)` pair comes from the
//! authority's own setup synthesis of that statement, so it carries exactly
//! the trust of the verifying key it is registered beside. Equal content
//! digests mean byte-identical statements, and byte-identical statements
//! synthesize to the same circuit id. [`VerifierKit::verify`]'s bound path
//! already rests on the same argument. Soundness never depended on the
//! identity check anyway: the pairing equation binds the proof to the
//! circuit-specific key.
//!
//! For concurrent servers (many worker threads verifying independently),
//! [`ShardedKeyRegistry`] wraps the same cache in `CircuitId`-sharded
//! reader-writer locks: registration takes a per-shard write lock,
//! verification takes shared read locks, and claims for different circuits
//! never contend.
//!
//! Note that the registry authenticates each claim against the statement
//! *it carries*: `Ok(())` means "the watermark is in the model the claimant
//! described". A registered statement digest only speeds up the identity
//! check; it does not restrict which statements are accepted. A service
//! adjudicating a dispute over one specific model must additionally pin
//! claims to that model's statement — compare
//! `claim.statement.content_digest()` against the disputed statement's
//! digest, as [`crate::VerifierKit::bind_statement`] does for the
//! single-kit path.

use crate::artifact::{CircuitId, OwnershipStatement};
use crate::error::ZkrownnError;
use crate::verify::{
    check_proof_circuit, check_statement_circuit, verify_claim_crypto, SignedClaim, VerifierKit,
};
use std::collections::{HashMap, HashSet};
use std::sync::RwLock;
use zkrownn_groth16::{
    prepare_inputs, verify_proof_with_prepared_inputs, verify_proofs_batch_prepared,
    PreparedInputs, PreparedVerifyingKey, Proof, VerificationError, VerifyingKey,
};

/// A cache of prepared verifying keys, indexed by circuit id, together
/// with the statement digests each circuit was registered for.
#[derive(Default)]
pub struct KeyRegistry {
    circuits: HashMap<CircuitId, RegisteredCircuit>,
    preparations: usize,
}

/// One registered circuit: its prepared key and the content digests of the
/// statements it was registered for. The digest set only grows at
/// registration, one entry per registered `(circuit, statement)` pair.
struct RegisteredCircuit {
    pvk: PreparedVerifyingKey,
    statements: HashSet<[u8; 32]>,
}

impl RegisteredCircuit {
    /// The circuit id of a statement (with content digest `digest`) carried
    /// by a claim whose proof names this circuit, `id`. A registered
    /// statement is this circuit by registration; any other statement is
    /// re-synthesized.
    fn statement_id(
        &self,
        id: CircuitId,
        statement: &OwnershipStatement,
        digest: &[u8; 32],
    ) -> CircuitId {
        if self.statements.contains(digest) {
            id
        } else {
            statement.circuit_id()
        }
    }
}

/// Per-distinct-statement cache entry inside one `verify_batch` group: the
/// statement's circuit id plus the instance commitment for
/// each verdict value, prepared at most once and reused by the combined
/// check *and* the per-claim fallback.
struct StatementEntry {
    statement_id: CircuitId,
    inputs: [Option<Result<PreparedInputs, VerificationError>>; 2],
}

impl KeyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a verifying key for a circuit, preparing it (pairing
    /// precomputation) unless that circuit is already cached. Returns
    /// `true` if the key was newly prepared.
    pub fn register(&mut self, id: CircuitId, vk: &VerifyingKey) -> bool {
        if self.circuits.contains_key(&id) {
            return false;
        }
        self.circuits.insert(
            id,
            RegisteredCircuit {
                pvk: vk.prepare(),
                statements: HashSet::new(),
            },
        );
        self.preparations += 1;
        true
    }

    /// Registers a verifying key for a circuit like [`Self::register`], and
    /// records that the statement with content digest `statement_digest`
    /// ([`OwnershipStatement::content_digest`]) synthesizes to `id`.
    /// Returns `true` if the key was newly prepared.
    ///
    /// Claims about a recorded statement skip the re-synthesis of the
    /// statement-identity check (see the [module docs](self)), so the pair
    /// must come from the authority's own setup of that statement, with the
    /// same trust as `vk` itself: a setup-issued [`VerifierKit`]'s binding,
    /// or the pair a registration file or key store was written with.
    pub fn register_statement(
        &mut self,
        id: CircuitId,
        statement_digest: [u8; 32],
        vk: &VerifyingKey,
    ) -> bool {
        let newly_prepared = self.register(id, vk);
        self.circuits
            .get_mut(&id)
            .expect("registered above")
            .statements
            .insert(statement_digest);
        newly_prepared
    }

    /// Registers a [`VerifierKit`]'s key under its circuit id, together with
    /// the statement the kit is bound to ([`VerifierKit::bind_statement`]),
    /// if any.
    pub fn register_kit(&mut self, kit: &VerifierKit) -> bool {
        match kit.expected_statement() {
            Some(digest) => self.register_statement(kit.circuit_id(), digest, kit.verifying_key()),
            None => self.register(kit.circuit_id(), kit.verifying_key()),
        }
    }

    /// Whether a circuit's key is registered.
    pub fn contains(&self, id: CircuitId) -> bool {
        self.circuits.contains_key(&id)
    }

    /// Whether `statement_digest` was registered for circuit `id` (so claims
    /// about that statement skip re-synthesis).
    pub fn has_statement(&self, id: CircuitId, statement_digest: &[u8; 32]) -> bool {
        self.circuits
            .get(&id)
            .is_some_and(|c| c.statements.contains(statement_digest))
    }

    /// Number of registered circuits.
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// How many pairing precomputations this registry has run — one per
    /// registered circuit, however many claims are verified against it.
    pub fn preparations(&self) -> usize {
        self.preparations
    }

    /// Verifies a single claim against the registered keys: the
    /// statement-identity check (skipping synthesis for a registered
    /// statement), the pairing equation, then the verdict gate.
    pub fn verify(&self, claim: &SignedClaim) -> Result<(), ZkrownnError> {
        let id = claim.circuit_id();
        let circuit = self
            .circuits
            .get(&id)
            .ok_or(ZkrownnError::UnknownCircuit(id))?;
        let digest = claim.statement.content_digest();
        check_statement_circuit(id, circuit.statement_id(id, &claim.statement, &digest))?;
        verify_claim_crypto(&circuit.pvk, claim)
    }

    /// Verifies many claims, amortizing everything amortizable, and returns
    /// one `Result` per claim (index-aligned with `claims`).
    ///
    /// Claims are grouped by circuit id; within a group, the instance
    /// commitment (the public-input MSM) is prepared once per distinct
    /// statement and verdict, and all positive claims are checked with a
    /// single random-linear-combination pairing equation (coefficients
    /// drawn from `rng`). If the combined check fails, the group falls back
    /// to per-claim verification — reusing the already-prepared commitments
    /// — so exactly the bad claims are flagged. Negative-verdict claims are
    /// verified individually and reported as
    /// [`ZkrownnError::NegativeVerdict`] when their proof is sound (a
    /// forged negative claim still reports [`ZkrownnError::InvalidProof`]).
    pub fn verify_batch<R: rand::Rng + ?Sized>(
        &self,
        claims: &[SignedClaim],
        rng: &mut R,
    ) -> Vec<Result<(), ZkrownnError>> {
        let refs: Vec<&SignedClaim> = claims.iter().collect();
        self.verify_batch_refs(&refs, rng)
    }

    /// [`Self::verify_batch`] over borrowed claims — what sharded and
    /// service front ends call after partitioning a mixed batch without
    /// cloning statements around.
    pub fn verify_batch_refs<R: rand::Rng + ?Sized>(
        &self,
        claims: &[&SignedClaim],
        rng: &mut R,
    ) -> Vec<Result<(), ZkrownnError>> {
        let mut results: Vec<Result<(), ZkrownnError>> = vec![Ok(()); claims.len()];

        // group by the circuit the proof names
        let mut groups: HashMap<CircuitId, Vec<usize>> = HashMap::new();
        for (i, claim) in claims.iter().enumerate() {
            groups.entry(claim.circuit_id()).or_default().push(i);
        }

        for (id, indices) in groups {
            let Some(circuit) = self.circuits.get(&id) else {
                for i in indices {
                    results[i] = Err(ZkrownnError::UnknownCircuit(id));
                }
                continue;
            };

            let pvk = &circuit.pvk;
            // per distinct statement: the circuit id (one setup-mode
            // synthesis, unless the statement is registered) and the
            // per-verdict instance commitments, all computed at most once
            // for the whole group — combined check and fallback included
            let mut statement_cache: HashMap<[u8; 32], StatementEntry> = HashMap::new();
            // positive claims eligible for the combined pairing check,
            // built directly in the shape `verify_proofs_batch_prepared`
            // consumes
            let mut positive_idx: Vec<usize> = Vec::new();
            let mut batch: Vec<(Proof, PreparedInputs)> = Vec::new();

            for i in indices {
                let claim = claims[i];
                if let Err(e) = check_proof_circuit(id, claim) {
                    results[i] = Err(e);
                    continue;
                }
                let digest = claim.statement.content_digest();
                let entry = statement_cache
                    .entry(digest)
                    .or_insert_with(|| StatementEntry {
                        statement_id: circuit.statement_id(id, &claim.statement, &digest),
                        inputs: [None, None],
                    });
                if let Err(e) = check_statement_circuit(id, entry.statement_id) {
                    results[i] = Err(e);
                    continue;
                }
                let verdict = claim.proof.verdict;
                let prepared = entry.inputs[usize::from(verdict)]
                    .get_or_insert_with(|| {
                        prepare_inputs(pvk, &claim.statement.public_inputs(verdict))
                    })
                    .clone();
                let prepared = match prepared {
                    Ok(p) => p,
                    Err(e) => {
                        results[i] = Err(ZkrownnError::InvalidProof(e));
                        continue;
                    }
                };
                if verdict {
                    positive_idx.push(i);
                    batch.push((claim.proof.proof.clone(), prepared));
                } else {
                    // sound-but-negative vs. forged must stay distinguishable,
                    // so negatives are never folded into the combined check
                    results[i] =
                        match verify_proof_with_prepared_inputs(pvk, &claim.proof.proof, &prepared)
                        {
                            Ok(()) => Err(ZkrownnError::NegativeVerdict),
                            Err(e) => Err(ZkrownnError::InvalidProof(e)),
                        };
                }
            }

            if batch.is_empty() {
                continue;
            }
            match verify_proofs_batch_prepared(pvk, &batch, rng) {
                Ok(()) => {} // every positive claim verified (already Ok)
                Err(_) => {
                    // locate the bad claims individually; the prepared
                    // commitments ride along from the combined attempt
                    for (i, (proof, prepared)) in positive_idx.iter().zip(&batch) {
                        results[*i] = verify_proof_with_prepared_inputs(pvk, proof, prepared)
                            .map_err(ZkrownnError::InvalidProof);
                    }
                }
            }
        }
        results
    }
}

/// Number of circuit shards — a power of two so the shard index is a mask
/// over the (uniform) circuit-id digest bytes. Sixteen keeps write
/// contention negligible for realistic circuit catalogs while staying
/// cache-friendly to iterate.
pub const REGISTRY_SHARDS: usize = 16;

/// A concurrent, `CircuitId`-sharded [`KeyRegistry`] for multi-threaded
/// verification services.
///
/// Every operation takes `&self`: registration write-locks only the shard
/// the circuit hashes to, and verification takes shared read locks, so
/// worker threads serving different circuits never contend and workers
/// serving the *same* circuit share the cached [`PreparedVerifyingKey`]
/// without cloning it. The type is `Send + Sync` by construction (asserted
/// at compile time) — wrap it in an `Arc` and hand it to every worker.
pub struct ShardedKeyRegistry {
    shards: Vec<RwLock<KeyRegistry>>,
}

impl Default for ShardedKeyRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedKeyRegistry {
    /// An empty sharded registry with [`REGISTRY_SHARDS`] shards.
    pub fn new() -> Self {
        Self {
            shards: (0..REGISTRY_SHARDS)
                .map(|_| RwLock::new(KeyRegistry::new()))
                .collect(),
        }
    }

    /// The shard index a circuit id lives in.
    pub fn shard_of(id: CircuitId) -> usize {
        id.as_bytes()[0] as usize & (REGISTRY_SHARDS - 1)
    }

    fn shard(&self, id: CircuitId) -> &RwLock<KeyRegistry> {
        &self.shards[Self::shard_of(id)]
    }

    /// Registers a verifying key for a circuit (write-locking only its
    /// shard). Returns `true` if the key was newly prepared.
    pub fn register(&self, id: CircuitId, vk: &VerifyingKey) -> bool {
        self.shard(id)
            .write()
            .expect("shard poisoned")
            .register(id, vk)
    }

    /// Registers a key and a statement digest for a circuit, like
    /// [`KeyRegistry::register_statement`] (write-locking only its shard).
    pub fn register_statement(
        &self,
        id: CircuitId,
        statement_digest: [u8; 32],
        vk: &VerifyingKey,
    ) -> bool {
        self.shard(id)
            .write()
            .expect("shard poisoned")
            .register_statement(id, statement_digest, vk)
    }

    /// Registers a [`VerifierKit`]'s key (and bound statement, if any)
    /// under its circuit id, like [`KeyRegistry::register_kit`].
    pub fn register_kit(&self, kit: &VerifierKit) -> bool {
        self.shard(kit.circuit_id())
            .write()
            .expect("shard poisoned")
            .register_kit(kit)
    }

    /// Whether a circuit's key is registered.
    pub fn contains(&self, id: CircuitId) -> bool {
        self.shard(id).read().expect("shard poisoned").contains(id)
    }

    /// Whether `statement_digest` was registered for circuit `id`.
    pub fn has_statement(&self, id: CircuitId, statement_digest: &[u8; 32]) -> bool {
        self.shard(id)
            .read()
            .expect("shard poisoned")
            .has_statement(id, statement_digest)
    }

    /// Number of registered circuits (sums all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").len())
            .sum()
    }

    /// Whether no circuit is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total pairing precomputations across all shards.
    pub fn preparations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").preparations())
            .sum()
    }

    /// Verifies a single claim (read-locking only its circuit's shard).
    pub fn verify(&self, claim: &SignedClaim) -> Result<(), ZkrownnError> {
        self.shard(claim.circuit_id())
            .read()
            .expect("shard poisoned")
            .verify(claim)
    }

    /// Verifies many claims, amortizing per-circuit work exactly like
    /// [`KeyRegistry::verify_batch`]; claims are partitioned per shard so
    /// only the shards actually referenced are read-locked.
    pub fn verify_batch<R: rand::Rng + ?Sized>(
        &self,
        claims: &[SignedClaim],
        rng: &mut R,
    ) -> Vec<Result<(), ZkrownnError>> {
        let mut results: Vec<Result<(), ZkrownnError>> = vec![Ok(()); claims.len()];
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); REGISTRY_SHARDS];
        for (i, claim) in claims.iter().enumerate() {
            per_shard[Self::shard_of(claim.circuit_id())].push(i);
        }
        for (shard_idx, indices) in per_shard.into_iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let refs: Vec<&SignedClaim> = indices.iter().map(|&i| &claims[i]).collect();
            let shard_results = self.shards[shard_idx]
                .read()
                .expect("shard poisoned")
                .verify_batch_refs(&refs, rng);
            for (i, r) in indices.into_iter().zip(shard_results) {
                results[i] = r;
            }
        }
        results
    }
}

// The whole point of the sharded registry is to be shared across worker
// threads; lock it in at compile time so a non-Send field can never sneak
// into the prepared-key cache unnoticed.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedKeyRegistry>();
    assert_send_sync::<KeyRegistry>();
    assert_send_sync::<PreparedVerifyingKey>();
};
