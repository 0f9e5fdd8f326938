//! Per-query proofs of compliance.
//!
//! After verifying that every node in a query's execution environment
//! satisfies the client's execution policy, the monitor signs the
//! environment facts together with the query — the client (or a
//! regulator) verifies the signature against the monitor's public key.

use ironsafe_crypto::group::Group;
use ironsafe_crypto::schnorr::{PublicKey, SecretKey, Signature};
use ironsafe_crypto::sha256::sha256_concat;

/// A signed statement that a query ran in a policy-compliant environment.
#[derive(Debug, Clone)]
pub struct ProofOfCompliance {
    /// Hash of the (rewritten) query text.
    pub query_hash: [u8; 32],
    /// Hash of the client's execution-policy text.
    pub policy_hash: [u8; 32],
    /// Identifier of the host node used.
    pub host_id: String,
    /// Identifier of the storage node used (empty when host-only).
    pub storage_id: String,
    /// Logical timestamp of authorization.
    pub timestamp: i64,
    /// Audit-chain head at signing time (binds the proof to the log).
    pub audit_head: [u8; 32],
    /// Monitor signature over all of the above.
    pub signature: Signature,
}

fn message(
    query_hash: &[u8; 32],
    policy_hash: &[u8; 32],
    host_id: &str,
    storage_id: &str,
    timestamp: i64,
    audit_head: &[u8; 32],
) -> Vec<u8> {
    let mut m = b"ironsafe-proof-v1".to_vec();
    m.extend_from_slice(query_hash);
    m.extend_from_slice(policy_hash);
    m.extend_from_slice(&(host_id.len() as u32).to_be_bytes());
    m.extend_from_slice(host_id.as_bytes());
    m.extend_from_slice(&(storage_id.len() as u32).to_be_bytes());
    m.extend_from_slice(storage_id.as_bytes());
    m.extend_from_slice(&timestamp.to_be_bytes());
    m.extend_from_slice(audit_head);
    m
}

impl ProofOfCompliance {
    /// Issue a proof (monitor side).
    #[allow(clippy::too_many_arguments)]
    pub fn issue<R: rand::Rng + ?Sized>(
        signer: &SecretKey,
        query_text: &str,
        policy_text: &str,
        host_id: &str,
        storage_id: &str,
        timestamp: i64,
        audit_head: [u8; 32],
        rng: &mut R,
    ) -> Self {
        let query_hash = sha256_concat(&[b"query", query_text.as_bytes()]);
        let policy_hash = sha256_concat(&[b"policy", policy_text.as_bytes()]);
        let msg = message(&query_hash, &policy_hash, host_id, storage_id, timestamp, &audit_head);
        ProofOfCompliance {
            query_hash,
            policy_hash,
            host_id: host_id.to_string(),
            storage_id: storage_id.to_string(),
            timestamp,
            audit_head,
            signature: signer.sign(&msg, rng),
        }
    }

    /// Verify against the monitor's public key and the expected query and
    /// policy texts (client side).
    pub fn verify(
        &self,
        group: &Group,
        monitor_key: &PublicKey,
        query_text: &str,
        policy_text: &str,
    ) -> bool {
        if self.query_hash != sha256_concat(&[b"query", query_text.as_bytes()]) {
            return false;
        }
        if self.policy_hash != sha256_concat(&[b"policy", policy_text.as_bytes()]) {
            return false;
        }
        let msg = message(
            &self.query_hash,
            &self.policy_hash,
            &self.host_id,
            &self.storage_id,
            self.timestamp,
            &self.audit_head,
        );
        monitor_key.verify(group, &msg, &self.signature).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_crypto::schnorr::KeyPair;
    use rand::SeedableRng;

    fn setup() -> (Group, KeyPair, rand::rngs::StdRng) {
        let g = Group::modp_1024();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let kp = KeyPair::generate(&g, &mut rng);
        (g, kp, rng)
    }

    #[test]
    fn issue_and_verify() {
        let (g, kp, mut rng) = setup();
        let proof = ProofOfCompliance::issue(
            &kp.secret, "SELECT 1", "exec :- hostLocIs(EU)", "host-0", "storage-0", 42, [7; 32], &mut rng,
        );
        assert!(proof.verify(&g, &kp.public, "SELECT 1", "exec :- hostLocIs(EU)"));
    }

    /// `issue_and_verify`'s proof, captured at the parent commit `1986c8c`
    /// (before fixed-width signing): the signature bytes must not move.
    #[test]
    fn proof_signature_matches_the_parent_golden() {
        const GOLDEN: &str = "354ccc7d9c0a38cdf8bc0337ee9e7f2301b3bdaa5c7f8784a9fc4feade30fd40\
            571dc8c73f1e55b8e94d9cab59460d362a19398ad75dcd109ff327239cdfd116\
            0bcbfe52fa4643a1f65fe2275e6c7f9ace10beea234fadf070035a4060241457\
            1198654a5f3a4a34e8abf963c0a837f60ffa4b6f921e25a1e14f3ddd23574ffb\
            499da800b9a46e5457b7d0805d7b80f771e677c3";
        let (g, kp, mut rng) = setup();
        let proof = ProofOfCompliance::issue(
            &kp.secret, "SELECT 1", "exec :- hostLocIs(EU)", "host-0", "storage-0", 42, [7; 32], &mut rng,
        );
        let hex: String = proof.signature.to_bytes(&g).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN.split_whitespace().collect::<String>());
    }

    #[test]
    fn wrong_query_or_policy_rejected() {
        let (g, kp, mut rng) = setup();
        let proof =
            ProofOfCompliance::issue(&kp.secret, "SELECT 1", "p", "h", "s", 1, [0; 32], &mut rng);
        assert!(!proof.verify(&g, &kp.public, "SELECT 2", "p"));
        assert!(!proof.verify(&g, &kp.public, "SELECT 1", "other policy"));
    }

    #[test]
    fn forged_fields_rejected() {
        let (g, kp, mut rng) = setup();
        let mut proof =
            ProofOfCompliance::issue(&kp.secret, "q", "p", "host-0", "storage-0", 1, [0; 32], &mut rng);
        proof.host_id = "evil-host".into();
        assert!(!proof.verify(&g, &kp.public, "q", "p"));
    }

    #[test]
    fn wrong_monitor_key_rejected() {
        let (g, kp, mut rng) = setup();
        let other = KeyPair::generate(&g, &mut rng);
        let proof = ProofOfCompliance::issue(&kp.secret, "q", "p", "h", "s", 1, [0; 32], &mut rng);
        assert!(!proof.verify(&g, &other.public, "q", "p"));
    }
}
