//! The secure host↔storage channel.
//!
//! The paper runs TLS over TCP between host and storage, with a fresh
//! session key per client request (§5 "Networking layer"). This module
//! implements the record layer: rows serialize into length-prefixed
//! records, each record is AES-128-CTR encrypted and HMAC'd under keys
//! derived from the monitor-distributed session key, and byte/message
//! counters feed the cost model.

use crate::{CsaError, Result};
use ironsafe_crypto::aes::Aes128;
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_obs::{Counter, Registry};
use ironsafe_crypto::hkdf;
use ironsafe_crypto::hmac::HmacSha256;
use ironsafe_crypto::modes::ctr_xor;
use ironsafe_sql::value::{decode_value, encode_value};
use ironsafe_sql::{Row, Schema};

/// An encrypted record on the wire.
#[derive(Debug, Clone)]
pub struct Record {
    /// Record sequence number (replay protection).
    pub seq: u64,
    /// Ciphertext.
    pub payload: Vec<u8>,
    /// HMAC over `seq ‖ payload`.
    pub mac: [u8; 32],
}

/// One direction of the secure channel.
pub struct SecureChannel {
    /// Record cipher, expanded once from the channel encryption key.
    aes: Aes128,
    /// HMAC-SHA256 pre-keyed with the channel MAC key; cloned per record.
    mac: HmacSha256,
    next_seq: u64,
    expect_seq: u64,
    /// Total plaintext bytes carried.
    pub bytes_sent: u64,
    /// Records sent.
    pub messages: u64,
    bytes_counter: Counter,
    messages_counter: Counter,
    fault_plan: FaultPlan,
}

impl SecureChannel {
    /// Derive channel keys from the monitor's session key.
    pub fn new(session_key: &[u8; 32]) -> Self {
        SecureChannel {
            aes: Aes128::new(&hkdf::derive_key_128(session_key, b"channel-enc")),
            mac: HmacSha256::new(&hkdf::derive_key_256(session_key, b"channel-mac")),
            next_seq: 0,
            expect_seq: 0,
            bytes_sent: 0,
            messages: 0,
            bytes_counter: Counter::new(),
            messages_counter: Counter::new(),
            fault_plan: FaultPlan::none(),
        }
    }

    /// Install a fault plan on the receive path (see
    /// [`SecureChannel::recv_rows`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Next sequence number this endpoint will accept. Exposed so tests
    /// can assert the replay window does **not** advance on rejected
    /// records (which is what makes retransmission sound).
    pub fn expect_seq(&self) -> u64 {
        self.expect_seq
    }

    /// Attach this direction's live counters to `registry` as
    /// `csa.net.bytes` / `csa.net.messages`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("csa.net.bytes", &self.bytes_counter);
        registry.register_counter("csa.net.messages", &self.messages_counter);
    }

    fn nonce(&self, seq: u64) -> [u8; 16] {
        let mut n = [0u8; 16];
        n[..8].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// HMAC over `seq ‖ payload`.
    fn record_mac(&self, seq: u64, payload: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(&seq.to_be_bytes());
        mac.update(payload);
        mac.finalize()
    }

    /// Encrypt raw bytes into a record.
    pub fn seal(&mut self, plain: &[u8]) -> Record {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut payload = plain.to_vec();
        ctr_xor(&self.aes, &self.nonce(seq), &mut payload);
        let mac = self.record_mac(seq, &payload);
        let wire_bytes = payload.len() as u64 + 8 + 32;
        self.bytes_sent += wire_bytes;
        self.messages += 1;
        self.bytes_counter.add(wire_bytes);
        self.messages_counter.inc();
        Record { seq, payload, mac }
    }

    /// Authenticate and decrypt a record (enforcing in-order delivery).
    pub fn open(&mut self, record: &Record) -> Result<Vec<u8>> {
        if record.seq != self.expect_seq {
            return Err(CsaError::Channel("record out of order or replayed"));
        }
        let expect = self.record_mac(record.seq, &record.payload);
        if !ironsafe_crypto::ct_eq(&expect, &record.mac) {
            return Err(CsaError::Channel("record MAC mismatch"));
        }
        self.expect_seq += 1;
        let mut plain = record.payload.clone();
        ctr_xor(&self.aes, &self.nonce(record.seq), &mut plain);
        Ok(plain)
    }

    /// Serialize and seal a batch of rows (the sender side of "ship
    /// filtered records to the host").
    pub fn seal_rows(&mut self, schema: &Schema, rows: &[Row]) -> Record {
        let mut buf = Vec::with_capacity(rows.len() * 32 + 16);
        buf.extend_from_slice(&(schema.len() as u32).to_be_bytes());
        buf.extend_from_slice(&(rows.len() as u64).to_be_bytes());
        for row in rows {
            for v in row {
                encode_value(v, &mut buf);
            }
        }
        self.seal(&buf)
    }

    /// Receive a row record across the (simulated) wire: applies the
    /// fault plan's transit faults, then [`SecureChannel::open_rows`].
    ///
    /// Faults perturb a *cloned* record — the sender's pristine record
    /// survives, and because `expect_seq` only advances on successful
    /// authentication, retransmitting the identical record after a
    /// rejection succeeds (same seq, same nonce, same ciphertext: a
    /// straight retransmission, no nonce reuse with new plaintext).
    pub fn recv_rows(&mut self, record: &Record) -> Result<Vec<Row>> {
        if self.fault_plan.should_fire(FaultSite::ChannelDrop) {
            return Err(CsaError::Channel("record lost in transit (receive timeout)"));
        }
        if self.fault_plan.should_fire(FaultSite::ChannelCorrupt) {
            let mut r = record.clone();
            if let Some(b) = r.payload.first_mut() {
                *b ^= 0x40;
            } else {
                r.mac[0] ^= 0x40;
            }
            return self.open_rows(&r);
        }
        if self.fault_plan.should_fire(FaultSite::ChannelReorder) {
            let mut r = record.clone();
            r.seq = r.seq.wrapping_add(1);
            return self.open_rows(&r);
        }
        self.open_rows(record)
    }

    /// Open a record and deserialize its rows.
    pub fn open_rows(&mut self, record: &Record) -> Result<Vec<Row>> {
        let plain = self.open(record)?;
        if plain.len() < 12 {
            return Err(CsaError::Channel("short row batch"));
        }
        let ncols = u32::from_be_bytes(plain[0..4].try_into().expect("4")) as usize;
        let nrows = u64::from_be_bytes(plain[4..12].try_into().expect("8")) as usize;
        let mut pos = 12;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(
                    decode_value(&plain, &mut pos)
                        .map_err(|_| CsaError::Channel("corrupt row encoding"))?,
                );
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

/// A connected pair of channel endpoints sharing a session key.
pub fn channel_pair(session_key: &[u8; 32]) -> (SecureChannel, SecureChannel) {
    (SecureChannel::new(session_key), SecureChannel::new(session_key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_sql::schema::Column;
    use ironsafe_sql::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("a", DataType::Int), Column::new("b", DataType::Text)])
    }

    fn rows() -> Vec<Row> {
        (0..50).map(|i| vec![Value::Int(i), Value::Text(format!("row {i}"))]).collect()
    }

    #[test]
    fn rows_roundtrip() {
        let (mut tx, mut rx) = channel_pair(&[9; 32]);
        let rec = tx.seal_rows(&schema(), &rows());
        let got = rx.open_rows(&rec).unwrap();
        assert_eq!(got, rows());
        assert!(tx.bytes_sent > 0);
        assert_eq!(tx.messages, 1);
    }

    #[test]
    fn payload_is_encrypted_on_the_wire() {
        let (mut tx, _) = channel_pair(&[9; 32]);
        let rec = tx.seal(b"SELECT secret FROM people");
        let hay = rec.payload.windows(6).any(|w| w == b"SELECT");
        assert!(!hay, "plaintext must not appear in the record");
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut tx, mut rx) = channel_pair(&[9; 32]);
        let mut rec = tx.seal(b"hello");
        rec.payload[0] ^= 1;
        assert!(rx.open(&rec).is_err());
    }

    #[test]
    fn wrong_session_key_rejected() {
        let (mut tx, _) = channel_pair(&[9; 32]);
        let (_, mut rx) = channel_pair(&[8; 32]);
        let rec = tx.seal(b"hello");
        assert!(rx.open(&rec).is_err());
    }

    #[test]
    fn replayed_record_rejected() {
        let (mut tx, mut rx) = channel_pair(&[9; 32]);
        let rec = tx.seal(b"one");
        rx.open(&rec).unwrap();
        assert!(rx.open(&rec).is_err(), "same seq twice");
    }

    #[test]
    fn reordered_records_rejected() {
        let (mut tx, mut rx) = channel_pair(&[9; 32]);
        let _first = tx.seal(b"one");
        let second = tx.seal(b"two");
        assert!(rx.open(&second).is_err(), "skipping seq 0");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let (mut tx, mut rx) = channel_pair(&[1; 32]);
        let rec = tx.seal_rows(&schema(), &[]);
        assert!(rx.open_rows(&rec).unwrap().is_empty());
    }

    #[test]
    fn null_values_cross_the_wire() {
        let (mut tx, mut rx) = channel_pair(&[1; 32]);
        let rows = vec![vec![Value::Null, Value::Text("x".into())]];
        let rec = tx.seal_rows(&schema(), &rows);
        let got = rx.open_rows(&rec).unwrap();
        assert!(got[0][0].is_null());
    }

    /// Satellite: replayed, reordered and truncated records must each
    /// return a typed `CsaError` (never a panic), and `expect_seq` must
    /// not advance on any rejection.
    #[test]
    fn adversarial_records_are_typed_errors_and_do_not_advance_seq() {
        let (mut tx, mut rx) = channel_pair(&[9; 32]);
        let first = tx.seal_rows(&schema(), &rows());
        rx.open_rows(&first).unwrap();
        assert_eq!(rx.expect_seq(), 1);

        // Replay of an already-accepted record.
        match rx.open_rows(&first) {
            Err(CsaError::Channel(_)) => {}
            other => panic!("replay must be a typed channel error, got {other:?}"),
        }
        assert_eq!(rx.expect_seq(), 1, "replay must not advance expect_seq");

        // Reordered (future-sequence) record.
        let _skipped = tx.seal_rows(&schema(), &rows());
        let future = tx.seal_rows(&schema(), &rows());
        match rx.open_rows(&future) {
            Err(CsaError::Channel(_)) => {}
            other => panic!("reorder must be a typed channel error, got {other:?}"),
        }
        assert_eq!(rx.expect_seq(), 1, "reorder must not advance expect_seq");

        // Truncated record: payload cut mid-stream (MAC now fails).
        let mut truncated = _skipped.clone();
        truncated.payload.truncate(truncated.payload.len() / 2);
        match rx.open_rows(&truncated) {
            Err(CsaError::Channel(_)) => {}
            other => panic!("truncation must be a typed channel error, got {other:?}"),
        }
        assert_eq!(rx.expect_seq(), 1, "truncation must not advance expect_seq");

        // The pristine in-order record still authenticates afterwards —
        // rejection left the channel state fully usable.
        let got = rx.open_rows(&_skipped).unwrap();
        assert_eq!(got, rows());
        assert_eq!(rx.expect_seq(), 2);
    }

    #[test]
    fn short_authenticated_payload_is_a_typed_error() {
        // Seal a raw 3-byte payload and open it through the row parser:
        // authentication passes, framing fails — typed error, no panic.
        let (mut tx, mut rx) = channel_pair(&[4; 32]);
        let rec = tx.seal(b"abc");
        match rx.open_rows(&rec) {
            Err(CsaError::Channel(m)) => assert_eq!(m, "short row batch"),
            other => panic!("expected short-batch error, got {other:?}"),
        }
        // open() succeeded before framing failed, so seq advanced — the
        // record authenticated; only the framing above it was bad.
        assert_eq!(rx.expect_seq(), 1);
    }

    #[test]
    fn injected_transit_faults_reject_then_pristine_retransmit_succeeds() {
        let (mut tx, mut rx) = channel_pair(&[7; 32]);
        // Fire one of each transit fault on the first three receives.
        // Arrival counts are per-site, and a fired site short-circuits
        // the later ones, so scheduling each site's own first arrival
        // yields drop, then corrupt, then reorder on calls 1..3.
        rx.set_fault_plan(
            FaultPlan::seeded(31)
                .with_nth(FaultSite::ChannelDrop, 1)
                .with_nth(FaultSite::ChannelCorrupt, 1)
                .with_nth(FaultSite::ChannelReorder, 1),
        );
        let rec = tx.seal_rows(&schema(), &rows());
        for expect in ["lost in transit", "MAC mismatch", "out of order"] {
            match rx.recv_rows(&rec) {
                Err(CsaError::Channel(m)) => {
                    assert!(m.contains(expect), "wanted {expect:?} in {m:?}")
                }
                other => panic!("expected channel error, got {other:?}"),
            }
            assert_eq!(rx.expect_seq(), 0, "no rejection may advance expect_seq");
        }
        // Fourth delivery of the *same pristine record* goes through.
        let got = rx.recv_rows(&rec).unwrap();
        assert_eq!(got, rows());
        assert_eq!(rx.expect_seq(), 1);
    }
}
