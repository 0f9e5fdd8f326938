//! The secure host↔storage channel.
//!
//! The paper runs TLS over TCP between host and storage, with a fresh
//! session key per client request (§5 "Networking layer"). This module
//! implements the record layer: rows serialize into length-prefixed
//! records, each record is AES-128-CTR encrypted and HMAC'd under keys
//! derived from the monitor-distributed session key, and byte/message
//! counters feed the cost model.
//!
//! There is one byte path. A row batch is a *frame* — `ncols u32 ‖ nrows
//! u64 ‖` the rows' cells in `encode_value` form — sealed in place in the
//! record's payload buffer ([`SecureChannel::seal_frame`]) and opened in
//! place on the other side ([`SecureChannel::recv_frame`]): MAC first,
//! then decrypt, then [`validate_frame`] walks every cell before a single
//! row byte is believed. [`RowLink`] drives that for whole fragment
//! results and lands the validated row bytes in the host's temp table.
//! `seal`/`open`/`seal_rows`/`open_rows`/`recv_rows` are thin wrappers
//! over the same path for callers that hold (or want) owned rows.

use crate::{CsaError, Result};
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::hkdf;
use ironsafe_crypto::hmac::HmacSha256;
use ironsafe_crypto::modes::ctr_xor;
use ironsafe_faults::{retry_with, FaultPlan, FaultSite, RetryPolicy};
use ironsafe_obs::{Counter, Registry};
use ironsafe_sql::value::{decode_value_raw, encode_value, walk_cell, RawValue};
use ironsafe_sql::{Database, EncodedRows, EncodedSlice, Row, Schema};

/// Bytes a sealed record adds to its payload on the wire: an 8-byte
/// sequence number plus a 32-byte MAC.
pub const RECORD_OVERHEAD_BYTES: u64 = 40;

/// Most rows one sealed record carries; longer results cross the
/// channel as several records.
pub const ROWS_PER_RECORD: u64 = 4096;

/// Frame header: `ncols u32 ‖ nrows u64`, big-endian.
const FRAME_HEADER: usize = 12;

/// An encrypted record on the wire.
#[derive(Debug, Clone, Default)]
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

fn nonce(seq: u64) -> [u8; 16] {
    let mut n = [0u8; 16];
    n[..8].copy_from_slice(&seq.to_be_bytes());
    n
}

fn frame_header(payload: &mut Vec<u8>, ncols: usize, nrows: usize) {
    payload.extend_from_slice(&(ncols as u32).to_be_bytes());
    payload.extend_from_slice(&(nrows as u64).to_be_bytes());
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
    /// [`SecureChannel::recv_frame`]).
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

    /// HMAC over `seq ‖ payload`.
    fn record_mac(&self, seq: u64, payload: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(&seq.to_be_bytes());
        mac.update(payload);
        mac.finalize()
    }

    /// Take the next sequence number, encrypt `record.payload` where it
    /// lies and MAC the ciphertext.
    fn seal_in_place(&mut self, record: &mut Record) {
        record.seq = self.next_seq;
        self.next_seq += 1;
        ctr_xor(&self.aes, &nonce(record.seq), &mut record.payload);
        record.mac = self.record_mac(record.seq, &record.payload);
        let wire_bytes = record.payload.len() as u64 + RECORD_OVERHEAD_BYTES;
        self.bytes_sent += wire_bytes;
        self.messages += 1;
        self.bytes_counter.add(wire_bytes);
        self.messages_counter.inc();
    }

    /// In-order delivery and the MAC, checked before anything else looks
    /// at the payload. Changes nothing: a rejected record leaves the
    /// receive window where it was, so its retransmission is accepted.
    fn authenticate(&self, seq: u64, payload: &[u8], mac: &[u8; 32]) -> Result<()> {
        if seq != self.expect_seq {
            return Err(CsaError::Channel("record out of order or replayed"));
        }
        if !ironsafe_crypto::ct_eq(&self.record_mac(seq, payload), mac) {
            return Err(CsaError::Channel("record MAC mismatch"));
        }
        Ok(())
    }

    /// Authenticate `record`, then decrypt its payload where it lies.
    fn open_in_place(&mut self, record: &mut Record) -> Result<()> {
        self.authenticate(record.seq, &record.payload, &record.mac)?;
        self.expect_seq += 1;
        ctr_xor(&self.aes, &nonce(record.seq), &mut record.payload);
        Ok(())
    }

    /// Encrypt raw bytes into a record.
    pub fn seal(&mut self, plain: &[u8]) -> Record {
        let mut record = Record { payload: plain.to_vec(), ..Record::default() };
        self.seal_in_place(&mut record);
        record
    }

    /// Authenticate and decrypt a record (enforcing in-order delivery).
    pub fn open(&mut self, record: &Record) -> Result<Vec<u8>> {
        let mut opened = record.clone();
        self.open_in_place(&mut opened)?;
        Ok(opened.payload)
    }

    /// Seal already-encoded rows of `ncols` cells each as one frame (the
    /// sender side of "ship filtered records to the host"), reusing
    /// `record`'s payload buffer.
    pub fn seal_frame(&mut self, ncols: usize, rows: EncodedSlice<'_>, record: &mut Record) {
        record.payload.clear();
        record.payload.reserve(FRAME_HEADER + rows.bytes().len());
        frame_header(&mut record.payload, ncols, rows.len());
        record.payload.extend_from_slice(rows.bytes());
        self.seal_in_place(record);
    }

    /// [`SecureChannel::seal_frame`] for owned rows.
    pub fn seal_rows(&mut self, schema: &Schema, rows: &[Row]) -> Record {
        let mut record = Record::default();
        record.payload.reserve(FRAME_HEADER + rows.len() * 32);
        frame_header(&mut record.payload, schema.len(), rows.len());
        for v in rows.iter().flatten() {
            encode_value(v, &mut record.payload);
        }
        self.seal_in_place(&mut record);
        record
    }

    /// Apply the fault plan's transit faults to a record about to be
    /// received; `Err` means the record was rejected in transit.
    ///
    /// Faults never damage the sender's pristine record — a flipped bit
    /// is flipped back once the MAC has refused it — and `expect_seq`
    /// only advances on successful authentication, so retransmitting the
    /// identical record after a rejection succeeds (same seq, same
    /// nonce, same ciphertext: a straight retransmission, no nonce reuse
    /// with new plaintext).
    fn transit_faults(&self, record: &mut Record) -> Result<()> {
        let rejected = |verdict: Result<()>| {
            Err(verdict.err().unwrap_or(CsaError::Channel("perturbed record authenticated")))
        };
        if self.fault_plan.should_fire(FaultSite::ChannelDrop) {
            return Err(CsaError::Channel("record lost in transit (receive timeout)"));
        }
        if self.fault_plan.should_fire(FaultSite::ChannelCorrupt) {
            let flip = |r: &mut Record| match r.payload.first_mut() {
                Some(b) => *b ^= 0x40,
                None => r.mac[0] ^= 0x40,
            };
            flip(record);
            let verdict = self.authenticate(record.seq, &record.payload, &record.mac);
            flip(record);
            return rejected(verdict);
        }
        if self.fault_plan.should_fire(FaultSite::ChannelReorder) {
            let late = record.seq.wrapping_add(1);
            return rejected(self.authenticate(late, &record.payload, &record.mac));
        }
        Ok(())
    }

    /// Receive a row frame across the (simulated) wire: transit faults
    /// (see [`SecureChannel::set_fault_plan`]), then authenticate, then
    /// decrypt `record.payload` where it lies, then validate the frame
    /// against a schema of `ncols` columns, leaving each row's end
    /// offset in `ends` (see [`validate_frame`]).
    pub fn recv_frame(
        &mut self,
        record: &mut Record,
        ncols: usize,
        ends: &mut Vec<usize>,
    ) -> Result<()> {
        self.transit_faults(record)?;
        self.open_in_place(record)?;
        validate_frame(&record.payload, ncols, ends)
    }

    /// [`SecureChannel::recv_frame`] on a copy of `record`, decoded into
    /// owned rows.
    pub fn recv_rows(&mut self, record: &Record) -> Result<Vec<Row>> {
        let mut copy = record.clone();
        self.transit_faults(&mut copy)?;
        self.open_in_place(&mut copy)?;
        decode_frame(&copy.payload)
    }

    /// Open a record and deserialize its rows.
    pub fn open_rows(&mut self, record: &Record) -> Result<Vec<Row>> {
        decode_frame(&self.open(record)?)
    }
}

/// Cursor over an opened (authenticated, decrypted) frame. The header is
/// still only a claim: `open` bounds it by the payload before anything
/// is reserved, every cell goes through the strict cell walk
/// ([`walk_cell`]: tag, bounds, UTF-8) — `skip` checks it, `cell` also
/// reads its value — and `finish` refuses bytes after the last row.
struct FrameReader<'a> {
    plain: &'a [u8],
    pos: usize,
    ncols: usize,
    nrows: usize,
}

impl<'a> FrameReader<'a> {
    fn open(plain: &'a [u8]) -> Result<Self> {
        if plain.len() < FRAME_HEADER {
            return Err(CsaError::Channel("short row batch"));
        }
        let ncols = u32::from_be_bytes(plain[0..4].try_into().expect("4")) as u64;
        let nrows = u64::from_be_bytes(plain[4..12].try_into().expect("8"));
        // A cell is at least its tag byte, and a row at least one cell.
        let body = (plain.len() - FRAME_HEADER) as u64;
        if nrows.checked_mul(ncols.max(1)).is_none_or(|cells| cells > body) {
            return Err(CsaError::Channel("row batch header claims more than its payload holds"));
        }
        Ok(FrameReader { plain, pos: FRAME_HEADER, ncols: ncols as usize, nrows: nrows as usize })
    }

    fn skip(&mut self) -> Result<()> {
        let (end, _) = walk_cell(self.plain, self.pos, false).ok_or(CsaError::Channel("corrupt row encoding"))?;
        self.pos = end;
        Ok(())
    }

    fn cell(&mut self) -> Result<RawValue<'a>> {
        decode_value_raw(self.plain, &mut self.pos)
            .map_err(|_| CsaError::Channel("corrupt row encoding"))
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.plain.len() {
            return Err(CsaError::Channel("bytes after the last row of a batch"));
        }
        Ok(())
    }
}

/// Validate an opened frame against a schema of `ncols` columns, leaving
/// in `ends` the offset within `plain` at which each row ends (the first
/// row starts right after the 12-byte header). After `Ok`, every row is
/// exactly `ncols` well-formed cells — fit to append to a heap page as a
/// record without further checks.
pub fn validate_frame(plain: &[u8], ncols: usize, ends: &mut Vec<usize>) -> Result<()> {
    let mut frame = FrameReader::open(plain)?;
    if frame.ncols != ncols {
        return Err(CsaError::Channel("row batch width differs from the schema"));
    }
    ends.clear();
    ends.reserve(frame.nrows);
    for _ in 0..frame.nrows {
        for _ in 0..ncols {
            frame.skip()?;
        }
        ends.push(frame.pos);
    }
    frame.finish()
}

/// Decode an opened frame into owned rows, trusting its own column count.
fn decode_frame(plain: &[u8]) -> Result<Vec<Row>> {
    let mut frame = FrameReader::open(plain)?;
    let mut rows = Vec::with_capacity(frame.nrows);
    for _ in 0..frame.nrows {
        let mut row = Vec::with_capacity(frame.ncols);
        for _ in 0..frame.ncols {
            row.push(frame.cell()?.to_value());
        }
        rows.push(row);
    }
    frame.finish()?;
    Ok(rows)
}

/// A connected pair of channel endpoints sharing a session key.
pub fn channel_pair(session_key: &[u8; 32]) -> (SecureChannel, SecureChannel) {
    (SecureChannel::new(session_key), SecureChannel::new(session_key))
}

/// Both ends of one query's row channel and the delivery loop between
/// them: encoded rows go in on the storage side, validated row bytes
/// come out on the host side.
pub struct RowLink {
    /// Storage-side endpoint (its counters are the query's wire totals).
    pub tx: SecureChannel,
    /// Host-side endpoint.
    pub rx: SecureChannel,
    retry: RetryPolicy,
}

impl RowLink {
    /// Connect a pair under `session_key`: a lossless link, on which a
    /// rejected record is an error, not a retransmission.
    pub fn new(session_key: &[u8; 32]) -> Self {
        let (tx, rx) = channel_pair(session_key);
        let retry = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
        RowLink { tx, rx, retry }
    }

    /// Let `plan`'s transit faults hit the receive side, and retransmit
    /// a rejected record under `retry`'s budget.
    pub fn with_faults(mut self, plan: FaultPlan, retry: RetryPolicy) -> Self {
        self.rx.set_fault_plan(plan);
        self.retry = retry;
        self
    }

    /// Ship the first `sealed` rows of `rows` (`ncols` cells each) in
    /// records of at most [`ROWS_PER_RECORD`], handing the rows of each
    /// received, validated frame to `deliver`. Each record is sealed
    /// once; a delivery rejected in transit (drop/corrupt/reorder) does
    /// not advance the receive window, and the retransmit of the
    /// pristine record is accepted under the retry budget — so
    /// `bytes_sent` counts each record once. The wire record and the
    /// row-end scratch are reused from record to record (a long result
    /// allocates no more than a one-record one) and released on return,
    /// before the host plan builds its own working set.
    pub fn ship(
        &mut self,
        ncols: usize,
        rows: &EncodedRows,
        sealed: usize,
        mut deliver: impl FnMut(EncodedSlice<'_>) -> Result<()>,
    ) -> Result<()> {
        let RowLink { tx, rx, retry } = self;
        let plan = rx.fault_plan.clone();
        let (wire, ends) = (&mut Record::default(), &mut Vec::new());
        for start in (0..sealed).step_by(ROWS_PER_RECORD as usize) {
            let chunk = rows.slice(start..sealed.min(start + ROWS_PER_RECORD as usize));
            tx.seal_frame(ncols, chunk, wire);
            retry_with(&plan, retry, || rx.recv_frame(wire, ncols, ends))?;
            if ends.len() != chunk.len() {
                return Err(CsaError::Channel("rows received differ from rows sealed"));
            }
            deliver(EncodedSlice::new(&wire.payload, FRAME_HEADER, ends))?;
        }
        Ok(())
    }

    /// Replace the host's temp `table` with a fragment's result: the
    /// first `sealed` rows cross the channel and are appended from the
    /// received frames — the host plan runs on what was authenticated,
    /// not on the sender's memory — and the rest (a fragment whose raw
    /// pages cross instead: `ShipPages`, or the morsels after a
    /// mid-flight re-plan) is appended as scanned.
    pub fn ship_table(
        &mut self,
        host_db: &mut Database,
        table: &str,
        schema: Schema,
        rows: &EncodedRows,
        sealed: usize,
    ) -> Result<()> {
        if host_db.catalog().has_table(table) {
            host_db.execute(&format!("DROP TABLE {table}"))?;
        }
        let ncols = schema.len();
        host_db.create_table(table, schema)?;
        self.ship(ncols, rows, sealed, |frame| Ok(host_db.insert_encoded(table, frame)?))?;
        if sealed < rows.len() {
            host_db.insert_encoded(table, rows.slice(sealed..rows.len()))?;
        }
        Ok(())
    }
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

    /// Seal `rows` the way the fragment shipper does.
    fn frame(tx: &mut SecureChannel, rows: &[Row]) -> Record {
        let mut record = Record::default();
        tx.seal_frame(schema().len(), EncodedRows::from_rows(rows).as_slice(), &mut record);
        record
    }

    fn raw_frame(ncols: u32, nrows: u64, body: &[u8]) -> Vec<u8> {
        let mut plain = ncols.to_be_bytes().to_vec();
        plain.extend_from_slice(&nrows.to_be_bytes());
        plain.extend_from_slice(body);
        plain
    }

    #[test]
    fn frames_and_row_records_are_the_same_wire_bytes() {
        let (mut by_rows, mut by_bytes) = (SecureChannel::new(&[9; 32]), SecureChannel::new(&[9; 32]));
        for batch in [rows(), Vec::new(), rows()[..1].to_vec()] {
            let (a, b) = (by_rows.seal_rows(&schema(), &batch), frame(&mut by_bytes, &batch));
            assert_eq!((a.seq, &a.payload, a.mac), (b.seq, &b.payload, b.mac));
        }
        assert_eq!(by_rows.bytes_sent, by_bytes.bytes_sent);
        assert_eq!(by_rows.messages, by_bytes.messages);
    }

    /// Satellite: an authenticated header is still only a claim. Counts
    /// the payload cannot hold, a width that is not the schema's and
    /// bytes after the last row are typed errors on both receive paths —
    /// nothing is reserved, nothing panics — and because the MAC did
    /// verify, each such record consumed its sequence number.
    #[test]
    fn lying_row_batch_headers_are_typed_errors_not_panics() {
        let mut one_row = Vec::new();
        encode_value(&Value::Int(7), &mut one_row);
        encode_value(&Value::Text("x".into()), &mut one_row);
        let mut trailing = one_row.clone();
        trailing.push(0);
        let liars = [
            raw_frame(2, u64::MAX, &[]),
            raw_frame(2, 1 << 40, &[]),
            raw_frame(u32::MAX, u64::MAX, &one_row),
            raw_frame(2, 2, &one_row),
            raw_frame(0, 5, &[]),
            raw_frame(0, 1, &one_row),
            raw_frame(2, 1, &trailing),
            raw_frame(2, 0, &one_row),
            raw_frame(2, 1, &one_row[..one_row.len() - 1]),
        ];
        let (mut tx, mut rx) = channel_pair(&[5; 32]);
        for (i, plain) in liars.iter().enumerate() {
            let sealed = tx.seal(plain);
            let mut tampered = sealed.clone();
            tampered.mac[31] ^= 1;
            assert!(matches!(rx.open_rows(&tampered), Err(CsaError::Channel("record MAC mismatch"))));
            assert_eq!(rx.expect_seq(), 2 * i as u64, "an unauthenticated record consumes nothing");
            match rx.open_rows(&sealed) {
                Err(CsaError::Channel(_)) => {}
                other => panic!("liar {i} through open_rows: {other:?}"),
            }
            let (mut again, mut ends) = (tx.seal(plain), Vec::new());
            match rx.recv_frame(&mut again, 2, &mut ends) {
                Err(CsaError::Channel(_)) => {}
                other => panic!("liar {i} through recv_frame: {other:?}"),
            }
            assert_eq!(rx.expect_seq(), 2 * i as u64 + 2, "the MAC verified: seq consumed");
        }
        // The honest one-row frame passes both, and only at its own width.
        let honest = raw_frame(2, 1, &one_row);
        assert_eq!(rx.open_rows(&tx.seal(&honest)).unwrap().len(), 1);
        let mut ends = Vec::new();
        assert!(matches!(
            rx.recv_frame(&mut tx.seal(&honest), 3, &mut ends),
            Err(CsaError::Channel("row batch width differs from the schema"))
        ));
        rx.recv_frame(&mut tx.seal(&honest), 2, &mut ends).unwrap();
        assert_eq!(ends, [honest.len()]);
    }

    /// Transit faults on the in-place receiver: drop, corrupt and reorder
    /// each reject the delivery leaving the record bit for bit as sealed
    /// and the receive window where it was; the retransmission of that
    /// same record is then opened where it lies.
    #[test]
    fn in_place_receiver_rejects_transit_faults_without_touching_the_record() {
        let (mut tx, mut rx) = channel_pair(&[7; 32]);
        rx.set_fault_plan(
            FaultPlan::seeded(31)
                .with_nth(FaultSite::ChannelDrop, 1)
                .with_nth(FaultSite::ChannelCorrupt, 1)
                .with_nth(FaultSite::ChannelReorder, 1),
        );
        let mut record = frame(&mut tx, &rows());
        let pristine = record.clone();
        let mut ends = vec![usize::MAX];
        for expect in ["lost in transit", "MAC mismatch", "out of order"] {
            match rx.recv_frame(&mut record, 2, &mut ends) {
                Err(CsaError::Channel(m)) => assert!(m.contains(expect), "wanted {expect:?} in {m:?}"),
                other => panic!("expected channel error, got {other:?}"),
            }
            assert_eq!((record.seq, &record.payload, record.mac), (pristine.seq, &pristine.payload, pristine.mac));
            assert_eq!(rx.expect_seq(), 0, "no rejection may advance expect_seq");
            assert_eq!(ends, [usize::MAX], "nothing parsed before the MAC verified");
        }
        rx.recv_frame(&mut record, 2, &mut ends).unwrap();
        assert_eq!(rx.expect_seq(), 1);
        let got = EncodedSlice::new(&record.payload, FRAME_HEADER, &ends);
        assert_eq!(got.bytes(), EncodedRows::from_rows(&rows()).as_slice().bytes());
        assert_eq!(got.len(), rows().len());

        // An empty payload has no byte to flip: the fault lands on the
        // MAC, and is taken back just the same.
        let (mut tx, mut rx) = channel_pair(&[7; 32]);
        rx.set_fault_plan(FaultPlan::seeded(1).with_nth(FaultSite::ChannelCorrupt, 1));
        let mut empty = tx.seal(b"");
        let mac = empty.mac;
        assert!(matches!(rx.recv_frame(&mut empty, 2, &mut ends), Err(CsaError::Channel("record MAC mismatch"))));
        assert_eq!((empty.mac, rx.expect_seq()), (mac, 0));
    }

    /// Every byte of an opened frame × three flips: the validator either
    /// refuses with a typed error, or accepts rows that append to a heap
    /// page and come back out of the scan kernel — never a panic. It
    /// accepts exactly when the full decode ([`decode_frame`], a value
    /// built for every cell) does at the schema's width, and the rows it
    /// accepts are the ones that decode yields.
    #[test]
    fn every_mutant_of_an_opened_frame_is_rejected_or_scannable() {
        let batch: Vec<Row> = (0..9)
            .map(|i| vec![if i % 4 == 0 { Value::Null } else { Value::Int(i) }, Value::Text(format!("r\u{e9}-{i}"))])
            .collect();
        let (mut tx, mut rx) = channel_pair(&[3; 32]);
        let (mut record, mut ends) = (frame(&mut tx, &batch), Vec::new());
        rx.recv_frame(&mut record, 2, &mut ends).unwrap();
        let mut plain = record.payload;
        let (mut accepted, mut rejected) = (0, 0);
        for pos in 0..plain.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                plain[pos] ^= flip;
                let decoded = decode_frame(&plain).ok().filter(|_| plain[0..4] == 2u32.to_be_bytes());
                let validated = validate_frame(&plain, 2, &mut ends);
                assert_eq!(validated.is_ok(), decoded.is_some(), "byte {pos} ^ {flip:#x}");
                match validated {
                    Ok(()) => {
                        let rows = EncodedSlice::new(&plain, FRAME_HEADER, &ends);
                        let want = EncodedRows::from_rows(&decoded.expect("agreed above"));
                        let want = (want.len(), want.as_slice().bytes());
                        assert_eq!((rows.len(), rows.bytes()), want, "byte {pos} ^ {flip:#x}");
                        let mut host = Database::new(ironsafe_storage::pager::PlainPager::new());
                        host.create_table("t", schema()).unwrap();
                        host.insert_encoded("t", rows).unwrap();
                        let back = host.execute("SELECT a, b FROM t").unwrap();
                        assert_eq!(back.rows().len(), ends.len(), "byte {pos} ^ {flip:#x}");
                        accepted += 1;
                    }
                    Err(CsaError::Channel(_)) => rejected += 1,
                    Err(other) => panic!("byte {pos} ^ {flip:#x}: untyped {other:?}"),
                }
                plain[pos] ^= flip;
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn row_link_ships_in_bounded_records_and_lands_the_received_bytes() {
        // 2.5 records' worth of rows; the first 2 records' worth cross
        // the channel, the rest is appended as scanned.
        let n = 2 * ROWS_PER_RECORD as usize + ROWS_PER_RECORD as usize / 2;
        let all: Vec<Row> = (0..n as i64).map(|i| vec![Value::Int(i), Value::Text(format!("row {i}"))]).collect();
        let encoded = EncodedRows::from_rows(&all);
        let sealed = 2 * ROWS_PER_RECORD as usize;
        let mut link = RowLink::new(&[2; 32]).with_faults(
            FaultPlan::seeded(5).with_nth(FaultSite::ChannelCorrupt, 2),
            RetryPolicy::default(),
        );
        let mut host = Database::new(ironsafe_storage::pager::PlainPager::new());
        host.create_table("t", schema()).unwrap();
        host.insert_rows("t", rows()).unwrap();
        link.ship_table(&mut host, "t", schema(), &encoded, sealed).unwrap();
        assert_eq!(link.tx.messages, 2, "one retransmission, still two records sealed");
        assert_eq!(link.rx.expect_seq(), 2);
        let wire = encoded.slice(0..sealed).bytes().len() as u64;
        assert_eq!(link.tx.bytes_sent, wire + 2 * (FRAME_HEADER as u64 + RECORD_OVERHEAD_BYTES));
        // The old table is gone; the new one is what insert_rows builds.
        let mut expect = Database::new(ironsafe_storage::pager::PlainPager::new());
        expect.create_table("t", schema()).unwrap();
        expect.insert_rows("t", all.clone()).unwrap();
        let (got, want) = (host.catalog().table("t").unwrap(), expect.catalog().table("t").unwrap());
        assert_eq!(got.heap.row_count, n as u64);
        assert_eq!(got.heap.page_count(), want.heap.page_count());
        assert_eq!(host.execute("SELECT a, b FROM t").unwrap().rows(), &all[..]);
    }
}
