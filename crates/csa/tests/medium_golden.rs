//! Pins the bytes of sealed host↔storage channel records — the wire-side
//! companion of `crates/storage/tests/medium_golden.rs` (same target name,
//! so `cargo test --test medium_golden` runs both; this half lives here
//! because `SecureChannel` sits above the storage crate).
//!
//! The constants were captured before the pipelined CTR keystream, the
//! held `Aes128` and the pre-keyed record HMAC went in; `ROW_RECORD_0`
//! was captured from `seal_rows` before the encoded-row byte path and the
//! SHA-NI record MAC went in.

use ironsafe_crypto::sha256::sha256;
use ironsafe_csa::net::{channel_pair, Record};
use ironsafe_sql::{Column, DataType, EncodedRows, Row, Schema, Value};

const RECORD_0: &str = "bd5c2f01df9f7738d56da6f4559dee5515ce993d17a8d796f916b07947f513e3";
const RECORD_1: &str = "6e06d4dae46c4491a70a9b5d6e746ab4fa9cb3207ab61f09197bd498cc8106e2";
const ROW_RECORD_0: &str = "9370036be0519fa62393b8a07683851d147bda15fad4b74f310ce7c6f92a17a5";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `seq ‖ payload ‖ mac`, exactly what crosses the wire.
fn wire_digest(record: &Record) -> String {
    let mut wire = record.seq.to_be_bytes().to_vec();
    wire.extend_from_slice(&record.payload);
    wire.extend_from_slice(&record.mac);
    hex(&sha256(&wire))
}

#[test]
fn sealed_channel_records_are_pinned() {
    let (mut tx, mut rx) = channel_pair(&[0x42; 32]);
    // 301 bytes: two full 8-block keystream batches, two more blocks and
    // a 13-byte partial block.
    let first: Vec<u8> = (0..301u32).map(|i| (i * 7 + 3) as u8).collect();
    // A short second record: the sequence number moves the CTR nonce.
    let second = b"SELECT l_orderkey FROM lineitem".to_vec();
    let r0 = tx.seal(&first);
    let r1 = tx.seal(&second);
    assert_eq!(wire_digest(&r0), RECORD_0, "record 0 moved");
    assert_eq!(wire_digest(&r1), RECORD_1, "record 1 moved");
    assert_eq!(rx.open(&r0).unwrap(), first);
    assert_eq!(rx.open(&r1).unwrap(), second);
}

/// 300 rows of int / float / non-ASCII text / every-third-NULL int.
fn pinned_rows() -> (Schema, Vec<Row>) {
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Float),
        Column::new("s", DataType::Text),
        Column::new("n", DataType::Int),
    ]);
    let rows = (0..300i64)
        .map(|i| {
            vec![
                Value::Int(i * 37 - 500),
                Value::Float(i as f64 * 0.125 - 3.0),
                Value::Text(format!("row-{i}-\u{e9}")),
                if i % 3 == 0 { Value::Null } else { Value::Int(i) },
            ]
        })
        .collect();
    (schema, rows)
}

#[test]
fn sealed_row_frames_are_pinned_on_both_entry_points() {
    let (schema, rows) = pinned_rows();
    // The row wrapper…
    let (mut tx, mut rx) = channel_pair(&[0x42; 32]);
    let sealed = tx.seal_rows(&schema, &rows);
    assert_eq!(sealed.payload.len(), 11_702);
    assert_eq!(wire_digest(&sealed), ROW_RECORD_0, "seal_rows record moved");
    assert_eq!(rx.open_rows(&sealed).unwrap(), rows);
    // …and the encoded path the fragment shipper takes put the same
    // bytes on the wire, and hand the receiver the same row bytes back.
    let (mut tx, mut rx) = channel_pair(&[0x42; 32]);
    let encoded = EncodedRows::from_rows(&rows);
    let mut frame = Record::default();
    tx.seal_frame(schema.len(), encoded.as_slice(), &mut frame);
    assert_eq!(wire_digest(&frame), ROW_RECORD_0, "seal_frame record moved");
    let mut ends = Vec::new();
    rx.recv_frame(&mut frame, schema.len(), &mut ends).unwrap();
    assert_eq!(ends.len(), rows.len());
    assert_eq!(&frame.payload[12..], encoded.as_slice().bytes());
}
