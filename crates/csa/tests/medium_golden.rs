//! Pins the bytes of sealed host↔storage channel records — the wire-side
//! companion of `crates/storage/tests/medium_golden.rs` (same target name,
//! so `cargo test --test medium_golden` runs both; this half lives here
//! because `SecureChannel` sits above the storage crate).
//!
//! The constants were captured before the pipelined CTR keystream, the
//! held `Aes128` and the pre-keyed record HMAC went in.

use ironsafe_crypto::sha256::sha256;
use ironsafe_csa::net::{channel_pair, Record};

const RECORD_0: &str = "bd5c2f01df9f7738d56da6f4559dee5515ce993d17a8d796f916b07947f513e3";
const RECORD_1: &str = "6e06d4dae46c4491a70a9b5d6e746ab4fa9cb3207ab61f09197bd498cc8106e2";

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
