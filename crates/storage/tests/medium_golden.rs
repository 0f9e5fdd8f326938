//! Pins the bytes the secure storage stack leaves on its untrusted media.
//!
//! A fixed-seed create / write / commit / group-commit script runs against
//! a `SecurePager` and its WAL; the SHA-256 of every device block, the
//! trusted Merkle root and the SHA-256 of the WAL medium must equal the
//! constants below. They were captured before the word-sliced / AES-NI
//! cipher and the pre-keyed HMACs went in, so a crypto change that is not
//! a pure speed change — a different IV draw, MAC input, padding byte or
//! chaining order — fails here before any higher-level golden does.

use ironsafe_crypto::group::Group;
use ironsafe_crypto::sha256::sha256;
use ironsafe_storage::wal::{Checkpoint, CommitRecord};
use ironsafe_storage::{Pager, SecurePager, PAGE_PAYLOAD};
use ironsafe_tee::trustzone::{Manufacturer, TrustZoneDevice};
use rand::SeedableRng;

const BLOCK_DIGESTS: [&str; 8] = [
    "d9af45ff70318b01e8feab6a2af462bc10f1084f59c4cdb140dff0a166edc846",
    "134be0fab33bc2bcfc787895f50e8452b8a188a78f60791a0bced48565a1ddb4",
    "abfda1ee0a0f8137bd482bc4d73bfa799a90164099864e28f5cea6254acda15d",
    "011789ebb151ed28034dcb743986844231016ad0c9e21d46a399f50cd2eb9541",
    "f77f2498254aeee767228d09dbc93c493ba37df1964dd9b8eea0f8bdf52c0153",
    "03ba89b470d75e75a46cffa1c0c4f971f88d9228f6623fc25b0121f7b83f39e3",
    "49789162f0ad553fabb7e0a48d65ef25d3ef40cadf1dd9103a2c1a8bcedf1d38",
    "6c1a4558cf0f20b90ef4712de91d385ed8f8f475479dede08771cdd148fc7be9",
];
const TRUSTED_ROOT: &str = "40e1af065ce6fe698d139672219ca8d0cefcfb62054c687996bd8ec756b05d54";
const WAL_DIGEST: &str = "b909cfb5b87c80c323c5787c807493632cb7c26fda583e5d323c9821f118198d";
const WAL_LEN: usize = 49580;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn device() -> TrustZoneDevice {
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"golden-mfr");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6f1d);
    mfr.make_device("golden-device", 8, &mut rng)
}

/// A page image that is neither constant nor periodic in the block size,
/// so every CBC block and every MAC input byte differs.
fn payload(tag: u64) -> Vec<u8> {
    let mut x = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..PAGE_PAYLOAD)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn exported(pager: &SecurePager, ids: impl IntoIterator<Item = u64>) -> Vec<(u64, Vec<u8>)> {
    ids.into_iter().map(|id| (id, pager.export_block(id).expect("allocated page"))).collect()
}

#[test]
fn medium_bytes_are_pinned() {
    let mut pager = SecurePager::create(device(), 0x1357).unwrap();
    for tag in 0..6 {
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload(tag)).unwrap();
    }
    pager.commit().unwrap();

    // Checkpoint the committed image into a fresh WAL and bind its head.
    let mut wal = pager.make_wal(0x2468).expect("secure pager journals");
    let checkpoint = Checkpoint {
        epoch: 1,
        root: pager.current_root(),
        blocks: exported(&pager, 0..pager.num_pages()).into_iter().map(|(_, b)| b).collect(),
        catalog: b"golden-catalog-v1".to_vec(),
    };
    let head = wal.append_checkpoint(&checkpoint).unwrap();
    pager.commit_bound(&head).unwrap();

    // One single-transaction commit: two overwrites and an append.
    pager.write_page(1, &payload(11)).unwrap();
    pager.write_page(4, &payload(14)).unwrap();
    let appended = pager.allocate_page().unwrap();
    pager.write_page(appended, &payload(16)).unwrap();
    let record = CommitRecord {
        epoch: 2,
        root: pager.current_root(),
        writes: exported(&pager, [1, 4, appended]),
        catalog: b"golden-catalog-v2".to_vec(),
    };
    let head = wal.append_commit(&record).unwrap();
    pager.commit_bound(&head).unwrap();

    // A group commit: three transactions' pages (one page written twice)
    // share one commit record, one root advance and one RPMB bind.
    pager.write_page(0, &payload(20)).unwrap();
    pager.write_page(2, &payload(22)).unwrap();
    pager.write_page(0, &payload(30)).unwrap();
    let appended = pager.allocate_page().unwrap();
    pager.write_page(appended, &payload(37)).unwrap();
    let record = CommitRecord {
        epoch: 5,
        root: pager.current_root(),
        writes: exported(&pager, [0, 2, appended]),
        catalog: b"golden-catalog-v5".to_vec(),
    };
    let head = wal.append_commit(&record).unwrap();
    pager.commit_bound(&head).unwrap();

    let blocks: Vec<String> = (0..pager.num_pages())
        .map(|id| hex(&sha256(&pager.export_block(id).expect("allocated page"))))
        .collect();
    let root = hex(&pager.trusted_root());
    let wal_bytes = wal.medium().bytes();
    let wal_digest = hex(&sha256(wal_bytes));
    assert_eq!(blocks, BLOCK_DIGESTS, "device block digests moved");
    assert_eq!(root, TRUSTED_ROOT, "trusted Merkle root moved");
    assert_eq!((wal_bytes.len(), wal_digest.as_str()), (WAL_LEN, WAL_DIGEST), "WAL medium moved");

    // The pinned medium is also a readable one: every page decrypts,
    // authenticates and verifies against the pinned root.
    let mut buf = vec![0u8; PAGE_PAYLOAD];
    for (id, tag) in [(0, 30), (1, 11), (2, 22), (3, 3), (4, 14), (5, 5), (6, 16), (7, 37)] {
        pager.read_page(id, &mut buf).unwrap();
        assert_eq!(buf, payload(tag), "page {id}");
    }
}
