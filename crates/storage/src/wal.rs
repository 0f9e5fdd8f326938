//! Encrypted, HMAC-chained write-ahead log with group commit.
//!
//! The non-blocking write path (§4.1 extended): a writer applies a
//! transaction's pages to the secure medium, journals the *physical*
//! post-images into this log, and — once per group of N transactions —
//! binds the Merkle root and the log's chain-head MAC to the RPMB in one
//! authenticated write. After a crash, [`recover_medium`](Wal::recover_medium)
//! rebuilds the medium from the checkpoint image and replays exactly the
//! commit records covered by the RPMB-bound head: a torn or truncated
//! tail is discarded as a typed verdict, never replayed half-way.
//!
//! The record chain follows the `monitor::audit` idiom — domain-tagged
//! HMAC over `seq ‖ prev_mac ‖ ciphertext` — but the payload is
//! additionally AES-CBC encrypted (the log lives on the same untrusted
//! device class as the pages) and the chain head is freshness-protected
//! by the RPMB instead of a countersignature.

use crate::blockdev::{BlockDevice, BLOCK_SIZE};
use crate::merkle::NodeHash;
use crate::pager::PageId;
use crate::{Result, StorageError};
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::hmac::HmacSha256;
use ironsafe_crypto::modes::{cbc_decrypt, cbc_encrypt};
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_obs::{Counter, Registry};
use rand::{Rng, SeedableRng};

/// Domain-separation tag for the WAL chain MAC.
const CHAIN_TAG: &[u8] = b"ironsafe-wal-v1";
/// Record type tags.
const TAG_CHECKPOINT: u8 = 1;
const TAG_COMMIT: u8 = 2;
/// Frame overhead besides the ciphertext: IV + chain MAC.
const FRAME_FIXED: usize = 16 + 32;

/// The chain head of an empty log (nothing ever committed).
pub const EMPTY_HEAD: [u8; 32] = [0u8; 32];

/// Live telemetry counters for the WAL (`wal.*` metric names).
#[derive(Clone, Default)]
pub struct WalMetrics {
    /// Records appended (`wal.append`).
    pub appends: Counter,
    /// Bytes appended, frames included (`wal.append.bytes`).
    pub bytes: Counter,
    /// Group-commit flushes — batched RPMB binds (`wal.group_commit`).
    pub group_commits: Counter,
    /// Transactions folded into group commits (`wal.txn`).
    pub txns: Counter,
    /// Commit records replayed by recovery (`wal.recover.replayed`).
    pub replayed: Counter,
    /// Tail records discarded by recovery (`wal.recover.discarded`).
    pub discarded: Counter,
}

impl WalMetrics {
    /// Attach every cell to `registry` under its `wal.*` name.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("wal.append", &self.appends);
        registry.register_counter("wal.append.bytes", &self.bytes);
        registry.register_counter("wal.group_commit", &self.group_commits);
        registry.register_counter("wal.txn", &self.txns);
        registry.register_counter("wal.recover.replayed", &self.replayed);
        registry.register_counter("wal.recover.discarded", &self.discarded);
    }
}

/// The untrusted append-only byte log the WAL lives on.
///
/// Byte- rather than block-granular: a crash mid-append leaves a torn
/// frame at an arbitrary byte offset, which is exactly the failure mode
/// recovery must classify. The `raw_*` methods are the attacker/chaos
/// interface, mirroring [`BlockDevice`]'s.
#[derive(Clone, Default, Debug)]
pub struct WalMedium {
    bytes: Vec<u8>,
}

impl WalMedium {
    /// Fresh empty log medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes on the medium.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The raw log bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Append `data` (the honest device path).
    pub fn append(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    /// Attacker/crash interface: drop everything past `len` bytes.
    pub fn raw_truncate(&mut self, len: usize) {
        self.bytes.truncate(len);
    }

    /// Attacker interface: XOR one byte.
    pub fn raw_tamper(&mut self, offset: usize, xor: u8) {
        if let Some(b) = self.bytes.get_mut(offset) {
            *b ^= xor;
        }
    }

    /// Snapshot the full medium (for rollback experiments).
    pub fn raw_snapshot(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Restore a snapshot taken with [`WalMedium::raw_snapshot`].
    pub fn raw_restore(&mut self, snapshot: Vec<u8>) {
        self.bytes = snapshot;
    }
}

/// One committed transaction group's journal entry: the physical
/// post-images of every page the group touched, plus the catalog bytes
/// and the Merkle root the medium must hash to after replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Root epoch this commit publishes.
    pub epoch: u64,
    /// Merkle root over the medium *after* this record is applied.
    pub root: NodeHash,
    /// `(page id, raw on-medium block)` post-images, in apply order:
    /// in-place writes first, then appends in ascending id order, so
    /// replay can grow the device one block at a time.
    pub writes: Vec<(PageId, Vec<u8>)>,
    /// Serialized catalog current at this commit.
    pub catalog: Vec<u8>,
}

/// The checkpoint record: the full medium image the log's commit records
/// are deltas against, written once when the WAL is attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Root epoch at attach time.
    pub epoch: u64,
    /// Merkle root of the checkpointed medium.
    pub root: NodeHash,
    /// Every block of the medium, in id order.
    pub blocks: Vec<Vec<u8>>,
    /// Serialized catalog at attach time.
    pub catalog: Vec<u8>,
}

/// What recovery found past the committed prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailVerdict {
    /// The log ends exactly at the committed head.
    Clean,
    /// Chain-valid records past the head: appended but never RPMB-bound
    /// (crash between WAL append and the batched bind). Discarded whole.
    Uncommitted,
    /// A partial frame past the head (crash mid-append). Discarded.
    Torn,
    /// Bytes past the head that fail chain-MAC or decode (offline
    /// tampering of the uncommitted tail). Discarded.
    Corrupt,
}

/// Typed report on the discarded tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailReport {
    /// Complete, chain-valid records discarded as uncommitted.
    pub uncommitted: usize,
    /// How the tail ended.
    pub verdict: TailVerdict,
}

/// Everything recovery reconstructs from checkpoint + committed prefix.
pub struct RecoveredState {
    /// The rebuilt medium, bit-identical to the crashed one's committed
    /// prefix state.
    pub device: BlockDevice,
    /// Root epoch of the last committed record.
    pub epoch: u64,
    /// Merkle root the rebuilt medium must verify against (and the RPMB
    /// holds).
    pub root: NodeHash,
    /// Catalog bytes current at the last committed record.
    pub catalog: Vec<u8>,
    /// Commit records replayed.
    pub replayed: usize,
    /// What was discarded past the committed boundary.
    pub tail: TailReport,
}

/// What [`crate::SecurePager::recover`] hands back alongside the reopened
/// pager: the engine-level state the pager itself does not own.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    /// Root epoch of the last committed record.
    pub epoch: u64,
    /// Catalog bytes current at the last committed record.
    pub catalog: Vec<u8>,
    /// Commit records replayed onto the rebuilt medium.
    pub replayed: usize,
    /// What was discarded past the committed boundary.
    pub tail: TailReport,
}

/// The record cipher and the chain HMAC, each keyed once per log handle
/// (the MAC is cloned per record, skipping both pad compressions).
fn derive_keys(db_key: &[u8; 16]) -> (Aes128, HmacSha256) {
    let enc = ironsafe_crypto::hkdf::derive_key_128(db_key, b"wal-enc");
    let mac = ironsafe_crypto::hkdf::derive_key_256(db_key, b"wal-mac");
    (Aes128::new(&enc), HmacSha256::new(&mac))
}

fn chain_mac(keyed: &HmacSha256, seq: u64, prev: &[u8; 32], iv: &[u8], ct: &[u8]) -> [u8; 32] {
    let mut mac = keyed.clone();
    for part in [CHAIN_TAG, &seq.to_be_bytes(), prev, iv, ct] {
        mac.update(part);
    }
    mac.finalize()
}

/// The writer-side log handle.
pub struct Wal {
    medium: WalMedium,
    aes: Aes128,
    mac: HmacSha256,
    next_seq: u64,
    head: [u8; 32],
    rng: rand::rngs::StdRng,
    fault_plan: FaultPlan,
    metrics: WalMetrics,
}

impl Wal {
    /// Fresh log keyed from the database key. `rng_seed` drives the
    /// record IVs (deterministic for a given seed, like the pager's).
    pub fn new(db_key: &[u8; 16], rng_seed: u64) -> Self {
        let (aes, mac) = derive_keys(db_key);
        Wal {
            medium: WalMedium::new(),
            aes,
            mac,
            next_seq: 0,
            head: EMPTY_HEAD,
            rng: rand::rngs::StdRng::seed_from_u64(rng_seed),
            fault_plan: FaultPlan::none(),
            metrics: WalMetrics::default(),
        }
    }

    /// Install the fault plan driving the `storage.wal.*` sites.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Handles onto the live `wal.*` telemetry counters.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Chain-head MAC of the last appended record ([`EMPTY_HEAD`] when
    /// the log is empty). This is the value the group commit binds to
    /// the RPMB next to the Merkle root.
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Records appended so far.
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// True when no record was ever appended.
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// The untrusted log medium (attacker/crash interface).
    pub fn medium(&self) -> &WalMedium {
        &self.medium
    }

    /// Tear the log down to its surviving medium (power-off); recover
    /// with [`Wal::recover_medium`].
    pub fn into_medium(self) -> WalMedium {
        self.medium
    }

    /// Append the checkpoint record (must be the first record).
    pub fn append_checkpoint(&mut self, cp: &Checkpoint) -> Result<[u8; 32]> {
        debug_assert_eq!(self.next_seq, 0, "checkpoint must open the log");
        let mut plain = Vec::with_capacity(cp.blocks.len() * BLOCK_SIZE + cp.catalog.len() + 64);
        plain.push(TAG_CHECKPOINT);
        plain.extend_from_slice(&cp.epoch.to_be_bytes());
        plain.extend_from_slice(&cp.root);
        plain.extend_from_slice(&(cp.blocks.len() as u32).to_be_bytes());
        for block in &cp.blocks {
            debug_assert_eq!(block.len(), BLOCK_SIZE);
            plain.extend_from_slice(block);
        }
        plain.extend_from_slice(&(cp.catalog.len() as u32).to_be_bytes());
        plain.extend_from_slice(&cp.catalog);
        self.append_record(&plain)
    }

    /// Append one transaction group's commit record.
    pub fn append_commit(&mut self, rec: &CommitRecord) -> Result<[u8; 32]> {
        debug_assert!(self.next_seq > 0, "commit records follow the checkpoint");
        let mut plain =
            Vec::with_capacity(rec.writes.len() * (8 + BLOCK_SIZE) + rec.catalog.len() + 64);
        plain.push(TAG_COMMIT);
        plain.extend_from_slice(&rec.epoch.to_be_bytes());
        plain.extend_from_slice(&rec.root);
        plain.extend_from_slice(&(rec.writes.len() as u32).to_be_bytes());
        for (id, block) in &rec.writes {
            debug_assert_eq!(block.len(), BLOCK_SIZE);
            plain.extend_from_slice(&id.to_be_bytes());
            plain.extend_from_slice(block);
        }
        plain.extend_from_slice(&(rec.catalog.len() as u32).to_be_bytes());
        plain.extend_from_slice(&rec.catalog);
        self.append_record(&plain)
    }

    /// Encrypt, chain and append one record. The `WalAppend` fault fires
    /// *before* anything is written (a transient device error the caller
    /// retries); the `WalTear` fault writes a strict prefix of the frame
    /// and fails permanently — the crash-mid-append artifact recovery
    /// has to discard.
    fn append_record(&mut self, plain: &[u8]) -> Result<[u8; 32]> {
        if self.fault_plan.should_fire(FaultSite::WalAppend) {
            return Err(StorageError::DeviceIo("injected WAL append error"));
        }
        let mut iv = [0u8; 16];
        self.rng.fill(&mut iv);
        let ct = cbc_encrypt(&self.aes, &iv, plain);
        let mac = chain_mac(&self.mac, self.next_seq, &self.head, &iv, &ct);
        let body_len = FRAME_FIXED + ct.len();
        let mut frame = Vec::with_capacity(4 + body_len);
        frame.extend_from_slice(&(body_len as u32).to_be_bytes());
        frame.extend_from_slice(&iv);
        frame.extend_from_slice(&ct);
        frame.extend_from_slice(&mac);
        if self.fault_plan.should_fire(FaultSite::WalTear) {
            // Crash mid-append: a strict, non-empty prefix lands on the
            // medium. The cut point comes off the deterministic rng so a
            // seeded storm tears reproducibly.
            let cut = 1 + (self.rng.gen::<usize>() % (frame.len() - 1));
            self.medium.append(&frame[..cut]);
            return Err(StorageError::WalTorn("injected torn WAL append (crash mid-append)"));
        }
        self.medium.append(&frame);
        self.head = mac;
        self.next_seq += 1;
        self.metrics.appends.inc();
        self.metrics.bytes.add(frame.len() as u64);
        Ok(mac)
    }

    /// Replay `medium` against the RPMB-bound `committed_head` and
    /// rebuild the block device state as of the last committed record.
    ///
    /// Errors are typed and total:
    /// * committed prefix unreachable (truncated below the bound, or a
    ///   bad chain MAC before the head) → [`StorageError::WalCorrupt`] /
    ///   [`StorageError::WalTorn`] — the log cannot restore the state
    ///   the RPMB attests, which is itself a rollback signal;
    /// * anything *past* the head — torn frame, tamper, chain-valid but
    ///   unbound records — is discarded and reported in
    ///   [`RecoveredState::tail`], never replayed.
    pub fn recover_medium(
        db_key: &[u8; 16],
        medium: &WalMedium,
        committed_head: &[u8; 32],
    ) -> Result<RecoveredState> {
        if committed_head == &EMPTY_HEAD {
            return Err(StorageError::WalCorrupt("RPMB holds no committed WAL head"));
        }
        let (aes, chain_key) = derive_keys(db_key);
        let bytes = medium.bytes();
        let mut off = 0usize;
        let mut seq = 0u64;
        let mut prev = EMPTY_HEAD;
        let mut reached = false;
        let mut checkpoint: Option<Checkpoint> = None;
        let mut commits: Vec<CommitRecord> = Vec::new();
        let mut tail = TailReport { uncommitted: 0, verdict: TailVerdict::Clean };

        while off < bytes.len() {
            // Frame header + body must be fully present.
            let frame_ok = bytes.len() - off >= 4;
            let body_len = if frame_ok {
                u32::from_be_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize
            } else {
                0
            };
            if !frame_ok || body_len < FRAME_FIXED || bytes.len() - off - 4 < body_len {
                if reached {
                    tail.verdict = TailVerdict::Torn;
                    break;
                }
                return Err(StorageError::WalTorn(
                    "WAL torn below the committed head (committed state unrecoverable)",
                ));
            }
            let body = &bytes[off + 4..off + 4 + body_len];
            let (iv, rest) = body.split_at(16);
            let (ct, mac) = rest.split_at(body_len - FRAME_FIXED);
            let expect = chain_mac(&chain_key, seq, &prev, iv, ct);
            if !ironsafe_crypto::ct_eq(&expect, mac) {
                if reached {
                    tail.verdict = TailVerdict::Corrupt;
                    break;
                }
                return Err(StorageError::WalCorrupt(
                    "WAL chain MAC mismatch below the committed head",
                ));
            }
            let iv: [u8; 16] = iv.try_into().expect("16-byte IV");
            let decoded = cbc_decrypt(&aes, &iv, ct)
                .ok()
                .and_then(|plain| decode_record(&plain, seq, checkpoint.is_some()));
            let record = match decoded {
                Some(r) => r,
                None => {
                    if reached {
                        tail.verdict = TailVerdict::Corrupt;
                        break;
                    }
                    return Err(StorageError::WalCorrupt(
                        "undecodable WAL record below the committed head",
                    ));
                }
            };
            if reached {
                // Chain-valid but past the RPMB bind: never committed.
                tail.uncommitted += 1;
                tail.verdict = TailVerdict::Uncommitted;
            } else {
                match record {
                    Record::Checkpoint(cp) => checkpoint = Some(cp),
                    Record::Commit(c) => commits.push(c),
                }
                if ironsafe_crypto::ct_eq(&expect, committed_head) {
                    reached = true;
                }
            }
            prev = mac.try_into().expect("32-byte chain MAC");
            seq += 1;
            off += 4 + body_len;
        }

        if !reached {
            return Err(StorageError::WalCorrupt(
                "committed WAL head not found in the log (truncated or forked)",
            ));
        }
        let checkpoint = checkpoint
            .ok_or(StorageError::WalCorrupt("WAL has no checkpoint record"))?;

        // Rebuild the medium: checkpoint image, then each commit's
        // physical post-images in order.
        let mut device = BlockDevice::new();
        for block in &checkpoint.blocks {
            let id = device.append_block();
            let arr: &[u8; BLOCK_SIZE] =
                block.as_slice().try_into().map_err(|_| {
                    StorageError::WalCorrupt("checkpoint block of the wrong size")
                })?;
            device.write_block(id, arr)?;
        }
        let (mut epoch, mut root, mut catalog) =
            (checkpoint.epoch, checkpoint.root, checkpoint.catalog);
        for rec in &commits {
            for (id, block) in &rec.writes {
                let arr: &[u8; BLOCK_SIZE] =
                    block.as_slice().try_into().map_err(|_| {
                        StorageError::WalCorrupt("commit post-image of the wrong size")
                    })?;
                if *id == device.num_blocks() {
                    device.append_block();
                } else if *id > device.num_blocks() {
                    return Err(StorageError::WalCorrupt(
                        "commit record writes past the end of the device",
                    ));
                }
                device.write_block(*id, arr)?;
            }
            epoch = rec.epoch;
            root = rec.root;
            catalog = rec.catalog.clone();
        }
        Ok(RecoveredState { device, epoch, root, catalog, replayed: commits.len(), tail })
    }
}

enum Record {
    Checkpoint(Checkpoint),
    Commit(CommitRecord),
}

/// Strict decode of one plaintext record; `None` on any malformation
/// (wrong tag for its position, short buffer, trailing garbage).
fn decode_record(plain: &[u8], seq: u64, have_checkpoint: bool) -> Option<Record> {
    let mut cur = Cursor { buf: plain, off: 0 };
    let tag = cur.u8()?;
    let epoch = cur.u64()?;
    let root: NodeHash = cur.take(32)?.try_into().ok()?;
    match tag {
        TAG_CHECKPOINT if seq == 0 => {
            let n = cur.u32()? as usize;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(cur.take(BLOCK_SIZE)?.to_vec());
            }
            let cat_len = cur.u32()? as usize;
            let catalog = cur.take(cat_len)?.to_vec();
            cur.done()?;
            Some(Record::Checkpoint(Checkpoint { epoch, root, blocks, catalog }))
        }
        TAG_COMMIT if seq > 0 && have_checkpoint => {
            let n = cur.u32()? as usize;
            let mut writes = Vec::with_capacity(n);
            for _ in 0..n {
                let id = cur.u64()?;
                writes.push((id, cur.take(BLOCK_SIZE)?.to_vec()));
            }
            let cat_len = cur.u32()? as usize;
            let catalog = cur.take(cat_len)?.to_vec();
            cur.done()?;
            Some(Record::Commit(CommitRecord { epoch, root, writes, catalog }))
        }
        _ => None,
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.off < n {
            return None;
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_be_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_be_bytes(s.try_into().expect("8 bytes")))
    }

    fn done(&self) -> Option<()> {
        (self.off == self.buf.len()).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Wal {
        /// Mutable medium access (attacker/crash interface).
        fn medium_mut(&mut self) -> &mut WalMedium {
            &mut self.medium
        }

        /// Take the medium out of a shared handle (crash harness), leaving
        /// an empty husk behind.
        fn take_medium(&mut self) -> WalMedium {
            self.next_seq = 0;
            self.head = EMPTY_HEAD;
            std::mem::take(&mut self.medium)
        }
    }

    const DB_KEY: [u8; 16] = [7u8; 16];

    fn block(tag: u8) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0] = tag;
        b[BLOCK_SIZE - 1] = tag;
        b
    }

    fn checkpoint() -> Checkpoint {
        Checkpoint {
            epoch: 1,
            root: [0x11; 32],
            blocks: vec![block(1), block(2)],
            catalog: b"cat-0".to_vec(),
        }
    }

    fn commit(epoch: u64, writes: Vec<(PageId, Vec<u8>)>) -> CommitRecord {
        CommitRecord {
            epoch,
            root: [epoch as u8; 32],
            writes,
            catalog: format!("cat-{epoch}").into_bytes(),
        }
    }

    /// Append checkpoint + `n` commits, return (wal, per-record heads).
    fn build(n: u64) -> (Wal, Vec<[u8; 32]>) {
        let mut wal = Wal::new(&DB_KEY, 5);
        let mut heads = vec![wal.append_checkpoint(&checkpoint()).unwrap()];
        for e in 0..n {
            let rec = commit(2 + e, vec![(0, block(10 + e as u8)), (2 + e, block(20 + e as u8))]);
            heads.push(wal.append_commit(&rec).unwrap());
        }
        (wal, heads)
    }

    #[test]
    fn roundtrip_checkpoint_and_commits() {
        let (wal, heads) = build(3);
        let state = Wal::recover_medium(&DB_KEY, wal.medium(), heads.last().unwrap()).unwrap();
        assert_eq!(state.replayed, 3);
        assert_eq!(state.epoch, 4);
        assert_eq!(state.root, [4u8; 32]);
        assert_eq!(state.catalog, b"cat-4");
        assert_eq!(state.tail, TailReport { uncommitted: 0, verdict: TailVerdict::Clean });
        // Page 0 holds the last post-image; appends grew the device.
        assert_eq!(state.device.num_blocks(), 5);
        assert_eq!(state.device.raw_read(0).unwrap()[0], 12);
        assert_eq!(state.device.raw_read(1).unwrap()[0], 2);
        assert_eq!(state.device.raw_read(4).unwrap()[0], 22);
    }

    #[test]
    fn log_is_encrypted_on_the_medium() {
        let (wal, _) = build(1);
        let raw = wal.medium().bytes();
        // The catalog strings and block tags must not appear in clear.
        assert!(!raw.windows(5).any(|w| w == b"cat-0"), "catalog bytes encrypted");
        assert!(!raw.windows(5).any(|w| w == b"cat-2"));
    }

    #[test]
    fn uncommitted_tail_is_discarded_with_verdict() {
        let (wal, heads) = build(3);
        // RPMB only ever saw the first commit's head: the last two
        // records are chain-valid but unbound.
        let state = Wal::recover_medium(&DB_KEY, wal.medium(), &heads[1]).unwrap();
        assert_eq!(state.replayed, 1);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.catalog, b"cat-2");
        assert_eq!(state.tail, TailReport { uncommitted: 2, verdict: TailVerdict::Uncommitted });
        assert_eq!(state.device.num_blocks(), 3, "unbound appends not replayed");
    }

    #[test]
    fn torn_tail_is_discarded_with_verdict() {
        let (mut wal, heads) = build(2);
        let committed = heads[2];
        let len_before = wal.medium().len();
        let _ = wal.append_commit(&commit(9, vec![(0, block(99))])).unwrap();
        // Crash mid-append: only part of the last frame persisted.
        let torn_len = len_before + (wal.medium().len() - len_before) / 2;
        wal.medium_mut().raw_truncate(torn_len);
        let state = Wal::recover_medium(&DB_KEY, wal.medium(), &committed).unwrap();
        assert_eq!(state.replayed, 2);
        assert_eq!(state.tail, TailReport { uncommitted: 0, verdict: TailVerdict::Torn });
        assert_eq!(state.device.raw_read(0).unwrap()[0], 11, "torn record not applied");
    }

    #[test]
    fn tampered_tail_is_discarded_with_verdict() {
        let (mut wal, heads) = build(2);
        let committed = heads[1];
        let tamper_at = wal.medium().len() - 10;
        wal.medium_mut().raw_tamper(tamper_at, 0xff);
        let state = Wal::recover_medium(&DB_KEY, wal.medium(), &committed).unwrap();
        assert_eq!(state.replayed, 1);
        assert_eq!(state.tail.verdict, TailVerdict::Corrupt);
    }

    #[test]
    fn truncation_below_committed_head_is_typed_torn() {
        let (mut wal, heads) = build(2);
        let committed = *heads.last().unwrap();
        let torn = wal.medium().len() - 7;
        wal.medium_mut().raw_truncate(torn);
        assert!(matches!(
            Wal::recover_medium(&DB_KEY, wal.medium(), &committed),
            Err(StorageError::WalTorn(_))
        ));
    }

    #[test]
    fn tamper_below_committed_head_is_typed_corrupt() {
        let (mut wal, heads) = build(2);
        let committed = *heads.last().unwrap();
        wal.medium_mut().raw_tamper(40, 0x01);
        assert!(matches!(
            Wal::recover_medium(&DB_KEY, wal.medium(), &committed),
            Err(StorageError::WalCorrupt(_))
        ));
    }

    #[test]
    fn frame_boundary_truncation_that_hides_the_head_is_corrupt() {
        // Drop the last record *exactly* on its frame boundary: every
        // surviving byte is valid, but the bound head is gone — a
        // rollback of the log, and typed as corruption.
        let (mut wal, heads) = build(2);
        let committed = *heads.last().unwrap();
        let mut medium = wal.take_medium();
        // Recompute where record 2's frame starts by re-parsing lengths.
        let bytes = medium.raw_snapshot();
        let mut off = 0;
        for _ in 0..2 {
            let l = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4 + l;
        }
        medium.raw_truncate(off);
        assert!(matches!(
            Wal::recover_medium(&DB_KEY, &medium, &committed),
            Err(StorageError::WalCorrupt(_))
        ));
    }

    #[test]
    fn wrong_key_cannot_replay() {
        let (wal, heads) = build(1);
        assert!(matches!(
            Wal::recover_medium(&[8u8; 16], wal.medium(), heads.last().unwrap()),
            Err(StorageError::WalCorrupt(_))
        ));
    }

    #[test]
    fn zero_head_is_typed() {
        let (wal, _) = build(1);
        assert!(matches!(
            Wal::recover_medium(&DB_KEY, wal.medium(), &EMPTY_HEAD),
            Err(StorageError::WalCorrupt(_))
        ));
    }

    #[test]
    fn injected_append_fault_is_transient_and_writes_nothing() {
        use ironsafe_faults::Transient;
        let mut wal = Wal::new(&DB_KEY, 5);
        wal.append_checkpoint(&checkpoint()).unwrap();
        let len = wal.medium().len();
        wal.set_fault_plan(FaultPlan::seeded(3).with_nth(FaultSite::WalAppend, 1));
        let e = wal.append_commit(&commit(2, vec![(0, block(1))])).unwrap_err();
        assert!(e.is_transient(), "WalAppend is a retryable device error");
        assert_eq!(wal.medium().len(), len, "failed append wrote nothing");
        // The plan fired once; the retry succeeds and chains correctly.
        let head = wal.append_commit(&commit(2, vec![(0, block(1))])).unwrap();
        let state = Wal::recover_medium(&DB_KEY, wal.medium(), &head).unwrap();
        assert_eq!(state.replayed, 1);
    }

    #[test]
    fn injected_tear_leaves_classifiable_partial_frame() {
        use ironsafe_faults::Transient;
        let mut wal = Wal::new(&DB_KEY, 5);
        let committed = wal.append_checkpoint(&checkpoint()).unwrap();
        let len = wal.medium().len();
        wal.set_fault_plan(FaultPlan::seeded(4).with_nth(FaultSite::WalTear, 1));
        let e = wal.append_commit(&commit(2, vec![(0, block(1))])).unwrap_err();
        assert!(matches!(e, StorageError::WalTorn(_)));
        assert!(!e.is_transient(), "a tear is a crash artifact, not a flaky bus");
        assert!(wal.medium().len() > len, "a strict prefix landed");
        let state = Wal::recover_medium(&DB_KEY, wal.medium(), &committed).unwrap();
        assert_eq!(state.replayed, 0);
        assert_eq!(state.tail.verdict, TailVerdict::Torn);
    }

    #[test]
    fn metrics_count_appends_and_bytes() {
        let (wal, _) = build(2);
        assert_eq!(wal.metrics().appends.get(), 3);
        assert_eq!(wal.metrics().bytes.get() as usize, wal.medium().len());
    }

    #[test]
    fn same_seed_same_log_bytes() {
        let (a, _) = build(2);
        let (b, _) = build(2);
        assert_eq!(a.medium().bytes(), b.medium().bytes(), "IV stream is seed-deterministic");
    }
}
