//! Tamper-evident audit log.
//!
//! The paper requires every data-sharing operation (and every attack
//! attempt, e.g. crafted queries) to land in a log that cannot be
//! silently truncated or edited. Entries form a hash chain; the monitor
//! countersigns the chain head on demand, so a regulator holding the
//! monitor's public key can verify the full history offline.

use ironsafe_crypto::sha256::sha256_concat;
use parking_lot::Mutex;

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Sequence number (0-based).
    pub seq: u64,
    /// Logical timestamp supplied by the monitor.
    pub timestamp: i64,
    /// Which log stream this entry belongs to (from `logUpdate(l, ...)`),
    /// or `"monitor"` for the monitor's own decisions.
    pub stream: String,
    /// Identity key of the involved client.
    pub client_key: String,
    /// What happened (query text, decision, attack note...).
    pub message: String,
    /// Hash of the previous entry (all zero for the first).
    pub prev_hash: [u8; 32],
    /// Hash over this entry's contents ‖ `prev_hash`.
    pub hash: [u8; 32],
}

fn entry_hash(
    seq: u64,
    timestamp: i64,
    stream: &str,
    client_key: &str,
    message: &str,
    prev: &[u8; 32],
) -> [u8; 32] {
    sha256_concat(&[
        b"ironsafe-audit-v1",
        &seq.to_be_bytes(),
        &timestamp.to_be_bytes(),
        &(stream.len() as u32).to_be_bytes(),
        stream.as_bytes(),
        &(client_key.len() as u32).to_be_bytes(),
        client_key.as_bytes(),
        &(message.len() as u32).to_be_bytes(),
        message.as_bytes(),
        prev,
    ])
}

/// Hash-chained append-only log.
///
/// Appends take `&self`: the entry vector sits behind a single mutex so
/// concurrent sessions can log through a shared monitor without racing
/// the chain. Sequencing and `prev_hash` linkage are decided under that
/// lock, so whatever order threads arrive in, the resulting chain is
/// valid ([`AuditLog::verify`] holds).
#[derive(Default)]
pub struct AuditLog {
    entries: Mutex<Vec<AuditEntry>>,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog").field("entries", &*self.entries.lock()).finish()
    }
}

impl Clone for AuditLog {
    fn clone(&self) -> Self {
        AuditLog { entries: Mutex::new(self.entries.lock().clone()) }
    }
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry; returns its sequence number.
    pub fn append(&self, timestamp: i64, stream: &str, client_key: &str, message: &str) -> u64 {
        let mut entries = self.entries.lock();
        let seq = entries.len() as u64;
        let prev_hash = entries.last().map(|e| e.hash).unwrap_or([0; 32]);
        let hash = entry_hash(seq, timestamp, stream, client_key, message, &prev_hash);
        entries.push(AuditEntry {
            seq,
            timestamp,
            stream: stream.to_string(),
            client_key: client_key.to_string(),
            message: message.to_string(),
            prev_hash,
            hash,
        });
        seq
    }

    /// Snapshot of all entries.
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.entries.lock().clone()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries of one stream (what the regulator asks for).
    pub fn stream(&self, name: &str) -> Vec<AuditEntry> {
        self.entries.lock().iter().filter(|e| e.stream == name).cloned().collect()
    }

    /// Hash of the chain head (all zero when empty).
    pub fn head(&self) -> [u8; 32] {
        self.entries.lock().last().map(|e| e.hash).unwrap_or([0; 32])
    }

    /// Recompute every link; `false` if any entry was modified, reordered
    /// or removed from the middle.
    pub fn verify(&self) -> bool {
        self.first_bad_link().is_none()
    }

    /// Recompute every link and report the index of the first entry whose
    /// link fails to verify, or `None` when the whole chain is intact.
    ///
    /// A regulator uses this to localize tampering: everything *before*
    /// the returned index is still trustworthy (it hashes correctly up to
    /// that point), while the returned entry and everything after it must
    /// be treated as forged.
    fn first_bad_link(&self) -> Option<usize> {
        let entries = self.entries.lock();
        let mut prev = [0u8; 32];
        for (i, e) in entries.iter().enumerate() {
            if e.seq != i as u64 || e.prev_hash != prev {
                return Some(i);
            }
            let expect = entry_hash(e.seq, e.timestamp, &e.stream, &e.client_key, &e.message, &prev);
            if expect != e.hash {
                return Some(i);
            }
            prev = e.hash;
        }
        None
    }

    /// Test/attack helper: mutate the raw entry vector under the lock.
    #[doc(hidden)]
    pub fn with_raw_entries<R>(&self, f: impl FnOnce(&mut Vec<AuditEntry>) -> R) -> R {
        f(&mut self.entries.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditLog {
        let log = AuditLog::new();
        log.append(1, "monitor", "Ka", "grant read");
        log.append(2, "audit", "Kb", "SELECT arrival FROM people");
        log.append(3, "monitor", "Kc", "DENY write");
        log
    }

    #[test]
    fn clean_chain_verifies() {
        let log = sample();
        assert!(log.verify());
        assert_eq!(log.entries().len(), 3);
        assert_ne!(log.head(), [0; 32]);
    }

    #[test]
    fn edited_message_detected() {
        let log = sample();
        log.with_raw_entries(|e| e[1].message = "SELECT ssn FROM people".into());
        assert!(!log.verify());
    }

    #[test]
    fn tampered_middle_entry_reports_first_bad_index() {
        let log = sample();
        assert_eq!(log.first_bad_link(), None);
        // An attacker rewrites the middle entry in place. Entry 0 still
        // verifies; the chain breaks exactly at index 1 (its own hash no
        // longer matches its contents).
        log.with_raw_entries(|e| e[1].message = "grant write".into());
        assert_eq!(log.first_bad_link(), Some(1));
        assert!(!log.verify());

        // If the attacker also recomputes entry 1's hash, the break moves
        // to index 2: entry 2's prev_hash now points at a hash that no
        // longer exists in the chain.
        let log = sample();
        log.with_raw_entries(|entries| {
            let e = entries[1].clone();
            let forged_hash = super::entry_hash(
                e.seq,
                e.timestamp,
                &e.stream,
                &e.client_key,
                "grant write",
                &e.prev_hash,
            );
            entries[1].message = "grant write".into();
            entries[1].hash = forged_hash;
        });
        assert_eq!(log.first_bad_link(), Some(2));
    }

    #[test]
    fn dropped_middle_entry_detected() {
        let log = sample();
        log.with_raw_entries(|e| {
            e.remove(1);
        });
        assert!(!log.verify());
        // The dropped entry shifts everything after it: index 1 now holds
        // the old entry 2, whose seq/prev_hash both mismatch.
        assert_eq!(log.first_bad_link(), Some(1));
    }

    #[test]
    fn reordered_entries_detected() {
        let log = sample();
        log.with_raw_entries(|e| e.swap(0, 2));
        assert!(!log.verify());
    }

    #[test]
    fn truncation_changes_head() {
        let log = sample();
        let head = log.head();
        log.with_raw_entries(|e| {
            e.pop();
        });
        // Still internally consistent (an attacker may truncate the tail),
        // but the head no longer matches what the monitor signed.
        assert!(log.verify());
        assert_ne!(log.head(), head);
    }

    #[test]
    fn stream_filter() {
        let log = sample();
        assert_eq!(log.stream("audit").len(), 1);
        assert_eq!(log.stream("monitor").len(), 2);
    }

    #[test]
    fn interleaved_appends_from_many_threads_chain_cleanly() {
        let log = AuditLog::new();
        let threads = 8;
        let per_thread = 50;
        crossbeam::thread::scope(|s| {
            for t in 0..threads {
                let log = &log;
                s.spawn(move |_| {
                    let client = format!("K{t}");
                    for i in 0..per_thread {
                        log.append(i as i64, "audit", &client, &format!("query {i} from {t}"));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(log.len(), threads * per_thread);
        assert_eq!(log.first_bad_link(), None, "interleaved appends must chain");
        assert!(log.verify());
        // Sequence numbers were handed out densely under the lock.
        let entries = log.entries();
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn empty_log_verifies() {
        assert!(AuditLog::new().verify());
        assert_eq!(AuditLog::new().head(), [0; 32]);
    }
}
