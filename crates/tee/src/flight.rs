//! TEE-resident flight recorder: a fixed-capacity ring of recent
//! events for post-mortem analysis.
//!
//! The paper's storage TEE has no debugger and no console; when a
//! chaos run ends in a fault exhaustion or an integrity/freshness
//! violation, the only forensic record is what the enclave kept for
//! itself. The recorder is a bounded ring (oldest events overwritten)
//! whose capacity is derived from the enclave memory budget exactly
//! like [`crate::sgx::epc::verified_node_cache_capacity`] sizes the
//! verified-node cache: a fixed per-entry byte cost against a slice of
//! the EPC, floored at a working minimum.
//!
//! Determinism: events carry a monotone sequence number and
//! caller-supplied detail derived only from deterministic state (page
//! ids, fault sites, arrival counts) — never wall-clock time — so the
//! dump for a given chaos seed is byte-identical run to run.

/// Enclave-memory budget of one ring entry: sequence number, kind tag
/// and a small bounded detail string, rounded to 64 bytes.
pub const FLIGHT_EVENT_BYTES: usize = 64;

/// Size a flight recorder against `budget_bytes` of enclave memory,
/// one [`FLIGHT_EVENT_BYTES`] per event, floored at 64 entries so a
/// pathological budget still keeps a usable post-mortem window.
fn flight_recorder_capacity(budget_bytes: u64) -> usize {
    ((budget_bytes as usize) / FLIGHT_EVENT_BYTES).max(64)
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (counts every event ever recorded,
    /// including ones the ring has since overwritten).
    pub seq: u64,
    /// Event class, e.g. `"read_batch"`, `"fault"`, `"violation"`.
    pub kind: &'static str,
    /// Deterministic detail (page ids, fault site, error text).
    pub detail: String,
}

/// Fixed-capacity ring of recent [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<FlightEvent>,
    capacity: usize,
    next_seq: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder { ring: Vec::new(), capacity, next_seq: 0 }
    }

    /// A recorder sized against `budget_bytes` of enclave memory.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self::new(flight_recorder_capacity(budget_bytes))
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (≥ the number still retained).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Append an event, evicting the oldest when the ring is full.
    pub fn record(&mut self, kind: &'static str, detail: String) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = FlightEvent { seq, kind, detail };
        if self.ring.len() == self.capacity {
            // Keep the vector in oldest-first order: index `seq %
            // capacity` is exactly the slot the oldest event occupies.
            self.ring[(seq % self.capacity as u64) as usize] = event;
        } else {
            self.ring.push(event);
        }
        seq
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = self.ring.clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Drain the ring into a deterministic dump, oldest first, one
    /// `seq kind detail` line per event. This is what lands in the
    /// monitor audit trail on a fault exhaustion or integrity/
    /// freshness violation; the recorder restarts empty afterwards
    /// (sequence numbers keep counting, so consecutive dumps never
    /// repeat an event).
    pub fn dump(&mut self) -> Vec<String> {
        let events = self.events();
        self.ring.clear();
        events.into_iter().map(|e| format!("#{} {} {}", e.seq, e.kind, e.detail)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_derivation_mirrors_verified_node_cache() {
        assert_eq!(flight_recorder_capacity(64 * 1024), 64 * 1024 / FLIGHT_EVENT_BYTES);
        // Floor for pathological budgets.
        assert_eq!(flight_recorder_capacity(0), 64);
        assert_eq!(flight_recorder_capacity(1), 64);
        // Monotone in the budget.
        assert!(flight_recorder_capacity(32 * 1024) <= flight_recorder_capacity(96 * 1024));
    }

    #[test]
    fn ring_keeps_most_recent_events_in_order() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record("read_batch", format!("pages={i}"));
        }
        assert_eq!(r.recorded(), 5);
        let events = r.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest events overwritten, order preserved"
        );
    }

    #[test]
    fn dump_drains_and_sequences_continue() {
        let mut r = FlightRecorder::new(4);
        r.record("fault", "site=storage.device.read page=7".into());
        r.record("violation", "freshness stale root".into());
        let dump = r.dump();
        assert_eq!(
            dump,
            vec![
                "#0 fault site=storage.device.read page=7".to_string(),
                "#1 violation freshness stale root".to_string(),
            ]
        );
        assert!(r.events().is_empty(), "dump drains the ring");
        r.record("read_batch", "pages=0..4".into());
        assert_eq!(r.dump(), vec!["#2 read_batch pages=0..4".to_string()]);
    }

    #[test]
    fn identical_event_streams_dump_identically() {
        let run = || {
            let mut r = FlightRecorder::new(8);
            for i in 0..20u64 {
                r.record("read_batch", format!("batch={i} pages={}", i * 3));
            }
            r.record("fault", "site=storage.freshness.stale".into());
            r.dump()
        };
        assert_eq!(run(), run(), "dumps are byte-deterministic per event stream");
    }
}
