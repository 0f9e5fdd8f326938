//! Replay-Protected Memory Block (RPMB).
//!
//! eMMC parts ship a small authenticated partition: once an authentication
//! key is programmed (write-once), every write must carry an HMAC keyed
//! with it and the *current* write counter, and every read response is
//! MAC'd over the caller's nonce — so neither writes nor read replies can
//! be replayed or forged. IronSafe stores the Merkle-root HMAC and the
//! sealed database key here (§4.1 of the paper), which is what defeats
//! rollback and forking attacks on the untrusted medium.

use crate::{Result, TeeError};
use ironsafe_crypto::hmac::hmac_sha256_concat;
use ironsafe_faults::{FaultPlan, FaultSite};
use ironsafe_obs::{Counter, Registry};

/// RPMB block size in bytes (half-sector data frames in real eMMC; a round
/// 256 bytes here).
pub const RPMB_BLOCK: usize = 256;

/// The device-side RPMB state machine.
#[derive(Debug)]
pub struct Rpmb {
    key: Option<[u8; 32]>,
    blocks: Vec<[u8; RPMB_BLOCK]>,
    write_counter: u64,
    reads: Counter,
    writes: Counter,
    fault_plan: FaultPlan,
}

impl Rpmb {
    /// A fresh, unprogrammed part with `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> Self {
        Rpmb {
            key: None,
            blocks: vec![[0; RPMB_BLOCK]; num_blocks],
            write_counter: 0,
            reads: Counter::new(),
            writes: Counter::new(),
            fault_plan: FaultPlan::none(),
        }
    }

    /// Install a fault plan; `tee.rpmb.write_fail` faults make
    /// authenticated writes fail with [`TeeError::RpmbBusy`] before the
    /// device state changes (write counter untouched, so a retried
    /// write with a recomputed MAC succeeds).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Attach the part's operation counters to `registry` as
    /// `tee.rpmb.read` / `tee.rpmb.write`.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("tee.rpmb.read", &self.reads);
        registry.register_counter("tee.rpmb.write", &self.writes);
    }

    /// One-time key programming. Fails if already programmed.
    pub fn program_key(&mut self, key: [u8; 32]) -> Result<()> {
        if self.key.is_some() {
            return Err(TeeError::RpmbViolation("authentication key already programmed"));
        }
        self.key = Some(key);
        Ok(())
    }

    /// Whether the authentication key has been programmed.
    pub(crate) fn is_programmed(&self) -> bool {
        self.key.is_some()
    }

    /// Current write counter (public, monotonic).
    fn write_counter(&self) -> u64 {
        self.write_counter
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn key(&self) -> Result<&[u8; 32]> {
        self.key.as_ref().ok_or(TeeError::RpmbViolation("key not programmed"))
    }

    /// Authenticated write: `mac = HMAC(key, addr ‖ counter ‖ data)` where
    /// `counter` must equal the current write counter.
    fn authenticated_write(
        &mut self,
        addr: usize,
        counter: u64,
        data: &[u8; RPMB_BLOCK],
        mac: &[u8; 32],
    ) -> Result<()> {
        if self.fault_plan.should_fire(FaultSite::RpmbWrite) {
            return Err(TeeError::RpmbBusy("injected RPMB write failure"));
        }
        let key = *self.key()?;
        if addr >= self.blocks.len() {
            return Err(TeeError::RpmbViolation("address out of range"));
        }
        if counter != self.write_counter {
            return Err(TeeError::RpmbViolation("stale write counter (replayed write?)"));
        }
        let expect = write_mac(&key, addr, counter, data);
        if !ironsafe_crypto::ct_eq(&expect, mac) {
            return Err(TeeError::RpmbViolation("bad write MAC"));
        }
        self.blocks[addr] = *data;
        self.write_counter += 1;
        self.writes.inc();
        Ok(())
    }

    /// Authenticated read: returns `(data, counter, mac)` where
    /// `mac = HMAC(key, addr ‖ counter ‖ nonce ‖ data)`.
    fn authenticated_read(
        &self,
        addr: usize,
        nonce: &[u8; 16],
    ) -> Result<([u8; RPMB_BLOCK], u64, [u8; 32])> {
        let key = *self.key()?;
        if addr >= self.blocks.len() {
            return Err(TeeError::RpmbViolation("address out of range"));
        }
        let data = self.blocks[addr];
        let mac = read_mac(&key, addr, self.write_counter, nonce, &data);
        self.reads.inc();
        Ok((data, self.write_counter, mac))
    }
}

/// MAC for a write request.
fn write_mac(key: &[u8; 32], addr: usize, counter: u64, data: &[u8; RPMB_BLOCK]) -> [u8; 32] {
    hmac_sha256_concat(
        key,
        &[b"rpmb-write", &(addr as u64).to_be_bytes(), &counter.to_be_bytes(), data],
    )
}

/// MAC for a read response.
fn read_mac(
    key: &[u8; 32],
    addr: usize,
    counter: u64,
    nonce: &[u8; 16],
    data: &[u8; RPMB_BLOCK],
) -> [u8; 32] {
    hmac_sha256_concat(
        key,
        &[b"rpmb-read", &(addr as u64).to_be_bytes(), &counter.to_be_bytes(), nonce, data],
    )
}

/// The authorized-agent side: wraps the key and drives the protocol,
/// verifying read responses. In IronSafe this lives inside the secure
/// world's storage TA.
#[derive(Debug, Clone)]
pub struct RpmbClient {
    key: [u8; 32],
}

impl RpmbClient {
    /// Build a client around the shared authentication key.
    pub fn new(key: [u8; 32]) -> Self {
        RpmbClient { key }
    }

    /// Write `data` at `addr`, driving the counter protocol.
    pub fn write(&self, rpmb: &mut Rpmb, addr: usize, data: &[u8; RPMB_BLOCK]) -> Result<()> {
        let counter = rpmb.write_counter();
        let mac = write_mac(&self.key, addr, counter, data);
        rpmb.authenticated_write(addr, counter, data, &mac)
    }

    /// Read the block at `addr`, verifying the response MAC against `nonce`.
    pub fn read(
        &self,
        rpmb: &Rpmb,
        addr: usize,
        nonce: &[u8; 16],
    ) -> Result<[u8; RPMB_BLOCK]> {
        let (data, counter, mac) = rpmb.authenticated_read(addr, nonce)?;
        let expect = read_mac(&self.key, addr, counter, nonce, &data);
        if !ironsafe_crypto::ct_eq(&expect, &mac) {
            return Err(TeeError::RpmbViolation("bad read MAC (forged response?)"));
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmed() -> (Rpmb, RpmbClient) {
        let mut rpmb = Rpmb::new(4);
        let key = [0x42; 32];
        rpmb.program_key(key).unwrap();
        (rpmb, RpmbClient::new(key))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut rpmb, client) = programmed();
        let data = [7u8; RPMB_BLOCK];
        client.write(&mut rpmb, 2, &data).unwrap();
        let got = client.read(&rpmb, 2, &[1; 16]).unwrap();
        assert_eq!(got, data);
        assert_eq!(rpmb.write_counter(), 1);
    }

    #[test]
    fn key_programming_is_write_once() {
        let mut rpmb = Rpmb::new(1);
        rpmb.program_key([1; 32]).unwrap();
        assert!(rpmb.program_key([2; 32]).is_err());
    }

    #[test]
    fn unprogrammed_part_refuses_io() {
        let rpmb = Rpmb::new(1);
        let client = RpmbClient::new([0; 32]);
        assert!(client.read(&rpmb, 0, &[0; 16]).is_err());
    }

    #[test]
    fn wrong_key_write_rejected() {
        let (mut rpmb, _) = programmed();
        let evil = RpmbClient::new([0xee; 32]);
        assert_eq!(
            evil.write(&mut rpmb, 0, &[0; RPMB_BLOCK]),
            Err(TeeError::RpmbViolation("bad write MAC"))
        );
        assert_eq!(rpmb.write_counter(), 0, "failed write must not bump counter");
    }

    #[test]
    fn replayed_write_rejected() {
        // Capture a valid write frame, apply it, then replay it: the counter
        // has moved on so the replay must fail.
        let (mut rpmb, client) = programmed();
        let data = [9u8; RPMB_BLOCK];
        let counter = rpmb.write_counter();
        let mac = write_mac(&[0x42; 32], 0, counter, &data);
        rpmb.authenticated_write(0, counter, &data, &mac).unwrap();
        client.write(&mut rpmb, 0, &[1u8; RPMB_BLOCK]).unwrap();
        assert_eq!(
            rpmb.authenticated_write(0, counter, &data, &mac),
            Err(TeeError::RpmbViolation("stale write counter (replayed write?)"))
        );
    }

    #[test]
    fn forged_read_response_detected() {
        // Simulate an attacker answering a read with stale data + stale MAC:
        // the fresh nonce in the MAC makes this detectable.
        let (mut rpmb, client) = programmed();
        client.write(&mut rpmb, 0, &[5u8; RPMB_BLOCK]).unwrap();
        let nonce_a = [0xaa; 16];
        let (data, counter, mac) = rpmb.authenticated_read(0, &nonce_a).unwrap();
        // Attacker replays (data, counter, mac) for a *different* nonce.
        let nonce_b = [0xbb; 16];
        let expect = read_mac(&[0x42; 32], 0, counter, &nonce_b, &data);
        assert!(!ironsafe_crypto::ct_eq(&expect, &mac), "replayed MAC must not verify under new nonce");
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut rpmb, client) = programmed();
        assert!(client.write(&mut rpmb, 99, &[0; RPMB_BLOCK]).is_err());
        assert!(client.read(&rpmb, 99, &[0; 16]).is_err());
    }

    #[test]
    fn counter_increments_once_per_successful_write() {
        let (mut rpmb, client) = programmed();
        for i in 0..5u8 {
            client.write(&mut rpmb, 0, &[i; RPMB_BLOCK]).unwrap();
        }
        assert_eq!(rpmb.write_counter(), 5);
    }
}
