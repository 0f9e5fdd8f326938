//! Simulated block device.
//!
//! Stands in for the paper's Samsung 970 EVO Plus NVMe drive. Blocks are
//! 4 KiB; reads and writes are counted so the CSA cost model can convert
//! them into simulated time. The device also exposes *raw* access — the
//! attacker's view of the untrusted medium — used by the security tests to
//! mount tampering, rollback and forking attacks.

use crate::{Result, StorageError};

/// Physical block size (matches the paper's 4 KiB data units).
pub const BLOCK_SIZE: usize = 4096;

/// I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Block reads served.
    pub reads: u64,
    /// Block writes served.
    pub writes: u64,
}

/// An in-memory block device.
#[derive(Clone)]
pub struct BlockDevice {
    blocks: Vec<Box<[u8; BLOCK_SIZE]>>,
    stats: DeviceStats,
}

impl std::fmt::Debug for BlockDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockDevice({} blocks, {:?})", self.blocks.len(), self.stats)
    }
}

impl BlockDevice {
    /// An empty device.
    pub fn new() -> Self {
        BlockDevice { blocks: Vec::new(), stats: DeviceStats::default() }
    }

    /// Number of allocated blocks.
    pub fn num_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Grow the device by one zeroed block, returning its index.
    pub fn append_block(&mut self) -> u64 {
        self.blocks.push(Box::new([0; BLOCK_SIZE]));
        self.blocks.len() as u64 - 1
    }

    /// Read block `idx` into `buf`.
    pub fn read_block(&mut self, idx: u64, buf: &mut [u8; BLOCK_SIZE]) -> Result<()> {
        let block = self.blocks.get(idx as usize).ok_or(StorageError::PageOutOfRange(idx))?;
        buf.copy_from_slice(&block[..]);
        self.stats.reads += 1;
        Ok(())
    }

    /// Write `buf` to block `idx`.
    pub fn write_block(&mut self, idx: u64, buf: &[u8; BLOCK_SIZE]) -> Result<()> {
        let block = self.blocks.get_mut(idx as usize).ok_or(StorageError::PageOutOfRange(idx))?;
        block.copy_from_slice(buf);
        self.stats.writes += 1;
        Ok(())
    }

    /// I/O counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Zero the counters.
    pub fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }

    // ------------------------------------------------------------------
    // Attacker interface: raw access to the untrusted medium. These do NOT
    // bump the I/O counters — the adversary works offline.
    // ------------------------------------------------------------------

    /// Attacker: flip bits in a block.
    pub fn raw_tamper(&mut self, idx: u64, offset: usize, xor: u8) {
        if let Some(b) = self.blocks.get_mut(idx as usize) {
            b[offset] ^= xor;
        }
    }

    /// Attacker: copy block `src` over block `dst` (displacement attack).
    pub fn raw_displace(&mut self, src: u64, dst: u64) {
        if src == dst {
            return;
        }
        let data = *self.blocks[src as usize].clone();
        self.blocks[dst as usize].copy_from_slice(&data);
    }

    /// Attacker: snapshot the full medium (for later rollback / forking).
    pub fn raw_snapshot(&self) -> Vec<Box<[u8; BLOCK_SIZE]>> {
        self.blocks.clone()
    }

    /// Attacker: restore a snapshot (rollback attack).
    pub fn raw_restore(&mut self, snapshot: Vec<Box<[u8; BLOCK_SIZE]>>) {
        self.blocks = snapshot;
    }

    /// Attacker: raw read without counters (inspection attack).
    pub fn raw_read(&self, idx: u64) -> Option<&[u8; BLOCK_SIZE]> {
        self.blocks.get(idx as usize).map(|b| &**b)
    }
}

impl Default for BlockDevice {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_write_roundtrip() {
        let mut dev = BlockDevice::new();
        let idx = dev.append_block();
        let mut data = [0u8; BLOCK_SIZE];
        data[0] = 0xaa;
        data[BLOCK_SIZE - 1] = 0xbb;
        dev.write_block(idx, &data).unwrap();
        let mut back = [0u8; BLOCK_SIZE];
        dev.read_block(idx, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(dev.stats(), DeviceStats { reads: 1, writes: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = BlockDevice::new();
        let mut buf = [0u8; BLOCK_SIZE];
        assert_eq!(dev.read_block(0, &mut buf), Err(StorageError::PageOutOfRange(0)));
        assert_eq!(dev.write_block(5, &buf), Err(StorageError::PageOutOfRange(5)));
    }

    #[test]
    fn raw_access_skips_counters() {
        let mut dev = BlockDevice::new();
        let idx = dev.append_block();
        dev.raw_tamper(idx, 0, 0xff);
        let _ = dev.raw_read(idx);
        assert_eq!(dev.stats(), DeviceStats::default());
    }

    #[test]
    fn snapshot_restore_rolls_back() {
        let mut dev = BlockDevice::new();
        let idx = dev.append_block();
        let mut v1 = [0u8; BLOCK_SIZE];
        v1[0] = 1;
        dev.write_block(idx, &v1).unwrap();
        let snap = dev.raw_snapshot();
        let mut v2 = [0u8; BLOCK_SIZE];
        v2[0] = 2;
        dev.write_block(idx, &v2).unwrap();
        dev.raw_restore(snap);
        assert_eq!(dev.raw_read(idx).unwrap()[0], 1);
    }

    #[test]
    fn displace_copies_between_blocks() {
        let mut dev = BlockDevice::new();
        let a = dev.append_block();
        let b = dev.append_block();
        let mut data = [0u8; BLOCK_SIZE];
        data[7] = 77;
        dev.write_block(a, &data).unwrap();
        dev.raw_displace(a, b);
        assert_eq!(dev.raw_read(b).unwrap()[7], 77);
    }
}
