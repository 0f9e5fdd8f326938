//! Incremental Merkle tree over page MACs.
//!
//! The paper builds an HMAC-based Merkle tree whose leaves are the per-page
//! MACs; the root (further MAC'd with a HUK-derived key) goes to the RPMB.
//! This implementation supports appends, in-place leaf updates, per-read
//! path verification, and a configurable arity (the binary-vs-wide trade
//! is one of the ablation benches).
//!
//! Two freshness fast paths cut the per-read verification cost without
//! weakening the trust chain:
//!
//! * [`MerkleTree::verify_batch`] verifies a whole batch of `(index, mac)`
//!   pairs in one shared-path climb: each touched sibling group is hashed
//!   **once per level** instead of once per leaf, collapsing `node_visits`
//!   from O(batch × depth × arity) to O(touched nodes).
//! * A [`VerifiedNodeCache`] remembers which nodes have already been
//!   authenticated against the current trusted root. The cache is keyed by
//!   a **root epoch** — bumped on every `append`/`update`, i.e. on every
//!   root change — and tagged with the exact root it was validated
//!   against, so a rolled-back or otherwise stale root can never be served
//!   from the cache: any mismatch bypasses it and forces a full climb.
//!
//! With the cache enabled, the per-epoch visit total is *order- and
//! batching-independent*: every read entry costs exactly one leaf-hash
//! visit, and every distinct touched sibling group costs `group + 1`
//! visits exactly once — which is what keeps serial and batched read
//! paths charging bit-identical [`PagerStats`](crate::pager::PagerStats)
//! deltas.

use ironsafe_crypto::hmac::HmacSha256;
use std::collections::HashSet;

/// A 32-byte node hash.
pub type NodeHash = [u8; 32];

/// Default verified-node cache capacity (nodes). Large enough that test
/// and benchmark workloads never evict; deployments size it against the
/// enclave memory budget via [`MerkleTree::set_cache_capacity`].
pub const DEFAULT_NODE_CACHE_CAPACITY: usize = 1 << 20;

/// Cumulative tallies of verified-node-cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCacheStats {
    /// Verification entries served entirely from the cache (leaf already
    /// authenticated against the current root: one leaf-hash visit, no
    /// interior climbing).
    pub hits: u64,
    /// Verification entries that had to hash at least part of their path.
    pub misses: u64,
    /// Authenticated nodes dropped by capacity eviction.
    pub evicts: u64,
}

/// Snapshot for rolling a failed (fault-injected, retried) operation's
/// cache insertions back out — see [`MerkleTree::cache_checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct CacheCheckpoint {
    journal_len: usize,
    generation: u64,
    stats: NodeCacheStats,
}

/// TEE-resident set of `(level, index)` node coordinates whose stored
/// hashes are known to chain to the tagged trusted root.
///
/// Validity is anchored twice: the set is cleared on every epoch bump
/// (any `append`/`update`, i.e. any root change), and every lookup first
/// checks that the caller's `expected_root` equals the tag the entries
/// were authenticated against — a verification against any *other* root
/// (stale, forked, rolled back) bypasses the cache entirely and climbs
/// the full path, so the cache can never mask a rollback.
#[derive(Clone, Debug, Default)]
struct VerifiedNodeCache {
    enabled: bool,
    nodes: HashSet<(u32, u64)>,
    /// The root every cached node was authenticated against.
    root: Option<NodeHash>,
    capacity: usize,
    /// Coordinates inserted since the last checkpoint/commit, for
    /// stats-atomic rollback of failed batch attempts.
    journal: Vec<(u32, u64)>,
    /// Bumped whenever the set is cleared wholesale (epoch bump or
    /// capacity eviction); lets a rollback detect that journal replay
    /// is no longer sufficient and fall back to a full clear.
    generation: u64,
    stats: NodeCacheStats,
}

impl VerifiedNodeCache {
    /// True when lookups/insertions against `expected_root` may use the
    /// cache: it must be enabled and either untagged (empty) or tagged
    /// with exactly that root.
    fn usable_for(&self, expected_root: &NodeHash) -> bool {
        self.enabled && (self.root.is_none() || self.root.as_ref() == Some(expected_root))
    }

    fn contains(&self, level: u32, index: u64) -> bool {
        self.nodes.contains(&(level, index))
    }

    /// Drop everything (epoch bump / root change).
    fn clear(&mut self) {
        self.nodes.clear();
        self.journal.clear();
        self.root = None;
        self.generation = self.generation.wrapping_add(1);
    }

    fn insert(&mut self, level: u32, index: u64) {
        if !self.enabled || self.nodes.contains(&(level, index)) {
            return;
        }
        if self.nodes.len() >= self.capacity.max(1) {
            // Deterministic wholesale eviction: cheaper to re-authenticate
            // a few paths than to track LRU order inside the enclave.
            self.stats.evicts += self.nodes.len() as u64;
            let root = self.root;
            self.clear();
            self.root = root;
        }
        self.nodes.insert((level, index));
        self.journal.push((level, index));
    }
}

/// Incremental Merkle tree.
#[derive(Clone)]
pub struct MerkleTree {
    /// HMAC-SHA256 pre-keyed with the tree key; cloned per node hash.
    mac: HmacSha256,
    arity: usize,
    /// `levels[0]` are the leaves; the last level has exactly one node.
    levels: Vec<Vec<NodeHash>>,
    /// Nodes visited by verify/update operations (cost-model input).
    node_visits: u64,
    /// Bumped on every structural change (append/update); tags cache
    /// validity.
    epoch: u64,
    cache: VerifiedNodeCache,
    scratch: VerifyScratch,
}

/// Working vectors of the verify paths, kept on the tree so steady-state
/// reads reuse their capacity instead of allocating per call.
#[derive(Clone, Default)]
struct VerifyScratch {
    /// Distinct unauthenticated node indices at the level being climbed.
    frontier: Vec<usize>,
    /// Their parents, the next level's frontier.
    next: Vec<usize>,
    /// `(level, start, end)` of every sibling group hashed this call.
    touched: Vec<(u32, usize, usize)>,
}

impl std::fmt::Debug for MerkleTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MerkleTree(leaves: {}, arity: {}, depth: {})", self.num_leaves(), self.arity, self.levels.len())
    }
}

impl MerkleTree {
    /// An empty tree keyed with `key`, with the given fan-out (≥ 2).
    pub fn new(key: [u8; 32], arity: usize) -> Self {
        assert!(arity >= 2, "Merkle arity must be at least 2");
        MerkleTree {
            mac: HmacSha256::new(&key),
            arity,
            levels: vec![Vec::new()],
            node_visits: 0,
            epoch: 0,
            cache: VerifiedNodeCache {
                enabled: false,
                capacity: DEFAULT_NODE_CACHE_CAPACITY,
                ..VerifiedNodeCache::default()
            },
            scratch: VerifyScratch::default(),
        }
    }

    /// Binary tree (the paper's configuration).
    pub fn binary(key: [u8; 32]) -> Self {
        Self::new(key, 2)
    }

    /// Leaf count.
    pub fn num_leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// Tree depth (number of levels).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Cumulative node visits (verifications + updates).
    pub fn node_visits(&self) -> u64 {
        self.node_visits
    }

    /// Zero the visit counter.
    pub fn reset_counters(&mut self) {
        self.node_visits = 0;
    }

    /// Restore the visit counter to an earlier snapshot — used by the
    /// secure pager to keep batch reads stats-atomic: a failed batch
    /// rolls its partial Merkle work back out of the counters.
    pub fn restore_node_visits(&mut self, snapshot: u64) {
        self.node_visits = snapshot;
    }

    /// Current root epoch: bumped on every `append`/`update` (every root
    /// change). The verified-node cache is only ever valid within one
    /// epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enable/disable the verified-node cache (disabled by default on a
    /// raw tree; the secure pager enables it). Disabling clears it.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.cache.clear();
        }
        self.cache.enabled = enabled;
    }

    /// True when the verified-node cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.enabled
    }

    /// Bound the verified-node cache to `capacity` nodes (≥ 1). Shrinking
    /// below the current population evicts everything (counted).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache.capacity = capacity.max(1);
        if self.cache.nodes.len() > self.cache.capacity {
            self.cache.stats.evicts += self.cache.nodes.len() as u64;
            let root = self.cache.root;
            self.cache.clear();
            self.cache.root = root;
        }
    }

    /// Number of currently cached (authenticated) nodes.
    pub fn cached_nodes(&self) -> usize {
        self.cache.nodes.len()
    }

    /// Cumulative cache hit/miss/evict tallies.
    pub fn cache_stats(&self) -> NodeCacheStats {
        self.cache.stats
    }

    /// Restore the cache tallies to an earlier snapshot (stats-atomic
    /// rollback of a failed attempt, alongside
    /// [`MerkleTree::restore_node_visits`]).
    pub fn restore_cache_stats(&mut self, snapshot: NodeCacheStats) {
        self.cache.stats = snapshot;
    }

    /// Begin a cache transaction: every insertion from here on is
    /// journaled until [`MerkleTree::cache_commit`] or
    /// [`MerkleTree::cache_rollback`].
    pub fn cache_checkpoint(&mut self) -> CacheCheckpoint {
        CacheCheckpoint {
            journal_len: self.cache.journal.len(),
            generation: self.cache.generation,
            stats: self.cache.stats,
        }
    }

    /// Keep every insertion made since the checkpoint and drop the
    /// journal (it is only needed to support rollback).
    pub fn cache_commit(&mut self) {
        self.cache.journal.clear();
    }

    /// Remove every node inserted since `checkpoint` and restore the
    /// tallies. If the cache was cleared wholesale in between (epoch
    /// bump or capacity eviction), the journal no longer describes the
    /// delta, so the whole cache is conservatively dropped — always
    /// safe: a smaller cache only costs extra node visits, never
    /// correctness.
    pub fn cache_rollback(&mut self, checkpoint: CacheCheckpoint) {
        if self.cache.generation != checkpoint.generation {
            self.cache.clear();
        } else {
            while self.cache.journal.len() > checkpoint.journal_len {
                let coord = self.cache.journal.pop().expect("journal non-empty");
                self.cache.nodes.remove(&coord);
            }
        }
        self.cache.stats = checkpoint.stats;
    }

    /// Epoch bump: any structural change invalidates every previously
    /// authenticated node.
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.cache.clear();
    }

    fn leaf_hash(&self, index: u64, page_mac: &[u8; 32]) -> NodeHash {
        let mut h = self.mac.clone();
        h.update(b"merkle-leaf");
        h.update(&index.to_be_bytes());
        h.update(page_mac);
        h.finalize()
    }

    fn node_hash<'a>(
        &self,
        level: usize,
        children: impl IntoIterator<Item = &'a NodeHash>,
    ) -> NodeHash {
        let mut h = self.mac.clone();
        h.update(b"merkle-node");
        h.update(&(level as u32).to_be_bytes());
        for c in children {
            h.update(c);
        }
        h.finalize()
    }

    /// Append a leaf for a new page; returns its index. Bumps the root
    /// epoch (clearing the verified-node cache).
    pub fn append(&mut self, page_mac: &[u8; 32]) -> u64 {
        self.bump_epoch();
        let index = self.levels[0].len() as u64;
        let leaf = self.leaf_hash(index, page_mac);
        self.levels[0].push(leaf);
        self.rebuild_path(index as usize);
        index
    }

    /// Update the leaf for an existing page after a page write. Bumps the
    /// root epoch (clearing the verified-node cache).
    pub fn update(&mut self, index: u64, page_mac: &[u8; 32]) {
        self.bump_epoch();
        let i = index as usize;
        assert!(i < self.levels[0].len(), "leaf index out of range");
        self.levels[0][i] = self.leaf_hash(index, page_mac);
        self.rebuild_path(i);
    }

    /// Recompute ancestors of leaf `i` (growing levels as needed) until the
    /// top level has a single node.
    fn rebuild_path(&mut self, mut i: usize) {
        let mut level = 0;
        while self.levels[level].len() > 1 {
            let cur_len = self.levels[level].len();
            let parent = i / self.arity;
            let start = parent * self.arity;
            let end = (start + self.arity).min(cur_len);
            let hash = self.node_hash(level, &self.levels[level][start..end]);
            self.node_visits += (end - start) as u64 + 1;
            if level + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let up = &mut self.levels[level + 1];
            if parent >= up.len() {
                debug_assert_eq!(parent, up.len(), "appends only extend by one parent");
                up.push(hash);
            } else {
                up[parent] = hash;
            }
            level += 1;
            i = parent;
        }
    }

    /// The root hash (`None` for an empty tree).
    pub fn root(&self) -> Option<NodeHash> {
        if self.num_leaves() == 0 {
            return None;
        }
        let top = self.levels.last().expect("at least one level");
        debug_assert_eq!(top.len(), 1);
        Some(top[0])
    }

    /// Mark the children of every hashed sibling group (and, when the
    /// climb reached it, the root) as authenticated against `root`. Only
    /// called after a successful verification: within one epoch the
    /// stored `levels` are internally consistent by construction, so
    /// every stored value that fed a hash chain ending at the trusted
    /// root is itself authentic.
    fn cache_populate(&mut self, touched: &[(u32, usize, usize)], root: &NodeHash, reached_top: bool) {
        self.cache.root = Some(*root);
        for &(level, start, end) in touched {
            for j in start..end {
                self.cache.insert(level, j as u64);
            }
        }
        if reached_top {
            self.cache.insert(self.levels.len() as u32 - 1, 0);
        }
    }

    /// Verify that `page_mac` is the authentic MAC for leaf `index` by
    /// recomputing the path to the root and comparing with `expected_root`.
    ///
    /// Counts the visited nodes — this is the per-read freshness check that
    /// dominates the paper's Figure 8/9c breakdowns. With the verified-node
    /// cache enabled *and* `expected_root` matching the cache's root tag,
    /// the climb stops at the first already-authenticated ancestor (a
    /// cached leaf costs exactly one leaf-hash visit); any other
    /// `expected_root` bypasses the cache and pays the full climb, so a
    /// stale or forked root is always re-checked from scratch.
    pub fn verify(&mut self, index: u64, page_mac: &[u8; 32], expected_root: &NodeHash) -> bool {
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.clear();
        let ok = self.verify_climb(index, page_mac, expected_root, &mut touched);
        self.scratch.touched = touched;
        ok
    }

    fn verify_climb(
        &mut self,
        index: u64,
        page_mac: &[u8; 32],
        expected_root: &NodeHash,
        touched: &mut Vec<(u32, usize, usize)>,
    ) -> bool {
        let i = index as usize;
        if i >= self.levels[0].len() {
            return false;
        }
        let mut hash = self.leaf_hash(index, page_mac);
        self.node_visits += 1;
        if self.levels[0][i] != hash {
            return false;
        }
        let use_cache = self.cache.usable_for(expected_root);
        if use_cache {
            if self.cache.contains(0, index) {
                self.cache.stats.hits += 1;
                return true;
            }
            self.cache.stats.misses += 1;
        }
        let mut idx = i;
        for level in 0..self.levels.len() - 1 {
            let cur = &self.levels[level];
            let parent = idx / self.arity;
            let start = parent * self.arity;
            let end = (start + self.arity).min(cur.len());
            // The sibling group as stored, with this path's child recomputed.
            let at = idx - start;
            let group = cur[start..end].iter().enumerate();
            hash = self.node_hash(level, group.map(|(j, c)| if j == at { &hash } else { c }));
            self.node_visits += (end - start) as u64 + 1;
            touched.push((level as u32, start, end));
            idx = parent;
            if use_cache && self.cache.contains(level as u32 + 1, parent as u64) {
                // The computed parent must equal the stored value that was
                // previously authenticated against the tagged root.
                if self.levels[level + 1][parent] != hash {
                    return false;
                }
                self.cache_populate(touched, expected_root, false);
                return true;
            }
        }
        let ok = ironsafe_crypto::ct_eq(&hash, expected_root);
        if ok && use_cache {
            self.cache_populate(touched, expected_root, true);
        }
        ok
    }

    /// Verify a whole batch of `(index, mac)` pairs against
    /// `expected_root` in one shared-path climb. Returns `true` iff every
    /// pair would pass [`MerkleTree::verify`].
    ///
    /// Cost model: every entry (duplicates included) charges exactly one
    /// leaf-hash visit; each *distinct* touched sibling group is then
    /// hashed once per level — `O(touched nodes)` instead of
    /// `O(batch × depth × arity)`. With the verified-node cache enabled
    /// the per-epoch total is identical to an equivalent sequence of
    /// single [`MerkleTree::verify`] calls in any order, which is what
    /// keeps batched and looped secure reads charging the same
    /// [`PagerStats`](crate::pager::PagerStats).
    pub fn verify_batch(
        &mut self,
        indices: &[u64],
        macs: &[[u8; 32]],
        expected_root: &NodeHash,
    ) -> bool {
        debug_assert_eq!(indices.len(), macs.len(), "one MAC per index");
        if indices.is_empty() {
            return true;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let ok = self.verify_batch_climb(indices, macs, expected_root, &mut scratch);
        self.scratch = scratch;
        ok
    }

    fn verify_batch_climb(
        &mut self,
        indices: &[u64],
        macs: &[[u8; 32]],
        expected_root: &NodeHash,
        scratch: &mut VerifyScratch,
    ) -> bool {
        // Leaf pass: one visit per entry, duplicates included (each entry
        // models one page read and its MAC recomputation).
        for (&index, mac) in indices.iter().zip(macs) {
            let i = index as usize;
            if i >= self.levels[0].len() {
                return false;
            }
            let h = self.leaf_hash(index, mac);
            self.node_visits += 1;
            if self.levels[0][i] != h {
                return false;
            }
        }
        let use_cache = self.cache.usable_for(expected_root);
        // Climb frontier: distinct leaves that are not already
        // authenticated against this root.
        let VerifyScratch { frontier, next, touched } = scratch;
        frontier.clear();
        frontier.extend(indices.iter().map(|&i| i as usize));
        frontier.sort_unstable();
        frontier.dedup();
        if use_cache {
            frontier.retain(|&i| !self.cache.contains(0, i as u64));
            // Classify hits and misses as the same entries verified one
            // at a time would: the first entry to touch an unauthenticated
            // sibling group misses (and its climb authenticates the whole
            // group), every other entry hits — so the cache counters, like
            // the visit count, do not depend on how reads were batched.
            let mut misses = 0u64;
            let mut last_group = None;
            for group in frontier.iter().map(|&i| i / self.arity) {
                misses += (last_group != Some(group)) as u64;
                last_group = Some(group);
            }
            self.cache.stats.misses += misses;
            self.cache.stats.hits += indices.len() as u64 - misses;
        }
        touched.clear();
        let mut level = 0usize;
        while !frontier.is_empty() && level + 1 < self.levels.len() {
            let cur_len = self.levels[level].len();
            next.clear();
            let mut k = 0;
            while k < frontier.len() {
                let parent = frontier[k] / self.arity;
                while k < frontier.len() && frontier[k] / self.arity == parent {
                    k += 1;
                }
                let start = parent * self.arity;
                let end = (start + self.arity).min(cur_len);
                // The frontier entries inside this group all equal their
                // stored values (leaf pass / induction), so hashing the
                // stored children is exactly the serial recomputation.
                let h = self.node_hash(level, &self.levels[level][start..end]);
                self.node_visits += (end - start) as u64 + 1;
                if self.levels[level + 1][parent] != h {
                    return false;
                }
                touched.push((level as u32, start, end));
                if !(use_cache && self.cache.contains(level as u32 + 1, parent as u64)) {
                    next.push(parent);
                }
            }
            std::mem::swap(frontier, next);
            level += 1;
        }
        if !frontier.is_empty() {
            // Reached the top level: the (chained) stored root must match.
            debug_assert_eq!(*frontier, [0]);
            let top = self.levels[level][0];
            if !ironsafe_crypto::ct_eq(&top, expected_root) {
                return false;
            }
        }
        if use_cache {
            // A non-empty frontier means the climb reached the top level
            // and the stored root was compared against `expected_root`.
            let reached_top = !frontier.is_empty();
            self.cache_populate(touched, expected_root, reached_top);
        }
        true
    }

    /// Rebuild the whole tree from a list of page MACs (used when loading a
    /// database from the untrusted medium).
    pub fn rebuild_from_macs(key: [u8; 32], arity: usize, macs: &[[u8; 32]]) -> Self {
        let mut t = Self::new(key, arity);
        if macs.is_empty() {
            return t;
        }
        t.levels[0] = macs
            .iter()
            .enumerate()
            .map(|(i, m)| t.leaf_hash(i as u64, m))
            .collect();
        let mut level = 0;
        while t.levels[level].len() > 1 {
            let cur_len = t.levels[level].len();
            let mut up = Vec::with_capacity(cur_len.div_ceil(t.arity));
            for chunk_start in (0..cur_len).step_by(t.arity) {
                let end = (chunk_start + t.arity).min(cur_len);
                let h = t.node_hash(level, &t.levels[level][chunk_start..end]);
                up.push(h);
            }
            t.levels.push(up);
            level += 1;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u8) -> [u8; 32] {
        [i; 32]
    }

    #[test]
    fn empty_tree_has_no_root() {
        let t = MerkleTree::binary([0; 32]);
        assert_eq!(t.root(), None);
    }

    #[test]
    fn single_leaf_root_changes_with_leaf() {
        let mut t = MerkleTree::binary([0; 32]);
        t.append(&mac(1));
        let r1 = t.root().unwrap();
        t.update(0, &mac(2));
        assert_ne!(t.root().unwrap(), r1);
    }

    #[test]
    fn append_matches_rebuild() {
        for n in 1..40usize {
            let macs: Vec<[u8; 32]> = (0..n).map(|i| mac(i as u8)).collect();
            let mut inc = MerkleTree::binary([7; 32]);
            for m in &macs {
                inc.append(m);
            }
            let bulk = MerkleTree::rebuild_from_macs([7; 32], 2, &macs);
            assert_eq!(inc.root(), bulk.root(), "n = {n}");
        }
    }

    #[test]
    fn append_matches_rebuild_wide_arity() {
        for arity in [3usize, 4, 8, 16] {
            let macs: Vec<[u8; 32]> = (0..33).map(|i| mac(i as u8)).collect();
            let mut inc = MerkleTree::new([7; 32], arity);
            for m in &macs {
                inc.append(m);
            }
            let bulk = MerkleTree::rebuild_from_macs([7; 32], arity, &macs);
            assert_eq!(inc.root(), bulk.root(), "arity = {arity}");
        }
    }

    #[test]
    fn verify_accepts_genuine_leaves() {
        let macs: Vec<[u8; 32]> = (0..17).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        for (i, m) in macs.iter().enumerate() {
            assert!(t.verify(i as u64, m, &root), "leaf {i}");
        }
    }

    #[test]
    fn verify_rejects_wrong_mac() {
        let macs: Vec<[u8; 32]> = (0..8).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        assert!(!t.verify(3, &mac(99), &root));
    }

    #[test]
    fn verify_rejects_displaced_leaf() {
        // The MAC of leaf 2 presented at index 5 must fail.
        let macs: Vec<[u8; 32]> = (0..8).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        assert!(!t.verify(5, &mac(2), &root));
    }

    #[test]
    fn verify_rejects_stale_root() {
        let mut t = MerkleTree::binary([1; 32]);
        t.append(&mac(1));
        t.append(&mac(2));
        let old_root = t.root().unwrap();
        t.update(0, &mac(3));
        assert!(!t.verify(0, &mac(3), &old_root), "rollback detected");
        let new_root = t.root().unwrap();
        assert!(t.verify(0, &mac(3), &new_root));
    }

    #[test]
    fn update_only_affects_root_not_siblings() {
        let macs: Vec<[u8; 32]> = (0..16).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        t.update(7, &mac(70));
        let root = t.root().unwrap();
        for (i, m) in macs.iter().enumerate() {
            if i == 7 {
                assert!(t.verify(7, &mac(70), &root));
            } else {
                assert!(t.verify(i as u64, m, &root), "sibling {i} still valid");
            }
        }
    }

    #[test]
    fn different_keys_different_roots() {
        let macs: Vec<[u8; 32]> = (0..4).map(|i| mac(i as u8)).collect();
        let a = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let b = MerkleTree::rebuild_from_macs([2; 32], 2, &macs);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn node_visits_accumulate() {
        let macs: Vec<[u8; 32]> = (0..64).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        t.reset_counters();
        let root = t.root().unwrap();
        t.verify(0, &mac(0), &root);
        let binary_visits = t.node_visits();
        assert!(binary_visits > 6, "binary tree over 64 leaves is 6 levels deep");

        let mut wide = MerkleTree::rebuild_from_macs([1; 32], 16, &macs);
        wide.reset_counters();
        let wroot = wide.root().unwrap();
        wide.verify(0, &mac(0), &wroot);
        assert!(wide.depth() < t.depth(), "wide tree is shallower");
    }

    #[test]
    fn verify_batch_accepts_genuine_leaves_with_fewer_visits() {
        for arity in [2usize, 4, 8] {
            let macs: Vec<[u8; 32]> = (0..64).map(|i| mac(i as u8)).collect();
            let mut serial = MerkleTree::rebuild_from_macs([1; 32], arity, &macs);
            let mut batch = serial.clone();
            let root = serial.root().unwrap();
            serial.reset_counters();
            batch.reset_counters();
            for (i, m) in macs.iter().enumerate() {
                assert!(serial.verify(i as u64, m, &root));
            }
            let ids: Vec<u64> = (0..macs.len() as u64).collect();
            assert!(batch.verify_batch(&ids, &macs, &root), "arity {arity}");
            assert!(
                batch.node_visits() * 3 <= serial.node_visits(),
                "arity {arity}: shared-path batch {} vs per-leaf {}",
                batch.node_visits(),
                serial.node_visits()
            );
        }
    }

    #[test]
    fn verify_batch_rejects_single_corrupted_mac() {
        let macs: Vec<[u8; 32]> = (0..32).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        let ids: Vec<u64> = (0..32).collect();
        let mut bad = macs.clone();
        bad[13] = mac(200);
        assert!(!t.verify_batch(&ids, &bad, &root));
        assert!(t.verify_batch(&ids, &macs, &root), "pristine batch still accepted");
    }

    #[test]
    fn verify_batch_rejects_out_of_range_and_stale_root() {
        let macs: Vec<[u8; 32]> = (0..8).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        assert!(!t.verify_batch(&[3, 99], &[mac(3), mac(99)], &root));
        let old_root = root;
        t.update(0, &mac(77));
        let ids: Vec<u64> = (0..8).collect();
        let mut cur = macs.clone();
        cur[0] = mac(77);
        assert!(!t.verify_batch(&ids, &cur, &old_root), "rollback rejected");
        assert!(t.verify_batch(&ids, &cur, &t.root().unwrap()));
    }

    #[test]
    fn verify_batch_handles_duplicates_and_empty() {
        let macs: Vec<[u8; 32]> = (0..8).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        assert!(t.verify_batch(&[], &[], &root));
        t.reset_counters();
        assert!(t.verify_batch(&[5, 5, 5], &[mac(5), mac(5), mac(5)], &root));
        // Three leaf visits, but the shared climb happens once.
        let mut single = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        single.reset_counters();
        assert!(single.verify(5, &mac(5), &root));
        assert_eq!(t.node_visits(), single.node_visits() + 2);
    }

    #[test]
    fn cached_visit_totals_are_order_and_batch_independent() {
        // With the cache on, any mix of single/batch verifies of the same
        // multiset of leaves charges the same per-epoch node_visits total.
        for arity in [2usize, 3, 4, 16] {
            let macs: Vec<[u8; 32]> = (0..23).map(|i| mac(i as u8)).collect();
            let mut base = MerkleTree::rebuild_from_macs([1; 32], arity, &macs);
            base.set_cache_enabled(true);
            let root = base.root().unwrap();
            let ids: Vec<u64> = (0..macs.len() as u64).collect();

            let mut asc = base.clone();
            for (i, m) in macs.iter().enumerate() {
                assert!(asc.verify(i as u64, m, &root));
            }
            let mut desc = base.clone();
            for (i, m) in macs.iter().enumerate().rev() {
                assert!(desc.verify(i as u64, m, &root));
            }
            let mut batched = base.clone();
            assert!(batched.verify_batch(&ids, &macs, &root));
            let mut mixed = base.clone();
            assert!(mixed.verify_batch(&ids[..7], &macs[..7], &root));
            for (i, m) in macs.iter().enumerate().skip(7) {
                assert!(mixed.verify(i as u64, m, &root));
            }
            assert_eq!(asc.node_visits(), desc.node_visits(), "arity {arity}");
            assert_eq!(asc.node_visits(), batched.node_visits(), "arity {arity}");
            assert_eq!(asc.node_visits(), mixed.node_visits(), "arity {arity}");
        }
    }

    #[test]
    fn cache_hits_skip_the_climb_and_are_counted() {
        let macs: Vec<[u8; 32]> = (0..64).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        t.set_cache_enabled(true);
        let root = t.root().unwrap();
        let ids: Vec<u64> = (0..64).collect();
        assert!(t.verify_batch(&ids, &macs, &root));
        let warm_visits = t.node_visits();
        // Classified as 64 single verifies would be: the first leaf of
        // each sibling pair misses, its sibling rides the same climb.
        assert_eq!(t.cache_stats().misses, 32);
        assert_eq!(t.cache_stats().hits, 32);
        // Second pass: every leaf is authenticated — one visit each.
        assert!(t.verify_batch(&ids, &macs, &root));
        assert_eq!(t.node_visits(), warm_visits + 64);
        assert_eq!(t.cache_stats().hits, 32 + 64);
        // Single reads hit too.
        assert!(t.verify(17, &mac(17), &root));
        assert_eq!(t.node_visits(), warm_visits + 65);
        assert_eq!(t.cache_stats().hits, 32 + 65);
        assert_eq!(t.cache_stats().misses, 32);
    }

    #[test]
    fn cache_counters_do_not_depend_on_batching() {
        // Cold, half-warm and shuffled: a batch classifies hits and
        // misses exactly as the same entries verified one at a time.
        for arity in [2usize, 4, 16] {
            let macs: Vec<[u8; 32]> = (0..100).map(|i| mac(i as u8)).collect();
            let ids: Vec<u64> = (0..100u64).map(|i| (i * 37) % 100).chain([5, 5, 99]).collect();
            let picked: Vec<[u8; 32]> = ids.iter().map(|&i| macs[i as usize]).collect();
            let fresh = || {
                let mut t = MerkleTree::rebuild_from_macs([1; 32], arity, &macs);
                t.set_cache_enabled(true);
                let root = t.root().unwrap();
                // Warm a few groups first so the batch meets a mixed cache.
                assert!(t.verify(3, &macs[3], &root) && t.verify(64, &macs[64], &root));
                (t, root)
            };
            let (mut looped, root) = fresh();
            for (&i, m) in ids.iter().zip(&picked) {
                assert!(looped.verify(i, m, &root));
            }
            let (mut batched, root) = fresh();
            for (chunk, chunk_macs) in ids.chunks(16).zip(picked.chunks(16)) {
                assert!(batched.verify_batch(chunk, chunk_macs, &root));
            }
            let (l, b) = (looped.cache_stats(), batched.cache_stats());
            assert_eq!((l.hits, l.misses), (b.hits, b.misses), "arity {arity}");
            assert_eq!(looped.node_visits(), batched.node_visits(), "arity {arity}");
        }
    }

    #[test]
    fn warm_cache_never_masks_corruption_or_rollback() {
        let macs: Vec<[u8; 32]> = (0..16).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        t.set_cache_enabled(true);
        let root = t.root().unwrap();
        let ids: Vec<u64> = (0..16).collect();
        assert!(t.verify_batch(&ids, &macs, &root));
        // Wrong MAC with a warm cache: the leaf-hash compare still runs.
        assert!(!t.verify(3, &mac(99), &root));
        let mut bad = macs.clone();
        bad[3] = mac(99);
        assert!(!t.verify_batch(&ids, &bad, &root));
        // Stale root with a warm cache: the root tag mismatches, the cache
        // is bypassed, and the full climb rejects.
        let old_root = root;
        t.update(3, &mac(123));
        assert_eq!(t.cached_nodes(), 0, "epoch bump cleared the cache");
        assert!(!t.verify(0, &mac(0), &old_root));
        assert!(!t.verify_batch(&[0, 1], &[mac(0), mac(1)], &old_root));
        let new_root = t.root().unwrap();
        assert!(t.verify(0, &mac(0), &new_root));
        // Re-warm against the new root, then present the old root again:
        // still rejected even though interior nodes are cached.
        let mut cur = macs.clone();
        cur[3] = mac(123);
        assert!(t.verify_batch(&ids, &cur, &new_root));
        assert!(!t.verify(0, &mac(0), &old_root), "cached nodes are tagged to the new root");
    }

    #[test]
    fn epoch_bumps_on_append_and_update() {
        let mut t = MerkleTree::binary([1; 32]);
        let e0 = t.epoch();
        t.append(&mac(1));
        assert_eq!(t.epoch(), e0 + 1);
        t.update(0, &mac(2));
        assert_eq!(t.epoch(), e0 + 2);
    }

    #[test]
    fn tiny_capacity_evicts_wholesale_and_counts() {
        let macs: Vec<[u8; 32]> = (0..64).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        t.set_cache_enabled(true);
        t.set_cache_capacity(4);
        let root = t.root().unwrap();
        for (i, m) in macs.iter().enumerate() {
            assert!(t.verify(i as u64, m, &root), "eviction never breaks verification");
        }
        assert!(t.cache_stats().evicts > 0, "capacity 4 must evict on a 64-leaf scan");
        assert!(t.cached_nodes() <= 4 + 1, "population bounded near capacity");
        // Shrinking below population also evicts (counted).
        t.set_cache_capacity(1);
        assert!(t.cached_nodes() <= 1);
    }

    #[test]
    fn cache_checkpoint_rollback_discards_attempt_insertions() {
        let macs: Vec<[u8; 32]> = (0..16).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        t.set_cache_enabled(true);
        let root = t.root().unwrap();
        assert!(t.verify(0, &mac(0), &root));
        t.cache_commit();
        let committed = t.cached_nodes();
        let stats_before = t.cache_stats();

        let cp = t.cache_checkpoint();
        assert!(t.verify_batch(&[8, 9, 10], &[mac(8), mac(9), mac(10)], &root));
        assert!(t.cached_nodes() > committed);
        t.cache_rollback(cp);
        assert_eq!(t.cached_nodes(), committed, "attempt insertions rolled back");
        assert_eq!(t.cache_stats(), stats_before, "tallies restored");
        // The rolled-back leaves verify again from scratch (miss, not hit).
        let visits = t.node_visits();
        assert!(t.verify(8, &mac(8), &root));
        assert!(t.node_visits() > visits + 1, "leaf 8 is no longer cached");

        // A wholesale clear between checkpoint and rollback falls back to
        // dropping everything (generation mismatch).
        let cp = t.cache_checkpoint();
        t.update(0, &mac(55));
        let root2 = t.root().unwrap();
        assert!(t.verify(1, &mac(1), &root2));
        t.cache_rollback(cp);
        assert_eq!(t.cached_nodes(), 0, "generation changed: conservative full clear");
        assert!(t.verify(1, &mac(1), &root2), "correctness unaffected");
    }

    #[test]
    fn disabled_cache_leaves_counters_untouched() {
        let macs: Vec<[u8; 32]> = (0..8).map(|i| mac(i as u8)).collect();
        let mut t = MerkleTree::rebuild_from_macs([1; 32], 2, &macs);
        let root = t.root().unwrap();
        let ids: Vec<u64> = (0..8).collect();
        assert!(t.verify_batch(&ids, &macs, &root));
        assert!(t.verify(0, &mac(0), &root));
        assert_eq!(t.cache_stats(), NodeCacheStats::default());
        assert_eq!(t.cached_nodes(), 0);
    }

    #[test]
    fn single_leaf_tree_caches_consistently() {
        let mut t = MerkleTree::binary([1; 32]);
        t.append(&mac(1));
        t.set_cache_enabled(true);
        let root = t.root().unwrap();
        assert!(t.verify_batch(&[0], &[mac(1)], &root));
        assert_eq!(t.cache_stats().misses, 1);
        assert!(t.verify(0, &mac(1), &root));
        assert_eq!(t.cache_stats().hits, 1, "batch warm-up serves the single read");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn incremental_equals_bulk(
                macs in proptest::collection::vec(any::<[u8; 32]>(), 1..100),
                arity in 2usize..8,
            ) {
                let mut inc = MerkleTree::new([9; 32], arity);
                for m in &macs {
                    inc.append(m);
                }
                let bulk = MerkleTree::rebuild_from_macs([9; 32], arity, &macs);
                prop_assert_eq!(inc.root(), bulk.root());
            }

            #[test]
            fn all_leaves_verify_after_random_updates(
                mut macs in proptest::collection::vec(any::<[u8; 32]>(), 2..50),
                updates in proptest::collection::vec((any::<usize>(), any::<[u8; 32]>()), 0..20),
            ) {
                let mut t = MerkleTree::rebuild_from_macs([3; 32], 2, &macs);
                for (idx, m) in updates {
                    let i = idx % macs.len();
                    macs[i] = m;
                    t.update(i as u64, &m);
                }
                let root = t.root().unwrap();
                for (i, m) in macs.iter().enumerate() {
                    prop_assert!(t.verify(i as u64, m, &root));
                }
            }

            /// `verify_batch` accepts exactly the (index, mac) sets a
            /// sequence of single `verify` calls accepts — including
            /// corrupted MACs, displaced leaves, and duplicates, with and
            /// without the cache.
            #[test]
            fn batch_accepts_iff_singles_accept(
                macs in proptest::collection::vec(any::<[u8; 32]>(), 1..40),
                arity in 2usize..6,
                picks in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..20),
                cache_on in any::<bool>(),
            ) {
                let n = macs.len();
                let mut base = MerkleTree::rebuild_from_macs([5; 32], arity, &macs);
                base.set_cache_enabled(cache_on);
                let root = base.root().unwrap();
                // Build a batch that mixes genuine and corrupted entries.
                let mut ids = Vec::new();
                let mut presented = Vec::new();
                for (raw, twist) in picks {
                    let i = raw % n;
                    ids.push(i as u64);
                    let mut m = macs[i];
                    if twist % 4 == 0 {
                        m[0] ^= twist | 1; // corrupted MAC
                    }
                    presented.push(m);
                }
                let mut singles = base.clone();
                let all_pass = ids
                    .iter()
                    .zip(&presented)
                    .all(|(&i, m)| singles.verify(i, m, &root));
                let mut batch = base.clone();
                prop_assert_eq!(batch.verify_batch(&ids, &presented, &root), all_pass);
            }

            /// One corrupted MAC anywhere in an otherwise-valid batch is
            /// rejected, warm cache or cold.
            #[test]
            fn batch_rejects_any_single_corruption(
                macs in proptest::collection::vec(any::<[u8; 32]>(), 2..40),
                arity in 2usize..6,
                victim in any::<usize>(),
                bit in 0usize..256,
                warm in any::<bool>(),
            ) {
                let n = macs.len();
                let mut t = MerkleTree::rebuild_from_macs([5; 32], arity, &macs);
                t.set_cache_enabled(true);
                let root = t.root().unwrap();
                let ids: Vec<u64> = (0..n as u64).collect();
                if warm {
                    prop_assert!(t.verify_batch(&ids, &macs, &root));
                }
                let mut bad = macs.clone();
                bad[victim % n][bit / 8] ^= 1 << (bit % 8);
                prop_assert!(!t.verify_batch(&ids, &bad, &root));
                prop_assert!(t.verify_batch(&ids, &macs, &root));
            }

            /// Interleaved updates bump the epoch: cached verification
            /// stays correct — current (index, mac, root) triples verify,
            /// every pre-update root is rejected even with a warm cache.
            #[test]
            fn cached_verification_invariant_under_interleaved_updates(
                mut macs in proptest::collection::vec(any::<[u8; 32]>(), 2..30),
                arity in 2usize..5,
                steps in proptest::collection::vec((any::<usize>(), any::<[u8; 32]>(), any::<bool>()), 1..15),
            ) {
                let n = macs.len();
                let mut t = MerkleTree::rebuild_from_macs([5; 32], arity, &macs);
                t.set_cache_enabled(true);
                let mut stale_roots = Vec::new();
                for (raw, m, batch) in steps {
                    let root = t.root().unwrap();
                    let ids: Vec<u64> = (0..n as u64).collect();
                    // Warm the cache against the current root.
                    if batch {
                        prop_assert!(t.verify_batch(&ids, &macs, &root));
                    } else {
                        for (i, mm) in macs.iter().enumerate() {
                            prop_assert!(t.verify(i as u64, mm, &root));
                        }
                    }
                    stale_roots.push(root);
                    let i = raw % n;
                    macs[i] = m;
                    t.update(i as u64, &m);
                    prop_assert_eq!(t.cached_nodes(), 0, "epoch bump cleared the cache");
                    let new_root = t.root().unwrap();
                    // Forced re-verify against the new root succeeds…
                    for (j, mm) in macs.iter().enumerate() {
                        prop_assert!(t.verify(j as u64, mm, &new_root));
                    }
                    // …and every historical root is rejected, warm cache
                    // notwithstanding.
                    for old in &stale_roots {
                        if old != &new_root {
                            prop_assert!(!t.verify(0, &macs[0], old));
                            prop_assert!(!t.verify_batch(&ids, &macs, old));
                        }
                    }
                }
            }
        }
    }
}
