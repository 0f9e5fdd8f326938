//! Analytic cost model.
//!
//! All experiment figures report *simulated nanoseconds*: deterministic
//! functions of operation counts measured while queries actually execute.
//! The default parameters approximate the paper's testbed; every
//! experiment harness that sweeps a resource (cores, memory, EPC size)
//! does so by changing one parameter here.
//!
//! This module is also the only place that decides *which* terms a run
//! pays, from which counters, and in which span order: callers hand
//! `charge_run` (or `price`) the [`Work`] they counted and the
//! [`Run`] it was counted under.

use ironsafe_obs::Span;
use ironsafe_sql::ast::{SelectItem, SelectStmt};
use ironsafe_storage::{PagerStats, BLOCK_SIZE};

/// Cost-model parameters.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Host CPU time to process one row through one operator.
    pub host_row_ns: f64,
    /// Storage CPU slowdown relative to the host (A72 vs i9).
    pub storage_cpu_factor: f64,
    /// Cores available on the storage server (Figure 10 sweep).
    pub storage_cores: u32,
    /// Maximum useful scan parallelism on the storage side.
    pub storage_max_parallel: u32,
    /// Memory available to the storage-side application in bytes
    /// (Figure 11 sweep). Intermediates beyond it pay a thrash penalty.
    pub storage_mem_bytes: u64,
    /// NVMe page (4 KiB) read cost.
    pub device_read_ns_per_page: f64,
    /// Per-message network latency (TLS record + TCP round trip share).
    pub net_latency_ns: u64,
    /// Per-byte network cost (the paper measures 850 MB/s single-stream).
    pub net_ns_per_byte: f64,
    /// Enclave transition (ECALL/OCALL) cost.
    pub enclave_transition_ns: u64,
    /// EPC page-fault (eviction + reload + re-encrypt) cost.
    pub epc_fault_ns: u64,
    /// AES-CBC decrypt of one 4 KiB page.
    pub decrypt_ns_per_page: u64,
    /// AES-CBC encrypt of one 4 KiB page.
    pub encrypt_ns_per_page: u64,
    /// One HMAC node evaluation in the Merkle tree.
    pub merkle_node_ns: u64,
    /// One RPMB authenticated read/write.
    pub rpmb_op_ns: u64,
    /// EPC bytes usable by one enclave.
    pub epc_limit_bytes: usize,
    /// Fixed per-session cost of channel setup + storage CS service
    /// instantiation (the paper's "other").
    pub session_setup_ns: u64,
    /// Per-fragment cost of instantiating the storage-side CS service
    /// (query shipping, statement preparation on the storage engine).
    pub fragment_setup_ns: u64,
    /// Storage-side cost to serialize one shipped row.
    pub serialize_row_ns: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            host_row_ns: 180.0,
            storage_cpu_factor: 3.2,
            storage_cores: 16,
            storage_max_parallel: 8,
            storage_mem_bytes: 2 * 1024 * 1024 * 1024,
            device_read_ns_per_page: 1_230.0, // ≈3.3 GB/s sequential
            net_latency_ns: 40_000,
            net_ns_per_byte: 1.18, // ≈850 MB/s single stream
            enclave_transition_ns: 8_000,
            epc_fault_ns: 14_000,
            decrypt_ns_per_page: 3_000,
            encrypt_ns_per_page: 3_000,
            merkle_node_ns: 650,
            rpmb_op_ns: 120_000,
            epc_limit_bytes: 96 * 1024 * 1024,
            session_setup_ns: 250_000,
            fragment_setup_ns: 400_000,
            serialize_row_ns: 600,
        }
    }
}

impl CostParams {
    /// Effective storage scan parallelism.
    pub(crate) fn storage_parallel(&self) -> f64 {
        self.storage_cores.min(self.storage_max_parallel).max(1) as f64
    }

    /// Storage CPU time for `rows` through `ops` operators, across cores.
    pub(crate) fn storage_compute_ns(&self, rows: u64, ops: u64) -> f64 {
        rows as f64 * ops as f64 * self.host_row_ns * self.storage_cpu_factor / self.storage_parallel()
    }

    /// Host CPU time for `rows` through `ops` operators (single stream —
    /// the paper's host engine processes one query at a time).
    pub(crate) fn host_compute_ns(&self, rows: u64, ops: u64) -> f64 {
        rows as f64 * ops as f64 * self.host_row_ns
    }

    /// Network time for one transfer of `bytes`.
    pub(crate) fn net_ns(&self, bytes: u64, messages: u64) -> f64 {
        bytes as f64 * self.net_ns_per_byte + (messages * self.net_latency_ns) as f64
    }

    /// Thrash penalty multiplier when the storage-side working set
    /// exceeds the available memory (Figure 11): linear in the overflow.
    pub(crate) fn storage_mem_penalty(&self, working_set_bytes: u64) -> f64 {
        if working_set_bytes <= self.storage_mem_bytes {
            1.0
        } else {
            1.0 + (working_set_bytes - self.storage_mem_bytes) as f64 / self.storage_mem_bytes as f64
        }
    }
}

/// Price page-level counters: `(device, crypto, freshness)` ns. Runs
/// whose model differs from the raw pager delta (probe amplification,
/// the federation's canonical tree) adjust the *counters* first; the
/// arithmetic is always this one.
pub(crate) fn price_pages(s: &PagerStats, p: &CostParams) -> (f64, f64, f64) {
    (
        (s.page_reads + s.page_writes) as f64 * p.device_read_ns_per_page,
        (s.decrypts * p.decrypt_ns_per_page + s.encrypts * p.encrypt_ns_per_page) as f64,
        (s.merkle_nodes * p.merkle_node_ns + s.rpmb_ops * p.rpmb_op_ns) as f64,
    )
}

/// Under what arrangement work was counted: selects the terms paid and
/// their span order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// DML/DDL next to the data, or the group-commit flush that makes it
    /// durable (which also counts `wal_bytes`).
    Write,
    /// `sos`: the whole query on the storage node's weak CPU.
    StorageOnly,
    /// `hons`/`hos`: every page crosses the network; the host computes.
    HostOnly {
        /// `hos`: the host engine runs in an enclave over encrypted pages.
        secure: bool,
    },
    /// `vcs`/`scs`: fragments near the data, joins on the host.
    Split {
        /// `scs`: page crypto, freshness, enclave and channel terms.
        secure: bool,
        /// Set by a sharded run, which may charge conserved quantities
        /// only: heap pages of the whole data set packed on one node.
        /// Freshness then walks the depth of that single-node tree per
        /// read, plus one RPMB round per logical fragment.
        canonical_pages: Option<u64>,
    },
}

/// Counted work of one run. Callers fill what their [`Run`] produces
/// and leave the rest zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Pager-counter delta of the run.
    pub pages: PagerStats,
    /// Bytes appended to the write-ahead log (flush).
    pub wal_bytes: u64,
    /// Rows of multi-table stages: each join probe re-requests an inner
    /// page through the pager (whole-query runs).
    pub probe_requests: u64,
    /// Base-table heap pages — the Merkle leaf count (whole-query runs).
    pub db_pages: u64,
    /// Rows scanned near the data.
    pub storage_rows: u64,
    /// Operators those rows pass through near the data.
    pub storage_ops: u64,
    /// Rows the host engine processes.
    pub host_rows: u64,
    /// Operators those rows pass through on the host.
    pub host_ops: u64,
    /// Rows the storage side serialized for shipping.
    pub rows_serialized: u64,
    /// Storage-side fragment instantiations.
    pub fragments: u64,
    /// Bytes across the interconnect.
    pub bytes: u64,
    /// Interconnect messages (split runs: sealed records).
    pub messages: u64,
    /// Enclave transitions.
    pub transitions: u64,
    /// Simulated EPC faults (split runs).
    pub epc_faults: u64,
}

/// One priced cost term: its accounting span, Figure 8 category and
/// simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    /// Accounting span name.
    pub span: &'static str,
    /// One of [`CostBreakdown::CATEGORIES`].
    pub category: &'static str,
    /// Simulated nanoseconds.
    pub ns: f64,
}

/// NFS-style page fetches batch this many pages per round trip.
const PAGES_PER_FETCH: u64 = 64;

/// The price list: the ordered terms `run` pays for `w`.
pub(crate) fn price(run: Run, w: &Work, p: &CostParams) -> Vec<Term> {
    let term = |span, category, ns| Term { span, category, ns };
    let leaves = w.db_pages.max(2);
    // Merkle nodes on one root-to-leaf verification path.
    let path_nodes = 2 * leaves.ilog2() as u64 + 1;
    // Queries keep the temp tables they write in memory: only reads
    // touch the device.
    let reads_only = PagerStats { page_writes: 0, ..w.pages };
    let counters = match run {
        Run::Write => w.pages,
        // SQLite-style access amplification: every join probe
        // re-requests an inner page through the pager, and each request
        // pays decrypt + a full freshness path (the paper's Q2/Q9
        // "request pages ~200K / ~23M times").
        Run::StorageOnly | Run::HostOnly { .. } => PagerStats {
            decrypts: reads_only.decrypts + w.probe_requests,
            merkle_nodes: reads_only.merkle_nodes + w.probe_requests * path_nodes,
            ..reads_only
        },
        // No amplification here: the host side of scs joins in-memory
        // temp tables (no SQLCipher pager on that path).
        Run::Split { canonical_pages: None, .. } => reads_only,
        // Real per-shard trees are shallower, so this is conservative at
        // N > 1 — and identical at every N.
        Run::Split { canonical_pages: Some(n), .. } => PagerStats {
            // ⌈log₂ n⌉ levels.
            merkle_nodes: reads_only.page_reads * ((n.max(2) - 1).ilog2() as u64 + 1),
            rpmb_ops: w.fragments,
            ..reads_only
        },
    };
    let (device_ns, crypto_ns, freshness_ns) = price_pages(&counters, p);
    let device = term("storage/device_io", "ndp", device_ns);
    let crypto = term("crypto/pages", "crypto", crypto_ns);
    let freshness = term("freshness/verify", "freshness", freshness_ns);
    let host = term("host/compute", "ndp", p.host_compute_ns(w.host_rows, w.host_ops.max(1)));
    let transitions =
        term("tee/transitions", "transitions", (w.transitions * p.enclave_transition_ns) as f64);
    match run {
        Run::Write => {
            let wal = (w.wal_bytes as f64 / BLOCK_SIZE as f64) * p.device_read_ns_per_page;
            vec![term(device.span, "ndp", device_ns + wal), crypto, freshness]
        }
        Run::StorageOnly => {
            // One stream on the weak CPU: no scan lanes to divide by.
            let compute =
                p.host_compute_ns(w.storage_rows, w.storage_ops.max(1)) * p.storage_cpu_factor;
            vec![term("storage/compute", "ndp", compute), device, freshness, crypto]
        }
        Run::HostOnly { secure } => {
            let messages = w.pages.page_reads.div_ceil(PAGES_PER_FETCH).max(1);
            let mut terms =
                vec![host, device, term("net/page_fetch", "ndp", p.net_ns(w.bytes, messages))];
            if secure {
                // EPC paging: the in-enclave Merkle tree is the resident
                // working set (the paper's Figure 9a: 59/78/98 MiB at SF
                // 3/4/5 against 96 MiB of EPC). While the tree fits, path
                // verifications hit; once it overflows, the uncached
                // fraction of every path faults — the paging cliff.
                let tree_bytes = 2 * leaves * 32;
                let overflow = 1.0 - (p.epc_limit_bytes as f64 / tree_bytes as f64).min(1.0);
                let verifications = w.pages.page_reads + w.probe_requests;
                let paging =
                    verifications as f64 * path_nodes as f64 * overflow * p.epc_fault_ns as f64;
                let paging = term("tee/epc_paging", "epc", paging);
                terms.extend([crypto, freshness, transitions, paging]);
            }
            terms
        }
        Run::Split { secure, .. } => {
            // The storage-side application buffers the intermediates it
            // ships. Serializing shipped rows and instantiating the
            // per-fragment CS service are storage-side costs vanilla CS
            // also pays — this is why weakly-selective queries regress
            // under CS (paper Figure 6).
            let compute = p.storage_compute_ns(w.storage_rows, 1) * p.storage_mem_penalty(w.bytes);
            let serialize = w.rows_serialized as f64 * p.serialize_row_ns as f64
                * p.storage_cpu_factor
                / p.storage_parallel();
            let setup = w.fragments as f64 * p.fragment_setup_ns as f64;
            let mut terms = vec![
                term("storage/compute", "ndp", compute),
                term("storage/serialize", "ndp", serialize),
                term("storage/fragment_setup", "ndp", setup),
                host,
                device,
                term("net/ship_rows", "ndp", p.net_ns(w.bytes, w.messages.max(1))),
            ];
            if secure {
                let paging = w.epc_faults as f64 * p.epc_fault_ns as f64;
                let other = p.session_setup_ns as f64 + w.bytes as f64 * 0.05;
                terms.extend([
                    crypto,
                    freshness,
                    transitions,
                    term("tee/epc_paging", "epc", paging),
                    term("channel/other", "other", other),
                ]);
            }
            terms
        }
    }
}

/// Attribute one simulated cost term to a named accounting span.
///
/// Each term gets its own span so [`CostBreakdown::from_trace`] sums
/// category totals in span-creation order.
pub(crate) fn charge(span: &str, category: &'static str, ns: f64) {
    Span::enter(span).add_sim_ns(category, ns);
}

/// Charge every term of [`price`] to the active trace, in order.
pub(crate) fn charge_run(run: Run, w: &Work, p: &CostParams) {
    for t in price(run, w, p) {
        charge(t.span, t.category, t.ns);
    }
}

/// Operators a statement's rows pass through: scan + joins + aggregate +
/// sort.
pub(crate) fn complexity(stmt: &SelectStmt) -> u64 {
    let joins = stmt.from.len().saturating_sub(1) as u64;
    let has_agg = !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });
    let has_sort = !stmt.order_by.is_empty();
    1 + joins + has_agg as u64 + has_sort as u64
}

/// Simulated time, decomposed the way Figure 8 reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Near-data-processing work that vanilla CS would also pay: storage
    /// compute + device I/O + network + host compute.
    pub ndp_ns: f64,
    /// Freshness verification (Merkle traversals + RPMB).
    pub freshness_ns: f64,
    /// Page decryption/encryption.
    pub crypto_ns: f64,
    /// Enclave transitions.
    pub transitions_ns: f64,
    /// EPC paging.
    pub epc_ns: f64,
    /// Channel encryption, session setup, monitor round trips.
    pub other_ns: f64,
}

impl CostBreakdown {
    /// Total simulated time.
    pub fn total_ns(&self) -> f64 {
        self.ndp_ns + self.freshness_ns + self.crypto_ns + self.transitions_ns + self.epc_ns + self.other_ns
    }

    /// The span categories Figure 8 decomposes into, in struct order.
    pub const CATEGORIES: [&'static str; 6] =
        ["ndp", "freshness", "crypto", "transitions", "epc", "other"];

    /// Derive a breakdown from a telemetry trace: each span category in
    /// [`CostBreakdown::CATEGORIES`] sums into its field. Attributions
    /// are accumulated in span-creation order, so a run that attributes
    /// its cost terms in the same order as the old inline accumulation
    /// reproduces it bit-for-bit.
    pub fn from_trace(trace: &ironsafe_obs::TraceSnapshot) -> CostBreakdown {
        let mut b = CostBreakdown::default();
        for (category, ns) in trace.category_totals() {
            *b.field_mut(category) = ns;
        }
        b
    }

    fn field_mut(&mut self, category: &str) -> &mut f64 {
        match category {
            "ndp" => &mut self.ndp_ns,
            "freshness" => &mut self.freshness_ns,
            "crypto" => &mut self.crypto_ns,
            "transitions" => &mut self.transitions_ns,
            "epc" => &mut self.epc_ns,
            "other" => &mut self.other_ns,
            unknown => panic!("unknown cost category: {unknown}"),
        }
    }

    /// Fold priced terms in directly — for work priced after its
    /// statement's trace closed (the group-commit flush).
    pub(crate) fn add_terms(&mut self, terms: &[Term]) {
        for t in terms {
            *self.field_mut(t.category) += t.ns;
        }
    }

    /// Accumulate another breakdown.
    #[cfg(test)]
    pub(crate) fn add(&mut self, other: &CostBreakdown) {
        self.ndp_ns += other.ndp_ns;
        self.freshness_ns += other.freshness_ns;
        self.crypto_ns += other.crypto_ns;
        self.transitions_ns += other.transitions_ns;
        self.epc_ns += other.epc_ns;
        self.other_ns += other.other_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = CostParams::default();
        assert!(p.storage_cpu_factor > 1.0, "storage CPU is weaker");
        assert!(p.epc_fault_ns > p.enclave_transition_ns / 2);
        assert_eq!(p.storage_parallel(), 8.0, "16 cores capped at 8-way scans");
    }

    #[test]
    fn storage_compute_scales_down_with_cores() {
        let mut p = CostParams { storage_cores: 1, ..CostParams::default() };
        let one = p.storage_compute_ns(1000, 1);
        p.storage_cores = 8;
        let eight = p.storage_compute_ns(1000, 1);
        assert!((one / eight - 8.0).abs() < 1e-9);
        p.storage_cores = 16;
        let sixteen = p.storage_compute_ns(1000, 1);
        assert_eq!(eight, sixteen, "parallelism capped");
    }

    #[test]
    fn memory_penalty_kicks_in_past_capacity() {
        let p = CostParams { storage_mem_bytes: 1000, ..CostParams::default() };
        assert_eq!(p.storage_mem_penalty(500), 1.0);
        assert_eq!(p.storage_mem_penalty(1000), 1.0);
        assert_eq!(p.storage_mem_penalty(3000), 3.0);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = CostBreakdown {
            ndp_ns: 1.0,
            freshness_ns: 2.0,
            crypto_ns: 3.0,
            transitions_ns: 4.0,
            epc_ns: 5.0,
            other_ns: 6.0,
        };
        assert_eq!(b.total_ns(), 21.0);
        let mut acc = CostBreakdown::default();
        acc.add(&b);
        acc.add(&b);
        assert_eq!(acc.total_ns(), 42.0);
    }

    /// The exact ordered `(span, category)` list each run pays: span
    /// order is what keeps span-derived breakdowns bit-identical.
    #[test]
    fn price_list_is_pinned_per_run() {
        use crate::system::SystemConfig;
        const PAGES: [(&str, &str); 3] = [
            ("storage/device_io", "ndp"),
            ("crypto/pages", "crypto"),
            ("freshness/verify", "freshness"),
        ];
        const HOST_ONLY: [(&str, &str); 7] = [
            ("host/compute", "ndp"),
            ("storage/device_io", "ndp"),
            ("net/page_fetch", "ndp"),
            ("crypto/pages", "crypto"),
            ("freshness/verify", "freshness"),
            ("tee/transitions", "transitions"),
            ("tee/epc_paging", "epc"),
        ];
        const SPLIT: [(&str, &str); 11] = [
            ("storage/compute", "ndp"),
            ("storage/serialize", "ndp"),
            ("storage/fragment_setup", "ndp"),
            ("host/compute", "ndp"),
            ("storage/device_io", "ndp"),
            ("net/ship_rows", "ndp"),
            ("crypto/pages", "crypto"),
            ("freshness/verify", "freshness"),
            ("tee/transitions", "transitions"),
            ("tee/epc_paging", "epc"),
            ("channel/other", "other"),
        ];
        const STORAGE_ONLY: [(&str, &str); 4] = [
            ("storage/compute", "ndp"),
            ("storage/device_io", "ndp"),
            ("freshness/verify", "freshness"),
            ("crypto/pages", "crypto"),
        ];
        let listed = |run| -> Vec<(&str, &str)> {
            price(run, &Work::default(), &CostParams::default())
                .iter()
                .map(|t| (t.span, t.category))
                .collect()
        };
        assert_eq!(listed(SystemConfig::HostOnlyNonSecure.run()), HOST_ONLY[..3]);
        assert_eq!(listed(SystemConfig::HostOnlySecure.run()), HOST_ONLY);
        assert_eq!(listed(SystemConfig::VanillaCs.run()), SPLIT[..6]);
        assert_eq!(listed(SystemConfig::IronSafe.run()), SPLIT);
        assert_eq!(listed(SystemConfig::StorageOnlySecure.run()), STORAGE_ONLY);
        assert_eq!(listed(Run::Write), PAGES, "DML and the group-commit flush");
        let federated = |secure| Run::Split { secure, canonical_pages: Some(9) };
        assert_eq!(listed(federated(false)), SPLIT[..6]);
        assert_eq!(listed(federated(true)), SPLIT);
    }

    /// Runs that model more than the pager counted adjust the counters,
    /// never the arithmetic.
    #[test]
    fn adjusted_counters_go_through_the_one_formula() {
        let p = CostParams::default();
        let pages = PagerStats {
            page_reads: 10,
            page_writes: 4,
            decrypts: 10,
            merkle_nodes: 30,
            ..Default::default()
        };
        let priced =
            |run, w: &Work| -> Vec<f64> { price(run, w, &p).iter().map(|t| t.ns).collect() };
        let w = Work { pages, probe_requests: 5, db_pages: 8, fragments: 2, ..Work::default() };
        // sos: 5 probes x (1 decrypt + a 7-node path over 8 leaves); writes free.
        let amplified = PagerStats { page_writes: 0, decrypts: 15, merkle_nodes: 65, ..pages };
        let (device, crypto, freshness) = price_pages(&amplified, &p);
        assert_eq!(priced(Run::StorageOnly, &w)[1..], [device, freshness, crypto]);
        // Federation: depth 4 of the 9-leaf canonical tree per read, one
        // RPMB round per fragment.
        let canonical = PagerStats { page_writes: 0, merkle_nodes: 40, rpmb_ops: 2, ..pages };
        let (device, crypto, freshness) = price_pages(&canonical, &p);
        let got = priced(Run::Split { secure: true, canonical_pages: Some(9) }, &w);
        assert_eq!([got[4], got[6], got[7]], [device, crypto, freshness]);
        // DML pays for what it wrote; the flush adds its WAL blocks.
        let (device, crypto, freshness) = price_pages(&pages, &p);
        assert_eq!(priced(Run::Write, &w), [device, crypto, freshness]);
        let flush = Work { wal_bytes: 2 * BLOCK_SIZE as u64, ..w };
        assert_eq!(priced(Run::Write, &flush)[0], device + 2.0 * p.device_read_ns_per_page);
    }

    #[test]
    fn network_includes_latency_per_message() {
        let p = CostParams::default();
        let one_big = p.net_ns(1_000_000, 1);
        let many_small = p.net_ns(1_000_000, 100);
        assert!(many_small > one_big);
    }
}
