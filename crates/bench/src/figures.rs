//! One function per table/figure of the paper's evaluation, each
//! returning the [`Table`] `paperbench` prints.

use crate::table::{row, Cell, Col, Snapshot, Table};
use ironsafe_csa::{CostParams, CsaSystem, QueryReport, SharedCsaSystem, SystemConfig};
use ironsafe_serve::{Job, QueryServer, ServeConfig};
use ironsafe_sql::Database;
use ironsafe_storage::pager::PlainPager;
use ironsafe_tpch::queries::{paper_queries, query, PaperQuery, QueryStage};
use ironsafe_tpch::{generate, TpchData};
use std::collections::HashMap;
use std::sync::Arc;

/// Default scale factor: the paper's SF 3–5, divided by 1000.
pub const DEFAULT_SF: f64 = 0.003;
/// Deterministic data seed for all figures.
pub const SEED: u64 = 2022;

/// A `config` system over `data`: the one constructor every harness
/// builds its systems with.
pub fn system(config: SystemConfig, data: &TpchData, params: CostParams) -> CsaSystem {
    CsaSystem::build(config, data, params).expect("system builds")
}

/// Run `q` once under `config` on `data`.
pub fn run_once(config: SystemConfig, data: &TpchData, q: &PaperQuery, params: CostParams) -> QueryReport {
    system(config, data, params).run_query(q).expect("query runs")
}

/// Run every paper query under several configs, reusing one system per
/// config (loading the secure store once).
pub fn run_matrix(
    configs: &[SystemConfig],
    data: &TpchData,
    params: &CostParams,
) -> HashMap<(SystemConfig, u8), QueryReport> {
    let mut out = HashMap::new();
    for &config in configs {
        let mut sys = system(config, data, params.clone());
        for q in paper_queries() {
            let r = sys.run_query(&q).unwrap_or_else(|e| panic!("{} Q{}: {e}", config.abbrev(), q.id));
            out.insert((config, q.id), r);
        }
    }
    out
}

/// Figure 6: per-query speedup from CS execution, non-secure (hons/vcs)
/// and secure (hos/scs).
pub fn fig6(sf: f64) -> Table {
    use SystemConfig::{HostOnlyNonSecure, HostOnlySecure, IronSafe, VanillaCs};
    let data = generate(sf, SEED);
    let m = run_matrix(&[HostOnlyNonSecure, VanillaCs, HostOnlySecure, IronSafe], &data, &CostParams::default());
    let total = |config, id| m[&(config, id)].total_ns();
    let mut t = Table::new(vec![
        Col::query("query"),
        Col::new("hons/vcs", "speedup_nonsecure", 18).fixed(2, "x"),
        Col::new("hos/scs", "speedup_secure", 18).fixed(2, "x"),
    ]);
    for q in paper_queries() {
        t.push(row![
            q.id,
            total(HostOnlyNonSecure, q.id) / total(VanillaCs, q.id),
            total(HostOnlySecure, q.id) / total(IronSafe, q.id)
        ]);
    }
    t
}

/// Figure 7: reduction in data exchanged between host and storage (pages
/// processed host-only vs computational storage).
pub fn fig7(sf: f64) -> Table {
    let data = generate(sf, SEED);
    let m = run_matrix(&[SystemConfig::HostOnlyNonSecure, SystemConfig::VanillaCs], &data, &CostParams::default());
    let pages = |config, id| m[&(config, id)].pages_shipped.max(1) as f64;
    let mut t = Table::new(vec![Col::query("query"), Col::new("reduction", "io_reduction", 14).fixed(2, "x")]);
    for q in paper_queries() {
        t.push(row![q.id, pages(SystemConfig::HostOnlyNonSecure, q.id) / pages(SystemConfig::VanillaCs, q.id)]);
    }
    t
}

/// Figure 8: relative cost breakdown of running each query with IronSafe
/// (fractions sum to 1).
pub fn fig8(sf: f64) -> Table {
    let data = generate(sf, SEED);
    let m = run_matrix(&[SystemConfig::IronSafe], &data, &CostParams::default());
    let mut t = Table::new(vec![
        Col::query("query"),
        Col::new("ndp", "ndp", 8).pct(1),
        Col::new("freshness", "freshness", 10).pct(1),
        Col::new("decrypt", "crypto", 9).pct(1),
        Col::new("other", "other", 8).pct(1),
    ]);
    for q in paper_queries() {
        let b = &m[&(SystemConfig::IronSafe, q.id)].breakdown;
        let total = b.total_ns().max(1.0);
        t.push(row![
            q.id,
            b.ndp_ns / total,
            b.freshness_ns / total,
            b.crypto_ns / total,
            (b.transitions_ns + b.epc_ns + b.other_ns) / total
        ]);
    }
    t
}

/// The filter cut that keeps `selectivity_pct` percent of lineitem
/// (quantity is uniform on 1..=50).
pub(crate) fn quantity_cut(selectivity_pct: u32) -> i64 {
    (selectivity_pct as f64 / 100.0 * 50.0).round().max(1.0) as i64
}

/// Q1 with its date filter replaced by a quantity filter of the given
/// selectivity.
pub fn q1_with_selectivity(selectivity_pct: u32) -> PaperQuery {
    let cut = quantity_cut(selectivity_pct);
    PaperQuery {
        id: 1,
        name: "Q1 selectivity variant",
        stages: vec![QueryStage {
            sql: format!(
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                 SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                 AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order \
                 FROM lineitem WHERE l_quantity <= {cut} \
                 GROUP BY l_returnflag, l_linestatus \
                 ORDER BY l_returnflag, l_linestatus"
            ),
            into: None,
        }],
    }
}

/// A Figure 9a/9b table: `x` then hos / scs / sos simulated seconds.
fn latency_table(x_label: &str, x_prec: usize) -> Table {
    Table::new(vec![
        Col::new(x_label, "x", 6).fixed(x_prec, ""),
        Col::new("hos", "hos", 10).fixed(4, ""),
        Col::new("scs", "scs", 10).fixed(4, ""),
        Col::new("sos", "sos", 10).fixed(4, ""),
    ])
}

/// One Figure 9a/9b point: `q` on hos, scs and sos.
fn latency_row(x: f64, data: &TpchData, q: &PaperQuery, params: CostParams) -> Vec<Cell> {
    let secs = |config| run_once(config, data, q, params.clone()).total_ns() / 1e9;
    row![
        x,
        secs(SystemConfig::HostOnlySecure),
        secs(SystemConfig::IronSafe),
        secs(SystemConfig::StorageOnlySecure)
    ]
}

/// Figure 9a: vary input size at fixed selectivity (`x` = SF × 1000). The
/// EPC limit is scaled so the Merkle-tree working set crosses it between
/// the middle and largest scale factors — reproducing the paper's paging
/// cliff.
pub fn fig9a(sfs: &[f64]) -> Table {
    // Estimate the enclave working set (Merkle tree) per SF to place the
    // EPC limit between the second and third points, as on the testbed.
    let tree_bytes: Vec<u64> = sfs
        .iter()
        .map(|&sf| {
            let data = generate(sf, SEED);
            let mut db = Database::new(PlainPager::new());
            ironsafe_tpch::load_into(&mut db, &data).expect("load");
            let pages: u64 = db.catalog().tables().map(|t| t.heap.pages.len() as u64).sum();
            2 * pages * 32
        })
        .collect();
    let epc_limit = if tree_bytes.len() >= 2 {
        ((tree_bytes[tree_bytes.len() - 2] + tree_bytes[tree_bytes.len() - 1]) / 2) as usize
    } else {
        96 * 1024
    };

    let q = q1_with_selectivity(20);
    let mut t = latency_table("SF", 1);
    for &sf in sfs {
        let params = CostParams { epc_limit_bytes: epc_limit, ..CostParams::default() };
        t.push(latency_row(sf * 1000.0, &generate(sf, SEED), &q, params));
    }
    t
}

/// Figure 9b: vary selectivity at fixed scale factor (`x` = percent).
pub fn fig9b(sf: f64, selectivities: &[u32]) -> Table {
    let data = generate(sf, SEED);
    let mut t = latency_table("sel%", 0);
    for &sel in selectivities {
        t.push(latency_row(sel as f64, &data, &q1_with_selectivity(sel), CostParams::default()));
    }
    t
}

/// Figure 9c: secure-storage overhead breakdown in the sos configuration
/// (fractions of total time; the paper shows Q2 and Q9).
pub fn fig9c(sf: f64, queries: &[u8]) -> Table {
    let data = generate(sf, SEED);
    let mut sys = system(SystemConfig::StorageOnlySecure, &data, CostParams::default());
    let mut t = Table::new(vec![
        Col::query("query"),
        Col::new("freshness", "freshness", 10).pct(1),
        Col::new("decrypt", "decrypt", 9).pct(1),
        Col::new("processing", "processing", 11).pct(1),
    ]);
    for &id in queries {
        let b = sys.run_query(&query(id).expect("known query")).expect("query runs").breakdown;
        let total = b.total_ns().max(1.0);
        t.push(row![id, b.freshness_ns / total, b.crypto_ns / total, b.ndp_ns / total]);
    }
    t
}

/// A query column, then one speedup column per label, keyed by it.
fn series_table(labels: impl Iterator<Item = String>, width: usize) -> Table {
    let mut cols = vec![Col::query("query")];
    cols.extend(labels.map(|label| Col::new(label.clone(), label, width).fixed(2, "x")));
    Table::new(cols)
}

/// Figure 10: hos/scs speedup with each storage CPU count in `cores`
/// (one column per count, keyed `"<n> cpu"`).
pub fn fig10(sf: f64, cores: &[u32]) -> Table {
    let data = generate(sf, SEED);
    let hos = run_matrix(&[SystemConfig::HostOnlySecure], &data, &CostParams::default());
    let per_core: Vec<_> = cores
        .iter()
        .map(|&c| {
            let params = CostParams { storage_cores: c, ..CostParams::default() };
            run_matrix(&[SystemConfig::IronSafe], &data, &params)
        })
        .collect();
    let mut t = series_table(cores.iter().map(|c| format!("{c} cpu")), 8);
    for q in paper_queries() {
        let hos_ns = hos[&(SystemConfig::HostOnlySecure, q.id)].total_ns();
        let mut cells = row![q.id];
        cells.extend(per_core.iter().map(|scs| (hos_ns / scs[&(SystemConfig::IronSafe, q.id)].total_ns()).into()));
        t.push(cells);
    }
    t
}

/// Figure 11: offloaded-query speedup vs storage-side memory, normalized
/// to the smallest budget. `mems` are budgets in bytes (the paper's
/// 128 MiB / 256 MiB / 2 GiB, scaled by 1/1024 here); one column per
/// budget, keyed `"<n>KiB"`.
pub fn fig11(sf: f64, mems: &[u64]) -> Table {
    let data = generate(sf, SEED);
    let per_mem: Vec<_> = mems
        .iter()
        .map(|&m| {
            let params = CostParams { storage_mem_bytes: m, ..CostParams::default() };
            run_matrix(&[SystemConfig::IronSafe], &data, &params)
        })
        .collect();
    let mut t = series_table(mems.iter().map(|m| format!("{}KiB", m / 1024)), 9);
    for q in paper_queries() {
        let total = |m: &HashMap<(SystemConfig, u8), QueryReport>| m[&(SystemConfig::IronSafe, q.id)].total_ns();
        let mut cells = row![q.id];
        cells.extend(per_mem.iter().map(|m| (total(&per_mem[0]) / total(m)).into()));
        t.push(cells);
    }
    t
}

/// A monitor with no attested nodes: enough for the serving layer's
/// session lifecycle (open/touch/audit), which is all the measurement
/// path uses.
pub fn bench_monitor() -> ironsafe_monitor::TrustedMonitor {
    use ironsafe_crypto::group::Group;
    use ironsafe_crypto::schnorr::KeyPair;
    use ironsafe_tee::image::SoftwareImage;
    use ironsafe_tee::sgx::AttestationService;

    let group = Group::modp_1024();
    let ias = AttestationService::new(&group);
    let root = KeyPair::derive(&group, b"bench", b"tz-root").public;
    let config = ironsafe_monitor::MonitorConfig {
        expected_host_measurement: SoftwareImage::new("host", 1, b"host".to_vec()).measure(),
        expected_nw_measurement: SoftwareImage::new("nw", 1, b"nw".to_vec()).measure(),
        latest_fw: 1,
    };
    ironsafe_monitor::TrustedMonitor::new(&group, 7, ias, root, config)
}

/// Start a query server with `workers` workers over `shared`.
fn bench_server(shared: &Arc<SharedCsaSystem>, workers: usize) -> QueryServer {
    QueryServer::start(
        Arc::clone(shared),
        Arc::new(parking_lot::Mutex::new(bench_monitor())),
        ServeConfig {
            workers,
            queue_capacity: workers.max(2),
            max_pending: 4 * workers.max(1),
            ..ServeConfig::default()
        },
    )
}

/// One shared sos system over the seeded data at `sf`.
fn shared_sos(sf: f64) -> Arc<SharedCsaSystem> {
    let data = generate(sf, SEED);
    Arc::new(SharedCsaSystem::new(system(SystemConfig::StorageOnlySecure, &data, CostParams::default())))
}

/// Figure 12: storage-engine scalability — N concurrent sessions on the
/// query server, all sharing ONE system and ONE dataset (wall-clock).
///
/// Each cell is elapsed(N) / ideal(N), one column per session count
/// (keyed `"<n> sess"`). Values ≈1.0 mean the serving path scales
/// linearly — no cross-session software contention (the paper's finding
/// for every query but the memory-hungry Q13). Sessions contend for the
/// real shared structures (base pager lock, decrypted-page cache); a
/// warm-up run fills the shared cache so every point times steady-state
/// execution.
pub fn fig12(sf: f64, instance_counts: &[usize], query_ids: &[u8]) -> Table {
    let shared = shared_sos(sf);
    let mut t = series_table(instance_counts.iter().map(|n| format!("{n} sess")), 8);
    for &id in query_ids {
        let q = query(id).expect("known query");
        // Warm the shared decrypted-page cache outside the timers.
        shared.run_query(&q, [0x5e; 32]).expect("warmup runs");
        let mut cells = row![id];
        let mut single = None;
        for &n in instance_counts {
            let server = bench_server(&shared, n);
            let sessions: Vec<_> = (0..n).map(|i| server.open_session(&format!("inst-{i}"), "bench")).collect();
            let start = std::time::Instant::now();
            let tickets: Vec<_> =
                sessions.iter().map(|s| server.submit(s.id, Job::Query(q.clone())).expect("admitted")).collect();
            for ticket in tickets {
                ticket.wait().outcome.expect("query runs");
            }
            let elapsed = start.elapsed().as_secs_f64();
            server.shutdown();
            let single = *single.get_or_insert(elapsed);
            // With C cores, N sessions of independent work finish in
            // N/C × t1 when nothing contends; normalize that out so
            // ≈1.0 always means "no software bottleneck".
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            let ideal = single * (n as f64 / cores.min(n) as f64).max(1.0);
            cells.push((elapsed / ideal).into());
        }
        t.push(cells);
    }
    t
}

/// Saturation sweep: offered load vs p50/p95 queue wait (simulated µs)
/// and the share of arrivals admission control rejects.
///
/// Per-query *service times* are measured for real through the query
/// server (simulated nanoseconds, deterministic thanks to the shared
/// read views). The arrival process is a seeded Poisson schedule; queue
/// waits come from a deterministic discrete-event replay of that
/// schedule over a `workers`-strong pool with a bounded backlog
/// (`queue_capacity` per the server's admission rule) — wall clocks
/// never enter the numbers, so the sweep is reproducible bit-for-bit.
pub fn saturation(sf: f64, workers: usize, loads: &[f64], requests: usize) -> Table {
    use rand::{Rng, SeedableRng};

    // 1. Measure the query mix's service times through the server.
    let shared = shared_sos(sf);
    let server = bench_server(&shared, 1);
    let session = server.open_session("probe", "bench");
    let service_ns: Vec<f64> = [1u8, 6, 12]
        .iter()
        .map(|&id| {
            let q = query(id).expect("known query");
            // Warm, then measure steady state.
            server.submit(session.id, Job::Query(q.clone())).unwrap().wait().outcome.unwrap();
            let report = server.submit(session.id, Job::Query(q)).unwrap().wait().outcome.unwrap();
            report.total_ns()
        })
        .collect();
    server.shutdown();
    let mean_service = service_ns.iter().sum::<f64>() / service_ns.len() as f64;

    // 2. Replay a seeded Poisson arrival schedule at each offered load.
    let backlog_limit = 4 * workers.max(1);
    let mut t = Table::new(vec![
        Col::new("load", "offered", 8).pct(0),
        Col::new("p50 wait", "p50_wait_us", 12).fixed(1, "µs"),
        Col::new("p95 wait", "p95_wait_us", 12).fixed(1, "µs"),
        Col::new("rejected", "rejected", 10).pct(1),
    ]);
    for &load in loads {
        let rate = load * workers as f64 / mean_service; // arrivals per sim-ns
        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED ^ (load * 1000.0) as u64);
        let mut arrival = 0.0f64;
        // Earliest-free worker pool + FIFO backlog occupancy.
        let mut free_at = vec![0.0f64; workers.max(1)];
        let mut queue: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
        let mut waits = Vec::with_capacity(requests);
        let mut rejected = 0usize;
        for i in 0..requests {
            let u: f64 = rng.gen();
            arrival += -(1.0 - u).ln() / rate;
            let service = service_ns[i % service_ns.len()];
            // Drop backlog entries that started before this arrival.
            while queue.front().is_some_and(|&start| start <= arrival) {
                queue.pop_front();
            }
            if queue.len() >= backlog_limit {
                rejected += 1; // admission control sheds the arrival
                continue;
            }
            // Assign to the earliest-free worker.
            let (slot, &earliest) = free_at
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .expect("non-empty pool");
            let start = arrival.max(earliest);
            waits.push(start - arrival);
            free_at[slot] = start + service;
            queue.push_back(start);
        }
        waits.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pct = |p: f64| -> f64 {
            if waits.is_empty() {
                return 0.0;
            }
            let idx = ((waits.len() - 1) as f64 * p).round() as usize;
            waits[idx] / 1_000.0
        };
        t.push(row![load, pct(0.50), pct(0.95), rejected as f64 / requests as f64]);
    }
    t
}

/// Table 3: GDPR anti-patterns — each runs end-to-end through a full
/// IronSafe deployment (attestation, policy, rewriting, secure storage)
/// and through a bare non-secure engine (wall-clock ms).
pub fn table3(rows: usize) -> Table {
    use ironsafe::{Client, Deployment};
    use ironsafe_tpch::gdpr::{gen_people_with_policy, PEOPLE_DDL_POLICY};

    // Non-secure baseline: plain engine, no monitor, no crypto.
    let mut plain = Database::new(PlainPager::new());
    plain.execute(PEOPLE_DDL_POLICY).expect("ddl");
    plain.insert_rows("people", gen_people_with_policy(rows, 7)).expect("load");

    // IronSafe: full deployment with per-pattern policies.
    let mut dep = Deployment::builder().build().expect("attestation");
    dep.set_time(rows as i64 / 2); // half the records are expired
    let owner = Client::new("Ka");
    let consumer = Client::new("Kb");
    dep.register_service_bit(&consumer, 2);

    let patterns: Vec<(&'static str, &'static str, String)> = vec![
        (
            "#1: Timely deletion",
            "read :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, TIMESTAMP)\nwrite :- sessionKeyIs(Ka)",
            "SELECT COUNT(*) FROM people WHERE p_country = 'DE'".to_string(),
        ),
        (
            "#2: Indiscriminate use",
            "read :- reuseMap(m)\nwrite :- sessionKeyIs(Ka)",
            "SELECT AVG(p_income) FROM people".to_string(),
        ),
        (
            "#3: Transparent sharing",
            "read :- logUpdate(sharing, K, Q)\nwrite :- sessionKeyIs(Ka)",
            "SELECT p_arrival FROM people WHERE p_flight = 'LH0042'".to_string(),
        ),
        (
            "#4: Risk-agnostic processing",
            "read :- sessionKeyIs(Kb) & fwVersionStorage(3) & fwVersionHost(3)\nwrite :- sessionKeyIs(Ka)",
            "SELECT COUNT(*) FROM people WHERE p_income > 100000".to_string(),
        ),
        (
            "#5: Undetectable breaches",
            "read :- sessionKeyIs(Kb) & logUpdate(breach_audit, K, Q)\nwrite :- sessionKeyIs(Ka)",
            "SELECT p_email FROM people WHERE p_id < 100".to_string(),
        ),
    ];

    let mut t = Table::new(vec![
        Col::new("anti-pattern", "name", 28).left(),
        Col::new("non-secure", "nonsecure_ms", 12).fixed(2, "ms"),
        Col::new("IronSafe", "ironsafe_ms", 12).fixed(2, "ms"),
        Col::new("overhead", "overhead", 10).fixed(1, "x"),
    ]);
    for (i, (name, policy, sql)) in patterns.iter().enumerate() {
        let db_name = format!("gdpr{i}");
        dep.create_database(&db_name, policy);
        // Load the table through the owner (schema includes policy cols).
        dep.submit(&owner, &db_name, PEOPLE_DDL_POLICY, "").ok(); // table may exist from earlier pattern
        // Populate directly for speed (bulk path).
        if dep
            .system_mut()
            .storage_db_mut()
            .catalog()
            .table("people")
            .map(|t| t.heap.row_count == 0)
            .unwrap_or(false)
        {
            dep.system_mut()
                .storage_db_mut()
                .insert_rows("people", gen_people_with_policy(rows, 7))
                .expect("load");
        }

        // Measure the non-secure engine.
        let start = std::time::Instant::now();
        let plain_result = plain.execute(sql).expect("plain query");
        let nonsecure_ms = start.elapsed().as_secs_f64() * 1000.0;

        // Measure IronSafe end-to-end (monitor round + rewritten secure run).
        let start = std::time::Instant::now();
        let resp = dep.submit(&consumer, &db_name, sql, "").expect("ironsafe query");
        let ironsafe_ms = start.elapsed().as_secs_f64() * 1000.0;

        // The rewritten query must not return *more* than the plain one.
        assert!(resp.result.rows().len() <= plain_result.rows().len().max(1));
        t.push(row![*name, nonsecure_ms, ironsafe_ms, ironsafe_ms / nonsecure_ms.max(1e-9)]);
    }
    t
}

/// Table 4: attestation latency breakdown, by running the real protocol
/// phases (wall-clock ms; the last row is the total).
pub fn table4() -> Table {
    use ironsafe_crypto::group::Group;
    use ironsafe_crypto::schnorr::KeyPair;
    use ironsafe_monitor::monitor::MonitorConfig;
    use ironsafe_monitor::TrustedMonitor;
    use ironsafe_tee::image::SoftwareImage;
    use ironsafe_tee::sgx::{AttestationService, EnclaveConfig, Quote, SgxPlatform};
    use ironsafe_tee::trustzone::{AttestationTa, BootImages, Manufacturer, SecureBoot, SignedImage};
    use rand::SeedableRng;

    let group = Group::modp_1024();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let platform = SgxPlatform::from_seed(&group, b"t4-host");
    let host_image = SoftwareImage::new("host-engine", 5, b"engine".to_vec());
    let enclave = platform.create_enclave(&host_image, EnclaveConfig::default());
    let mut ias = AttestationService::new(&group);
    ias.register_platform(&platform);

    let mfr = Manufacturer::from_seed(&group, b"t4-vendor");
    let vendor = KeyPair::derive(&group, b"t4-vendor", b"tz-manufacturer-root");
    let device = mfr.make_device("t4-storage", 8, &mut rng);
    let images = BootImages {
        trusted_firmware: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("atf", 2, b"atf".to_vec()), &mut rng),
        trusted_os: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("optee", 34, b"optee".to_vec()), &mut rng),
        // A realistically sized normal-world image (8 MiB kernel+engine)
        // so the REE measurement phase does real hashing work.
        normal_world: SoftwareImage::new("nw", 5, vec![0xab; 8 * 1024 * 1024]),
    };

    // REE phase: hash-measuring the normal-world image.
    let start = std::time::Instant::now();
    let nw_measurement = images.normal_world.measure();
    let storage_ree_ms = start.elapsed().as_secs_f64() * 1000.0;
    let _ = nw_measurement;

    // Storage TEE phase (part 1): secure boot — signature verification of
    // each stage plus generation of the per-boot certificate chain, all
    // secure-world work on the real device.
    let start = std::time::Instant::now();
    let booted = SecureBoot::boot(&device, &mfr.root_public(), &images, &mut rng).expect("boot");
    // Clamp here, not after phase 2: under scheduler noise the re-hash
    // inside boot can run faster than the measured REE phase, and a
    // negative part-1 must not swallow phase 2's real work.
    let mut storage_tee_ms = (start.elapsed().as_secs_f64() * 1000.0 - storage_ree_ms).max(0.0);

    let config = MonitorConfig {
        expected_host_measurement: host_image.measure(),
        expected_nw_measurement: booted.nw_measurement,
        latest_fw: 5,
    };
    let mut monitor = TrustedMonitor::new(&group, 4, ias, mfr.root_public(), config);
    let host_keys = KeyPair::generate(&group, &mut rng);

    // Host phase: quote generation + verification + key certification.
    let start = std::time::Instant::now();
    let commitment = ironsafe_crypto::sha256::sha256(&host_keys.public.to_bytes(&group));
    let quote = Quote::generate(&platform, &enclave, &commitment, &mut rng);
    monitor.attest_host("host-0", "EU", &quote, &host_keys.public).expect("host attests");
    let host_cas_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Storage TEE phase (part 2): challenge + response signing +
    // verification, including walking the boot certificate chain.
    let start = std::time::Instant::now();
    let challenge = monitor.storage_challenge();
    let response = AttestationTa::new(&booted).respond(challenge, &mut rng);
    monitor.attest_storage("storage-0", "EU", &response).expect("storage attests");
    storage_tee_ms += start.elapsed().as_secs_f64() * 1000.0;
    storage_tee_ms = storage_tee_ms.max(0.0);

    // Interconnect phase: session-channel establishment.
    let start = std::time::Instant::now();
    let (mut tx, mut rx) = ironsafe_csa::net::channel_pair(&[7; 32]);
    let hello = tx.seal(b"channel-establish");
    rx.open(&hello).expect("channel opens");
    let interconnect_ms = start.elapsed().as_secs_f64() * 1000.0;

    let mut t = Table::new(vec![
        Col::new("component", "component", 28).left(),
        Col::new("measured", "ms", 10).fixed(2, "ms"),
    ]);
    t.push(row!["host: CAS response", host_cas_ms]);
    t.push(row!["storage: TEE", storage_tee_ms]);
    t.push(row!["storage: REE", storage_ree_ms]);
    t.push(row!["interconnect", interconnect_ms]);
    t.push(row!["total", host_cas_ms + storage_tee_ms + storage_ree_ms + interconnect_ms]);
    t
}

/// Morsel-parallel execution: sweep Q1 and Q6 across `dops`, best-of-3
/// *real* wall-clock ms and the speedup over the first DOP, on the
/// plaintext-backed and the secure (AES + Merkle) storage DB, verifying
/// at every point that the parallel rows are bit-identical to the serial
/// reference.
///
/// The headline (plaintext) numbers isolate the execution engine: page
/// reads are memcpys, so decode + expression evaluation dominate and the
/// morsel path's batched reads, scratch-row decode and fused
/// scan→filter→aggregate pay off directly. The secure columns show the
/// same sweep with AES + Merkle verification under the pager lock, which
/// serializes the read path and caps the achievable speedup.
pub fn parallel(sf: f64, dops: &[usize]) -> Table {
    use ironsafe_sql::ast::Statement;
    use ironsafe_sql::exec::ExecOptions;
    use std::time::Instant;

    let data = generate(sf, SEED);
    let mut plain = Database::new(PlainPager::new());
    ironsafe_tpch::load_into(&mut plain, &data).expect("plain load");
    let mut secure_sys = system(SystemConfig::StorageOnlySecure, &data, CostParams::default());

    let mut t = Table::new(vec![
        Col::query("query"),
        Col::new("dop", "dop", 4),
        Col::new("plain", "plain_ms", 10).fixed(2, "ms"),
        Col::new("speedup", "plain_speedup", 8).fixed(2, "x"),
        Col::new("secure", "secure_ms", 10).fixed(2, "ms"),
        Col::new("speedup", "secure_speedup", 8).fixed(2, "x"),
    ]);
    for qid in [1u8, 6] {
        let q = query(qid).expect("known query");
        let stmt = ironsafe_sql::parser::parse_statement(&q.stages[0].sql).expect("query parses");
        let sel = match stmt {
            Statement::Select(s) => s,
            _ => unreachable!("Q1/Q6 are single SELECTs"),
        };
        let reference = plain.select(&sel).expect("serial reference").rows().to_vec();

        let mut base = (0.0f64, 0.0f64);
        for &dop in dops {
            let opts = ExecOptions::with_dop(dop);
            let measure = |db: &mut Database| {
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    let r = db.select_with(&sel, &opts).expect("query runs");
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(r.rows(), &reference[..], "q{qid} dop {dop}: rows must be bit-identical to serial");
                    best = best.min(ms);
                }
                best
            };
            let plain_ms = measure(&mut plain);
            let secure_ms = measure(secure_sys.storage_db_mut());
            if dop == dops[0] {
                base = (plain_ms, secure_ms);
            }
            t.push(row![qid, dop, plain_ms, base.0 / plain_ms, secure_ms, base.1 / secure_ms]);
        }
    }
    t
}

/// Freshness sweep, first on bare trees: arity × access pattern over a
/// `leaves`-leaf Merkle tree, node visits verified three ways — one full
/// root climb per access (the pre-fast-path cost), one shared-path
/// `verify_batch` with the cache off, and a replay against a warm
/// verified-node cache (with its hit fraction).
///
/// Visit counts depend only on tree shape and access order, so synthetic
/// MACs measure exactly what real page MACs would.
pub fn freshness_sweep(leaves: usize) -> Table {
    use ironsafe_storage::MerkleTree;
    let macs: Vec<[u8; 32]> = (0..leaves)
        .map(|i| {
            let mut m = [0u8; 32];
            m[0] = (i % 251) as u8;
            m[1] = (i / 251 % 251) as u8;
            m
        })
        .collect();
    let n = leaves as u64;
    let mut strided = Vec::with_capacity(leaves);
    for start in 0..17u64.min(n) {
        let mut i = start;
        while i < n {
            strided.push(i);
            i += 17;
        }
    }
    let hot = (n / 8).max(1);
    let patterns: Vec<(&'static str, Vec<u64>)> = vec![
        ("sequential", (0..n).collect()),
        ("reverse", (0..n).rev().collect()),
        ("strided-17", strided),
        ("hot-eighth", (0..n).map(|i| i % hot).collect()),
    ];

    let mut t = Table::new(vec![
        Col::new("arity", "arity", 5),
        Col::new("pattern", "pattern", 11),
        Col::new("accesses", "accesses", 8),
        Col::new("per-page", "per_page_visits", 10),
        Col::new("batched", "batched_visits", 9),
        Col::new("cached", "cached_visits", 8),
        Col::new("hit rate", "cache_hit_rate", 9).pct(1).json_prec(4),
    ]);
    for arity in [2usize, 4, 8, 16] {
        let base = MerkleTree::rebuild_from_macs([7; 32], arity, &macs);
        let root = base.root().expect("non-empty tree");
        for (pattern, ids) in &patterns {
            let entry_macs: Vec<[u8; 32]> = ids.iter().map(|&i| macs[i as usize]).collect();

            // Pre-fast-path: one full climb per access, cache off.
            let mut per_page = base.clone();
            for &i in ids {
                assert!(per_page.verify(i, &macs[i as usize], &root), "genuine leaf verifies");
            }

            // Shared-path batch, cache off.
            let mut batched = base.clone();
            assert!(batched.verify_batch(ids, &entry_macs, &root), "genuine batch verifies");

            // Warm-cache steady state: warm once, then measure a replay.
            let mut cached = base.clone();
            cached.set_cache_enabled(true);
            assert!(cached.verify_batch(ids, &entry_macs, &root), "warm-up batch verifies");
            cached.reset_counters();
            let s0 = cached.cache_stats();
            assert!(cached.verify_batch(ids, &entry_macs, &root), "warm batch verifies");
            let s1 = cached.cache_stats();
            let hits = (s1.hits - s0.hits) as f64;
            let classified = hits + (s1.misses - s0.misses) as f64;

            t.push(row![
                arity,
                *pattern,
                ids.len(),
                per_page.node_visits(),
                batched.node_visits(),
                cached.node_visits(),
                if classified > 0.0 { hits / classified } else { 0.0 }
            ]);
        }
    }
    t
}

/// Whole-query effect of the freshness fast path on the IronSafe config,
/// per query id: Merkle node visits with the verified-node cache off
/// (serial scans read one page at a time, so every read pays a full root
/// climb — the pre-fast-path cost) and on (the shipped default, cold
/// start included), their ratio, the cache hit fraction from the live
/// `storage.merkle.cache.*` counters, and the Fig 8 freshness share of
/// the fast-path run.
pub fn freshness_queries(sf: f64, query_ids: &[u8]) -> Table {
    use ironsafe_obs::Registry;
    let data = generate(sf, SEED);
    let mut t = Table::new(vec![
        Col::query("query"),
        Col::new("per-page", "node_visits_per_page", 12),
        Col::new("fast path", "node_visits_fast_path", 11),
        Col::new("reduction", "reduction", 10).fixed(2, "x").json_prec(4),
        Col::new("hit rate", "cache_hit_rate", 9).pct(1).json_prec(4),
        Col::new("fig8 freshness", "fig8_freshness_share", 15).pct(1).json_prec(4),
    ]);
    for &id in query_ids {
        let q = query(id).expect("known query");

        // Baseline: cache off reproduces the old per-page full climbs.
        let mut slow = system(SystemConfig::IronSafe, &data, CostParams::default());
        slow.storage_db().pager().lock().set_merkle_cache_enabled(false);
        let s0 = slow.storage_db().pager_stats().merkle_nodes;
        let slow_report = slow.run_query(&q).expect("query runs");
        let per_page_visits = slow.storage_db().pager_stats().merkle_nodes - s0;

        // Fast path: the shipped default (cache on), from cold.
        let mut fast = system(SystemConfig::IronSafe, &data, CostParams::default());
        let registry = Registry::new();
        fast.storage_db().register_metrics(&registry);
        let f0 = fast.storage_db().pager_stats().merkle_nodes;
        let c0 = registry.snapshot();
        let report = fast.run_query(&q).expect("query runs");
        let fast_path_visits = fast.storage_db().pager_stats().merkle_nodes - f0;
        let c1 = registry.snapshot();
        assert_eq!(report.result, slow_report.result, "Q{id}: rows must not depend on the cache");

        let delta = |name: &str| c1.counter(name).unwrap_or(0) - c0.counter(name).unwrap_or(0);
        let hits = delta("storage.merkle.cache.hit") as f64;
        let classified = hits + delta("storage.merkle.cache.miss") as f64;
        t.push(row![
            id,
            per_page_visits,
            fast_path_visits,
            per_page_visits as f64 / fast_path_visits.max(1) as f64,
            if classified > 0.0 { hits / classified } else { 0.0 },
            report.breakdown.freshness_ns / report.breakdown.total_ns().max(1.0)
        ]);
    }
    t
}

/// The `BENCH_5.json` snapshot: the bare-tree sweep over `leaves` leaves
/// and the whole-query effect on `query_ids`.
pub fn freshness_snapshot(sf: f64, leaves: usize, query_ids: &[u8]) -> Snapshot {
    Snapshot::top_level(sf)
        .rows("merkle_sweep", freshness_sweep(leaves))
        .rows("queries", freshness_queries(sf, query_ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SF: f64 = 0.0015;

    #[test]
    fn fig6_shapes_hold() {
        let t = fig6(TEST_SF);
        assert_eq!(t.len(), 17);
        // Most queries speed up under CS in the secure case.
        let faster = (0..t.len()).filter(|&r| t.num(r, "speedup_secure") > 1.0).count();
        assert!(faster >= t.len() / 2, "only {faster} of {} sped up", t.len());
        // Q6 (highly selective single-table) must benefit.
        let q6 = t.num(t.find("query", 6u8), "speedup_secure");
        assert!(q6 > 1.0, "Q6 secure speedup {q6}");
    }

    #[test]
    fn fig7_io_reduction_positive() {
        let t = fig7(TEST_SF);
        assert!((0..t.len()).all(|r| t.num(r, "io_reduction") > 0.0));
        let q6 = t.num(t.find("query", 6u8), "io_reduction");
        assert!(q6 > 2.0, "Q6 reduces IO by {q6}");
    }

    #[test]
    fn fig8_fractions_sum_to_one() {
        let t = fig8(TEST_SF);
        for r in 0..t.len() {
            let sum: f64 = ["ndp", "freshness", "crypto", "other"].iter().map(|k| t.num(r, k)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "Q{} sums to {sum}", t.get(r, "query"));
            assert!(t.num(r, "freshness") > 0.0, "freshness is never free");
        }
    }

    #[test]
    fn fig9b_scs_wins_at_all_selectivities() {
        let t = fig9b(TEST_SF, &[10, 50, 90]);
        for r in 0..t.len() {
            let (scs, hos) = (t.num(r, "scs"), t.num(r, "hos"));
            assert!(scs < hos, "sel {}%: scs {scs} vs hos {hos}", t.get(r, "x"));
        }
        // Higher selectivity ⇒ more shipped ⇒ scs time grows.
        assert!(t.num(2, "scs") > t.num(0, "scs"));
    }

    #[test]
    fn fig9c_freshness_dominates() {
        let t = fig9c(TEST_SF, &[2, 9]);
        for r in 0..t.len() {
            let (freshness, q) = (t.num(r, "freshness"), t.get(r, "query"));
            assert!(freshness > t.num(r, "decrypt"), "Q{q}: freshness should dominate decrypt");
            assert!(freshness > 0.3, "Q{q}: freshness fraction {freshness}");
        }
    }

    #[test]
    fn fig10_more_cores_never_hurt() {
        let t = fig10(TEST_SF, &[1, 4, 16]);
        for r in 0..t.len() {
            let (one, sixteen) = (t.num(r, "1 cpu"), t.num(r, "16 cpu"));
            assert!(sixteen >= one * 0.999, "Q{}: {one} -> {sixteen}", t.get(r, "query"));
        }
    }

    #[test]
    fn fig11_memory_never_hurts() {
        let t = fig11(TEST_SF, &[128 * 1024, 256 * 1024, 2 * 1024 * 1024]);
        for r in 0..t.len() {
            for key in ["128KiB", "256KiB", "2048KiB"] {
                assert!(t.num(r, key) >= 0.999, "Q{}: {}", t.get(r, "query"), t.line(r));
            }
        }
    }

    #[test]
    fn freshness_sweep_orders_the_three_modes() {
        let t = freshness_sweep(1024);
        assert_eq!(t.len(), 16, "4 arities x 4 patterns");
        for r in 0..t.len() {
            let at = format!("arity {} {}", t.get(r, "arity"), t.get(r, "pattern"));
            let (per_page, batched) = (t.int(r, "per_page_visits"), t.int(r, "batched_visits"));
            assert!(
                per_page as f64 >= 3.0 * batched as f64,
                "{at}: batch saves <3x ({per_page} vs {batched})"
            );
            assert!(
                t.int(r, "cached_visits") <= batched,
                "{at}: warm cache must not hash more than a cold batch"
            );
            // A warm replay of an unchanged root is all hits, and each
            // hit costs exactly the one leaf visit.
            assert_eq!(t.num(r, "cache_hit_rate"), 1.0, "{at}");
            assert_eq!(t.int(r, "cached_visits"), t.int(r, "accesses"), "{at}");
        }
    }

    #[test]
    fn freshness_fast_path_cuts_query_node_visits_3x() {
        let t = freshness_queries(TEST_SF, &[1, 6]);
        for r in 0..t.len() {
            let q = t.get(r, "query");
            let (per_page, fast) = (t.int(r, "node_visits_per_page"), t.int(r, "node_visits_fast_path"));
            assert!(fast > 0, "Q{q} must verify pages");
            let reduction = t.num(r, "reduction");
            assert!(reduction >= 3.0, "Q{q}: fast path saves only {reduction:.2}x ({per_page} vs {fast})");
            assert!((0.0..=1.0).contains(&t.num(r, "cache_hit_rate")), "Q{q}");
            assert!(t.num(r, "fig8_freshness_share") > 0.0, "Q{q}: freshness is never free");
        }
    }

    #[test]
    fn freshness_json_is_wellformed() {
        let json = crate::table::assert_deterministic_and_gated(|| freshness_snapshot(TEST_SF, 64, &[6]));
        assert!(json.contains("\"node_visits_fast_path\""));
        assert!(json.contains("\"cache_hit_rate\""));
    }

    #[test]
    fn table4_phases_measured() {
        let t = table4();
        let ms = |component: &str| t.num(t.find("component", component), "ms");
        assert!(ms("total") > 0.0);
        assert!(ms("storage: TEE") > 0.0);
        assert!(ms("host: CAS response") > 0.0);
        assert!(ms("storage: REE") > 0.0);
    }
}
