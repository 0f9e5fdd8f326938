//! Per-layer metrics of a traced run, all measured from outside the
//! crates: *probes* time calls into each crate's public functions on the
//! workload's own pages and statements, *counts* are deltas of public
//! counters and report fields over the timed passes, and *attribution*
//! multiplies the two: counts per pass × probed unit cost ÷ the pass's sum
//! of position floors. Nothing here edits or instruments `crates/`.

use crate::harness::{floors_of, traced_pass, Measured};
use crate::policy_point::{ACCESS_POLICY, EXEC_POLICY};
use crate::stats::{median, percentile};
use crate::workload::{plain_database, time_ms, Instance, ProbeInput, RunConfig};
use crate::write_mix::GROUP_SIZE;
use ironsafe::Deployment;
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::group::Group;
use ironsafe_crypto::hmac::hmac_sha256_concat;
use ironsafe_crypto::hmac512::hmac_sha512_trunc256;
use ironsafe_crypto::modes::{cbc_decrypt_aligned, cbc_encrypt_aligned, ctr_xor};
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_csa::adaptive::{choose, EpcView, FragmentStats};
use ironsafe_csa::net::channel_pair;
use ironsafe_csa::{partition_select, CsaSystem, SystemConfig};
use ironsafe_monitor::monitor::QueryRequest;
use ironsafe_obs::{MetricsSnapshot, Span, Trace, TraceSnapshot};
use ironsafe_policy::eval::evaluate;
use ironsafe_policy::rewrite::{rewrite_statement, RewriteContext};
use ironsafe_policy::{parse_policy, EvalContext, Perm};
use ironsafe_scale::{FederatedCsaSystem, FederationConfig};
use ironsafe_serve::ServeConfig;
use ironsafe_sql::ast::{SelectStmt, Statement};
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::plan::plan_select;
use ironsafe_sql::Database;
use ironsafe_storage::wal::{Checkpoint, CommitRecord};
use ironsafe_storage::{
    MerkleTree, PageCache, Pager, PagerStats, SecurePager, ViewPager, BLOCK_SIZE, PAGE_PAYLOAD,
};
use ironsafe_tee::sgx::{EnclaveConfig, Quote, SgxPlatform};
use ironsafe_tee::trustzone::{
    BootImages, Manufacturer, Rpmb, RpmbClient, SecureBoot, SignedImage, RPMB_BLOCK,
};
use ironsafe_tee::SoftwareImage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Public counter values at one instant.
pub struct CounterMark {
    registry: MetricsSnapshot,
    pager: PagerStats,
}

/// Counter deltas over the timed passes.
pub struct Counters {
    before: CounterMark,
    after: CounterMark,
}

impl CounterMark {
    /// Read every counter the instance registered, and the base pager's.
    pub fn take(inst: &dyn Instance) -> CounterMark {
        CounterMark {
            registry: inst.registry().snapshot(),
            pager: inst.probe_input().pager.lock().stats(),
        }
    }

    /// Deltas from this mark to now.
    pub fn delta(self, inst: &dyn Instance) -> Counters {
        Counters {
            before: self,
            after: CounterMark::take(inst),
        }
    }
}

impl Counters {
    /// Delta of registry counter `name` (0 when the workload has none).
    pub fn get(&self, name: &str) -> f64 {
        let at = |m: &CounterMark| m.registry.counter(name).unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before)) as f64
    }

    /// Merkle nodes the base pager hashed.
    fn merkle_nodes(&self) -> f64 {
        (self.after.pager.merkle_nodes - self.before.pager.merkle_nodes) as f64
    }
}

/// What `measure` needs from the run.
pub struct Inputs<'a> {
    /// The run so far (exit report not yet filled).
    pub measured: &'a Measured,
    /// The live instance.
    pub inst: &'a dyn Instance,
    /// Counter deltas over the timed passes.
    pub counters: &'a Counters,
    /// Spans the harness recorded on the traced passes.
    pub trace: &'a TraceSnapshot,
    /// Fastest replay of the pass on the plain oracle, ms.
    pub plain_pass_ms: f64,
    /// Sum of every client-observed latency so far, warm-up included, ms.
    pub raw_total_ms: f64,
    /// Seed and scale of the run.
    pub cfg: &'a RunConfig,
    /// Page-crypto floors sampled between the timed passes.
    pub crypto: PageCosts,
}

/// Microseconds per iteration of one timing of `iters` calls of `f`.
fn once_us(iters: usize, mut f: impl FnMut()) -> f64 {
    time_ms(|| {
        for _ in 0..iters {
            f();
        }
    })
    .1 * 1e3
        / iters as f64
}

/// Timings a probe takes the fastest of.
const REPS: usize = 5;

/// Microseconds per iteration: the fastest of [`REPS`] timings of `iters`
/// calls of `f`.
fn floor_us(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| once_us(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

fn mb_per_s(bytes: usize, us: f64) -> f64 {
    bytes as f64 / us
}

type Values = BTreeMap<&'static str, f64>;

/// Cost of the symmetric primitives on one page, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct PageCosts {
    decrypt_us: f64,
    encrypt_us: f64,
    ctr_us: f64,
    hmac_us: f64,
    node_us: f64,
}

/// Times the page-crypto primitives on one of the workload's own blocks
/// and keeps each one's floor. The harness takes a sample after every
/// timed pass, so these floors see the same stretch of machine time as the
/// position floors they are divided by; a probe run once at the end would
/// sit in whatever weather the machine had at that moment.
pub struct CryptoSampler {
    block: Vec<u8>,
    buf: Vec<u8>,
    aes: Aes128,
    best: PageCosts,
}

impl CryptoSampler {
    /// A sampler over the block behind the first `lineitem` page.
    pub fn new(inst: &dyn Instance) -> CryptoSampler {
        let input = inst.probe_input();
        let first_page = input
            .catalog
            .table("lineitem")
            .expect("lineitem")
            .heap
            .pages[0];
        let block = input
            .pager
            .lock()
            .export_block(first_page)
            .expect("secure base exports blocks");
        CryptoSampler::over(block)
    }

    fn over(block: Vec<u8>) -> CryptoSampler {
        let worst = f64::INFINITY;
        CryptoSampler {
            buf: block[16..16 + PAGE_PAYLOAD].to_vec(),
            block,
            aes: Aes128::new(&[0x42; 16]),
            best: PageCosts {
                decrypt_us: worst,
                encrypt_us: worst,
                ctr_us: worst,
                hmac_us: worst,
                node_us: worst,
            },
        }
    }

    /// Time each primitive once more (≈ 3 ms) and keep the floors.
    pub fn sample(&mut self) {
        let (aes, buf, iv) = (&self.aes, &mut self.buf, [7u8; 16]);
        let mac_key = [0x17u8; 32];
        let (left, right) = ([1u8; 32], [2u8; 32]);
        let now = PageCosts {
            decrypt_us: once_us(8, || {
                cbc_decrypt_aligned(aes, &iv, black_box(buf)).expect("aligned")
            }),
            encrypt_us: once_us(8, || cbc_encrypt_aligned(aes, &iv, black_box(buf))),
            ctr_us: once_us(8, || ctr_xor(aes, &iv, black_box(buf))),
            // The page MAC: HMAC-SHA512 over page id, IV and ciphertext.
            hmac_us: once_us(8, || {
                black_box(hmac_sha512_trunc256(
                    &mac_key,
                    &[
                        b"page",
                        &7u64.to_be_bytes(),
                        black_box(&self.block[..16 + PAGE_PAYLOAD]),
                    ],
                ));
            }),
            // One inner Merkle node: HMAC-SHA256 over two child hashes.
            node_us: once_us(256, || {
                black_box(hmac_sha256_concat(
                    &mac_key,
                    &[b"merkle-node", &1u32.to_be_bytes(), &left, &right],
                ));
            }),
        };
        let b = &mut self.best;
        b.decrypt_us = b.decrypt_us.min(now.decrypt_us);
        b.encrypt_us = b.encrypt_us.min(now.encrypt_us);
        b.ctr_us = b.ctr_us.min(now.ctr_us);
        b.hmac_us = b.hmac_us.min(now.hmac_us);
        b.node_us = b.node_us.min(now.node_us);
    }

    /// Floors so far (sampling first if nothing was sampled).
    pub fn costs(&mut self) -> PageCosts {
        if self.best.decrypt_us.is_infinite() {
            self.sample();
        }
        self.best
    }
}

fn crypto_probes(out: &mut Values, pc: &PageCosts) {
    out.insert(
        "crypto.cbc_decrypt_mb_s",
        mb_per_s(PAGE_PAYLOAD, pc.decrypt_us),
    );
    out.insert(
        "crypto.cbc_encrypt_mb_s",
        mb_per_s(PAGE_PAYLOAD, pc.encrypt_us),
    );
    out.insert("crypto.ctr_mb_s", mb_per_s(PAGE_PAYLOAD, pc.ctr_us));
    out.insert(
        "crypto.hmac_page_mb_s",
        mb_per_s(16 + PAGE_PAYLOAD, pc.hmac_us),
    );
    out.insert("crypto.sha256_node_us", pc.node_us);

    let group = Group::modp_1024();
    let keys = KeyPair::derive(&group, b"perf-probe", b"schnorr");
    let mut rng = StdRng::seed_from_u64(11);
    let msg = [0x5au8; 160];
    let sig = keys.secret.sign(&msg, &mut rng);
    out.insert(
        "crypto.schnorr_sign_us",
        floor_us(4, || {
            black_box(keys.secret.sign(&msg, &mut rng));
        }),
    );
    out.insert(
        "crypto.schnorr_verify_us",
        floor_us(4, || {
            keys.public
                .verify(&group, &msg, &sig)
                .expect("valid signature");
        }),
    );
    let exp = group.random_scalar(&mut StdRng::seed_from_u64(12));
    out.insert(
        "crypto.modpow_us",
        floor_us(4, || {
            black_box(group.pow_g(black_box(&exp)));
        }),
    );
}

/// Storage self-times per page, for the attribution.
struct StorageCosts {
    read_self_us: f64,
    write_self_us: f64,
    view_hit_us: f64,
    commit_us: f64,
    wal_append_us: f64,
}

fn storage_probes(out: &mut Values, input: &ProbeInput<'_>) -> StorageCosts {
    // The pages the workloads scan most: lineitem's, capped.
    let ids: Vec<u64> = input
        .catalog
        .table("lineitem")
        .map(|t| t.heap.pages.clone())
        .unwrap_or_default()
        .into_iter()
        .take(128)
        .collect();
    let n = ids.len().max(1);
    let mut page = vec![0u8; PAGE_PAYLOAD];
    let stats_before = input.pager.lock().stats();
    let read_us = floor_us(1, || {
        let mut pager = input.pager.lock();
        for id in &ids {
            pager.read_page(*id, &mut page).expect("probe read");
        }
    }) / n as f64;
    let stats_after = input.pager.lock().stats();
    let nodes_per_read =
        (stats_after.merkle_nodes - stats_before.merkle_nodes) as f64 / (REPS * n) as f64;
    let batch = 32.min(n);
    let mut many = vec![0u8; batch * PAGE_PAYLOAD];
    let batch_us = floor_us(1, || {
        let mut pager = input.pager.lock();
        for chunk in ids.chunks_exact(batch) {
            pager
                .read_pages(chunk, &mut many)
                .expect("probe batch read");
        }
    }) / (n - n % batch).max(1) as f64;
    out.insert("storage.read_page_us", read_us);
    out.insert("storage.read_batch_us_per_page", batch_us);

    // Merkle verification alone: a tree over the same page MACs.
    let blocks: Vec<Vec<u8>> = ids
        .iter()
        .map(|id| input.pager.lock().export_block(*id).expect("secure base"))
        .collect();
    let macs: Vec<[u8; 32]> = blocks
        .iter()
        .map(|b| b[BLOCK_SIZE - 32..].try_into().expect("mac trailer"))
        .collect();
    let mut tree = MerkleTree::rebuild_from_macs([9u8; 32], 2, &macs);
    tree.set_cache_enabled(false);
    let root = tree.root().expect("non-empty tree");
    out.insert(
        "storage.merkle_verify_us_per_page",
        floor_us(1, || {
            for (i, mac) in macs.iter().enumerate() {
                assert!(tree.verify(i as u64, mac, &root));
            }
        }) / n as f64,
    );

    // A view over the base with a filled page cache.
    let mut view = ViewPager::over(input.pager.clone(), Arc::new(PageCache::new()));
    ids.iter()
        .for_each(|id| view.read_page(*id, &mut page).expect("cache fill"));
    let view_hit_us = floor_us(4, || {
        for id in &ids {
            view.read_page(*id, &mut page).expect("cache hit");
        }
    }) / n as f64;
    out.insert("storage.view_hit_us", view_hit_us);

    // Write path on a scratch secure pager holding the same payloads.
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"perf-probe-vendor");
    let mut rng = StdRng::seed_from_u64(21);
    let mut scratch =
        SecurePager::create(mfr.make_device("probe-0", 8, &mut rng), 21).expect("scratch pager");
    let payloads: Vec<Vec<u8>> = ids
        .iter()
        .take(32)
        .map(|id| {
            input
                .pager
                .lock()
                .read_page(*id, &mut page)
                .expect("probe read");
            page.clone()
        })
        .collect();
    for p in &payloads {
        let id = scratch.allocate_page().expect("scratch allocate");
        scratch.write_page(id, p).expect("scratch write");
    }
    scratch.commit().expect("scratch commit");
    let write_us = floor_us(1, || {
        for (id, p) in payloads.iter().enumerate() {
            scratch.write_page(id as u64, p).expect("scratch overwrite");
        }
    }) / payloads.len().max(1) as f64;
    let commit_us = floor_us(8, || scratch.commit().expect("scratch commit"));
    out.insert("storage.write_page_us", write_us);
    out.insert("storage.commit_us", commit_us);

    // One commit record carrying a page image per transaction of a group.
    let mut wal = scratch.make_wal(22).expect("secure pager journals");
    let images: Vec<Vec<u8>> = (0..payloads.len() as u64)
        .map(|id| scratch.export_block(id).expect("block"))
        .collect();
    wal.append_checkpoint(&Checkpoint {
        epoch: 1,
        root: scratch.current_root(),
        blocks: images.clone(),
        catalog: Vec::new(),
    })
    .expect("checkpoint");
    let record = CommitRecord {
        epoch: 2,
        root: scratch.current_root(),
        writes: images
            .iter()
            .take(GROUP_SIZE)
            .cloned()
            .enumerate()
            .map(|(i, b)| (i as u64, b))
            .collect(),
        catalog: Vec::new(),
    };
    let wal_append_us = floor_us(8, || {
        wal.append_commit(&record).expect("append");
    });
    out.insert(
        "storage.wal_append_us_per_txn",
        wal_append_us / GROUP_SIZE as f64,
    );

    // Self time of a page read or write: what the pager call costs beyond
    // the primitives inside it, both timed at this same moment.
    let mut local = CryptoSampler::over(blocks[0].clone());
    (0..REPS).for_each(|_| local.sample());
    let pc = local.costs();
    let page_crypto = |crypt_us: f64| crypt_us + pc.hmac_us + nodes_per_read * pc.node_us;
    StorageCosts {
        read_self_us: (read_us - page_crypto(pc.decrypt_us)).max(0.0),
        write_self_us: (write_us - page_crypto(pc.encrypt_us)).max(0.0),
        view_hit_us,
        commit_us,
        wal_append_us,
    }
}

struct TeeCosts {
    roundtrip_us: f64,
    rpmb_write_us: f64,
}

fn tee_probes(out: &mut Values) -> TeeCosts {
    let group = Group::modp_1024();
    let mut rng = StdRng::seed_from_u64(31);
    let platform = SgxPlatform::from_seed(&group, b"perf-probe-platform");
    let image = SoftwareImage::new("host-engine", 5, b"perf probe host engine".to_vec());
    let enclave = platform.create_enclave(&image, EnclaveConfig::default());
    let roundtrip_us = floor_us(1024, || {
        enclave.enter().expect("enter");
        enclave.exit().expect("exit");
    });
    out.insert("tee.enclave_roundtrip_us", roundtrip_us);
    out.insert(
        "tee.quote_generate_ms",
        floor_us(2, || {
            black_box(Quote::generate(&platform, &enclave, &[3u8; 32], &mut rng));
        }) / 1e3,
    );

    let mut rpmb = Rpmb::new(16);
    rpmb.program_key([5u8; 32]).expect("fresh rpmb");
    let client = RpmbClient::new([5u8; 32]);
    let rpmb_write_us = floor_us(64, || {
        client
            .write(&mut rpmb, 1, &[6u8; RPMB_BLOCK])
            .expect("rpmb write")
    });
    out.insert("tee.rpmb_write_us", rpmb_write_us);

    let mfr = Manufacturer::from_seed(&group, b"perf-probe-vendor");
    let vendor = KeyPair::derive(&group, b"perf-probe-vendor", b"tz-manufacturer-root");
    let device = mfr.make_device("probe-boot", 8, &mut rng);
    let sign = |name: &str, v: u32, rng: &mut StdRng| {
        SignedImage::sign(
            &group,
            &vendor.secret,
            SoftwareImage::new(name, v, name.as_bytes().to_vec()),
            rng,
        )
    };
    let images = BootImages {
        trusted_firmware: sign("atf", 2, &mut rng),
        trusted_os: sign("optee", 34, &mut rng),
        normal_world: SoftwareImage::new("storage-normal-world", 5, b"perf probe nw".to_vec()),
    };
    out.insert(
        "tee.secure_boot_ms",
        floor_us(1, || {
            SecureBoot::boot(&device, &mfr.root_public(), &images, &mut rng).expect("secure boot");
        }) / 1e3,
    );
    TeeCosts {
        roundtrip_us,
        rpmb_write_us,
    }
}

fn selects(stmts: &[Statement]) -> impl Iterator<Item = &SelectStmt> {
    stmts.iter().filter_map(|s| match s {
        Statement::Select(sel) => Some(sel),
        _ => None,
    })
}

fn sql_probes(out: &mut Values, input: &ProbeInput<'_>, plain: &mut Database, stmts: &[Statement]) {
    let n = input.sql.len().max(1) as f64;
    out.insert(
        "sql.parse_us",
        floor_us(1, || {
            for sql in &input.sql {
                black_box(parse_statement(sql).expect("workload SQL parses"));
            }
        }) / n,
    );
    let selects: Vec<_> = selects(stmts)
        // Later stages of multi-stage queries read temp tables that only
        // exist while their query runs.
        .filter(|sel| sel.from.iter().all(|t| plain.catalog().has_table(&t.name)))
        .collect();
    out.insert(
        "sql.plan_us",
        floor_us(1, || {
            for sel in &selects {
                let _ = black_box(plan_select(plain.catalog(), plain.pager(), sel));
            }
        }) / selects.len().max(1) as f64,
    );
    let lineitem = input.data.lineitem.len() as f64;
    let mut rows_per_s = |name: &'static str, sql: &str, rows: f64| {
        let us = floor_us(1, || {
            black_box(plain.execute(sql).expect("probe query"));
        });
        out.insert(name, rows / (us / 1e6));
    };
    rows_per_s(
        "sql.scan_rows_per_s",
        "SELECT l_orderkey FROM lineitem WHERE l_discount > 2",
        lineitem,
    );
    rows_per_s(
        "sql.agg_rows_per_s",
        "SELECT l_returnflag, SUM(l_quantity), AVG(l_extendedprice), COUNT(*) FROM lineitem \
         GROUP BY l_returnflag",
        lineitem,
    );
    rows_per_s(
        "sql.join_rows_per_s",
        "SELECT COUNT(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey",
        lineitem + input.data.orders.len() as f64,
    );
}

/// Rows the engine must examine for one pass: every statement scans each
/// table it names in full (the engine has no indexes).
fn rows_examined(catalog: &ironsafe_sql::catalog::Catalog, stmts: &[Statement]) -> f64 {
    let rows_of = |table: &str| catalog.table(table).map_or(0, |t| t.heap.row_count) as f64;
    stmts
        .iter()
        .map(|s| match s {
            Statement::Select(sel) => sel.from.iter().map(|t| rows_of(&t.name)).sum(),
            Statement::Update { table, .. } | Statement::Delete { table, .. } => rows_of(table),
            _ => 0.0,
        })
        .sum()
}

struct MonitorCosts {
    authorize_us: f64,
    policy_us: f64,
}

fn monitor_probes(out: &mut Values, seed: u64) -> MonitorCosts {
    let exec_policy = parse_policy(EXEC_POLICY).expect("exec policy parses");
    let access_policy = parse_policy(ACCESS_POLICY).expect("access policy parses");
    let parse_us = floor_us(64, || {
        black_box(parse_policy(black_box(EXEC_POLICY)).expect("exec policy parses"));
    });
    let ctx = EvalContext {
        session_key: "Kb".into(),
        host_loc: "EU".into(),
        storage_loc: Some("EU".into()),
        fw_host: 5,
        fw_storage: Some(5),
        latest_fw: 5,
    };
    // The monitor evaluates both policies for every request.
    let eval_us = floor_us(256, || {
        black_box(evaluate(&exec_policy, Perm::Exec, &ctx));
        black_box(evaluate(&access_policy, Perm::Read, &ctx));
    });
    let sql = "SELECT p_name, p_email, p_country FROM people WHERE p_id = 17";
    let stmt = parse_statement(sql).expect("probe SQL parses");
    let obligations = evaluate(&access_policy, Perm::Read, &ctx).obligations;
    let rw = RewriteContext {
        access_time: 74,
        service_bit: 2,
    };
    let clone_us = floor_us(256, || {
        black_box(stmt.clone());
    });
    let rewrite_us = (floor_us(256, || {
        let mut s = stmt.clone();
        rewrite_statement(&mut s, &obligations, &rw, 365, 0).expect("rewrite");
        black_box(s);
    }) - clone_us)
        .max(0.0);
    out.insert("policy.parse_us", parse_us);
    out.insert("policy.eval_us", eval_us);
    out.insert("policy.rewrite_us", rewrite_us);

    // A monitor of its own: an attested deployment turned into a server
    // with no workers, whose monitor handle is public.
    let mut dep = Deployment::builder()
        .seed(seed)
        .build()
        .expect("attestation succeeds");
    dep.create_database("gdpr", ACCESS_POLICY);
    dep.register_service_bit(&ironsafe::Client::new("Kb"), 2);
    let group = Group::modp_1024();
    let server = dep.serve(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let monitor = server.sessions().monitor().clone();
    let request = QueryRequest {
        client_key: "Kb".into(),
        database: "gdpr".into(),
        sql: sql.into(),
        exec_policy: EXEC_POLICY.into(),
        access_time: 74,
    };
    let authorize_us = floor_us(8, || {
        let mut m = monitor.lock();
        let auth = m.authorize(&request).expect("authorized");
        m.cleanup_session(auth.session_id).expect("cleanup");
    });
    let auth = monitor.lock().authorize(&request).expect("authorized");
    let public = monitor.lock().public_key();
    out.insert("monitor.authorize_us", authorize_us);
    out.insert(
        "monitor.proof_verify_us",
        floor_us(4, || {
            assert!(auth.proof.verify(&group, &public, sql, EXEC_POLICY))
        }),
    );
    out.insert(
        "monitor.audit_append_us",
        floor_us(256, || {
            monitor.lock().audit().append(74, "probe", "Kb", sql);
        }),
    );
    let mut now = 100;
    out.insert(
        "monitor.session_open_us",
        floor_us(256, || {
            now += 1;
            black_box(monitor.lock().open_session("Kb", now));
        }),
    );
    drop(server.shutdown());
    MonitorCosts {
        authorize_us,
        policy_us: parse_us + eval_us + rewrite_us,
    }
}

struct CsaCosts {
    partition_us: f64,
    view_open_us: f64,
    seal_open_us_per_byte: f64,
}

fn csa_probes(out: &mut Values, input: &ProbeInput<'_>, stmts: &[Statement]) -> CsaCosts {
    let lookup = |name: &str| input.catalog.table(name).ok().map(|t| t.schema.clone());
    let selects: Vec<_> = selects(stmts).collect();
    let partition_us = floor_us(1, || {
        for sel in &selects {
            black_box(partition_select(sel, &lookup));
        }
    }) / selects.len().max(1) as f64;
    out.insert("csa.partition_us", partition_us);

    let lineitem = input.catalog.table("lineitem").expect("lineitem");
    let fragment = FragmentStats {
        table_rows: lineitem.heap.row_count,
        table_pages: lineitem.heap.pages.len() as u64,
        selectivity: 0.02,
        row_wire_bytes: 48.0,
        temp_rows_per_page: 80.0,
        host_ops: 2,
        secure: true,
    };
    let epc = EpcView::empty(input.params.epc_limit_bytes);
    out.insert(
        "csa.adaptive_choose_us",
        floor_us(1024, || {
            black_box(choose(black_box(&fragment), &epc, &input.params));
        }),
    );

    let sys = CsaSystem::from_database(
        SystemConfig::IronSafe,
        Database::from_parts(input.pager.clone(), input.catalog.clone()),
        input.params.clone(),
    );
    let view_open_us = floor_us(64, || {
        black_box(sys.read_view());
    });
    out.insert("csa.view_open_us", view_open_us);

    // Shipping a batch of real rows: encode, seal, open, decode.
    let (mut tx, mut rx) = channel_pair(&[0x61; 32]);
    let rows = &input.data.lineitem[..input.data.lineitem.len().min(256)];
    let first = tx.seal_rows(&lineitem.schema, rows);
    let wire_bytes = first.payload.len();
    rx.open_rows(&first).expect("in-order record");
    let seal_open_us = floor_us(4, || {
        let record = tx.seal_rows(&lineitem.schema, black_box(rows));
        black_box(rx.open_rows(&record).expect("in-order record"));
    });
    out.insert("csa.net_seal_open_mb_s", mb_per_s(wire_bytes, seal_open_us));
    CsaCosts {
        partition_us,
        view_open_us,
        seal_open_us_per_byte: seal_open_us / wire_bytes as f64,
    }
}

/// Q6 on a one-shard and a four-shard federation of the same rows.
fn scale_probes(out: &mut Values, input: &ProbeInput<'_>) {
    let q6 = ironsafe_tpch::queries::query(6).expect("Q6");
    for (name, shards) in [("scale.q6_1shard_ms", 1), ("scale.q6_4shard_ms", 4)] {
        let fed = FederatedCsaSystem::build(
            FederationConfig::new(shards, SystemConfig::IronSafe),
            input.data,
        )
        .expect("federation builds");
        out.insert(
            name,
            floor_us(1, || {
                black_box(
                    fed.run_query_federated(&q6, [0x44; 32], 1)
                        .expect("federated Q6"),
                );
            }) / 1e3,
        );
    }
}

/// Every per-layer value of this run.
pub fn measure(inp: &Inputs<'_>) -> BTreeMap<&'static str, f64> {
    let mut out = Values::new();
    let m = inp.measured;
    let input = inp.inst.probe_input();
    let k = m.passes.len() as f64;
    let requests = k * m.positions as f64;
    let c = inp.counters;

    // --- probes ---------------------------------------------------------
    let pc = inp.crypto;
    crypto_probes(&mut out, &pc);
    let sc = storage_probes(&mut out, &input);
    let tc = tee_probes(&mut out);
    let (_, generate_ms) = time_ms(|| black_box(inp.cfg.data()));
    let (mut plain, load_ms) = time_ms(|| plain_database(input.data));
    out.insert("tpch.generate_s", generate_ms / 1e3);
    out.insert("tpch.load_s", load_ms / 1e3);
    let stmts: Vec<Statement> = input
        .sql
        .iter()
        .map(|s| parse_statement(s).expect("workload SQL parses"))
        .collect();
    sql_probes(&mut out, &input, &mut plain, &stmts);
    let mc = monitor_probes(&mut out, inp.cfg.seed);
    let cc = csa_probes(&mut out, &input, &stmts);
    if input.probe_federation {
        scale_probes(&mut out, &input);
    }
    let trace = Trace::new();
    out.insert("obs.span_ns", {
        let _installed = trace.install();
        floor_us(1024, || drop(Span::enter("probe/span"))) * 1e3
    });

    // --- counts over the timed passes ----------------------------------
    let counts = m.counts();
    let reads = c.get("storage.page.read");
    let (hits, misses) = (
        c.get("storage.merkle.cache.hit"),
        c.get("storage.merkle.cache.miss"),
    );
    let writes = k * inp.inst.write_positions().len() as f64;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    out.insert("storage.pages_read_per_op", reads / requests);
    out.insert(
        "storage.decrypts_per_op",
        c.get("storage.page.decrypt") / requests,
    );
    out.insert("storage.merkle_nodes_per_op", c.merkle_nodes() / requests);
    out.insert("storage.merkle_cache_hit_ratio", per(hits, hits + misses));
    out.insert(
        "storage.page_cache_hit_ratio",
        per((counts.pages_read - reads).max(0.0), counts.pages_read),
    );
    out.insert(
        "storage.wal_bytes_per_txn",
        per(c.get("wal.append.bytes"), c.get("wal.txn")),
    );
    out.insert(
        "storage.pages_written_per_write",
        per(c.get("storage.page.write"), writes),
    );
    out.insert(
        "storage.rpmb_writes_per_write",
        per(c.get("storage.rpmb.write"), writes),
    );
    out.insert(
        "storage.mvcc_retained_per_write",
        per(c.get("mvcc.retain"), writes),
    );
    out.insert("storage.mvcc_gc_per_write", per(c.get("mvcc.gc"), writes));
    out.insert("tee.transitions_per_op", counts.transitions / requests);
    out.insert("tee.epc_faults_per_op", counts.epc_faults / requests);
    out.insert("csa.rows_shipped_per_op", counts.rows_shipped / requests);
    out.insert("csa.bytes_shipped_per_op", counts.bytes_shipped / requests);
    out.insert("sql.exec_plain_ms", inp.plain_pass_ms);
    out.insert(
        "sql.rows_examined_per_result_row",
        rows_examined(&input.catalog, &stmts) / (counts.result_rows / k).max(1.0),
    );
    let spans = inp.trace.spans.len() as f64;
    let traced_passes = (0..m.passes.len())
        .filter(|i| traced_pass(true, *i))
        .count() as f64;
    out.insert(
        "obs.spans_per_op",
        per(spans, traced_passes * m.positions as f64),
    );

    // --- floors, noise, tracing overhead --------------------------------
    let floors = m.floors();
    let floor_ms: f64 = floors.iter().sum();
    let pick = |want: bool| -> f64 {
        let passes = m.passes.iter().enumerate();
        floors_of(
            passes
                .filter(|(i, _)| traced_pass(true, *i) == want)
                .map(|(_, p)| p),
        )
        .iter()
        .sum()
    };
    let (untraced_ms, traced_ms) = (pick(false), pick(true));
    out.insert(
        "trace.overhead_share",
        per(traced_ms - untraced_ms, untraced_ms),
    );
    let pass_ms: Vec<f64> = m.passes.iter().map(|p| p.lat_ms.iter().sum()).collect();
    out.insert(
        "harness.noise_share",
        (median(&pass_ms) - floor_ms) / floor_ms,
    );
    let pooled: Vec<f64> = m
        .passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    out.insert("harness.raw_p50_ms", median(&pooled));
    out.insert("harness.passes", k);
    out.insert("csa.sim_over_wall", counts.sim_ns / 1e6 / k / floor_ms);

    // --- the write path of write_mix -------------------------------------
    let write_floors: Vec<f64> = inp
        .inst
        .write_positions()
        .iter()
        .map(|&i| floors[i])
        .collect();
    out.insert("write_p50_ms", median(&write_floors));
    out.insert("write_p90_ms", percentile(&write_floors, 90.0));
    let written = c.get("storage.page.write") * BLOCK_SIZE as f64 + c.get("wal.append.bytes");
    out.insert(
        "write_amp",
        per(written, k * inp.inst.user_bytes_written_per_pass() as f64),
    );

    for (name, value) in inp.inst.layer_metrics(inp.raw_total_ms) {
        out.insert(name, value);
    }

    // --- attribution: counts per pass × unit cost ÷ pass floor ----------
    // Page crypto is booked under crypto and taken out of storage's page
    // costs; proof signing stays inside monitor.authorize (its only caller
    // on the request path); channel sealing stays inside csa.
    let us = floor_ms * 1e3;
    let per_pass = |name: &str| c.get(name) / k;
    let encrypts = per_pass("storage.page.encrypt");
    let crypto_us = per_pass("storage.page.decrypt") * pc.decrypt_us
        + encrypts * pc.encrypt_us
        + (reads / k + encrypts) * pc.hmac_us
        + c.merkle_nodes() / k * pc.node_us;
    let flushes = per_pass("storage.rpmb.write");
    let storage_us = reads / k * sc.read_self_us
        + (counts.pages_read / k - reads / k).max(0.0) * sc.view_hit_us
        + per_pass("storage.page.write") * sc.write_self_us
        + flushes * sc.commit_us
        + per_pass("wal.append") * sc.wal_append_us;
    let tee_us = counts.transitions / k / 2.0 * tc.roundtrip_us + flushes * tc.rpmb_write_us;
    let grants = per_pass("monitor.query.grant");
    let csa_us = m.positions as f64 * cc.partition_us
        + if input.view_per_request {
            m.positions as f64 * cc.view_open_us
        } else {
            0.0
        }
        + counts.bytes_shipped / k * cc.seal_open_us_per_byte;
    let serve_us = m.positions as f64
        * out
            .get("serve.dispatch_overhead_us")
            .copied()
            .unwrap_or(0.0);
    let shares = [
        ("attr.crypto_share", crypto_us),
        ("attr.storage_share", storage_us),
        ("attr.tee_share", tee_us),
        ("attr.sql_share", inp.plain_pass_ms * 1e3),
        ("attr.policy_share", grants * mc.policy_us),
        (
            "attr.monitor_share",
            grants * (mc.authorize_us - mc.policy_us).max(0.0),
        ),
        ("attr.csa_share", csa_us),
        ("attr.serve_share", serve_us),
    ];
    let mut rest = 1.0;
    for (name, layer_us) in shares {
        out.insert(name, layer_us / us);
        rest -= layer_us / us;
    }
    out.insert("attr.unattributed_share", rest);
    out
}

/// Write the harness-recorded spans of the traced passes to
/// `perf/out/<workload>-<seed>.trace.json` in Chrome `trace_event` form
/// (wall-clock microseconds; one lane per nesting depth).
pub fn write_spans(trace: &TraceSnapshot, workload: &str, seed: u64) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let events: Vec<String> = trace
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                crate::json::quote(&s.name),
                s.start_wall_ns as f64 / 1e3,
                s.wall_ns as f64 / 1e3,
                s.depth
            )
        })
        .collect();
    let path = dir.join(format!("{workload}-{seed}.trace.json"));
    std::fs::write(&path, format!("[\n{}\n]\n", events.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}
