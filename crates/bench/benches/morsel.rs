//! Morsel-path microbenches: page codec encrypt/decrypt, heap-page
//! decode (the scan kernel's reused column batch, full and pruned),
//! batched vs single-page secure reads, and a Q1-style
//! grouped-aggregation scan at DOP 1/2/4 through the public
//! `select_with` entry point.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ironsafe_crypto::group::Group;
use ironsafe_sql::ast::Statement;
use ironsafe_sql::exec::ExecOptions;
use ironsafe_sql::batch::ColumnBatch;
use ironsafe_sql::heap::{scan_page_columns, shared, CellTable, HeapFile};
use ironsafe_sql::{Database, Value};
use ironsafe_storage::codec::{PageCodec, PAGE_PAYLOAD};
use ironsafe_storage::pager::{Pager, PlainPager};
use ironsafe_storage::SecurePager;
use ironsafe_tee::trustzone::Manufacturer;
use ironsafe_tpch::queries::query;
use rand::SeedableRng;

const PAGES: u64 = 64;

fn bench_page_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("morsel_codec");
    g.throughput(Throughput::Bytes(PAGE_PAYLOAD as u64));
    let mut codec = PageCodec::from_db_key(&[7u8; 16]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let payload = vec![0xabu8; PAGE_PAYLOAD];
    let (block, _) = codec.encrypt_page(3, &payload, &mut rng).unwrap();
    let mut out = vec![0u8; PAGE_PAYLOAD];
    g.bench_function("encrypt_page", |b| {
        b.iter(|| codec.encrypt_page(3, &payload, &mut rng).unwrap())
    });
    g.bench_function("decrypt_page", |b| {
        b.iter(|| codec.decrypt_page(3, &block, &mut out).unwrap())
    });
    g.finish();
}

fn bench_heap_decode(c: &mut Criterion) {
    // One full heap page of mixed-type rows, decoded into the reused
    // column batch the scan kernel uses: every column, and only two of
    // four.
    let pager = shared(PlainPager::new());
    let mut heap = HeapFile::new();
    let rows = (0..2000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.125),
                Value::Text(format!("row-{i:05}")),
                Value::Int(i % 7),
            ]
        })
        .collect();
    heap.append_rows(&pager, rows).unwrap();
    let payload_size = pager.lock().payload_size();
    let mut page = vec![0u8; payload_size];
    pager.lock().read_page(heap.pages[0], &mut page).unwrap();

    let mut g = c.benchmark_group("morsel_heap_decode");
    g.throughput(Throughput::Bytes(payload_size as u64));
    let (mut batch, mut cells) = (ColumnBatch::new(4), CellTable::default());
    for (name, cols) in [
        ("scan_page_columns_full", [true; 4]),
        ("scan_page_columns_pruned", [true, true, false, false]),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                batch.clear();
                cells.clear();
                scan_page_columns(&page, payload_size, &cols, &mut batch, &mut cells).unwrap();
                black_box(batch.len())
            })
        });
    }
    g.finish();
}

fn bench_batched_secure_reads(c: &mut Criterion) {
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"bench");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let device = mfr.make_device("bench-dev", 8, &mut rng);
    let mut pager = SecurePager::create(device, 0).unwrap();
    let payload = vec![0xabu8; PAGE_PAYLOAD];
    for _ in 0..PAGES {
        let id = pager.allocate_page().unwrap();
        pager.write_page(id, &payload).unwrap();
    }
    pager.commit().unwrap();

    const BATCH: usize = 16;
    let ids: Vec<u64> = (0..BATCH as u64).collect();
    let mut buf = vec![0u8; BATCH * PAGE_PAYLOAD];
    let mut g = c.benchmark_group("morsel_secure_read");
    g.throughput(Throughput::Bytes((BATCH * PAGE_PAYLOAD) as u64));
    g.bench_function("single_page_loop", |b| {
        b.iter(|| {
            for (i, id) in ids.iter().enumerate() {
                pager
                    .read_page(*id, &mut buf[i * PAGE_PAYLOAD..(i + 1) * PAGE_PAYLOAD])
                    .unwrap();
            }
        })
    });
    g.bench_function("read_pages_batched", |b| {
        b.iter(|| pager.read_pages(&ids, &mut buf).unwrap())
    });
    g.finish();
}

fn bench_q1_scan_dop(c: &mut Criterion) {
    // End-to-end: TPC-H Q1 grouped aggregation through the planner. DOP 1
    // is the serial volcano plan; DOP 2/4 take the morsel path (worker
    // count additionally capped by the machine's available parallelism).
    let data = ironsafe_tpch::generate(0.002, 42);
    let mut db = Database::new(PlainPager::new());
    ironsafe_tpch::load_into(&mut db, &data).unwrap();
    let q1 = query(1).unwrap();
    let stmt = ironsafe_sql::parser::parse_statement(&q1.stages[0].sql).unwrap();
    let sel = match stmt {
        Statement::Select(s) => s,
        _ => unreachable!("Q1 is a SELECT"),
    };

    let mut g = c.benchmark_group("morsel_q1_scan");
    for dop in [1usize, 2, 4] {
        let opts = ExecOptions::with_dop(dop);
        g.bench_function(format!("dop{dop}"), |b| {
            b.iter(|| black_box(db.select_with(&sel, &opts).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_page_codec,
    bench_heap_decode,
    bench_batched_secure_reads,
    bench_q1_scan_dop
);
criterion_main!(benches);
