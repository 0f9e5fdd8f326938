//! Secure-pager read/write path: plain vs secure single-page reads, a
//! batched morsel read, and write + commit.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ironsafe_crypto::group::Group;
use ironsafe_storage::codec::PAGE_PAYLOAD;
use ironsafe_storage::pager::{Pager, PlainPager};
use ironsafe_storage::SecurePager;
use ironsafe_tee::trustzone::Manufacturer;
use rand::SeedableRng;

const PAGES: u64 = 256;

fn secure_pager() -> SecurePager {
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
    pager
}

fn bench_read_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("pager_read");
    g.throughput(Throughput::Bytes(PAGE_PAYLOAD as u64));

    let mut plain = PlainPager::new();
    let payload = vec![0xabu8; PAGE_PAYLOAD];
    for _ in 0..PAGES {
        let id = plain.allocate_page().unwrap();
        plain.write_page(id, &payload).unwrap();
    }
    let mut buf = vec![0u8; PAGE_PAYLOAD];
    let mut i = 0u64;
    g.bench_function("plain", |b| {
        b.iter(|| {
            i = (i + 97) % PAGES;
            plain.read_page(i, &mut buf).unwrap();
        })
    });

    let mut secure = secure_pager();
    g.bench_function("secure_full", |b| {
        b.iter(|| {
            i = (i + 97) % PAGES;
            secure.read_page(i, &mut buf).unwrap();
        })
    });

    // A scan morsel: 16 consecutive pages through one `read_pages`, whose
    // page MACs run as two passes of eight SIMD lanes where the CPU can.
    let mut morsel = vec![0u8; 16 * PAGE_PAYLOAD];
    let mut ids: Vec<u64> = Vec::with_capacity(16);
    g.throughput(Throughput::Bytes(16 * PAGE_PAYLOAD as u64));
    g.bench_function("secure_batch_16", |b| {
        b.iter(|| {
            i = (i + 97) % (PAGES - 16);
            ids.clear();
            ids.extend(i..i + 16);
            secure.read_pages(&ids, &mut morsel).unwrap();
        })
    });
    g.finish();
}

fn bench_write_and_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("pager_write");
    g.throughput(Throughput::Bytes(PAGE_PAYLOAD as u64));
    let mut secure = secure_pager();
    let payload = vec![0xcdu8; PAGE_PAYLOAD];
    let mut i = 0u64;
    g.bench_function("secure_write", |b| {
        b.iter(|| {
            i = (i + 97) % PAGES;
            secure.write_page(i, &payload).unwrap();
        })
    });
    g.bench_function("secure_commit_rpmb", |b| {
        b.iter(|| secure.commit().unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_read_paths, bench_write_and_commit);
criterion_main!(benches);
