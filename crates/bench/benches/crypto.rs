//! Microbenchmarks for the cryptographic primitives (cost-model inputs:
//! the per-page decrypt/HMAC costs of Figures 8 and 9c derive from these)
//! and for the one layer built directly on them: the sealed row channel.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ironsafe_crypto::aes::Aes128;
use ironsafe_crypto::group::Group;
use ironsafe_crypto::hmac::hmac_sha256;
use ironsafe_crypto::hmac512::HmacSha512;
use ironsafe_crypto::modes::{cbc_decrypt_aligned, cbc_encrypt_aligned, ctr_xor};
use ironsafe_crypto::schnorr::KeyPair;
use ironsafe_crypto::sha256::sha256;
use ironsafe_csa::net::RowLink;
use ironsafe_sql::{Database, EncodedRows};
use ironsafe_storage::pager::PlainPager;
use rand::SeedableRng;

const PAGE: usize = 4096;
/// IV ‖ ciphertext: the stored block without its 32-byte MAC trailer.
const PAGE_MAC_BODY: usize = PAGE - 32;

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    let page = vec![0xabu8; PAGE];
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("page_4k", |b| b.iter(|| sha256(std::hint::black_box(&page))));
    g.finish();

    let mut g = c.benchmark_group("hmac_sha256");
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("page_4k", |b| b.iter(|| hmac_sha256(b"key", std::hint::black_box(&page))));
    g.bench_function("merkle_node_64b", |b| {
        let node = [0u8; 64];
        b.iter(|| hmac_sha256(b"key", std::hint::black_box(&node)))
    });
    g.finish();

    // The page MAC as the codec computes it: a pre-keyed MAC over
    // "page" ‖ id (12 bytes) ‖ IV ‖ ciphertext (4 064 bytes, in place),
    // one page at a time and as a read batch of 8 and 16 pages.
    let mut g = c.benchmark_group("hmac_sha512");
    let mac = HmacSha512::new(&[0x17; 32]);
    let blocks = vec![0xabu8; 16 * PAGE];
    let (blocks, _) = blocks.as_chunks::<PAGE>();
    let head = |id: usize| {
        let mut head = [0u8; 12];
        head[..4].copy_from_slice(b"page");
        head[4..].copy_from_slice(&(id as u64).to_be_bytes());
        head
    };
    let body = |id: usize| &std::hint::black_box(&blocks[id])[..PAGE_MAC_BODY];
    g.throughput(Throughput::Bytes(12 + PAGE_MAC_BODY as u64));
    g.bench_function("page", |b| {
        b.iter(|| {
            let mut h = mac.clone();
            h.update(&head(7));
            h.update(body(7));
            h.finalize_trunc256()
        })
    });
    for pages in [8, 16] {
        let mut tags = vec![[0u8; 32]; pages];
        g.throughput(Throughput::Bytes(pages as u64 * (12 + PAGE_MAC_BODY as u64)));
        g.bench_function(format!("batch_{pages}"), |b| {
            b.iter(|| mac.tags_trunc256(|i| (head(i), body(i)), &mut tags))
        });
    }
    g.finish();
}

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new(&[7; 16]);
    let mut g = c.benchmark_group("aes128");
    g.throughput(Throughput::Bytes(PAGE as u64));
    g.bench_function("cbc_encrypt_page", |b| {
        b.iter_batched(
            || vec![0x5au8; PAGE],
            |mut page| cbc_encrypt_aligned(&aes, &[1; 16], &mut page),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("cbc_decrypt_page", |b| {
        let mut ct = vec![0x5au8; PAGE];
        cbc_encrypt_aligned(&aes, &[1; 16], &mut ct);
        b.iter_batched(
            || ct.clone(),
            |mut page| cbc_decrypt_aligned(&aes, &[1; 16], &mut page).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("ctr_page", |b| {
        b.iter_batched(
            || vec![0x5au8; PAGE],
            |mut page| ctr_xor(&aes, &[1; 16], &mut page),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let group = Group::modp_1024();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(&group, &mut rng);
    let sig = kp.secret.sign(b"attestation quote", &mut rng);
    let mut g = c.benchmark_group("schnorr_1024");
    g.sample_size(20);
    g.bench_function("sign", |b| b.iter(|| kp.secret.sign(std::hint::black_box(b"quote"), &mut rng)));
    g.bench_function("verify", |b| {
        b.iter(|| kp.public.verify(&group, b"attestation quote", std::hint::black_box(&sig)).unwrap())
    });
    let exp = group.random_scalar(&mut rng);
    let base = group.pow_g(&group.random_scalar(&mut rng));
    g.bench_function("pow_g", |b| b.iter(|| group.pow_g(std::hint::black_box(&exp))));
    g.bench_function("pow_var_base_160", |b| {
        b.iter(|| group.pow(std::hint::black_box(&base), std::hint::black_box(&exp)))
    });
    g.bench_function("keygen", |b| b.iter(|| KeyPair::generate(&group, &mut rng)));
    g.finish();
}

/// One full record of real `lineitem` rows through the fragment shipper:
/// encode → seal → authenticate + open in place → validate → append to
/// the host's temp-table pages.
fn bench_channel(c: &mut Criterion) {
    let data = ironsafe_tpch::generate(0.001, 1);
    let rows = &data.lineitem[..4096];
    let mut storage = Database::new(PlainPager::new());
    ironsafe_tpch::load_into(&mut storage, &data).expect("load");
    let schema = storage.catalog().table("lineitem").expect("lineitem").schema.clone();
    let wire_bytes = EncodedRows::from_rows(rows).as_slice().bytes().len();

    let mut g = c.benchmark_group("channel");
    g.throughput(Throughput::Bytes(wire_bytes as u64));
    g.bench_function("ship_4096_rows", |b| {
        let mut link = RowLink::new(&[0x61; 32]);
        b.iter(|| {
            let encoded = EncodedRows::from_rows(std::hint::black_box(rows));
            let mut host = Database::new(PlainPager::new());
            link.ship_table(&mut host, "lineitem", schema.clone(), &encoded).expect("ship");
            host
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hash, bench_aes, bench_schnorr, bench_channel);
criterion_main!(benches);
