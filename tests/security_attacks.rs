//! Attack suite: every adversary capability from the paper's threat model
//! (§3.3), mounted against the real stack, must be detected or refused.

use ironsafe::crypto::group::Group;
use ironsafe::crypto::schnorr::KeyPair;
use ironsafe::csa::net::channel_pair;
use ironsafe::monitor::monitor::{MonitorConfig, QueryRequest};
use ironsafe::monitor::TrustedMonitor;
use ironsafe::policy::parse_policy;
use ironsafe::sql::Database;
use ironsafe::storage::pager::Pager;
use ironsafe::storage::{SecurePager, StorageError, PAGE_PAYLOAD};
use ironsafe::tee::image::SoftwareImage;
use ironsafe::tee::sgx::{AttestationService, EnclaveConfig, Quote, SgxPlatform};
use ironsafe::tee::trustzone::{
    AttestationTa, BootImages, Manufacturer, SecureBoot, SignedImage,
};
use rand::SeedableRng;

type Rng = rand::rngs::StdRng;

fn rng() -> Rng {
    Rng::seed_from_u64(99)
}

// ---------------------------------------------------------------------
// Attacks on persistent state (untrusted medium).
// ---------------------------------------------------------------------

fn loaded_secure_db() -> Database {
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"attack-vendor");
    let device = mfr.make_device("victim", 8, &mut rng());
    let mut db = Database::new(SecurePager::create(device, 1).unwrap());
    db.execute("CREATE TABLE secrets (id INT, ssn TEXT)").unwrap();
    let values: Vec<String> = (0..300).map(|i| format!("({i}, 'ssn-{i:06}')")).collect();
    db.execute(&format!("INSERT INTO secrets VALUES {}", values.join(", "))).unwrap();
    db
}

#[test]
fn medium_inspection_reveals_no_plaintext() {
    // The attacker dumps every raw block of the medium and greps for the
    // sensitive values; nothing may appear.
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"inspect-vendor");
    let device = mfr.make_device("inspect", 8, &mut rng());
    let mut pager = SecurePager::create(device, 7).unwrap();
    let id = pager.allocate_page().unwrap();
    let mut payload = vec![0u8; PAGE_PAYLOAD];
    payload[..20].copy_from_slice(b"ssn-123456 TOPSECRET");
    pager.write_page(id, &payload).unwrap();
    let raw = pager.device().raw_read(id).unwrap();
    assert!(!raw.windows(9).any(|w| w == b"TOPSECRET"), "plaintext leaked to the medium");
    assert!(!raw.windows(10).any(|w| w == b"ssn-123456"));
    // The legitimate query path still reads it fine.
    let mut back = vec![0u8; payload.len()];
    pager.read_page(id, &mut back).unwrap();
    assert_eq!(back, payload);
}

#[test]
fn offline_page_tampering_detected_at_query_time() {
    // The attacker flips bits in a data block on the medium; the next
    // read through the secure path must refuse it, while an untampered
    // database keeps serving.
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"attack-vendor-2");
    let device = mfr.make_device("victim2", 8, &mut rng());
    let mut pager = SecurePager::create(device, 2).unwrap();
    let id = pager.allocate_page().unwrap();
    let payload = vec![7u8; PAGE_PAYLOAD];
    pager.write_page(id, &payload).unwrap();
    pager.device_mut().raw_tamper(id, 64, 0xff);
    let mut buf = vec![0u8; payload.len()];
    assert!(matches!(pager.read_page(id, &mut buf), Err(StorageError::IntegrityViolation(_))));

    let mut db = loaded_secure_db();
    let r = db.execute("SELECT COUNT(*) FROM secrets").unwrap();
    assert_eq!(r.rows()[0][0].as_i64().unwrap(), 300, "untampered database still serves");
}

#[test]
fn rollback_attack_across_reboot_detected() {
    let group = Group::modp_1024();
    let mfr = Manufacturer::from_seed(&group, b"attack-vendor-3");
    let device = mfr.make_device("victim3", 8, &mut rng());
    let mut pager = SecurePager::create(device, 3).unwrap();
    let id = pager.allocate_page().unwrap();
    let v1 = vec![1u8; PAGE_PAYLOAD];
    let v2 = vec![2u8; PAGE_PAYLOAD];
    pager.write_page(id, &v1).unwrap();
    pager.commit().unwrap();
    let stale = pager.device().raw_snapshot();
    pager.write_page(id, &v2).unwrap();
    pager.commit().unwrap();
    // Power off; attacker restores the old medium; reboot.
    let (tz, mut medium) = pager.into_parts();
    medium.raw_restore(stale);
    assert!(matches!(SecurePager::open(tz, medium, 4), Err(StorageError::FreshnessViolation(_))));
}

#[test]
fn medium_layout_does_not_depend_on_row_contents() {
    // The compression-oracle attack (DBREACH): the attacker inserts a row
    // of guess ‖ compressible tail next to a secret and its writer's
    // incompressible filler, and watches the medium for a page whose size
    // moves when the guess matches. On the stack every storage node runs
    // (`csa::storage_pager`), a correct and a wrong guess leave as many
    // pages, each in a block of the same length, written with as many
    // block writes, at every tail length. With this much filler, a store
    // that compresses 8-block pages before encryption spends one block
    // more on the wrong guess than on the right one, at every tail.
    use ironsafe::csa::{storage_pager, CostParams};
    use rand::Rng;
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut r = rng();
    let mut word = |len: usize| -> String {
        (0..len).map(|_| ALPHABET[r.gen_range(0..ALPHABET.len())] as char).collect()
    };
    let (secret, wrong) = (word(24), word(24));
    let filler: Vec<String> = [400; 8].into_iter().chain([16]).map(&mut word).collect();
    let victim = || {
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"size-channel-vendor");
        let device = mfr.make_device("victim-size", 8, &mut rng());
        let epc = CostParams::default().epc_limit_bytes;
        let mut db = Database::with_shared(storage_pager(Some((device, 5)), epc).unwrap());
        db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
        db.execute(&format!("INSERT INTO t VALUES (1, 'token={secret}')")).unwrap();
        for f in &filler {
            db.execute(&format!("INSERT INTO t VALUES (0, '{f}')")).unwrap();
        }
        db
    };
    let layout = |db: &Database| {
        let pager = db.pager().lock();
        let blocks: Vec<Option<usize>> =
            (0..pager.num_pages()).map(|id| pager.export_block(id).map(|b| b.len())).collect();
        (pager.num_pages(), blocks, pager.stats().page_writes)
    };
    let mut sides = [(victim(), &secret), (victim(), &wrong)];
    for tail in 0..=512 {
        for (db, guess) in &mut sides {
            let row = format!("token={guess}{}", "a".repeat(tail));
            db.execute(&format!("INSERT INTO t VALUES (2, '{row}')")).unwrap();
        }
        assert_eq!(layout(&sides[0].0), layout(&sides[1].0), "tail of {tail} bytes");
        for (db, _) in &mut sides {
            db.execute("DELETE FROM t WHERE id = 2").unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Attacks on attestation (impersonation, tampered stacks).
// ---------------------------------------------------------------------

struct AttestFixture {
    group: Group,
    monitor: TrustedMonitor,
    platform: SgxPlatform,
    host_image: SoftwareImage,
    mfr: Manufacturer,
    images: BootImages,
}

fn attest_fixture() -> AttestFixture {
    let group = Group::modp_1024();
    let mut r = rng();
    let platform = SgxPlatform::from_seed(&group, b"genuine-host");
    let host_image = SoftwareImage::new("host-engine", 5, b"trusted engine".to_vec());
    let mut ias = AttestationService::new(&group);
    ias.register_platform(&platform);
    let mfr = Manufacturer::from_seed(&group, b"genuine-vendor");
    let vendor = KeyPair::derive(&group, b"genuine-vendor", b"tz-manufacturer-root");
    let device = mfr.make_device("genuine-storage", 8, &mut r);
    let images = BootImages {
        trusted_firmware: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("atf", 2, b"atf".to_vec()), &mut r),
        trusted_os: SignedImage::sign(&group, &vendor.secret, SoftwareImage::new("optee", 34, b"optee".to_vec()), &mut r),
        normal_world: SoftwareImage::new("nw", 5, b"trusted nw".to_vec()),
    };
    let booted = SecureBoot::boot(&device, &mfr.root_public(), &images, &mut r).unwrap();
    let config = MonitorConfig {
        expected_host_measurement: host_image.measure(),
        expected_nw_measurement: booted.nw_measurement,
        latest_fw: 5,
    };
    let monitor = TrustedMonitor::new(&group, 5, ias, mfr.root_public(), config);
    AttestFixture { group, monitor, platform, host_image, mfr, images }
}

#[test]
fn backdoored_host_engine_cannot_attest() {
    let mut f = attest_fixture();
    let mut r = rng();
    let evil_image = SoftwareImage::new("host-engine", 5, b"trusted engine + backdoor".to_vec());
    let enclave = f.platform.create_enclave(&evil_image, EnclaveConfig::default());
    let keys = KeyPair::generate(&f.group, &mut r);
    let commitment = ironsafe::crypto::sha256::sha256(&keys.public.to_bytes(&f.group));
    let quote = Quote::generate(&f.platform, &enclave, &commitment, &mut r);
    assert!(f.monitor.attest_host("host-0", "EU", &quote, &keys.public).is_err());
}

#[test]
fn unregistered_sgx_platform_cannot_attest() {
    let mut f = attest_fixture();
    let mut r = rng();
    let rogue = SgxPlatform::from_seed(&f.group, b"rogue-host");
    let enclave = rogue.create_enclave(&f.host_image, EnclaveConfig::default());
    let keys = KeyPair::generate(&f.group, &mut r);
    let commitment = ironsafe::crypto::sha256::sha256(&keys.public.to_bytes(&f.group));
    let quote = Quote::generate(&rogue, &enclave, &commitment, &mut r);
    assert!(f.monitor.attest_host("host-0", "EU", &quote, &keys.public).is_err());
}

#[test]
fn impersonated_storage_device_cannot_attest() {
    // An attacker-controlled device from a different (or forged)
    // manufacturer answers the monitor's challenge.
    let mut f = attest_fixture();
    let mut r = rng();
    let evil_mfr = Manufacturer::from_seed(&f.group, b"evil-vendor");
    let evil_vendor = KeyPair::derive(&f.group, b"evil-vendor", b"tz-manufacturer-root");
    let evil_device = evil_mfr.make_device("fake-storage", 8, &mut r);
    let evil_images = BootImages {
        trusted_firmware: SignedImage::sign(&f.group, &evil_vendor.secret, f.images.trusted_firmware.image.clone(), &mut r),
        trusted_os: SignedImage::sign(&f.group, &evil_vendor.secret, f.images.trusted_os.image.clone(), &mut r),
        normal_world: f.images.normal_world.clone(),
    };
    let booted = SecureBoot::boot(&evil_device, &evil_mfr.root_public(), &evil_images, &mut r).unwrap();
    let challenge = f.monitor.storage_challenge();
    let response = AttestationTa::new(&booted).respond(challenge, &mut r);
    assert!(f.monitor.attest_storage("storage-0", "EU", &response).is_err());
}

#[test]
fn modified_normal_world_cannot_attest() {
    let mut f = attest_fixture();
    let mut r = rng();
    let device = f.mfr.make_device("genuine-storage", 8, &mut r);
    let mut images = f.images.clone();
    images.normal_world = SoftwareImage::new("nw", 5, b"trusted nw + rootkit".to_vec());
    let booted = SecureBoot::boot(&device, &f.mfr.root_public(), &images, &mut r).unwrap();
    let challenge = f.monitor.storage_challenge();
    let response = AttestationTa::new(&booted).respond(challenge, &mut r);
    let err = f.monitor.attest_storage("storage-0", "EU", &response);
    assert!(err.is_err(), "unexpected normal-world measurement must be refused");
}

// ---------------------------------------------------------------------
// Attacks on data in transit.
// ---------------------------------------------------------------------

#[test]
fn channel_tamper_replay_and_cross_session_rejected() {
    let (mut tx, mut rx) = channel_pair(&[1; 32]);
    let record = tx.seal(b"l_orderkey=42");
    // Tamper.
    let mut bad = record.clone();
    bad.payload[0] ^= 1;
    assert!(rx.open(&bad).is_err());
    // Genuine delivery works...
    assert_eq!(rx.open(&record).unwrap(), b"l_orderkey=42");
    // ...but replay does not.
    assert!(rx.open(&record).is_err());
    // Cross-session injection: a record sealed under an old session key.
    let (mut old_tx, _) = channel_pair(&[2; 32]);
    let stale = old_tx.seal(b"stale");
    assert!(rx.open(&stale).is_err());
}

// ---------------------------------------------------------------------
// Attacks through the query interface.
// ---------------------------------------------------------------------

#[test]
fn crafted_queries_are_logged_and_refused() {
    let mut f = attest_fixture();
    let mut r = rng();
    // Attest genuine host + storage first.
    let enclave = f.platform.create_enclave(&f.host_image, EnclaveConfig::default());
    let keys = KeyPair::generate(&f.group, &mut r);
    let commitment = ironsafe::crypto::sha256::sha256(&keys.public.to_bytes(&f.group));
    let quote = Quote::generate(&f.platform, &enclave, &commitment, &mut r);
    f.monitor.attest_host("host-0", "EU", &quote, &keys.public).unwrap();
    let device = f.mfr.make_device("genuine-storage", 8, &mut r);
    let booted = SecureBoot::boot(&device, &f.mfr.root_public(), &f.images, &mut r).unwrap();
    let challenge = f.monitor.storage_challenge();
    let response = AttestationTa::new(&booted).respond(challenge, &mut r);
    f.monitor.attest_storage("storage-0", "EU", &response).unwrap();

    f.monitor.register_database("db", parse_policy("read :- sessionKeyIs(Ka)").unwrap());

    // SQL-injection-style garbage: rejected AND recorded tamper-proof.
    let req = QueryRequest {
        client_key: "Ka".into(),
        database: "db".into(),
        sql: "SELECT a FROM t WHERE x = ''; DROP TABLE t; --'".into(),
        exec_policy: String::new(),
        access_time: 1,
    };
    assert!(f.monitor.authorize(&req).is_err());
    assert!(f.monitor.audit().verify());
    assert!(f
        .monitor
        .audit()
        .entries()
        .iter()
        .any(|e| e.message.contains("REJECTED malformed")));
}

#[test]
fn audit_log_tampering_is_detectable() {
    let log = ironsafe::monitor::AuditLog::new();
    log.append(1, "monitor", "Ka", "GRANT read: SELECT 1");
    log.append(2, "sharing", "Kb", "SELECT arrival FROM bookings");
    log.append(3, "monitor", "Kb", "session 1 cleaned up");
    assert!(log.verify());
    // A malicious processor rewrites history.
    log.with_raw_entries(|entries| entries[1].message = "SELECT nothing".into());
    assert!(!log.verify());
}
