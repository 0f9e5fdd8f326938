//! Cross-crate property tests: the SQL engine against a hand-rolled
//! oracle, the secure channel under fragmentation, and the secure pager
//! under random operation sequences (with reboots).

use ironsafe::crypto::group::Group;
use ironsafe::csa::net::channel_pair;
use ironsafe::sql::value::Value;
use ironsafe::sql::{Database, Row};
use ironsafe::storage::pager::{Pager, PlainPager};
use ironsafe::storage::{SecurePager, PAGE_PAYLOAD};
use ironsafe::tee::trustzone::Manufacturer;
use proptest::prelude::*;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// SQL engine vs oracle: filters, aggregates and joins over random data
// must match a direct in-memory evaluation.
// ---------------------------------------------------------------------

fn arb_row() -> impl Strategy<Value = (i64, f64, bool)> {
    (-50i64..50, -10.0f64..10.0, any::<bool>())
}

fn load(rows: &[(i64, f64, bool)]) -> Database {
    let mut db = Database::new(PlainPager::new());
    db.execute("CREATE TABLE t (a INT, b FLOAT, flag INT)").unwrap();
    let encoded: Vec<Row> = rows
        .iter()
        .map(|(a, b, f)| vec![Value::Int(*a), Value::Float(*b), Value::Int(*f as i64)])
        .collect();
    db.insert_rows("t", encoded).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_matches_oracle(rows in proptest::collection::vec(arb_row(), 0..120), lo in -50i64..50, hi in -50i64..50) {
        let mut db = load(&rows);
        let r = db
            .execute(&format!("SELECT COUNT(*) FROM t WHERE a >= {lo} AND a < {hi} OR flag = 1"))
            .unwrap();
        let expect = rows
            .iter()
            .filter(|(a, _, f)| (*a >= lo && *a < hi) || *f)
            .count() as i64;
        prop_assert_eq!(r.rows()[0][0].as_i64().unwrap(), expect);
    }

    #[test]
    fn aggregates_match_oracle(rows in proptest::collection::vec(arb_row(), 1..120)) {
        let mut db = load(&rows);
        let r = db.execute("SELECT COUNT(*), SUM(a), MIN(a), MAX(a), AVG(b) FROM t").unwrap();
        let row = &r.rows()[0];
        prop_assert_eq!(row[0].as_i64().unwrap(), rows.len() as i64);
        prop_assert_eq!(row[1].as_i64().unwrap(), rows.iter().map(|(a, _, _)| a).sum::<i64>());
        prop_assert_eq!(row[2].as_i64().unwrap(), *rows.iter().map(|(a, _, _)| a).min().unwrap());
        prop_assert_eq!(row[3].as_i64().unwrap(), *rows.iter().map(|(a, _, _)| a).max().unwrap());
        let avg = rows.iter().map(|(_, b, _)| b).sum::<f64>() / rows.len() as f64;
        prop_assert!((row[4].as_f64().unwrap() - avg).abs() < 1e-9);
    }

    #[test]
    fn group_by_matches_oracle(rows in proptest::collection::vec(arb_row(), 0..120)) {
        let mut db = load(&rows);
        let r = db
            .execute("SELECT a % 5, COUNT(*) FROM t GROUP BY a % 5 ORDER BY a % 5")
            .unwrap();
        let mut expect = std::collections::BTreeMap::new();
        for (a, _, _) in &rows {
            *expect.entry(a % 5).or_insert(0i64) += 1;
        }
        prop_assert_eq!(r.rows().len(), expect.len());
        for row in r.rows() {
            let key = row[0].as_i64().unwrap();
            prop_assert_eq!(row[1].as_i64().unwrap(), expect[&key], "group {}", key);
        }
    }

    #[test]
    fn join_matches_oracle(
        left in proptest::collection::vec(-8i64..8, 0..40),
        right in proptest::collection::vec(-8i64..8, 0..40),
    ) {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE l (x INT)").unwrap();
        db.execute("CREATE TABLE r (y INT)").unwrap();
        db.insert_rows("l", left.iter().map(|v| vec![Value::Int(*v)]).collect()).unwrap();
        db.insert_rows("r", right.iter().map(|v| vec![Value::Int(*v)]).collect()).unwrap();
        let got = db.execute("SELECT COUNT(*) FROM l, r WHERE x = y").unwrap();
        let expect: i64 = left
            .iter()
            .map(|x| right.iter().filter(|y| *y == x).count() as i64)
            .sum();
        prop_assert_eq!(got.rows()[0][0].as_i64().unwrap(), expect);
    }

    #[test]
    fn order_by_limit_matches_oracle(rows in proptest::collection::vec(arb_row(), 0..120), k in 0u64..20) {
        let mut db = load(&rows);
        let r = db.execute(&format!("SELECT a FROM t ORDER BY a DESC LIMIT {k}")).unwrap();
        let mut expect: Vec<i64> = rows.iter().map(|(a, _, _)| *a).collect();
        expect.sort_unstable_by(|x, y| y.cmp(x));
        expect.truncate(k as usize);
        let got: Vec<i64> = r.rows().iter().map(|row| row[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// Secure channel: arbitrary payload streams survive fragmentation and
// in-order delivery; any reordering is refused.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn channel_stream_roundtrips(payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..512), 1..20)) {
        let (mut tx, mut rx) = channel_pair(&[3; 32]);
        for p in &payloads {
            let record = tx.seal(p);
            let back = rx.open(&record).unwrap();
            prop_assert_eq!(&back, p);
        }
        prop_assert_eq!(tx.messages, payloads.len() as u64);
    }

    #[test]
    fn channel_rejects_any_skipped_record(n in 2usize..10, skip in 0usize..9) {
        let skip = skip % (n - 1); // skip one of the first n-1 records
        let (mut tx, mut rx) = channel_pair(&[4; 32]);
        let records: Vec<_> = (0..n).map(|i| tx.seal(&[i as u8; 16])).collect();
        for (i, r) in records.iter().enumerate() {
            if i == skip {
                continue; // dropped by the adversary
            }
            let result = rx.open(r);
            if i < skip {
                prop_assert!(result.is_ok());
            } else {
                prop_assert!(result.is_err(), "record {} after a gap must be refused", i);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Secure pager: random write/commit/reboot sequences never lose
// committed data and never serve stale data.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PagerOp {
    Write { page: u8, fill: u8 },
    Commit,
    Reboot,
}

fn arb_op() -> impl Strategy<Value = PagerOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(page, fill)| PagerOp::Write { page, fill }),
        Just(PagerOp::Commit),
        Just(PagerOp::Reboot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pager_sequences_preserve_committed_state(ops in proptest::collection::vec(arb_op(), 1..40), seed in any::<u64>()) {
        const PAGES: u8 = 6;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"prop-vendor");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let device = mfr.make_device("prop", 8, &mut rng);
        let mut pager = SecurePager::create(device, seed).unwrap();
        for _ in 0..PAGES {
            pager.allocate_page().unwrap();
        }
        pager.commit().unwrap();

        // Shadow model of *committed* state.
        let mut committed: Vec<u8> = vec![0; PAGES as usize];
        let mut pending: Vec<u8> = committed.clone();
        let mut dirty = false;

        for op in ops {
            match op {
                PagerOp::Write { page, fill } => {
                    let page = page % PAGES;
                    let data = vec![fill; PAGE_PAYLOAD];
                    pager.write_page(page as u64, &data).unwrap();
                    pending[page as usize] = fill;
                    dirty = true;
                }
                PagerOp::Commit => {
                    pager.commit().unwrap();
                    committed = pending.clone();
                    dirty = false;
                }
                PagerOp::Reboot => {
                    let (tz, medium) = pager.into_parts();
                    if dirty {
                        // Uncommitted writes changed the medium past the
                        // RPMB root: reopen must refuse (and the run ends —
                        // the data is unrecoverable without the root).
                        prop_assert!(SecurePager::open(tz, medium, seed ^ 1).is_err());
                        return Ok(());
                    }
                    pager = SecurePager::open(tz, medium, seed ^ 1).unwrap();
                    pending = committed.clone();
                }
            }
        }
        // Whatever survived must match the shadow of the *current* state.
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        for p in 0..PAGES {
            pager.read_page(p as u64, &mut buf).unwrap();
            prop_assert!(buf.iter().all(|&b| b == pending[p as usize]), "page {} content", p);
        }
    }
}
