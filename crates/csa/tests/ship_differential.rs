//! Byte path vs row path, differentially.
//!
//! The fragment shipper carries a fragment's output as one encoded-row
//! buffer from the scan through the channel into the host's temp table.
//! The row path it replaced — `select` into owned rows, `seal_rows` per
//! ≤ 4096-row chunk, `insert_rows` of the sender's rows — is still
//! expressible through the public wrappers, so it serves as the oracle:
//! for random tables, at DOP 1 and 3, and for each of the three ways a
//! fragment can cross (all rows sealed — `Offload`; none — `ShipPages`;
//! a prefix — a mid-flight re-plan), the records on the wire and the
//! pages of the host's temp table must be byte-identical.

use ironsafe_csa::net::{channel_pair, Record, RowLink, SecureChannel, ROWS_PER_RECORD};
use ironsafe_sql::ast::{SelectStmt, Statement};
use ironsafe_sql::exec::ExecOptions;
use ironsafe_sql::parser::parse_statement;
use ironsafe_sql::{Database, EncodedRows, Row, Value};
use ironsafe_storage::pager::PlainPager;
use proptest::prelude::*;

const CREATE: &str = "CREATE TABLE t (a INT, b FLOAT, s TEXT, n INT, m TEXT)";

/// Nullable int, nullable float, nullable text of up to almost a page,
/// a mostly-NULL int and a column whose type varies from row to row.
fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop_oneof![Just(Value::Null), (-20i64..20).prop_map(Value::Int)],
        prop_oneof![Just(Value::Null), (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.5))],
        prop_oneof![
            Just(Value::Null),
            (0usize..40).prop_map(|i| Value::Text("t\u{e9}xt ".repeat(i))),
            Just(Value::Text("p".repeat(3900))),
        ],
        prop_oneof![Just(Value::Null), Just(Value::Null), (0i64..3).prop_map(Value::Int)],
        prop_oneof![
            Just(Value::Null),
            (0i64..5).prop_map(Value::Int),
            (0i64..5).prop_map(|i| Value::Text(format!("t{i}"))),
        ],
    )
        .prop_map(|(a, b, s, n, m)| vec![a, b, s, n, m])
}

/// Fragment shapes: bare columns, computed slots, a predicate that keeps
/// nothing, no predicate at all.
const FRAGMENTS: &[&str] = &[
    "SELECT a, s, m FROM t WHERE a > 3 OR n IS NOT NULL",
    "SELECT s, b * 2.0 - a, n IS NULL, m FROM t WHERE b < 2.0",
    "SELECT a, b, s, n, m FROM t",
    "SELECT m, a FROM t WHERE a > 100",
];

fn storage_db(rows: Vec<Row>) -> Database {
    let mut db = Database::new(PlainPager::new());
    db.execute(CREATE).unwrap();
    db.insert_rows("t", rows).unwrap();
    db
}

fn select(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(sel) => sel,
        other => panic!("not a SELECT: {other:?}"),
    }
}

/// Every page of `table`, in heap order.
fn table_pages(db: &Database, table: &str) -> Vec<(u64, Vec<u8>)> {
    let heap = &db.catalog().table(table).unwrap().heap;
    let mut pager = db.pager().lock();
    let mut page = vec![0u8; pager.payload_size()];
    heap.pages
        .iter()
        .map(|&id| {
            pager.read_page(id, &mut page).unwrap();
            (id, page.clone())
        })
        .collect()
}

/// Run `sql` against `db` both ways at `dop` and compare everything that
/// crosses the wire or lands on the host.
fn check(db: &mut Database, sql: &str, dop: usize) {
    let stmt = select(sql);
    let opts = ExecOptions { morsel_pages: 2, oversubscribe: true, ..ExecOptions::with_dop(dop) };
    let (by_rows, _) = db.select_with_profile(&stmt, &opts).unwrap();
    let schema = by_rows.schema();
    let rows = by_rows.into_rows();
    let mut encoded = EncodedRows::new();
    let (encoded_schema, _) = db.select_encoded(&stmt, &opts, &mut encoded).unwrap();
    assert_eq!(encoded_schema, schema);
    assert_eq!(encoded, EncodedRows::from_rows(&rows), "scan sink, dop {dop}: {sql}");

    for sealed in [rows.len(), 0, rows.len() / 3] {
        // Row path: the parent's sequence.
        let (mut tx, mut rx) = channel_pair(&[0x33; 32]);
        let mut records: Vec<Record> = Vec::new();
        for chunk in rows[..sealed].chunks(ROWS_PER_RECORD as usize) {
            let record = tx.seal_rows(&schema, chunk);
            assert_eq!(rx.recv_rows(&record).unwrap().len(), chunk.len());
            records.push(record);
        }
        let mut host_rows = Database::new(PlainPager::new());
        host_rows.create_table("t", schema.clone()).unwrap();
        host_rows.insert_rows("t", rows.clone()).unwrap();

        // Byte path: the shipper, and the frames it seals.
        let mut link = RowLink::new(&[0x33; 32]);
        let mut host_bytes = Database::new(PlainPager::new());
        link.ship_table(&mut host_bytes, "t", schema.clone(), &encoded, sealed).unwrap();
        let (mut frames, mut frame) = (SecureChannel::new(&[0x33; 32]), Record::default());
        for (start, record) in (0..sealed).step_by(ROWS_PER_RECORD as usize).zip(&records) {
            let end = sealed.min(start + ROWS_PER_RECORD as usize);
            frames.seal_frame(schema.len(), encoded.slice(start..end), &mut frame);
            assert_eq!(
                (frame.seq, &frame.payload, frame.mac),
                (record.seq, &record.payload, record.mac),
                "record at row {start}"
            );
        }
        assert_eq!((link.tx.messages, link.tx.bytes_sent), (tx.messages, tx.bytes_sent));
        assert_eq!(link.tx.messages, (sealed as u64).div_ceil(ROWS_PER_RECORD));
        assert_eq!(link.rx.expect_seq(), rx.expect_seq());

        let (got, want) = (table_pages(&host_bytes, "t"), table_pages(&host_rows, "t"));
        assert_eq!(got, want, "host temp pages, sealed {sealed} of {}, dop {dop}: {sql}", rows.len());
        assert_eq!(
            host_bytes.catalog().table("t").unwrap().heap,
            host_rows.catalog().table("t").unwrap().heap
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_tables_cross_identically_on_both_paths(
        rows in proptest::collection::vec(row_strategy(), 0..120),
        fragment in 0..FRAGMENTS.len(),
    ) {
        let mut db = storage_db(rows);
        for dop in [1, 3] {
            check(&mut db, FRAGMENTS[fragment], dop);
        }
    }
}

/// More than two records' worth of rows: chunking at `ROWS_PER_RECORD`,
/// a short last record, frames appended to the host table one after
/// another (each resuming the previous one's tail page).
#[test]
fn multi_record_results_cross_identically_on_both_paths() {
    let n = 2 * ROWS_PER_RECORD as i64 + 777;
    let rows = (0..n)
        .map(|i| {
            vec![
                Value::Int(i % 41 - 20),
                if i % 7 == 0 { Value::Null } else { Value::Float(i as f64 * 0.25) },
                Value::Text(format!("row {i} {}", "-".repeat((i % 50) as usize))),
                if i % 3 == 0 { Value::Int(i % 3) } else { Value::Null },
                if i % 2 == 0 { Value::Int(i) } else { Value::Text(format!("t{i}")) },
            ]
        })
        .collect();
    let mut db = storage_db(rows);
    for dop in [1, 3] {
        check(&mut db, FRAGMENTS[2], dop);
        check(&mut db, FRAGMENTS[0], dop);
    }
}
