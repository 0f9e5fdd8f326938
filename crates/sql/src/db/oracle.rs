//! The parent's DML, kept as the reference the differential tests run
//! the product against.
//!
//! Everything in this module is the code of commit `bad5351` — the last
//! one whose `UPDATE` / `DELETE` / `INSERT` ran row at a time — copied,
//! not rewritten: `Database::{insert, update, delete, rewrite_where}`
//! from `db.rs`, `HeapFile::{rewrite, pack}` and `encode_row` from
//! `heap.rs` (as functions over a `&mut HeapFile`, since the product
//! `pack` has since become all-or-nothing). It decodes every page to a
//! `Vec<Row>` (`HeapFile::all_rows`), evaluates one row at a time with
//! `expr::eval_bound`, re-encodes every kept row and packs the records
//! over the table's old pages. The product path must leave the same
//! `QueryResult`, the same `HeapFile`, the same bytes on every page and
//! the same `PagerStats` delta (`tests::dml_matches_the_parent_…`).
//!
//! One parent bug is deliberately still here: `rewrite` gives the page
//! list away before `pack` has validated a record, so a statement that
//! fails in `pack` (a row larger than a page) corrupts the oracle's
//! table. The differential scripts never build such a row; the three
//! regression tests below cover that case on the product path.

use super::*;
use crate::exec::bind_all;
use crate::expr::eval_bound;
use crate::heap::HeapFile;
use ironsafe_storage::pager::PageId;
use ironsafe_storage::PAGE_PAYLOAD;

const HEADER: usize = 6; // u32 used + u16 nrows

/// Run `sql` the parent's way: DML through the functions below, anything
/// else through the product (`SELECT` and DDL are not what is compared).
pub(crate) fn execute(db: &mut Database, sql: &str) -> Result<QueryResult> {
    match crate::parser::parse_statement(sql)? {
        Statement::Insert { table, columns, values } => insert(db, &table, columns.as_deref(), &values),
        Statement::Update { table, sets, where_clause } => update(db, &table, &sets, where_clause.as_ref()),
        Statement::Delete { table, where_clause } => delete(db, &table, where_clause.as_ref()),
        other => db.execute_statement(&other),
    }
}

fn insert(
    db: &mut Database,
    table: &str,
    columns: Option<&[String]>,
    values: &[Vec<Expr>],
) -> Result<QueryResult> {
    let info = db.catalog.table(table)?;
    let schema = info.schema.clone();
    // Map provided columns to schema positions.
    let positions: Vec<usize> = match columns {
        None => (0..schema.len()).collect(),
        Some(cols) => cols.iter().map(|c| schema.resolve(c)).collect::<Result<_>>()?,
    };
    // VALUES expressions see no columns.
    let (no_columns, no_row) = (Schema::default(), Row::new());
    let mut rows = Vec::with_capacity(values.len());
    for value_exprs in values {
        if value_exprs.len() != positions.len() {
            return Err(SqlError::Plan(format!(
                "INSERT has {} values for {} columns",
                value_exprs.len(),
                positions.len()
            )));
        }
        let mut row = vec![Value::Null; schema.len()];
        for (expr, &pos) in value_exprs.iter().zip(positions.iter()) {
            row[pos] = eval_bound(&bind(expr, &no_columns)?, &no_row)?;
        }
        rows.push(row);
    }
    let n = rows.len() as u64;
    let info = db.catalog.table_mut(table)?;
    pack(&mut info.heap, &db.pager, rows.iter().map(encode_row), std::iter::empty())?;
    db.pager.lock().commit()?;
    Ok(QueryResult::Count(n))
}

fn update(
    db: &mut Database,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
) -> Result<QueryResult> {
    let schema = &db.catalog.table(table)?.schema;
    let positions: Vec<usize> =
        sets.iter().map(|(c, _)| schema.resolve(c)).collect::<Result<_>>()?;
    let values = bind_all(sets.iter().map(|(_, e)| e), schema)?;
    rewrite_where(db, table, where_clause, |mut row| {
        // Evaluate all assignments against the *old* row.
        let new_vals: Vec<Value> =
            values.iter().map(|e| eval_bound(e, &row)).collect::<Result<_>>()?;
        for (&pos, v) in positions.iter().zip(new_vals) {
            row[pos] = v;
        }
        Ok(Some(row))
    })
}

fn delete(db: &mut Database, table: &str, where_clause: Option<&Expr>) -> Result<QueryResult> {
    rewrite_where(db, table, where_clause, |_| Ok(None))
}

/// Rewrite `table`, replacing every row `where_clause` selects (bound
/// once, before the first row is read) by `change(row)` — `None`
/// deletes it. Counts the rows selected.
fn rewrite_where(
    db: &mut Database,
    table: &str,
    where_clause: Option<&Expr>,
    mut change: impl FnMut(Row) -> Result<Option<Row>>,
) -> Result<QueryResult> {
    let info = db.catalog.table(table)?;
    let predicate = where_clause.map(|w| bind(w, &info.schema)).transpose()?;
    let rows = info.heap.all_rows(&db.pager, info.schema.len())?;
    let mut kept = Vec::with_capacity(rows.len());
    let mut selected = 0u64;
    for row in rows {
        let hit = match &predicate {
            None => true,
            Some(w) => eval_bound(w, &row)?.is_truthy(),
        };
        if hit {
            selected += 1;
            kept.extend(change(row)?);
        } else {
            kept.push(row);
        }
    }
    let info = db.catalog.table_mut(table)?;
    rewrite(&mut info.heap, &db.pager, kept)?;
    db.pager.lock().commit()?;
    Ok(QueryResult::Count(selected))
}

fn encode_row(row: &Row) -> Vec<u8> {
    let mut buf = Vec::with_capacity(row.len() * 12);
    for v in row {
        crate::value::encode_value(v, &mut buf);
    }
    buf
}

/// Replace the heap's contents with `rows`, reusing existing pages
/// (leftover ones are zeroed so stale rows are unreachable).
fn rewrite(heap: &mut HeapFile, pager: &SharedPager, rows: Vec<Row>) -> Result<()> {
    let old_pages = std::mem::take(&mut heap.pages);
    heap.row_count = 0;
    pack(heap, pager, rows.iter().map(encode_row), old_pages.into_iter())
}

/// The parent's writer of the page layout. Continues on the tail page,
/// if the heap has one; new pages are drawn from `spare` before any is
/// allocated, and whatever is left of `spare` is zeroed.
fn pack<R: AsRef<[u8]>>(
    heap: &mut HeapFile,
    pager: &SharedPager,
    records: impl IntoIterator<Item = R>,
    mut spare: impl Iterator<Item = PageId>,
) -> Result<()> {
    let mut pager = pager.lock();
    let mut page = vec![0u8; PAGE_PAYLOAD];
    let (mut used, mut nrows) = (HEADER, 0u16);
    let mut cur = heap.pages.last().copied();
    if let Some(tail) = cur {
        pager.read_page(tail, &mut page)?;
        used = u32::from_be_bytes(page[0..4].try_into().expect("4")) as usize;
        nrows = u16::from_be_bytes(page[4..6].try_into().expect("2"));
    }
    let flush = |pager: &mut dyn Pager, page: &mut [u8], cur, used: usize, nrows: u16| {
        let Some(id) = cur else { return Ok(()) };
        page[0..4].copy_from_slice(&(used as u32).to_be_bytes());
        page[4..6].copy_from_slice(&nrows.to_be_bytes());
        pager.write_page(id, page)
    };
    for record in records {
        let record = record.as_ref();
        let need = 4 + record.len();
        if need > page.len() - HEADER {
            return Err(SqlError::Eval(format!(
                "row of {} bytes exceeds page payload",
                record.len()
            )));
        }
        if cur.is_none() || used + need > page.len() || nrows == u16::MAX {
            flush(&mut *pager, &mut page, cur, used, nrows)?;
            let id = match spare.next() {
                Some(id) => id,
                None => pager.allocate_page()?,
            };
            heap.pages.push(id);
            cur = Some(id);
            page.fill(0);
            (used, nrows) = (HEADER, 0);
        }
        page[used..used + 4].copy_from_slice(&(record.len() as u32).to_be_bytes());
        page[used + 4..used + need].copy_from_slice(record);
        used += need;
        nrows += 1;
        heap.row_count += 1;
    }
    flush(&mut *pager, &mut page, cur, used, nrows)?;
    for id in spare {
        page.fill(0);
        pager.write_page(id, &page)?;
    }
    Ok(())
}

mod tests {
    use super::*;
    use crate::heap::shared;
    use ironsafe_crypto::group::Group;
    use ironsafe_storage::pager::{PagerStats, PlainPager};
    use ironsafe_storage::{PageCache, SecurePager, SharedPending, ViewPager};
    use ironsafe_tee::trustzone::Manufacturer;
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The pager stacks every differential and error-rule test runs on.
    const SETUPS: [&str; 4] = ["plain", "secure", "secure, verified-node cache off", "writer view"];

    /// The fourth set-up: a `ViewPager::over_writer` view per statement
    /// over a secure base and the group's pending transactions, as `csa`
    /// opens them.
    struct Writer {
        base: SharedPager,
        cache: Arc<PageCache>,
        pending: SharedPending,
        view: Arc<Mutex<ViewPager>>,
    }

    impl Writer {
        fn open(base: SharedPager, cache: Arc<PageCache>, pending: SharedPending) -> Writer {
            let view = ViewPager::over_writer(base.clone(), cache.clone(), pending.clone());
            Writer { base, cache, pending, view: Arc::new(Mutex::new(view)) }
        }
    }

    /// One database under test. `seen` is every page the table has owned
    /// on either side so far: the zeroed leftovers of a shrunk table are
    /// compared too.
    struct Side {
        db: Database,
        writer: Option<Writer>,
        seen: BTreeSet<PageId>,
    }

    type Exec = fn(&mut Database, &str) -> Result<QueryResult>;
    const PRODUCT: Exec = |db, sql| db.execute(sql);
    const PARENT: Exec = execute;

    impl Side {
        /// Table `t (schema)` holding `seed` (loaded through
        /// `insert_rows`) on pager stack `setup`.
        fn new(setup: usize, schema: &str, seed: &[Row]) -> Side {
            let secure = || {
                let group = Group::modp_1024();
                let mfr = Manufacturer::from_seed(&group, b"dml-oracle");
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                SecurePager::create(mfr.make_device("dml-0", 8, &mut rng), 11).unwrap()
            };
            let base: SharedPager = match SETUPS[setup] {
                "plain" => shared(PlainPager::new()),
                "secure" | "writer view" => shared(secure()),
                _ => {
                    let mut pager = secure();
                    pager.set_merkle_cache_enabled(false);
                    shared(pager)
                }
            };
            let mut db = Database::with_shared(base.clone());
            db.execute(&format!("CREATE TABLE t ({schema})")).unwrap();
            db.insert_rows("t", seed.to_vec()).unwrap();
            let mut side = Side { db, writer: None, seen: BTreeSet::new() };
            if SETUPS[setup] == "writer view" {
                let writer = Writer::open(base, Arc::default(), SharedPending::default());
                side.db = Database::from_parts(writer.view.clone(), side.db.catalog().clone());
                side.writer = Some(writer);
            }
            side
        }

        /// Run one statement; returns its result and its pager-stats
        /// delta. Under the writer view a statement's overlay joins the
        /// pending group when it succeeded and is dropped, catalog and
        /// all, when it failed; the next statement gets a fresh view.
        fn run(&mut self, exec: Exec, sql: &str) -> (Result<QueryResult>, PagerStats) {
            let catalog = self.db.catalog().clone();
            let before = self.db.pager_stats();
            let result = exec(&mut self.db, sql);
            let delta = self.db.pager_stats() - before;
            if let Some(w) = self.writer.take() {
                let (overlay, next_id) = w.view.lock().take_txn();
                let catalog = match &result {
                    Ok(_) => {
                        w.pending.lock().merge(overlay, next_id);
                        self.db.catalog().clone()
                    }
                    Err(_) => catalog,
                };
                let next = Writer::open(w.base, w.cache, w.pending);
                self.db = Database::from_parts(next.view.clone(), catalog);
                self.writer = Some(next);
            }
            (result, delta)
        }

        fn heap(&self) -> HeapFile {
            self.db.catalog().table("t").unwrap().heap.clone()
        }

        /// The table's `HeapFile` and the bytes of every page in `seen`.
        fn state(&self) -> (HeapFile, Vec<Vec<u8>>) {
            let mut pager = self.db.pager().lock();
            let mut page = vec![0u8; PAGE_PAYLOAD];
            let pages = self.seen.iter().map(|id| {
                pager.read_page(*id, &mut page).unwrap();
                page.clone()
            });
            (self.heap(), pages.collect())
        }

        fn scalar(&mut self, sql: &str) -> Value {
            self.db.execute(sql).unwrap().rows()[0][0].clone()
        }
    }

    /// Product and parent over the same table on the same pager stack.
    fn sides(setup: usize, schema: &str, seed: &[Row]) -> (Side, Side) {
        (Side::new(setup, schema, seed), Side::new(setup, schema, seed))
    }

    /// Both sides hold the same `HeapFile` over the same page bytes.
    fn assert_same_state(product: &mut Side, parent: &mut Side, at: &str) {
        for side in [&*product, &*parent].map(Side::heap) {
            product.seen.extend(&side.pages);
        }
        parent.seen = product.seen.clone();
        assert_eq!(product.state(), parent.state(), "{at}");
    }

    const SCHEMA: &str = "k INT, a INT, b FLOAT, s TEXT, m INT";

    /// Row `k` of the differential table: a nullable int, a nullable
    /// float, a nullable text whose length decides how many rows share a
    /// page, and a column whose type changes from row to row (`Mixed` in
    /// the batch).
    fn row_sql(k: i64, p: usize) -> String {
        let a = if p.is_multiple_of(7) { "NULL".into() } else { (p as i64 % 25 - 5).to_string() };
        let b = if p.is_multiple_of(5) { "NULL".into() } else { format!("{:?}", ((p % 9) as f64 - 4.0) * 0.5) };
        let s = match p % 6 {
            0 => "NULL".into(),
            i => format!("'{}{}'", ["", "x", "hel", "hello", "1995-06-17", "zz"][i], "-".repeat(p % 4 * 300)),
        };
        let m = match p % 3 {
            0 => "NULL".into(),
            1 => (p % 5).to_string(),
            _ => format!("'t{}'", p % 5),
        };
        format!("({k}, {a}, {b}, {s}, {m})")
    }

    /// `WHERE` clauses: none, ones that hit no row, one row, every row,
    /// and ones that raise on some rows.
    const PREDS: &[&str] = &[
        "",
        " WHERE k = 3",
        " WHERE k = 100000",
        " WHERE a IS NULL OR a IS NOT NULL",
        " WHERE a < 5",
        " WHERE a % 3 = 0 AND b < 2.0",
        " WHERE s LIKE 'hel%' OR m IS NULL",
        " WHERE LENGTH(s) > 200",
        " WHERE m = 't1'",
        " WHERE m > 2",
        " WHERE s < 3",
        " WHERE 10 / a > 1",
        " WHERE a IN (1, 2, 3) OR k % 7 = 0",
        " WHERE CASE WHEN a > 0 THEN b ELSE a END > 0",
        " WHERE b BETWEEN -1.0 AND 2.5",
    ];

    /// `SET` clauses (`{}` is text of a length the case picks): columns
    /// other assignments read, text that grows and shrinks, a text column
    /// taking numbers and back, values that raise on some rows.
    const SETS: &[&str] = &[
        "a = a + 1",
        "a = NULL",
        "a = 10 / a",
        "a = b",
        "b = a * 0.5",
        "b = k",
        "k = k + 1000",
        "s = '{}'",
        "s = SUBSTR(s, 1, 3)",
        "s = m",
        "s = CASE WHEN a > 3 THEN s ELSE 'small' END",
        "m = a",
        "m = s",
        "m = 't1'",
        "a = LENGTH(s)",
    ];

    fn insert_sql(first_k: i64, n: usize, p: usize, stride: usize) -> String {
        let rows: Vec<String> = (0..n).map(|i| row_sql(first_k + i as i64, p + i * stride)).collect();
        format!("INSERT INTO t VALUES {}", rows.join(", "))
    }

    /// One statement of a script, as indexes into the pools above.
    fn statement(kind: usize, p: [usize; 4], next_k: &mut i64) -> String {
        let inserted = [1, 2 + p[0] % 9, 1, 0, 0, 0, 0][kind];
        let first_k = *next_k;
        *next_k += inserted as i64;
        match kind {
            0 | 1 => insert_sql(first_k, inserted, p[1], p[2]),
            2 => format!("INSERT INTO t (s, k) VALUES ('{}', {first_k})", "y".repeat(p[1] % 1400)),
            3 | 4 => {
                let text = "w".repeat(p[3] % 1400);
                let set = |i: usize| SETS[(p[1] + i * p[2]) % SETS.len()].replace("{}", &text);
                let sets: Vec<String> = (0..1 + p[0] % 3).map(set).collect();
                format!("UPDATE t SET {}{}", sets.join(", "), PREDS[p[3] % PREDS.len()])
            }
            _ => format!("DELETE FROM t{}", PREDS[p[3] % PREDS.len()]),
        }
    }

    /// Run `script` over a table of `seed` rows on both sides of `setup`,
    /// comparing after every statement.
    fn differential(setup: usize, seed: usize, script: &[(usize, [usize; 4])]) {
        let mut loader = Database::new(PlainPager::new());
        loader.execute(&format!("CREATE TABLE t ({SCHEMA})")).unwrap();
        if seed > 0 {
            loader.execute(&insert_sql(0, seed, seed, 13)).unwrap();
        }
        let seed_rows = loader.execute("SELECT * FROM t").unwrap().into_rows();
        let (mut product, mut parent) = sides(setup, SCHEMA, &seed_rows);
        let mut next_k = seed as i64;
        for (kind, p) in script {
            let sql = statement(*kind, *p, &mut next_k);
            let (got, got_stats) = product.run(PRODUCT, &sql);
            let (want, want_stats) = parent.run(PARENT, &sql);
            let at = format!("{} after `{:.150}`", SETUPS[setup], sql);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got, want, "{at}");
                    assert_eq!(got_stats, want_stats, "{at}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("{at}: product {got:?} vs parent {want:?}"),
            }
            assert_same_state(&mut product, &mut parent, &at);
        }
        let rows = product.heap().row_count as i64;
        assert_eq!(product.scalar("SELECT COUNT(*) FROM t"), Value::Int(rows));
    }

    /// Run `sql`, which must fail — on the parent's code too — against a
    /// five-page table of 498-byte rows `(a, s)`, `a` counting from 0 (40
    /// rows, where a page holds 4 048 bytes), and check that it leaves the
    /// table's `HeapFile` and every byte of its pages as they were. In
    /// `sql`, `{BIG}` is text 952 bytes longer than a page (5 000 bytes)
    /// and `{LAST}` the last row's `a` (39).
    fn assert_fails_and_changes_nothing(setup: usize, sql: &str, message: &str) {
        let schema = "a INT, s TEXT";
        let n = 5 * ((PAGE_PAYLOAD - HEADER) / 498) as i64;
        let rows: Vec<Row> =
            (0..n).map(|a| vec![Value::Int(a), Value::Text("r".repeat(480))]).collect();
        let sql = sql.replace("{BIG}", &"x".repeat(PAGE_PAYLOAD + 952)).replace("{LAST}", &(n - 1).to_string());
        let at = format!("{} after `{:.60}`", SETUPS[setup], sql);

        let (mut product, mut parent) = sides(setup, schema, &rows);
        product.seen.extend(&product.heap().pages);
        let before = product.state();
        assert_eq!((before.0.pages.len(), before.0.row_count), (5, n as u64), "{at}");
        let err = product.run(PRODUCT, &sql).0.expect_err(&at);
        assert!(err.to_string().contains(message), "{at}: {err}");
        assert!(parent.run(PARENT, &sql).0.is_err(), "{at}: the parent fails too");
        assert_eq!(product.state(), before, "{at}");
        assert_eq!(product.scalar("SELECT COUNT(*) FROM t"), Value::Int(n), "{at}");
        assert_eq!(product.scalar("SELECT SUM(a) FROM t"), Value::Int(n * (n - 1) / 2), "{at}");
        // The table is still writable, and the write lands where the
        // parent's lands on a table nothing failed on.
        let (_, mut parent) = sides(setup, schema, &rows);
        let next = "UPDATE t SET s = 'short' WHERE a = 10";
        assert_eq!(product.run(PRODUCT, next).0, Ok(QueryResult::Count(1)), "{at}");
        parent.run(PARENT, next).0.unwrap();
        assert_same_state(&mut product, &mut parent, &at);
    }

    #[test]
    fn an_update_whose_row_outgrows_a_page_leaves_the_table_as_it_was() {
        for setup in 0..SETUPS.len() {
            let sql = "UPDATE t SET s = '{BIG}' WHERE a = 10";
            assert_fails_and_changes_nothing(setup, sql, "row of 5014 bytes exceeds page payload");
        }
    }

    #[test]
    fn an_insert_with_an_oversized_row_appends_none_of_its_rows() {
        // The oversized row comes second — and, in the longer statement,
        // after more rows than the tail page and two fresh ones hold.
        let fill: Vec<String> = (0..200).map(|a| format!("({a}, '{}')", "r".repeat(480))).collect();
        let long = format!("INSERT INTO t VALUES {}, (3, '{{BIG}}')", fill.join(", "));
        for setup in 0..SETUPS.len() {
            for sql in ["INSERT INTO t VALUES (2, 'ok'), (3, '{BIG}')", &long] {
                assert_fails_and_changes_nothing(setup, sql, "exceeds page payload");
            }
        }
    }

    #[test]
    fn a_predicate_or_assignment_that_raises_on_a_later_page_changes_nothing() {
        for setup in 0..SETUPS.len() {
            for (sql, message) in [
                ("UPDATE t SET a = 0 WHERE s < 3", "cannot compare"),
                ("DELETE FROM t WHERE 10 / (a - {LAST}) > 0", "division by zero"),
                ("UPDATE t SET a = 10 / (a - {LAST})", "division by zero"),
                ("UPDATE t SET a = 1, s = -s WHERE a >= {LAST} - 3", "cannot negate"),
            ] {
                assert_fails_and_changes_nothing(setup, sql, message);
            }
        }
    }

    /// When several rows would raise, the statement fails with an error
    /// the parent's row loop raises for one of them — which one is
    /// unspecified: the kernel filters a whole morsel before it evaluates
    /// a `SET`, where the parent finished a row before it read the next.
    #[test]
    fn the_error_of_a_failing_statement_is_one_some_row_raises_under_the_parent() {
        // 30 pages, two morsels; `m` is text in rows 7 and 700, a number
        // elsewhere; `a - 3` and `a - 650` are zero in one row each.
        let row = |a: i64| {
            let m = if a == 7 || a == 700 { Value::Text("seven".into()) } else { Value::Int(a) };
            vec![Value::Int(a), Value::Text("r".repeat(100)), m]
        };
        let rows: Vec<Row> = (0..900).map(row).collect();
        let schema = "a INT, s TEXT, m INT";
        for sql in [
            "UPDATE t SET a = 10 / (a - 3) WHERE m >= 0",
            "UPDATE t SET a = 10 / (a - 650) WHERE m >= 0",
            "UPDATE t SET m = -s, a = 10 / (a - 3) WHERE a < 5 OR m > 600",
            "DELETE FROM t WHERE 10 / (a - 650) > 0 AND m > 2",
        ] {
            let (mut product, mut parent) = sides(0, schema, &rows);
            assert!(product.heap().pages.len() > 16, "more than one morsel");
            let raised: Vec<String> = rows
                .iter()
                .filter_map(|row| {
                    let mut alone = Side::new(0, schema, std::slice::from_ref(row));
                    alone.run(PARENT, sql).0.err().map(|e| e.to_string())
                })
                .collect();
            assert!(raised.len() >= 2, "`{sql}`: {raised:?}");
            let got = product.run(PRODUCT, sql).0.expect_err(sql).to_string();
            let want = parent.run(PARENT, sql).0.expect_err(sql).to_string();
            assert!(raised.contains(&got), "`{sql}`: {got} is not among {raised:?}");
            assert!(raised.contains(&want), "`{sql}`: {want} is not among {raised:?}");
            assert_same_state(&mut product, &mut parent, sql);
        }
    }

    /// Which `SET` wins, that every `SET` reads the old row, and what an
    /// `INSERT` leaves in the columns it does not name: fixed cases of
    /// what the differential scripts cover at random.
    #[test]
    fn assignments_read_the_old_row_and_the_last_one_to_a_column_wins() {
        let rows = vec![vec![Value::Int(1), Value::Text("one".into())]];
        let (mut product, mut parent) = sides(0, "a INT, s TEXT", &rows);
        for sql in [
            "UPDATE t SET a = a + 1, s = a, a = a + 10",
            "INSERT INTO t (s) VALUES ('only s')",
            "INSERT INTO t (a, a) VALUES (1, 2), (3, 4 * 2)",
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (1 / 0, 'x')",
            "UPDATE t SET nope = 1",
        ] {
            let got = product.run(PRODUCT, sql).0;
            assert_eq!(got.is_ok(), parent.run(PARENT, sql).0.is_ok(), "`{sql}`: {got:?}");
            assert_same_state(&mut product, &mut parent, sql);
        }
        let all = product.db.execute("SELECT a, s FROM t").unwrap().into_rows();
        assert_eq!(all[0], [Value::Int(11), Value::Int(1)]);
        assert_eq!(all[1], [Value::Null, Value::Text("only s".into())]);
        assert_eq!((&all[2][0], &all[3][0]), (&Value::Int(2), &Value::Int(8)));
        assert_eq!(all.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Random DML scripts leave what the parent's row-at-a-time code
        /// leaves — result, `HeapFile`, the bytes of every page, the
        /// pager-stats delta of every statement that succeeds — on every
        /// pager stack. (A statement that fails stops at the page that
        /// raised; the parent had read the whole table by then.)
        #[test]
        fn dml_matches_the_parent_statement_for_statement_on_every_pager(
            seed in 0usize..90,
            script in proptest::collection::vec(
                (0usize..7, (0usize..1000, 0usize..1000, 1usize..50, 0usize..3000)),
                1..12,
            ),
        ) {
            let script: Vec<(usize, [usize; 4])> =
                script.into_iter().map(|(kind, (a, b, c, d))| (kind, [a, b, c, d])).collect();
            for setup in 0..SETUPS.len() {
                differential(setup, seed, &script);
            }
        }
    }
}
