//! The `Database` façade: SQL text in, rows out.

use crate::ast::{Expr, SelectStmt, Statement};
use crate::batch::ColumnBatch;
use crate::catalog::Catalog;
use crate::encoded::{EncodedRows, EncodedSlice};
use crate::exec::scan::{column_mask, rewrite_records, ScanSource};
use crate::exec::{collect, ExecOptions, RowCursor};
use crate::expr::{bind, eval_vec, BoundExpr, VecScratch};
use crate::heap::{shared, SharedPager};
use crate::parser::parse;
use crate::plan::{plan_select, plan_select_with};
use crate::schema::{Column, Row, Schema};
use crate::value::Value;
use crate::{Result, SqlError};
use ironsafe_storage::pager::{Pager, PagerStats};

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Rows from a `SELECT`.
    Rows {
        /// Output schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Row>,
    },
    /// Row count from DML.
    Count(u64),
    /// DDL acknowledged.
    Ok,
}

impl QueryResult {
    /// The rows (empty for non-SELECT results).
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Consume the result into its rows (empty for non-SELECT results)
    /// without copying them.
    pub fn into_rows(self) -> Vec<Row> {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        }
    }

    /// The output schema (empty for non-SELECT results).
    pub fn schema(&self) -> Schema {
        match self {
            QueryResult::Rows { schema, .. } => schema.clone(),
            _ => Schema::default(),
        }
    }
}

/// A single-node database over a pluggable pager.
pub struct Database {
    pager: SharedPager,
    catalog: Catalog,
    /// Pages holding the persisted catalog (page 0 chain).
    catalog_chain: Vec<ironsafe_storage::pager::PageId>,
}

impl Database {
    /// Create a database over `pager`.
    pub fn new<P: Pager + Send + 'static>(pager: P) -> Self {
        Database { pager: shared(pager), catalog: Catalog::new(), catalog_chain: Vec::new() }
    }

    /// Create over an already-shared pager.
    pub fn with_shared(pager: SharedPager) -> Self {
        Database { pager, catalog: Catalog::new(), catalog_chain: Vec::new() }
    }

    /// Reopen a database from a pager holding a checkpointed catalog
    /// (page 0 chain) — the reboot path: open the secure pager from the
    /// medium (verifying freshness), then rebuild the catalog from it.
    pub fn open<P: Pager + Send + 'static>(pager: P) -> Result<Self> {
        Self::open_shared(shared(pager))
    }

    /// [`Database::open`] over an already-shared pager.
    pub fn open_shared(pager: SharedPager) -> Result<Self> {
        let (bytes, chain) = crate::meta::read_chain(&pager)?;
        let catalog = crate::meta::decode_catalog(&bytes)?;
        Ok(Database { pager, catalog, catalog_chain: chain })
    }

    /// Assemble a database from an existing catalog and pager without
    /// touching storage.
    ///
    /// This is the read-view constructor used by the serving layer: the
    /// catalog is a clone of a live database's catalog and the pager is a
    /// copy-on-write view over that database's pages, so query execution
    /// (including temporary tables) proceeds without mutating the shared
    /// store. The catalog chain starts empty — a view that checkpoints
    /// writes a fresh chain into its own overlay.
    pub fn from_parts(pager: SharedPager, catalog: Catalog) -> Self {
        Database { pager, catalog, catalog_chain: Vec::new() }
    }

    /// Persist the catalog into the page-0 chain and commit the pager
    /// (flushing the freshness root to RPMB under the secure pager).
    ///
    /// Must be called at least once before the first data page is
    /// allocated — [`Database::new`] + `checkpoint()` reserves page 0.
    pub fn checkpoint(&mut self) -> Result<()> {
        let bytes = crate::meta::encode_catalog(&self.catalog);
        self.catalog_chain = crate::meta::write_chain(&self.pager, &self.catalog_chain, &bytes)?;
        self.pager.lock().commit()?;
        Ok(())
    }

    /// The shared pager handle.
    pub fn pager(&self) -> &SharedPager {
        &self.pager
    }

    /// Pager I/O + crypto counters.
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.lock().stats()
    }

    /// Zero pager counters.
    pub fn reset_pager_stats(&self) {
        self.pager.lock().reset_stats()
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute a script; returns the result of the *last* statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmts = parse(sql)?;
        if stmts.is_empty() {
            return Err(SqlError::Parse("empty statement".into()));
        }
        let mut last = QueryResult::Ok;
        for stmt in stmts {
            last = self.execute_statement(&stmt)?;
        }
        Ok(last)
    }

    /// Execute one parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(columns.iter().map(|(n, t)| Column::new(n.clone(), *t)).collect());
                self.catalog.create_table(name, schema)?;
                Ok(QueryResult::Ok)
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                Ok(QueryResult::Ok)
            }
            Statement::Insert { table, columns, values } => self.insert(table, columns.as_deref(), values),
            Statement::Select(sel) => self.select(sel),
            Statement::Update { table, sets, where_clause } => self.update(table, sets, where_clause.as_ref()),
            Statement::Delete { table, where_clause } => self.delete(table, where_clause.as_ref()),
        }
    }

    /// Render a `SELECT`'s physical plan without executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = crate::parser::parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => {
                let op = plan_select(&self.catalog, &self.pager, &sel)?;
                Ok(crate::exec::explain(&op))
            }
            other => Ok(format!("{other:?}\n")),
        }
    }

    /// Execute a `SELECT` and render its physical plan annotated with the
    /// per-operator row counts observed during execution (`EXPLAIN
    /// ANALYZE`). Unlike [`Database::explain`], this runs the query.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let stmt = crate::parser::parse_statement(sql)?;
        match stmt {
            Statement::Select(sel) => {
                let mut op = plan_select(&self.catalog, &self.pager, &sel)?;
                while op.next_batch()? {}
                Ok(crate::exec::explain_analyze(&op))
            }
            other => Ok(format!("{other:?}\n")),
        }
    }

    /// Attach the pager's live telemetry counters to `registry`.
    pub fn register_metrics(&self, registry: &ironsafe_obs::Registry) {
        self.pager.lock().register_metrics(registry);
    }

    /// Run a `SELECT`.
    pub fn select(&mut self, stmt: &SelectStmt) -> Result<QueryResult> {
        let op = plan_select(&self.catalog, &self.pager, stmt)?;
        let (schema, rows) = collect(op)?;
        Ok(QueryResult::Rows { schema, rows })
    }

    /// Run a `SELECT` under explicit execution options (DOP, morsel
    /// size). Rows and pager-stats deltas are bit-identical to
    /// [`Database::select`] at any DOP; parallelism only buys wall-clock.
    pub fn select_with(&mut self, stmt: &SelectStmt, opts: &ExecOptions) -> Result<QueryResult> {
        let op = plan_select_with(&self.catalog, &self.pager, stmt, opts)?;
        let (schema, rows) = collect(op)?;
        Ok(QueryResult::Rows { schema, rows })
    }

    /// [`Database::select_with`] that additionally captures per-operator
    /// [`crate::exec::OperatorProfile`]s from the drained plan (rows
    /// in/out per operator, preorder). The rows, stats deltas, and plan
    /// are identical to `select_with` — profiling observes the same
    /// execution, it never changes it.
    pub fn select_with_profile(
        &mut self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
    ) -> Result<(QueryResult, Vec<crate::exec::OperatorProfile>)> {
        let mut cursor = RowCursor::new(plan_select_with(&self.catalog, &self.pager, stmt, opts)?);
        let rows = cursor.drain_rows()?;
        let schema = cursor.op().schema().clone();
        Ok((QueryResult::Rows { schema, rows }, crate::exec::operator_profiles(cursor.op())))
    }

    /// [`Database::select_with_profile`] with the result rows appended
    /// to `out` still encoded — the same cells in the same order, written
    /// straight from the root's batch lanes, never materialized as
    /// values. Returns the output schema in place of a [`QueryResult`].
    pub fn select_encoded(
        &mut self,
        stmt: &SelectStmt,
        opts: &ExecOptions,
        out: &mut EncodedRows,
    ) -> Result<(Schema, Vec<crate::exec::OperatorProfile>)> {
        let mut cursor = RowCursor::new(plan_select_with(&self.catalog, &self.pager, stmt, opts)?);
        cursor.drain_encoded(out)?;
        Ok((cursor.op().schema().clone(), crate::exec::operator_profiles(cursor.op())))
    }

    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        values: &[Vec<Expr>],
    ) -> Result<QueryResult> {
        let schema = &self.catalog.table(table)?.schema;
        // Map provided columns to schema positions.
        let positions: Vec<usize> = match columns {
            None => (0..schema.len()).collect(),
            Some(cols) => cols.iter().map(|c| schema.resolve(c)).collect::<Result<_>>()?,
        };
        // VALUES expressions see no columns: they run through the batch
        // evaluator over one lane of a batch without any.
        let (no_columns, mut one_lane) = (Schema::default(), ColumnBatch::new(0));
        one_lane.finish_row()?;
        let mut scratch = VecScratch::default();
        let mut rows = EncodedRows::new();
        let mut row = vec![Value::Null; schema.len()];
        for value_exprs in values {
            if value_exprs.len() != positions.len() {
                return Err(SqlError::Plan(format!(
                    "INSERT has {} values for {} columns",
                    value_exprs.len(),
                    positions.len()
                )));
            }
            for (expr, &pos) in value_exprs.iter().zip(positions.iter()) {
                let constant = eval_vec(&bind(expr, &no_columns)?, &one_lane, &[true], &mut scratch)?;
                row[pos] = constant.into_iter().next().expect("one lane");
            }
            rows.push_row(&row);
        }
        self.insert_encoded(table, rows.as_slice())?;
        Ok(QueryResult::Count(rows.len() as u64))
    }

    /// Bulk-insert pre-built rows (bypasses SQL parsing): the load
    /// boundary, where rows arrive from outside the engine. Rows the engine
    /// itself produced go through [`Database::insert_encoded`].
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let info = self.catalog.table_mut(table)?;
        for r in &rows {
            if r.len() != info.schema.len() {
                return Err(SqlError::Plan(format!(
                    "row arity {} does not match table `{}` ({})",
                    r.len(),
                    table,
                    info.schema.len()
                )));
            }
        }
        let n = rows.len() as u64;
        info.heap.append_rows(&self.pager, rows)?;
        self.pager.lock().commit()?;
        Ok(n)
    }

    /// Bulk-insert rows that are already encoded — the same append as
    /// [`Database::insert_rows`], minus the encoding. Every row must
    /// hold exactly the table's columns as [`crate::value::encode_value`]
    /// cells; the producers (the scan's encoded drain, the channel's
    /// frame validator) guarantee it.
    pub fn insert_encoded(&mut self, table: &str, rows: EncodedSlice<'_>) -> Result<()> {
        let info = self.catalog.table_mut(table)?;
        info.heap.append_encoded(&self.pager, rows.rows())?;
        Ok(self.pager.lock().commit()?)
    }

    /// Create a table directly from a schema (no SQL round-trip).
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.catalog.create_table(name, schema)
    }

    fn update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<QueryResult> {
        self.rewrite_where(table, where_clause, Some(sets))
    }

    fn delete(&mut self, table: &str, where_clause: Option<&Expr>) -> Result<QueryResult> {
        self.rewrite_where(table, where_clause, None)
    }

    /// Rewrite `table` without the rows `where_clause` selects (`sets` is
    /// `None`) or with `sets` assigned on them: the scan kernel produces
    /// the table's next contents as encoded records
    /// ([`rewrite_records`]), then the heap re-packs them over its own
    /// pages, all or nothing. Counts the rows selected.
    fn rewrite_where(
        &mut self,
        table: &str,
        where_clause: Option<&Expr>,
        sets: Option<&[(String, Expr)]>,
    ) -> Result<QueryResult> {
        let info = self.catalog.table(table)?;
        let schema = &info.schema;
        let bound = sets
            .map(|sets| {
                let bind_set = |(c, e): &(String, Expr)| Ok((schema.resolve(c)?, bind(e, schema)?));
                sets.iter().map(bind_set).collect::<Result<Vec<(usize, BoundExpr)>>>()
            })
            .transpose()?;
        let reads = where_clause.into_iter().chain(sets.into_iter().flatten().map(|(_, e)| e));
        let source = ScanSource {
            schema: schema.clone(),
            heap: info.heap.clone(),
            pager: self.pager.clone(),
            pred: where_clause.cloned(),
            cols: column_mask(schema, reads),
        };
        let mut kept = EncodedRows::new();
        let selected = rewrite_records(source, bound.as_deref(), &mut kept)?;
        let info = self.catalog.table_mut(table)?;
        info.heap.rewrite(&self.pager, kept.as_slice().rows())?;
        self.pager.lock().commit()?;
        Ok(QueryResult::Count(selected))
    }
}

// Re-exported for the partitioner, which manipulates WHERE conjuncts.
pub use crate::plan::{join_conjuncts as and_join, split_conjuncts as and_split};

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use ironsafe_storage::pager::PlainPager;

    fn db() -> Database {
        Database::new(PlainPager::new())
    }

    fn setup_sales(db: &mut Database) {
        db.execute("CREATE TABLE sales (region TEXT, product TEXT, amount FLOAT, qty INT)").unwrap();
        db.execute(
            "INSERT INTO sales VALUES \
             ('east', 'widget', 10.0, 1), \
             ('east', 'gadget', 20.0, 2), \
             ('west', 'widget', 30.0, 3), \
             ('west', 'gadget', 40.0, 4), \
             ('west', 'widget', 50.0, 5)",
        )
        .unwrap();
    }

    #[test]
    fn create_insert_select_star() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT * FROM sales").unwrap();
        assert_eq!(r.rows().len(), 5);
        assert_eq!(r.schema().columns[0].name, "region");
    }

    #[test]
    fn filter_and_project() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT product, amount FROM sales WHERE region = 'west' AND amount > 30").unwrap();
        assert_eq!(r.rows().len(), 2);
    }

    #[test]
    fn global_aggregate() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT COUNT(*), SUM(amount), AVG(qty), MIN(amount), MAX(amount) FROM sales").unwrap();
        let row = &r.rows()[0];
        assert_eq!(row[0], Value::Int(5));
        assert_eq!(row[1], Value::Float(150.0));
        assert_eq!(row[2], Value::Float(3.0));
        assert_eq!(row[3], Value::Float(10.0));
        assert_eq!(row[4], Value::Float(50.0));
    }

    /// Integer overflow is a value of the right type or an error, never a
    /// wrapped integer: `+ - *` past i64 are REAL (as in SQLite), and an
    /// all-integer `SUM` whose exact total leaves i64 fails at every DOP.
    #[test]
    fn integer_overflow_is_real_or_an_error() {
        let mut db = db();
        let mut one = |sql: &str| db.execute(sql).unwrap().rows()[0][0].clone();
        let (max, min) = (i64::MAX as f64, i64::MIN as f64);
        assert_eq!(one("SELECT 9223372036854775807 + 1"), Value::Float(max + 1.0));
        assert_eq!(one("SELECT (-9223372036854775807 - 1) - 1"), Value::Float(min - 1.0));
        assert_eq!(one("SELECT 9223372036854775807 * 2"), Value::Float(max * 2.0));
        assert_eq!(one("SELECT (-9223372036854775807 - 1) * 2"), Value::Float(min * 2.0));
        assert_eq!(one("SELECT -(-9223372036854775807 - 1)"), Value::Float(-min));
        assert_eq!(one("SELECT (-9223372036854775807 - 1) / -1"), Value::Float(-min));
        assert_eq!(one("SELECT (-9223372036854775807 - 1) % -1"), Value::Int(0));
        assert_eq!(one("SELECT -9223372036854775807 - 1"), Value::Int(i64::MIN), "in range stays INTEGER");
        assert_eq!(one("SELECT 9223372036854775806 + 1"), Value::Int(i64::MAX));

        db.execute("CREATE TABLE big (k INT, a INT)").unwrap();
        // Two i64::MAX rows far apart (different morsels at DOP 4) among
        // zeros, and a group whose running sum leaves i64 but whose total
        // does not.
        let rows = (0..2000i64).map(|i| {
            let a = match i {
                10 | 1901 => i64::MAX,
                1000 => 1,
                1002 => -1,
                _ => 0,
            };
            vec![Value::Int(i % 2), Value::Int(a)]
        });
        db.insert_rows("big", rows.collect()).unwrap();
        let sum_all = crate::parser::parse_statement("SELECT SUM(a) FROM big").unwrap();
        let sum_fits = crate::parser::parse_statement("SELECT SUM(a) FROM big WHERE k = 0").unwrap();
        let (Statement::Select(sum_all), Statement::Select(sum_fits)) = (sum_all, sum_fits) else { unreachable!() };
        for dop in [1, 4] {
            let opts = ExecOptions { morsel_pages: 1, oversubscribe: true, ..ExecOptions::with_dop(dop) };
            let err = db.select_with(&sum_all, &opts).unwrap_err();
            assert!(err.to_string().contains("integer overflow"), "dop {dop}: {err}");
            let fits = db.select_with(&sum_fits, &opts).unwrap();
            assert_eq!(fits.rows()[0][0], Value::Int(i64::MAX), "dop {dop}: MAX + 1 − 1");
        }
    }

    #[test]
    fn group_by_having_order_limit() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db
            .execute(
                "SELECT region, SUM(amount) AS total FROM sales \
                 GROUP BY region HAVING SUM(amount) > 20 \
                 ORDER BY total DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(r.rows().len(), 1);
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "west");
        assert_eq!(r.rows()[0][1], Value::Float(120.0));
    }

    #[test]
    fn group_by_expression_key() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db
            .execute("SELECT qty % 2, COUNT(*) FROM sales GROUP BY qty % 2 ORDER BY qty % 2")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][1], Value::Int(2)); // qty 2, 4
        assert_eq!(r.rows()[1][1], Value::Int(3)); // qty 1, 3, 5
    }

    #[test]
    fn join_two_tables() {
        let mut db = db();
        db.execute("CREATE TABLE emp (e_id INT, e_name TEXT, e_dept INT)").unwrap();
        db.execute("CREATE TABLE dept (d_id INT, d_name TEXT)").unwrap();
        db.execute("INSERT INTO emp VALUES (1, 'ann', 10), (2, 'bob', 20), (3, 'cid', 10)").unwrap();
        db.execute("INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')").unwrap();
        let r = db
            .execute(
                "SELECT d_name, COUNT(*) AS n FROM emp, dept \
                 WHERE e_dept = d_id GROUP BY d_name ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "eng");
        assert_eq!(r.rows()[0][1], Value::Int(2));
    }

    #[test]
    fn three_way_join() {
        let mut db = db();
        db.execute("CREATE TABLE a (a_id INT, a_b INT)").unwrap();
        db.execute("CREATE TABLE b (b_id INT, b_c INT)").unwrap();
        db.execute("CREATE TABLE c (c_id INT, c_name TEXT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 1), (2, 2)").unwrap();
        db.execute("INSERT INTO b VALUES (1, 100), (2, 200)").unwrap();
        db.execute("INSERT INTO c VALUES (100, 'x'), (200, 'y')").unwrap();
        let r = db
            .execute("SELECT a_id, c_name FROM a, b, c WHERE a_b = b_id AND b_c = c_id ORDER BY a_id")
            .unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][1].as_str().unwrap(), "x");
        assert_eq!(r.rows()[1][1].as_str().unwrap(), "y");
    }

    #[test]
    fn update_and_delete() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("UPDATE sales SET amount = amount * 2 WHERE region = 'east'").unwrap();
        assert_eq!(r, QueryResult::Count(2));
        let r = db.execute("SELECT SUM(amount) FROM sales").unwrap();
        assert_eq!(r.rows()[0][0], Value::Float(180.0));

        let r = db.execute("DELETE FROM sales WHERE qty >= 4").unwrap();
        assert_eq!(r, QueryResult::Count(2));
        let r = db.execute("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn case_expression_in_projection() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db
            .execute(
                "SELECT SUM(CASE WHEN region = 'east' THEN amount ELSE 0 END) AS east_total FROM sales",
            )
            .unwrap();
        assert_eq!(r.rows()[0][0], Value::Float(30.0));
    }

    #[test]
    fn like_and_in_filters() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT COUNT(*) FROM sales WHERE product LIKE 'wid%'").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
        let r = db.execute("SELECT COUNT(*) FROM sales WHERE qty IN (1, 3, 5)").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn insert_with_column_subset() {
        let mut db = db();
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)").unwrap();
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)").unwrap();
        let r = db.execute("SELECT a, b, c FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(7));
        assert!(r.rows()[0][1].is_null());
        assert_eq!(r.rows()[0][2], Value::Float(1.5));
    }

    #[test]
    fn errors_are_reported() {
        let mut db = db();
        assert!(matches!(db.execute("SELECT * FROM ghost"), Err(SqlError::Plan(_))));
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(matches!(db.execute("SELECT nope FROM t"), Err(SqlError::Plan(_))));
        assert!(matches!(db.execute("INSERT INTO t VALUES (1, 2)"), Err(SqlError::Plan(_))));
    }

    #[test]
    fn select_without_from() {
        let mut db = db();
        let r = db.execute("SELECT 1 + 2 AS three, 'x'").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(3));
        assert_eq!(r.schema().columns[0].name, "three");
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let mut db = db();
        setup_sales(&mut db);
        let r = db.execute("SELECT product FROM sales ORDER BY amount DESC LIMIT 1").unwrap();
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "widget"); // amount 50
    }

    #[test]
    fn works_end_to_end_on_secure_pager() {
        use ironsafe_crypto::group::Group;
        use ironsafe_storage::SecurePager;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"acme");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dev = mfr.make_device("db-dev", 8, &mut rng);
        let mut db = Database::new(SecurePager::create(dev, 9).unwrap());
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
        let r = db.execute("SELECT b FROM t WHERE a >= 2 ORDER BY a DESC").unwrap();
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "z");
        let stats = db.pager_stats();
        assert!(stats.decrypts > 0, "reads went through the secure path");
        assert!(stats.merkle_nodes > 0, "freshness was verified");
    }

    #[test]
    fn parallel_select_matches_serial_for_scans_joins_and_aggs() {
        let mut db = db();
        db.execute("CREATE TABLE big (k INT, grp TEXT, v FLOAT)").unwrap();
        let values: Vec<String> =
            (0..800).map(|i| format!("({i}, 'g{}', {}.5)", i % 5, i % 13)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
        db.execute("CREATE TABLE names (g TEXT, label TEXT)").unwrap();
        db.execute(
            "INSERT INTO names VALUES ('g0','zero'),('g1','one'),('g2','two'),('g3','three'),('g4','four')",
        )
        .unwrap();
        let queries = [
            "SELECT k, v FROM big WHERE v > 6 AND k % 7 = 1",
            "SELECT grp, COUNT(*), SUM(v * 0.9), AVG(v) FROM big WHERE k < 700 GROUP BY grp ORDER BY grp",
            "SELECT label, SUM(v) AS s FROM big, names WHERE grp = g GROUP BY label ORDER BY s DESC",
            "SELECT k FROM big WHERE k % 100 = 3 ORDER BY v DESC, k",
            "SELECT k FROM big ORDER BY k LIMIT 10",
            "SELECT k, grp FROM big WHERE k % 2 = 1 LIMIT 10",
            "SELECT * FROM big, names WHERE grp = g LIMIT 7",
        ];
        let opts = ExecOptions { oversubscribe: true, ..ExecOptions::with_dop(4) };
        for q in queries {
            let stmt = crate::parser::parse_statement(q).unwrap();
            let sel = match &stmt {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
            db.reset_pager_stats();
            let serial = db.select(sel).unwrap();
            let serial_stats = db.pager_stats();
            db.reset_pager_stats();
            let parallel = db.select_with(sel, &opts).unwrap();
            let parallel_stats = db.pager_stats();
            assert_eq!(parallel, serial, "rows diverged for {q}");
            assert_eq!(parallel_stats, serial_stats, "stats diverged for {q}");
        }
    }

    #[test]
    fn streaming_limit_reads_only_the_pages_it_needs_at_any_dop() {
        // 600 rows of ~120 bytes: 34 rows a page, 18 pages.
        let mut db = db();
        db.execute("CREATE TABLE wide (k INT, pad TEXT)").unwrap();
        let values: Vec<String> =
            (0..600).map(|i| format!("({i}, '{}')", "p".repeat(100))).collect();
        db.execute(&format!("INSERT INTO wide VALUES {}", values.join(", "))).unwrap();
        let pages = db.catalog().table("wide").unwrap().heap.page_count();
        assert_eq!(pages, 18);
        // (query, rows returned, pages read) — pinned against the
        // page-at-a-time volcano scan this kernel replaced.
        let cases = [
            ("SELECT k FROM wide LIMIT 5", 5, 1),
            ("SELECT k FROM wide LIMIT 40", 40, 2),
            ("SELECT k FROM wide WHERE k >= 100 LIMIT 3", 3, 4),
            ("SELECT k FROM wide WHERE k < 0 LIMIT 3", 0, 18),
            ("SELECT k FROM wide ORDER BY k DESC LIMIT 3", 3, 18),
            ("SELECT COUNT(*) FROM wide LIMIT 1", 1, 18),
        ];
        for (q, rows, reads) in cases {
            let Statement::Select(sel) = crate::parser::parse_statement(q).unwrap() else {
                unreachable!()
            };
            for dop in [1, 4] {
                let opts = ExecOptions { oversubscribe: true, ..ExecOptions::with_dop(dop) };
                db.reset_pager_stats();
                let got = db.select_with(&sel, &opts).unwrap();
                assert_eq!(got.rows().len(), rows, "{q} at dop {dop}");
                let want = PagerStats { page_reads: reads, ..PagerStats::default() };
                assert_eq!(db.pager_stats(), want, "{q} at dop {dop}");
            }
        }
    }

    #[test]
    fn a_join_under_a_streaming_limit_pulls_probe_morsels_only_as_its_output_is_consumed() {
        let mut db = db();
        db.execute("CREATE TABLE wide (k INT, g INT, pad TEXT)").unwrap();
        let values: Vec<String> =
            (0..600).map(|i| format!("({i}, {}, '{}')", i % 5, "p".repeat(100))).collect();
        db.execute(&format!("INSERT INTO wide VALUES {}", values.join(", "))).unwrap();
        db.execute("CREATE TABLE dim (dk INT, d TEXT)").unwrap();
        db.execute("INSERT INTO dim VALUES (0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e')").unwrap();
        assert_eq!(db.catalog().table("wide").unwrap().heap.page_count(), 20);
        // (query, rows returned, pages read) — pinned against the
        // row-at-a-time join this operator replaced: the build side in
        // full, then exactly the one-page probe morsels whose matches the
        // limit consumed.
        let cases = [
            ("SELECT k, d FROM wide, dim WHERE g = dk LIMIT 5", 5, 2),
            ("SELECT k, d FROM wide, dim WHERE g = dk LIMIT 40", 40, 3),
            ("SELECT k, d FROM wide, dim WHERE g = dk AND k + dk > 300 LIMIT 3", 3, 11),
            ("SELECT k, d FROM dim, wide WHERE g = dk LIMIT 5", 5, 21),
            ("SELECT k, d FROM wide, dim WHERE k < dk LIMIT 2", 2, 2),
        ];
        for (q, rows, reads) in cases {
            let Statement::Select(sel) = crate::parser::parse_statement(q).unwrap() else {
                unreachable!()
            };
            for dop in [1, 4] {
                let opts = ExecOptions { oversubscribe: true, ..ExecOptions::with_dop(dop) };
                db.reset_pager_stats();
                let got = db.select_with(&sel, &opts).unwrap();
                assert_eq!(got.rows().len(), rows, "{q} at dop {dop}");
                let want = PagerStats { page_reads: reads, ..PagerStats::default() };
                assert_eq!(db.pager_stats(), want, "{q} at dop {dop}");
            }
        }
    }

    #[test]
    fn predicates_run_on_the_table_they_name() {
        let mut db = db();
        db.execute("CREATE TABLE a (x INT, k INT)").unwrap();
        db.execute("CREATE TABLE b (x INT, k INT)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 1), (5, 2)").unwrap();
        db.execute("INSERT INTO b VALUES (9, 1), (0, 2)").unwrap();
        let count = |db: &mut Database, sql: &str| db.execute(sql).map(|r| r.rows()[0][0].clone());
        let join = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k";
        // `a.k = b.k` is a join key, not a filter on `a`.
        assert_eq!(count(&mut db, join), Ok(Value::Int(2)));
        assert!(db.explain(join).unwrap().contains("HashJoin: b.k = a.k"));
        // `b.x > 1` filters b (keeps (9,1)), whatever a.x holds; aliases
        // qualify like names.
        assert_eq!(count(&mut db, &format!("{join} AND b.x > 1")), Ok(Value::Int(1)));
        let aliased = "SELECT COUNT(*) FROM a l, b r WHERE l.k = r.k AND r.x > 1";
        assert_eq!(count(&mut db, aliased), Ok(Value::Int(1)));
        // A bare `x` is two tables' column; a qualifier naming no FROM
        // entry is nobody's.
        let ambiguous = count(&mut db, &format!("{join} AND x > 1"));
        assert!(matches!(&ambiguous, Err(SqlError::Plan(m)) if m.contains("ambiguous")), "{ambiguous:?}");
        for sql in ["SELECT COUNT(*) FROM a WHERE b.x > 1", "SELECT b.x FROM a"] {
            assert!(matches!(db.execute(sql), Err(SqlError::Plan(_))), "{sql}");
        }
        // Above the join only b.k, a.x and a.k are left, so `a.x` is a's.
        let r = db.execute("SELECT a.x FROM a, b WHERE a.k = b.k ORDER BY a.x").unwrap();
        assert_eq!(r.rows(), [[Value::Int(1)], [Value::Int(5)]]);
        // With both `x`s decoded the joined schema cannot tell them
        // apart: a typed error, not a guess.
        let post_join = db.execute("SELECT a.x, b.x FROM a, b WHERE a.k = b.k");
        assert!(matches!(post_join, Err(SqlError::Plan(_))), "{post_join:?}");
    }

    #[test]
    fn bad_names_are_rejected_at_plan_time_whatever_the_data() {
        let mut db = db();
        db.execute("CREATE TABLE t (a INT, b INT, c INT)").unwrap();
        let bad = [
            "SELECT SUM(a) FROM t GROUP BY b HAVING c > 1",
            "SELECT c, SUM(a) FROM t GROUP BY b",
            "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY a",
            "SELECT SUM(a) AS s FROM t GROUP BY b ORDER BY c",
            "UPDATE t SET a = nope",
            "DELETE FROM t WHERE nope = 1",
        ];
        let reject_all = |db: &mut Database| -> Vec<SqlError> {
            let reject = |sql: &&str| {
                let err = db.execute(sql).expect_err(sql);
                assert!(matches!(err, SqlError::Plan(_)), "{sql}: {err:?}");
                if sql.starts_with("SELECT") {
                    assert_eq!(db.explain(sql), Err(err.clone()), "{sql}");
                }
                err
            };
            bad.iter().map(reject).collect()
        };
        // On the empty table, then with rows: the same errors.
        let on_empty = reject_all(&mut db);
        db.execute("INSERT INTO t VALUES (1, 2, 3), (4, 5, 6)").unwrap();
        assert_eq!(reject_all(&mut db), on_empty);
        // The rejected DML changed nothing.
        let r = db.execute("SELECT COUNT(*), SUM(a) FROM t").unwrap();
        assert_eq!(r.rows()[0], [Value::Int(2), Value::Int(5)]);
    }

    #[test]
    fn dml_arity_checked_in_insert_rows() {
        let mut db = db();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        assert!(db.insert_rows("t", vec![vec![Value::Int(1)]]).is_err());
        assert_eq!(db.insert_rows("t", vec![vec![Value::Int(1), Value::Int(2)]]).unwrap(), 1);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use ironsafe_storage::pager::PlainPager;
    use ironsafe_storage::SecurePager;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn checkpoint_and_reopen_plain() {
        let pager: Arc<Mutex<PlainPager>> = Arc::new(Mutex::new(PlainPager::new()));
        let shared: crate::heap::SharedPager = pager.clone();
        let mut db = Database::with_shared(shared.clone());
        db.checkpoint().unwrap(); // reserve page 0 before any data
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        db.checkpoint().unwrap();
        drop(db);

        let mut db = Database::open_shared(shared).unwrap();
        let r = db.execute("SELECT b FROM t WHERE a = 2").unwrap();
        assert_eq!(r.rows()[0][0].as_str().unwrap(), "y");
    }

    #[test]
    fn uncheckpointed_ddl_is_lost_on_reopen() {
        let pager: Arc<Mutex<PlainPager>> = Arc::new(Mutex::new(PlainPager::new()));
        let shared: crate::heap::SharedPager = pager.clone();
        let mut db = Database::with_shared(shared.clone());
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE later (b INT)").unwrap(); // not checkpointed
        drop(db);
        let db = Database::open_shared(shared).unwrap();
        assert!(db.catalog().has_table("t"));
        assert!(!db.catalog().has_table("later"));
    }

    #[test]
    fn full_reboot_cycle_over_secure_pager() {
        use ironsafe_crypto::group::Group;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"persist");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let device = mfr.make_device("p0", 8, &mut rng);

        let pager = Arc::new(Mutex::new(SecurePager::create(device, 1).unwrap()));
        let mut db = Database::with_shared(pager.clone());
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let values: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        db.checkpoint().unwrap();
        drop(db);

        // Power off: recover the device + medium from the pager.
        let secure = Arc::try_unwrap(pager).ok().expect("sole owner").into_inner();
        let (tz, medium) = secure.into_parts();

        // Reboot: reopen through the full freshness check.
        let reopened = SecurePager::open(tz, medium, 2).unwrap();
        let mut db = Database::open(reopened).unwrap();
        let r = db.execute("SELECT COUNT(*), SUM(a) FROM t").unwrap();
        assert_eq!(r.rows()[0][0].as_i64().unwrap(), 500);
        assert_eq!(r.rows()[0][1].as_i64().unwrap(), (0..500).sum::<i64>());
    }

    #[test]
    fn rolled_back_medium_refuses_to_open_at_db_level() {
        use ironsafe_crypto::group::Group;
        use ironsafe_tee::trustzone::Manufacturer;
        use rand::SeedableRng;
        let group = Group::modp_1024();
        let mfr = Manufacturer::from_seed(&group, b"persist2");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let device = mfr.make_device("p1", 8, &mut rng);

        let pager = Arc::new(Mutex::new(SecurePager::create(device, 1).unwrap()));
        let mut db = Database::with_shared(pager.clone());
        db.checkpoint().unwrap();
        db.execute("CREATE TABLE audit_trail (entry TEXT)").unwrap();
        db.execute("INSERT INTO audit_trail VALUES ('breach at 03:12')").unwrap();
        db.checkpoint().unwrap();
        let snapshot = pager.lock().device().raw_snapshot();
        // More damning evidence lands and is checkpointed.
        db.execute("INSERT INTO audit_trail VALUES ('exfiltration at 03:14')").unwrap();
        db.checkpoint().unwrap();
        drop(db);

        // The attacker rolls the medium back to hide the second entry.
        let secure = Arc::try_unwrap(pager).ok().expect("sole owner").into_inner();
        let (tz, mut medium) = secure.into_parts();
        medium.raw_restore(snapshot);
        assert!(SecurePager::open(tz, medium, 2).is_err(), "rollback detected at reboot");
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use ironsafe_storage::pager::PlainPager;

    #[test]
    fn explain_shows_the_physical_plan() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("CREATE TABLE u (c INT, d TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        let plan = db
            .explain(
                "SELECT d, COUNT(*) AS n FROM t, u \
                 WHERE a = c AND b LIKE 'x%' GROUP BY d ORDER BY n DESC LIMIT 5",
            )
            .unwrap();
        // Pipeline order: limit over project over sort over aggregate over
        // join over filtered, column-pruned scans.
        assert!(plan.starts_with("Limit: 5"), "{plan}");
        assert!(plan.contains("Project: d, n"), "{plan}");
        assert!(plan.contains("Sort: __agg0 DESC"), "{plan}");
        assert!(plan.contains("HashAggregate"), "{plan}");
        assert!(plan.contains("HashJoin"), "{plan}");
        // The filter sits inside its scan, below the join (pushdown).
        let join_line = plan.lines().position(|l| l.contains("HashJoin")).unwrap();
        let filter_line = plan.lines().position(|l| l.contains("filter (b LIKE 'x%')")).unwrap();
        assert!(filter_line > join_line);
        assert!(plan.lines().nth(filter_line).unwrap().contains("Scan ("), "{plan}");
        assert!(plan.contains("2/2 cols") && plan.contains("project c, d"), "{plan}");
    }

    #[test]
    fn single_table_plans_fuse_into_the_scan() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)").unwrap();
        let plan = db.explain("SELECT a + 1 AS n FROM t WHERE c > 0.5").unwrap();
        assert_eq!(plan.lines().count(), 1, "{plan}");
        assert!(plan.starts_with("Scan (") && plan.contains("2/3 cols"), "{plan}");
        assert!(plan.contains("filter (c > 0.5), project n"), "{plan}");
        let plan = db.explain("SELECT b, SUM(c) FROM t GROUP BY b").unwrap();
        assert!(plan.contains("ScanAggregate: group by [b]") && plan.contains("2/3 cols"), "{plan}");
        assert!(!plan.contains("Scan ("), "{plan}");
        // A sort between scan and projection keeps the projection apart.
        let plan = db.explain("SELECT a FROM t ORDER BY c").unwrap();
        assert!(plan.starts_with("Project: a\n  Sort: c\n    Scan ("), "{plan}");
    }

    #[test]
    fn explain_does_not_execute() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.reset_pager_stats();
        let _ = db.explain("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(db.pager_stats().page_reads, 0, "planning reads no pages");
        // A non-equi join materializes its right side when it first runs,
        // not when it is planned: no page read, and both scans in the tree.
        db.execute("CREATE TABLE u (b INT)").unwrap();
        db.execute("INSERT INTO u VALUES (1), (2), (3)").unwrap();
        db.reset_pager_stats();
        let plan = db.explain("SELECT a, b FROM t, u WHERE a < b").unwrap();
        assert_eq!(db.pager_stats().page_reads, 0, "{plan}");
        assert!(plan.contains("NestedLoopJoin: cross\n"), "{plan}");
        assert_eq!(plan.matches("Scan (").count(), 2, "{plan}");
        let r = db.execute("SELECT a, b FROM t, u WHERE a < b").unwrap();
        assert_eq!(r.rows(), [[Value::Int(1), Value::Int(2)], [Value::Int(1), Value::Int(3)], [Value::Int(2), Value::Int(3)]]);
    }

    #[test]
    fn explain_analyze_reports_per_operator_row_counts() {
        let mut db = Database::new(PlainPager::new());
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'x')").unwrap();
        let plan = db.explain_analyze("SELECT a FROM t WHERE b = 'x' LIMIT 2").unwrap();
        // Limit passes 2 of the 3 survivors of the 4 rows the scan decoded:
        // an operator counts the lanes it emits, and the scan emitted its
        // morsel's three survivors whatever the limit then kept of them.
        let limit = plan.lines().find(|l| l.contains("Limit")).unwrap();
        assert!(limit.contains("(rows in=3 out=2)"), "{plan}");
        let scan = plan.lines().find(|l| l.contains("Scan (")).unwrap();
        assert!(scan.contains("filter (b = 'x')"), "{plan}");
        assert!(scan.contains("(rows in=4 out=3)"), "{plan}");
        // The plain explain stays untouched by the instrumentation.
        let cold = db.explain("SELECT a FROM t WHERE b = 'x' LIMIT 2").unwrap();
        assert!(!cold.contains("rows out="), "{cold}");
    }
}
