//! Row-to-shard partitioning layered under the `csa` partitioner.
//!
//! Every sharded table stores a hidden trailing `__gid` column: the
//! row's global index in canonical (generation) order, assigned once at
//! partition time. Fragments project `__gid`, the coordinator k-way
//! merges shard streams by ascending gid, and the canonical row order —
//! the order a single node would have produced — is recovered exactly at
//! any shard count. That merge order is what makes result rows, group
//! first-seen order and non-associative float accumulation bit-identical
//! between one shard and N.
//!
//! Tables are split into contiguous key ranges whose boundaries are
//! snapped to *canonical heap page starts*: the heap packs greedily and
//! statelessly, and the TPC-H generator emits every table in
//! partition-key order, so a shard
//! whose rows are a contiguous canonical run starting at a page boundary
//! packs into byte-identical pages. Summed per-shard page reads, writes,
//! decrypts and encrypts are then conserved versus a single node. A
//! boundary page is only usable when its first key is strictly greater
//! than the previous page's last key (duplicate keys must not straddle a
//! cut); the chooser walks forward until that holds.

use crate::{Result, ScaleError};
use ironsafe_sql::batch::ColumnBatch;
use ironsafe_sql::db::Database;
use ironsafe_sql::heap::{scan_page_columns, CellTable};
use ironsafe_sql::schema::{Column, Row, Schema};
use ironsafe_sql::value::{DataType, Value};
use ironsafe_storage::pager::PlainPager;
use ironsafe_storage::PAGE_PAYLOAD;
use std::cmp::Ordering;

/// Name of the hidden global-row-index column on every shard table.
pub const GID_COLUMN: &str = "__gid";

/// `base` with the trailing hidden gid column appended.
pub fn gid_schema(base: &Schema) -> Schema {
    let mut columns = base.columns.clone();
    columns.push(Column::new(GID_COLUMN, DataType::Int));
    Schema::new(columns)
}

/// One upper range boundary: the first key owned by the *next* shard.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeBound {
    /// Keys `>= this` belong to a later shard.
    Key(Value),
    /// Unreachable boundary (the next shard is empty).
    Top,
}

impl RangeBound {
    fn le(&self, key: &Value) -> bool {
        match self {
            RangeBound::Top => false,
            RangeBound::Key(v) => {
                matches!(v.compare(key), Some(Ordering::Less | Ordering::Equal))
            }
        }
    }
}

/// The row-routing function for one table: `shards - 1` ascending
/// range boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// `boundaries[i]` is the lowest key shard `i + 1` owns.
    pub boundaries: Vec<RangeBound>,
}

impl ShardSpec {
    /// The shard that owns `key` (binary search).
    pub fn shard_of(&self, key: &Value) -> usize {
        self.boundaries.partition_point(|b| b.le(key))
    }

    /// Linear-scan reference implementation of [`ShardSpec::shard_of`]
    /// (the proptest oracle the binary search is checked against).
    pub fn shard_of_oracle(&self, key: &Value) -> usize {
        self.boundaries.iter().filter(|b| b.le(key)).count()
    }

    /// Shard count this spec routes into.
    pub fn shards(&self) -> usize {
        self.boundaries.len() + 1
    }
}

/// One table split across the federation.
#[derive(Debug)]
pub struct TablePartition {
    /// Table name.
    pub table: String,
    /// Base (gid-less) schema.
    pub schema: Schema,
    /// Partition-key column index in the base schema.
    pub key_index: usize,
    /// The routing function.
    pub spec: ShardSpec,
    /// Gid-augmented rows per shard, canonical order within each shard.
    pub shard_rows: Vec<Vec<Row>>,
    /// Total row count across shards.
    pub total_rows: u64,
    /// Heap pages the gid-augmented table occupies when packed on one
    /// node — the N-invariant page count the canonical cost model uses.
    pub canonical_pages: u64,
}

/// Canonical packing facts for one heap page.
struct PageFacts {
    start_row: u64,
    first_key: Value,
    last_key: Value,
}

impl TablePartition {
    /// Split `rows` (base-schema order = canonical order) into `shards`
    /// key-range partitions on `key`.
    pub fn build(
        table: &str,
        schema: &Schema,
        rows: &[Row],
        key: &str,
        shards: usize,
    ) -> Result<TablePartition> {
        let key_index = schema.resolve(key).map_err(|_| ScaleError::MissingPartitionKey {
            table: table.to_string(),
            key: key.to_string(),
        })?;
        let with_gid = gid_schema(schema);
        let gid_rows: Vec<Row> = rows
            .iter()
            .enumerate()
            .map(|(gid, r)| {
                let mut row = r.clone();
                row.push(Value::Int(gid as i64));
                row
            })
            .collect();

        let pages = canonical_packing(table, &with_gid, &gid_rows, key_index)?;
        let canonical_pages = pages.len() as u64;
        let sorted = rows
            .windows(2)
            .all(|w| !matches!(w[0][key_index].compare(&w[1][key_index]), Some(Ordering::Greater)));
        let boundaries = if sorted {
            page_aligned_boundaries(&pages, rows.len() as u64, shards)
        } else {
            // Without key-sorted canonical order a page-aligned cut
            // cannot be a key boundary; fall back to even cuts over the
            // sorted key set (rows still route correctly, page
            // conservation is forfeited).
            sorted_key_boundaries(rows, key_index, shards)
        };
        let spec = ShardSpec { boundaries };

        let mut shard_rows: Vec<Vec<Row>> = vec![Vec::new(); shards];
        for row in gid_rows {
            let shard = spec.shard_of(&row[key_index]);
            shard_rows[shard].push(row);
        }
        Ok(TablePartition {
            table: table.to_string(),
            schema: schema.clone(),
            key_index,
            spec,
            shard_rows,
            total_rows: rows.len() as u64,
            canonical_pages,
        })
    }
}

/// Pack the gid-augmented table once on a scratch in-memory pager and
/// record, per heap page, what the boundary chooser uses: its starting
/// canonical row index and its first and last partition key (read with
/// the columnar decode, the key column only).
fn canonical_packing(
    table: &str,
    with_gid: &Schema,
    gid_rows: &[Row],
    key_index: usize,
) -> Result<Vec<PageFacts>> {
    let mut db = Database::new(PlainPager::new());
    db.create_table(table, with_gid.clone())?;
    db.insert_rows(table, gid_rows.to_vec())?;
    let heap = &db.catalog().table(table)?.heap;
    let key_only: Vec<bool> = (0..with_gid.len()).map(|c| c == key_index).collect();
    let (mut batch, mut cells) = (ColumnBatch::new(with_gid.len()), CellTable::default());
    let mut payload = vec![0u8; PAGE_PAYLOAD];
    let mut pages = Vec::with_capacity(heap.pages.len());
    let mut start_row = 0u64;
    for &id in &heap.pages {
        db.pager().lock().read_page(id, &mut payload)?;
        batch.clear();
        cells.clear();
        scan_page_columns(&payload, payload.len(), &key_only, &mut batch, &mut cells)?;
        let last = batch.len().checked_sub(1).expect("heap pages are never empty");
        pages.push(PageFacts {
            start_row,
            first_key: batch.value_at(key_index, 0),
            last_key: batch.value_at(key_index, last),
        });
        start_row += batch.len() as u64;
    }
    Ok(pages)
}

/// Choose `shards - 1` ascending boundaries snapped to canonical page
/// starts, each a *clean* cut (the boundary page's first key strictly
/// exceeds the previous page's last key, so duplicate keys never
/// straddle it).
fn page_aligned_boundaries(facts: &[PageFacts], total: u64, shards: usize) -> Vec<RangeBound> {
    let npages = facts.len();
    let mut boundaries = Vec::with_capacity(shards.saturating_sub(1));
    let mut last_p = 0usize;
    for i in 1..shards {
        let ideal = total * i as u64 / shards as u64;
        let mut p = facts.partition_point(|f| f.start_row < ideal).max(last_p.max(1));
        while p < npages
            && !matches!(
                facts[p - 1].last_key.compare(&facts[p].first_key),
                Some(Ordering::Less)
            )
        {
            p += 1;
        }
        if p >= npages {
            boundaries.push(RangeBound::Top);
        } else {
            boundaries.push(RangeBound::Key(facts[p].first_key.clone()));
            last_p = p;
        }
    }
    boundaries
}

/// Even cuts over the sorted key multiset (the unsorted-data fallback).
fn sorted_key_boundaries(rows: &[Row], key_index: usize, shards: usize) -> Vec<RangeBound> {
    let mut keys: Vec<&Value> = rows.iter().map(|r| &r[key_index]).collect();
    keys.sort_by(|a, b| a.compare(b).unwrap_or(Ordering::Equal));
    let total = keys.len();
    (1..shards)
        .map(|i| {
            let ideal = total * i / shards;
            if ideal >= total {
                RangeBound::Top
            } else {
                RangeBound::Key(keys[ideal].clone())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![Column::new("k", DataType::Int), Column::new("v", DataType::Text)])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(|i| vec![Value::Int(i), Value::Text(format!("payload {i}"))]).collect()
    }

    #[test]
    fn missing_key_is_a_typed_error() {
        let err = TablePartition::build("t", &schema(), &rows(10), "nope", 2)
            .unwrap_err();
        assert!(matches!(err, ScaleError::MissingPartitionKey { .. }));
    }

    #[test]
    fn every_row_lands_on_exactly_one_shard() {
        for shards in [1usize, 2, 3, 4, 8] {
            let part = TablePartition::build("t", &schema(), &rows(500), "k", shards).unwrap();
            assert_eq!(part.shard_rows.len(), shards);
            let total: usize = part.shard_rows.iter().map(Vec::len).sum();
            assert_eq!(total, 500);
            // gids across all shards form exactly 0..500
            let mut gids: Vec<i64> = part
                .shard_rows
                .iter()
                .flatten()
                .map(|r| match r.last() {
                    Some(Value::Int(g)) => *g,
                    other => panic!("gid must be Int, got {other:?}"),
                })
                .collect();
            gids.sort_unstable();
            assert_eq!(gids, (0..500).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn range_shards_hold_contiguous_runs_on_sorted_data() {
        let part = TablePartition::build("t", &schema(), &rows(500), "k", 4).unwrap();
        let mut expected_next = 0i64;
        for shard in &part.shard_rows {
            for row in shard {
                let Some(Value::Int(g)) = row.last() else { panic!("gid") };
                assert_eq!(*g, expected_next, "range shards must be contiguous canonical runs");
                expected_next += 1;
            }
        }
        assert_eq!(expected_next, 500);
    }

    #[test]
    fn binary_search_matches_linear_oracle() {
        let part = TablePartition::build("t", &schema(), &rows(500), "k", 4).unwrap();
        for k in -5..505 {
            let key = Value::Int(k);
            assert_eq!(part.spec.shard_of(&key), part.spec.shard_of_oracle(&key));
        }
    }
}
