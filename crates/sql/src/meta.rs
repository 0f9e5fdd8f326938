//! Catalog persistence.
//!
//! The catalog (table definitions + heap page lists) serializes into a
//! chain of reserved pages rooted at page 0, so a database survives a
//! power cycle: reopen the (secure) pager from the medium, then
//! [`Database::open`](crate::Database::open) rebuilds the in-memory catalog. Under the secure
//! pager the catalog pages get the same encryption + Merkle + freshness
//! protection as data pages — a rolled-back catalog is detected exactly
//! like rolled-back data.

use crate::catalog::{Catalog, TableInfo};
use crate::heap::{HeapFile, SharedPager};
use crate::schema::{Column, Schema};
use crate::value::DataType;
use crate::{Result, SqlError};
use ironsafe_storage::pager::PageId;
use ironsafe_storage::PAGE_PAYLOAD;

/// The catalog root always lives at page 0.
pub const CATALOG_ROOT: PageId = 0;

const MAGIC: &[u8; 6] = b"ISCAT1";
/// Sentinel "no next page".
const NO_NEXT: u64 = u64::MAX;
/// Per-page header: next pointer + chunk length.
const CHAIN_HEADER: usize = 12;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String> {
    let err = || SqlError::Eval("corrupt catalog encoding".into());
    let len = u16::from_be_bytes(buf.get(*pos..*pos + 2).ok_or_else(err)?.try_into().expect("2")) as usize;
    *pos += 2;
    let s = buf.get(*pos..*pos + len).ok_or_else(err)?;
    *pos += len;
    String::from_utf8(s.to_vec()).map_err(|_| err())
}

fn ty_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
    }
}

fn tag_ty(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Text),
        _ => Err(SqlError::Eval("corrupt catalog: bad type tag".into())),
    }
}

/// Serialize the catalog.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    let tables: Vec<&TableInfo> = catalog.tables().collect();
    out.extend_from_slice(&(tables.len() as u32).to_be_bytes());
    for t in tables {
        put_str(&mut out, &t.name);
        out.extend_from_slice(&(t.schema.len() as u16).to_be_bytes());
        for c in &t.schema.columns {
            put_str(&mut out, &c.name);
            out.push(ty_tag(c.ty));
        }
        out.extend_from_slice(&t.heap.row_count.to_be_bytes());
        out.extend_from_slice(&(t.heap.pages.len() as u32).to_be_bytes());
        for p in &t.heap.pages {
            out.extend_from_slice(&p.to_be_bytes());
        }
    }
    out
}

/// Deserialize a catalog.
pub fn decode_catalog(buf: &[u8]) -> Result<Catalog> {
    let err = || SqlError::Eval("corrupt catalog encoding".into());
    if buf.len() < 10 || &buf[..6] != MAGIC {
        return Err(SqlError::Eval("not an IronSafe catalog (bad magic)".into()));
    }
    let mut pos = 6;
    let n_tables = u32::from_be_bytes(buf[pos..pos + 4].try_into().expect("4")) as usize;
    pos += 4;
    let mut catalog = Catalog::new();
    for _ in 0..n_tables {
        let name = get_str(buf, &mut pos)?;
        let ncols = u16::from_be_bytes(buf.get(pos..pos + 2).ok_or_else(err)?.try_into().expect("2")) as usize;
        pos += 2;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = get_str(buf, &mut pos)?;
            let tag = *buf.get(pos).ok_or_else(err)?;
            pos += 1;
            columns.push(Column::new(cname, tag_ty(tag)?));
        }
        let row_count = u64::from_be_bytes(buf.get(pos..pos + 8).ok_or_else(err)?.try_into().expect("8"));
        pos += 8;
        let npages = u32::from_be_bytes(buf.get(pos..pos + 4).ok_or_else(err)?.try_into().expect("4")) as usize;
        pos += 4;
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            pages.push(u64::from_be_bytes(buf.get(pos..pos + 8).ok_or_else(err)?.try_into().expect("8")));
            pos += 8;
        }
        catalog.create_table(&name, Schema::new(columns))?;
        catalog.table_mut(&name)?.heap = HeapFile { pages, row_count };
    }
    Ok(catalog)
}

/// Write `bytes` into the catalog page chain rooted at [`CATALOG_ROOT`],
/// reusing `existing` chain pages and allocating more as needed. Returns
/// the full chain so the caller can remember it for the next write.
pub fn write_chain(pager: &SharedPager, existing: &[PageId], bytes: &[u8]) -> Result<Vec<PageId>> {
    let mut pager = pager.lock();
    let chunk = PAGE_PAYLOAD - CHAIN_HEADER;
    let n_pages = bytes.len().div_ceil(chunk).max(1);
    let mut chain: Vec<PageId> = existing.to_vec();
    if chain.is_empty() {
        debug_assert_eq!(pager.num_pages(), 0, "catalog root must be the first page");
        chain.push(pager.allocate_page()?);
        debug_assert_eq!(chain[0], CATALOG_ROOT);
    }
    while chain.len() < n_pages {
        chain.push(pager.allocate_page()?);
    }
    let mut page = vec![0u8; PAGE_PAYLOAD];
    for i in 0..n_pages {
        let start = i * chunk;
        let end = (start + chunk).min(bytes.len());
        let next = if i + 1 < n_pages { chain[i + 1] } else { NO_NEXT };
        page.iter_mut().for_each(|b| *b = 0);
        page[..8].copy_from_slice(&next.to_be_bytes());
        page[8..12].copy_from_slice(&((end - start) as u32).to_be_bytes());
        page[CHAIN_HEADER..CHAIN_HEADER + end - start].copy_from_slice(&bytes[start..end]);
        pager.write_page(chain[i], &page)?;
    }
    // Truncate stale tail links by rewriting the (now unused) pages empty.
    for &p in &chain[n_pages..] {
        page.iter_mut().for_each(|b| *b = 0);
        page[..8].copy_from_slice(&NO_NEXT.to_be_bytes());
        pager.write_page(p, &page)?;
    }
    Ok(chain)
}

/// Read the catalog byte chain rooted at [`CATALOG_ROOT`]. Also returns
/// the chain page ids.
pub fn read_chain(pager: &SharedPager) -> Result<(Vec<u8>, Vec<PageId>)> {
    let mut pager = pager.lock();
    let mut bytes = Vec::new();
    let mut chain = Vec::new();
    let mut page = vec![0u8; PAGE_PAYLOAD];
    let mut current = CATALOG_ROOT;
    loop {
        pager.read_page(current, &mut page)?;
        chain.push(current);
        let next = u64::from_be_bytes(page[..8].try_into().expect("8"));
        let len = u32::from_be_bytes(page[8..12].try_into().expect("4")) as usize;
        if CHAIN_HEADER + len > PAGE_PAYLOAD {
            return Err(SqlError::Eval("corrupt catalog chain: bad chunk length".into()));
        }
        bytes.extend_from_slice(&page[CHAIN_HEADER..CHAIN_HEADER + len]);
        if next == NO_NEXT {
            break;
        }
        if chain.len() > 1_000_000 {
            return Err(SqlError::Eval("corrupt catalog chain: cycle".into()));
        }
        current = next;
    }
    Ok((bytes, chain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::shared;
    use ironsafe_storage::pager::PlainPager;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "lineitem",
            Schema::new(vec![
                Column::new("l_orderkey", DataType::Int),
                Column::new("l_quantity", DataType::Float),
                Column::new("l_comment", DataType::Text),
            ]),
        )
        .unwrap();
        c.table_mut("lineitem").unwrap().heap = HeapFile { pages: vec![3, 4, 9], row_count: 120 };
        c.create_table("empty", Schema::new(vec![Column::new("x", DataType::Int)])).unwrap();
        c
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = sample_catalog();
        let bytes = encode_catalog(&c);
        let back = decode_catalog(&bytes).unwrap();
        let t = back.table("lineitem").unwrap();
        assert_eq!(t.schema.len(), 3);
        assert_eq!(t.schema.columns[1].ty, DataType::Float);
        assert_eq!(t.heap.pages, vec![3, 4, 9]);
        assert_eq!(t.heap.row_count, 120);
        assert!(back.has_table("empty"));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(decode_catalog(b"NOTACATALOG").is_err());
        assert!(decode_catalog(b"").is_err());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let bytes = encode_catalog(&sample_catalog());
        for cut in [7, 10, bytes.len() - 1] {
            assert!(decode_catalog(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn chain_roundtrip_small_and_multi_page() {
        let pager = shared(PlainPager::new());
        // Small payload.
        let chain = write_chain(&pager, &[], b"hello catalog").unwrap();
        assert_eq!(chain, vec![CATALOG_ROOT]);
        let (bytes, read_pages) = read_chain(&pager).unwrap();
        assert_eq!(bytes, b"hello catalog");
        assert_eq!(read_pages, chain);

        // Grow to a multi-page payload, reusing the root.
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let chain = write_chain(&pager, &chain, &big).unwrap();
        assert!(chain.len() > 1);
        let (bytes, _) = read_chain(&pager).unwrap();
        assert_eq!(bytes, big);

        // Shrink again: stale tail pages must not resurface.
        let chain2 = write_chain(&pager, &chain, b"tiny").unwrap();
        assert_eq!(chain2.len(), chain.len(), "chain keeps its pages for reuse");
        let (bytes, read_pages) = read_chain(&pager).unwrap();
        assert_eq!(bytes, b"tiny");
        assert_eq!(read_pages.len(), 1);
    }
}
