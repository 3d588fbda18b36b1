//! The two payload layouts a frame can carry.
//!
//! * **JSON** — the vendored serde [`Value`] tree printed compactly as
//!   UTF-8. Every payload in this layout is an object, so its first byte
//!   is `{`. Charge and release records use it; so did registration
//!   records and snapshots before the row-block layout, and those still
//!   decode (their `rows` fields are arrays of number arrays).
//! * **Row block** — registration and re-registration records, and
//!   snapshot payloads from version 4 on:
//!
//!   ```text
//!   [0xB1] [header length: u32 LE] [header: compact JSON] [row blocks]
//!   ```
//!
//!   The header holds every field of the JSON form, except that each
//!   `rows` field becomes its block's spec. The row blocks follow in the
//!   order their `rows` fields appear in the header, each holding its N·D
//!   coordinates row-major in one of two layouts:
//!
//!   * **grid**, spec `{"n":N,"dim":D,"width":W}`: each coordinate as its
//!     index `k` on the grid of the record's own `domain`, little-endian
//!     in W bytes — the fewest of 1, 2 or 4 that hold `size − 1`. The
//!     coordinate is `min + (k as f64)·step` with
//!     `step = (max − min)/((size − 1) as f64)`, and the writer picks this
//!     layout only when that expression rebuilds every coordinate of the
//!     block bit for bit, for a domain with finite bounds and
//!     `2 ≤ size ≤ 2³²` (whose JSON numbers decode to the same bits);
//!   * **f64**, spec `{"n":N,"dim":D}`: each coordinate as little-endian
//!     `f64`, 8 bytes, for every other block (one coordinate off the grid,
//!     a `-0.0`, or a domain with no such grid is enough).
//!
//!   Either way the rows come back bit-exact, with no float formatting
//!   or parsing. Version-4 snapshots and the journals written with them
//!   hold f64 blocks only. The tag byte `0xB1` can start neither a JSON
//!   text nor any UTF-8 string.
//!
//! A header whose blocks disagree with the bytes after it — a block that
//! runs past the payload, bytes left over after the last one, a width
//! other than the domain's, or a grid index above `size − 1` — is
//! [`StoreError::Corrupt`], never a shorter or different dataset.

use crate::error::StoreError;
use crate::record::DomainSpec;
use crate::wire::{get, num, obj, req, req_usize};
use serde::Value;

/// First byte of a row-block payload.
const ROW_BLOCK_TAG: u8 = 0xB1;

/// A domain's grid as the grid layout writes and reads it.
#[derive(Clone, Copy)]
struct Grid {
    min: f64,
    step: f64,
    /// The largest index, `size − 1`.
    last: u32,
    /// Bytes per index.
    width: usize,
}

impl Grid {
    /// The grid of `domain`, if it has one that an index of at most four
    /// bytes can name: finite bounds and `2 ≤ size ≤ 2³²`.
    fn of(domain: &DomainSpec) -> Option<Grid> {
        let last = u32::try_from(domain.size.checked_sub(1)?).ok()?;
        if last == 0 || !(domain.min.is_finite() && domain.max.is_finite()) {
            return None;
        }
        let width = match last {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            _ => 4,
        };
        Some(Grid {
            min: domain.min,
            step: (domain.max - domain.min) / f64::from(last),
            last,
            width,
        })
    }

    /// The coordinate at index `k`: the one expression both directions use.
    fn coordinate(&self, k: u32) -> f64 {
        self.min + f64::from(k) * self.step
    }

    /// The index whose coordinate is `c` bit for bit, if there is one.
    fn index(&self, c: f64) -> Option<u32> {
        // Only a candidate: the bit comparison below decides.
        let x = (c - self.min) / self.step;
        if !(x > -0.5 && x < f64::from(self.last) + 0.5) {
            return None;
        }
        let k = (x + 0.5) as u32;
        (self.coordinate(k).to_bits() == c.to_bits()).then_some(k)
    }

    /// Every coordinate of `rows` (of `dim` each) as its index, in `width`
    /// bytes little-endian; `None` at the first coordinate off the grid.
    fn indices(&self, rows: &[Vec<f64>], dim: usize) -> Option<Vec<u8>> {
        // `Grid::of` sized the width to hold every index up to `last`.
        match self.width {
            1 => self.indices_as(rows, dim, |k| [k as u8]),
            2 => self.indices_as(rows, dim, |k| (k as u16).to_le_bytes()),
            _ => self.indices_as(rows, dim, u32::to_le_bytes),
        }
    }

    fn indices_as<const W: usize>(
        &self,
        rows: &[Vec<f64>],
        dim: usize,
        bytes: impl Fn(u32) -> [u8; W],
    ) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(rows.len() * dim * W);
        for &c in rows.iter().flatten() {
            out.extend_from_slice(&bytes(self.index(c)?));
        }
        Some(out)
    }

    /// A grid block's rows of `dim` coordinates; an index past `size − 1`
    /// is corrupt.
    fn rows(&self, block: &[u8], dim: usize) -> Result<Vec<Vec<f64>>, StoreError> {
        match self.width {
            1 => self.rows_as(block, dim, |[k]| k.into()),
            2 => self.rows_as(block, dim, |k| u16::from_le_bytes(k).into()),
            _ => self.rows_as(block, dim, u32::from_le_bytes),
        }
    }

    fn rows_as<const W: usize>(
        &self,
        block: &[u8],
        dim: usize,
        index: impl Fn([u8; W]) -> u32,
    ) -> Result<Vec<Vec<f64>>, StoreError> {
        let past = block
            .chunks_exact(W)
            .map(|c| index(c.try_into().expect("chunks of W bytes")))
            .find(|&k| k > self.last);
        if let Some(k) = past {
            return Err(StoreError::Corrupt(format!(
                "grid index {k} lies past the domain's last index {}",
                self.last
            )));
        }
        Ok(block_rows(block, dim, |c| self.coordinate(index(c))))
    }
}

/// One registration's rows and the layout they are written in.
pub(crate) struct RowBlock<'a> {
    rows: &'a [Vec<f64>],
    dim: usize,
    /// Bytes per index and every coordinate's grid index, written out,
    /// when all of them lie on the domain's grid; `None` for `f64`.
    indices: Option<(usize, Vec<u8>)>,
}

impl<'a> RowBlock<'a> {
    /// `rows` in the grid layout of `domain` if every coordinate lies on
    /// that grid bit for bit, as `f64` otherwise. Every row must have the
    /// same non-zero length.
    pub(crate) fn new(rows: &'a [Vec<f64>], domain: &DomainSpec) -> Result<Self, StoreError> {
        let dim = rows.first().map_or(0, Vec::len);
        if let Some(row) = rows.iter().find(|row| row.is_empty() || row.len() != dim) {
            return Err(StoreError::Corrupt(format!(
                "cannot journal a row of {} coordinates in a block of {dim}-coordinate rows",
                row.len()
            )));
        }
        let indices =
            Grid::of(domain).and_then(|grid| Some((grid.width, grid.indices(rows, dim)?)));
        Ok(RowBlock { rows, dim, indices })
    }

    /// The spec that stands in for the rows in a row-block header.
    pub(crate) fn spec(&self) -> Value {
        let mut spec = vec![
            ("n", num(self.rows.len() as f64)),
            ("dim", num(self.dim as f64)),
        ];
        if let Some((width, _)) = &self.indices {
            spec.push(("width", num(*width as f64)));
        }
        obj(spec)
    }

    fn len(&self) -> usize {
        self.indices
            .as_ref()
            .map_or(self.rows.len() * self.dim * 8, |(_, bytes)| bytes.len())
    }

    fn write(&self, out: &mut Vec<u8>) {
        match &self.indices {
            Some((_, bytes)) => out.extend_from_slice(bytes),
            None => {
                for &c in self.rows.iter().flatten() {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
}

/// Writes a row-block payload: the tag, the length-prefixed `header`
/// (whose `rows` fields must be the blocks' [`spec`](RowBlock::spec)s, in
/// the same order), then each block.
pub(crate) fn encode_row_blocks(
    header: &Value,
    blocks: &[RowBlock<'_>],
) -> Result<Vec<u8>, StoreError> {
    let header = serde_json::to_string(header).expect("header serialization is infallible");
    let header_len = u32::try_from(header.len())
        .map_err(|_| StoreError::Corrupt(format!("{}-byte header overflows u32", header.len())))?;
    let len: usize = blocks.iter().map(RowBlock::len).sum();
    let mut out = Vec::with_capacity(5 + header.len() + len);
    out.push(ROW_BLOCK_TAG);
    out.extend_from_slice(&header_len.to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    for block in blocks {
        block.write(&mut out);
    }
    Ok(out)
}

/// Where a decoded payload's rows come from.
#[derive(Debug)]
pub(crate) enum Rows<'a> {
    /// A JSON payload: each `rows` field is an array of number arrays.
    Inline,
    /// A row-block payload: the block bytes not yet taken.
    Blocks(&'a [u8]),
}

/// Splits a payload into its JSON value — the whole payload, or a
/// row-block header — and its row source. `what` names the payload in
/// error messages.
pub(crate) fn decode<'a>(payload: &'a [u8], what: &str) -> Result<(Value, Rows<'a>), StoreError> {
    let (json, rows) = match payload.split_first() {
        Some((&ROW_BLOCK_TAG, rest)) => {
            let (len, rest) = rest
                .split_first_chunk::<4>()
                .ok_or_else(|| corrupt(what, "ends inside its header length"))?;
            let len = u32::from_le_bytes(*len) as usize;
            if len > rest.len() {
                return Err(corrupt(
                    what,
                    &format!(
                        "announces a {len}-byte header but only {} bytes follow",
                        rest.len()
                    ),
                ));
            }
            let (header, blocks) = rest.split_at(len);
            (header, Rows::Blocks(blocks))
        }
        _ => (payload, Rows::Inline),
    };
    let text =
        std::str::from_utf8(json).map_err(|e| corrupt(what, &format!("is not UTF-8: {e}")))?;
    let value =
        serde_json::from_str(text).map_err(|e| corrupt(what, &format!("is not JSON: {e}")))?;
    Ok((value, rows))
}

fn corrupt(what: &str, message: &str) -> StoreError {
    StoreError::Corrupt(format!("{what} payload {message}"))
}

impl Rows<'_> {
    /// Reads the `rows` field of `record`, whose decoded domain is
    /// `domain`: inline arrays from a JSON payload, or the next block of a
    /// row-block payload.
    pub(crate) fn take(
        &mut self,
        record: &Value,
        domain: &DomainSpec,
    ) -> Result<Vec<Vec<f64>>, StoreError> {
        let field = req(record, "rows")?;
        let bytes = match self {
            Rows::Inline => return inline_rows(field),
            Rows::Blocks(bytes) => bytes,
        };
        let n = req_usize(field, "n")?;
        let dim = req_usize(field, "dim")?;
        let grid = get(field, "width")
            .map(|_| {
                let width = req_usize(field, "width")?;
                Grid::of(domain)
                    .filter(|grid| grid.width == width)
                    .ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "a grid block of {width}-byte indices on a domain of size {}",
                            domain.size
                        ))
                    })
            })
            .transpose()?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let width = grid.map_or(8, |grid| grid.width);
        let len = n
            .checked_mul(dim)
            .and_then(|coords| coords.checked_mul(width))
            .filter(|&len| dim > 0 && len <= bytes.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "row block of {n} × {dim} coordinates does not fit the {} bytes left",
                    bytes.len()
                ))
            })?;
        let (block, rest) = bytes.split_at(len);
        *bytes = rest;
        match grid {
            None => Ok(block_rows(block, dim, f64::from_le_bytes)),
            Some(grid) => grid.rows(block, dim),
        }
    }

    /// Requires every block byte to have been taken.
    pub(crate) fn finish(self) -> Result<(), StoreError> {
        match self {
            Rows::Blocks(rest) if !rest.is_empty() => Err(StoreError::Corrupt(format!(
                "{} bytes follow the last row block",
                rest.len()
            ))),
            _ => Ok(()),
        }
    }
}

/// A block's rows of `dim` coordinates, each read from its `W` bytes.
fn block_rows<const W: usize>(
    block: &[u8],
    dim: usize,
    read: impl Fn([u8; W]) -> f64,
) -> Vec<Vec<f64>> {
    block
        .chunks_exact(W * dim)
        .map(|row| {
            row.chunks_exact(W)
                .map(|c| read(c.try_into().expect("chunks of W bytes")))
                .collect()
        })
        .collect()
}

fn inline_rows(field: &Value) -> Result<Vec<Vec<f64>>, StoreError> {
    field
        .as_array()
        .ok_or_else(|| StoreError::Corrupt("field `rows` must be an array".into()))?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or_else(|| StoreError::Corrupt("each row must be an array of numbers".into()))?
                .iter()
                .map(|c| {
                    c.as_f64().ok_or_else(|| {
                        StoreError::Corrupt("row coordinates must be numbers".into())
                    })
                })
                .collect()
        })
        .collect()
}
