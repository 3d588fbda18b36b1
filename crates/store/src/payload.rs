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
//!   `rows` field becomes `{"n":N,"dim":D}`. The row blocks follow in the
//!   order their `rows` fields appear in the header; each is the N·D
//!   coordinates as little-endian `f64`, row-major — 8 bytes per
//!   coordinate, bit-exact, with no float formatting or parsing. The tag
//!   byte `0xB1` can start neither a JSON text nor any UTF-8 string.
//!
//! A header whose blocks disagree with the bytes after it — a block that
//! runs past the payload, or bytes left over after the last one — is
//! [`StoreError::Corrupt`], never a shorter dataset.

use crate::error::StoreError;
use crate::wire::{num, obj, req, req_usize};
use serde::Value;

/// First byte of a row-block payload.
const ROW_BLOCK_TAG: u8 = 0xB1;

/// Coordinates per row of a block: the first row's length (0 for none).
fn block_dim(rows: &[Vec<f64>]) -> usize {
    rows.first().map_or(0, Vec::len)
}

/// The stand-in for `rows` in a row-block header: `{"n":N,"dim":D}`.
pub(crate) fn rows_spec(rows: &[Vec<f64>]) -> Value {
    obj(vec![
        ("n", num(rows.len() as f64)),
        ("dim", num(block_dim(rows) as f64)),
    ])
}

/// Writes a row-block payload: the tag, the length-prefixed `header`,
/// then each of `blocks` in order (the header's `rows` fields must be
/// their [`rows_spec`]s, in the same order). Every row of a block must
/// have the block's non-zero length.
pub(crate) fn encode_row_blocks(
    header: &Value,
    blocks: &[&[Vec<f64>]],
) -> Result<Vec<u8>, StoreError> {
    let header = serde_json::to_string(header).expect("header serialization is infallible");
    let header_len = u32::try_from(header.len())
        .map_err(|_| StoreError::Corrupt(format!("{}-byte header overflows u32", header.len())))?;
    let coords: usize = blocks.iter().map(|rows| rows.len() * block_dim(rows)).sum();
    let mut out = Vec::with_capacity(5 + header.len() + 8 * coords);
    out.push(ROW_BLOCK_TAG);
    out.extend_from_slice(&header_len.to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    for rows in blocks {
        let dim = block_dim(rows);
        for row in rows.iter() {
            if row.is_empty() || row.len() != dim {
                return Err(StoreError::Corrupt(format!(
                    "cannot journal a row of {} coordinates in a block of {dim}-coordinate rows",
                    row.len()
                )));
            }
            for &x in row {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
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
    /// Reads the `rows` field of `record`: inline arrays from a JSON
    /// payload, or the next block of a row-block payload.
    pub(crate) fn take(&mut self, record: &Value) -> Result<Vec<Vec<f64>>, StoreError> {
        let field = req(record, "rows")?;
        let bytes = match self {
            Rows::Inline => return inline_rows(field),
            Rows::Blocks(bytes) => bytes,
        };
        let n = req_usize(field, "n")?;
        let dim = req_usize(field, "dim")?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let len = n
            .checked_mul(dim)
            .and_then(|coords| coords.checked_mul(8))
            .filter(|&len| dim > 0 && len <= bytes.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "row block of {n} × {dim} coordinates does not fit the {} bytes left",
                    bytes.len()
                ))
            })?;
        let (block, rest) = bytes.split_at(len);
        *bytes = rest;
        Ok(block
            .chunks_exact(8 * dim)
            .map(|row| {
                row.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect()
            })
            .collect())
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
