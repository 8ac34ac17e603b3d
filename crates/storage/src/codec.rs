//! Binary codec of the one disk-resident format: `pager` pages and
//! manifests (spill partitions are temporary page tables, so they share it).
//!
//! Values are encoded as `tag u8 + payload` (floats as raw bit patterns so
//! round trips are bit-identical), schemas as
//! `field_count u32; per field: name_len u32, UTF-8 name, dtype tag u8`, and
//! integrity as a trailing [`checksum`] over every prior byte.

use crate::error::{Result, StorageError};
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;
use std::path::Path;

/// One checksum step: rotate-xor-multiply by an odd constant. For a fixed
/// state it is a bijection of the word, and for a fixed word a bijection of
/// the state, so a change to any one word changes every later state.
#[inline]
fn checksum_step(h: u64, word: u64) -> u64 {
    (h.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Integrity sum of a page or manifest: one [`checksum_step`] per 8-byte
/// little-endian word, the tail zero-padded to a word, then the length (so
/// trailing zero bytes are not free). About six times faster than a
/// byte-serial FNV-1a on a 4 KiB page.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in &mut words {
        h = checksum_step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = checksum_step(h, u64::from_le_bytes(last));
    }
    checksum_step(h, bytes.len() as u64)
}

pub(crate) fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Any => 4,
    }
}

pub(crate) fn tag_dtype(t: u8) -> Option<DataType> {
    Some(match t {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 => DataType::Any,
        _ => return None,
    })
}

/// Append one value as `tag + payload`:
/// `0 Null | 1 All | 2 Int i64 LE | 3 Float f64-bits u64 LE |
///  4 Str u32 len + UTF-8 | 5 Bool u8`.
pub(crate) fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::All => buf.push(1),
        Value::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(3);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(5);
            buf.push(*b as u8);
        }
    }
}

/// Bytes [`encode_value`] appends for `v`.
pub(crate) fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null | Value::All => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::Bool(_) => 2,
    }
}

/// Append a schema: field count then `(name_len, name, dtype tag)` triples.
pub(crate) fn encode_schema(buf: &mut Vec<u8>, schema: &Schema) {
    buf.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for f in schema.fields() {
        buf.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(f.name.as_bytes());
        buf.push(dtype_tag(f.dtype));
    }
}

/// Byte cursor over a fully read buffer; every short read is corruption
/// ([`StorageError::PageCorrupt`]).
pub(crate) struct Cursor<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8], path: &'a Path) -> Self {
        Cursor { data, pos: 0, path }
    }

    pub(crate) fn corrupt(&self, detail: impl Into<String>) -> StorageError {
        StorageError::PageCorrupt {
            path: self.path.display().to_string(),
            detail: detail.into(),
        }
    }

    /// Bytes not yet consumed: the most any count read from the buffer can
    /// be backed by, and so the cap on what it may pre-allocate.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| self.corrupt("length overflow"))?;
        if end > self.data.len() {
            return Err(self.corrupt(format!(
                "truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the buffer.
    pub(crate) fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string value is not UTF-8"))
    }

    /// Decode one tagged value.
    pub(crate) fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::All,
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::str(self.str()?),
            5 => Value::Bool(self.u8()? != 0),
            t => return Err(self.corrupt(format!("bad value tag {t}"))),
        })
    }

    /// Decode a schema written by [`encode_schema`].
    pub(crate) fn schema(&mut self) -> Result<Schema> {
        let n_fields = self.u32()? as usize;
        let mut fields = Vec::with_capacity(n_fields.min(1024));
        for _ in 0..n_fields {
            let name_len = self.u32()? as usize;
            let bytes = self.take(name_len)?;
            let name = std::str::from_utf8(bytes)
                .map_err(|_| self.corrupt("field name is not UTF-8"))?
                .to_string();
            let tag = self.u8()?;
            let dtype = tag_dtype(tag).ok_or_else(|| self.corrupt("bad dtype tag"))?;
            fields.push(Field::new(name, dtype));
        }
        Ok(Schema::new(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip_is_bit_identical() {
        let vals = vec![
            Value::Null,
            Value::All,
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::str("naïve — ünïcödé"),
            Value::Bool(true),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(&mut buf, v);
        }
        let path = Path::new("codec-test");
        let mut c = Cursor::new(&buf, path);
        for v in &vals {
            assert_eq!(encoded_len(v), {
                let mut one = Vec::new();
                encode_value(&mut one, v);
                one.len()
            });
            let back = c.value().unwrap();
            match (v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &back),
            }
        }
        assert_eq!(c.pos, buf.len());
    }

    #[test]
    fn schema_round_trips() {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
            ("a", DataType::Any),
        ]);
        let mut buf = Vec::new();
        encode_schema(&mut buf, &schema);
        let path = Path::new("codec-test");
        let mut c = Cursor::new(&buf, path);
        assert_eq!(c.schema().unwrap(), schema);
    }

    #[test]
    fn short_reads_surface_the_right_corruption_kind() {
        let path = Path::new("codec-test");
        let mut page = Cursor::new(&[2u8, 0, 0], path);
        assert!(matches!(
            page.value(),
            Err(StorageError::PageCorrupt { .. })
        ));
    }
}
