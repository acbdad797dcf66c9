//! A zero-dependency binary codec for [`Value`]s and [`State`]s.
//!
//! Checkpoint/resume (TLC's `-recover`) needs the state arena on disk,
//! and fingerprints are deliberately *not* a serialization format — so
//! this module provides the canonical byte encoding: length-prefixed,
//! little-endian, self-describing via one tag byte per value. The
//! encoding is total (every value encodes) and decoding is exact
//! (`decode(encode(v)) == v`); decoding arbitrary bytes never panics,
//! returning a typed [`DecodeError`] instead.
//!
//! Wire format per value:
//!
//! | tag | payload |
//! |-----|---------|
//! | `0` | `u8` boolean |
//! | `1` | `i64` LE integer |
//! | `2` | `u32` LE byte length + UTF-8 bytes |
//! | `3` | `u32` LE arity + that many values (tuple) |
//! | `4` | `u32` LE length + that many values (sequence) |
//!
//! A state is a `u32` LE slot count followed by one value per slot.

use crate::{State, Value};

/// Why a byte stream failed to decode as a value or state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// An unknown value tag byte.
    BadTag {
        /// The offending tag.
        tag: u8,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeds the remaining input (corrupt or
    /// adversarial data; also guards allocation-on-length attacks).
    BadLength {
        /// The claimed length.
        claimed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A slot of a packed state holds a code past its domain (a
    /// `k`-value domain's bit width leaves room for codes `≥ k`).
    BadCode {
        /// The variable slot.
        slot: usize,
        /// The code found there.
        code: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            DecodeError::BadTag { tag } => write!(f, "unknown value tag {tag}"),
            DecodeError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            DecodeError::BadLength { claimed, remaining } => write!(
                f,
                "length prefix {claimed} exceeds the {remaining} byte(s) remaining"
            ),
            DecodeError::BadCode { slot, code } => {
                write!(f, "packed slot {slot} holds code {code}, outside its domain")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an encoded byte slice; all reads are bounds-checked.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(DecodeError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(DecodeError::Truncated { context })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated { context })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32` length prefix followed by that many raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] if the input ends early, or
    /// [`DecodeError::BadLength`] if the prefix claims more bytes than
    /// remain.
    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.len(context)?;
        self.take(n, context)
    }

    /// Reads a length prefix and validates it against the remaining
    /// input, so corrupt data cannot demand absurd allocations.
    fn len(&mut self, context: &'static str) -> Result<usize, DecodeError> {
        let n = self.u32(context)? as usize;
        // Every encoded element costs at least one byte, so a claimed
        // count beyond the remaining bytes is definitely corrupt.
        if n > self.remaining() {
            return Err(DecodeError::BadLength {
                claimed: n,
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// Tag bytes of the wire format.
const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_TUPLE: u8 = 3;
const TAG_SEQ: u8 = 4;

/// Appends the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Tuple(items) => {
            out.push(TAG_TUPLE);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                encode_value(item, out);
            }
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items.iter() {
                encode_value(item, out);
            }
        }
    }
}

/// Decodes one value from the reader.
///
/// # Errors
///
/// A [`DecodeError`] on truncated, tag-invalid, or corrupt input;
/// never panics.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    match r.u8("value tag")? {
        TAG_BOOL => Ok(Value::Bool(r.u8("boolean payload")? != 0)),
        TAG_INT => {
            let b = r.take(8, "integer payload")?;
            Ok(Value::Int(i64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ])))
        }
        TAG_STR => {
            let n = r.len("string length")?;
            let bytes = r.take(n, "string payload")?;
            let s = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?;
            Ok(Value::str(s))
        }
        TAG_TUPLE => {
            let n = r.len("tuple arity")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            Ok(Value::tuple(items))
        }
        TAG_SEQ => {
            let n = r.len("sequence length")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            Ok(Value::seq(items))
        }
        tag => Err(DecodeError::BadTag { tag }),
    }
}

/// Appends the encoding of `s` (slot count + one value per slot) to
/// `out`.
pub fn encode_state(s: &State, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    for v in s.values() {
        encode_value(v, out);
    }
}

/// Decodes one state from the reader.
///
/// # Errors
///
/// As [`decode_value`].
pub fn decode_state(r: &mut Reader<'_>) -> Result<State, DecodeError> {
    let n = r.len("state slot count")?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_value(r)?);
    }
    Ok(State::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let mut bytes = Vec::new();
        encode_value(v, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = decode_value(&mut r).expect("decodes");
        assert_eq!(&back, v);
        assert!(r.is_empty(), "trailing bytes after {v}");
    }

    #[test]
    fn values_round_trip() {
        round_trip(&Value::Bool(false));
        round_trip(&Value::Bool(true));
        round_trip(&Value::Int(0));
        round_trip(&Value::Int(i64::MIN));
        round_trip(&Value::Int(i64::MAX));
        round_trip(&Value::str(""));
        round_trip(&Value::str("héllo ⊳ wörld"));
        round_trip(&Value::empty_seq());
        round_trip(&Value::tuple(vec![]));
        round_trip(&Value::tuple(vec![
            Value::Int(1),
            Value::seq(vec![Value::Bool(true), Value::str("x")]),
        ]));
        // Tuple vs Seq of the same contents stay distinct on the wire.
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_value(&Value::tuple(vec![Value::Int(1)]), &mut a);
        encode_value(&Value::seq(vec![Value::Int(1)]), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn states_round_trip() {
        for s in [
            State::new(Vec::<Value>::new()),
            State::new(vec![Value::Int(3), Value::Bool(true)]),
            State::new(vec![Value::seq(vec![Value::tuple(vec![
                Value::Int(1),
                Value::Int(0),
                Value::str("ack"),
            ])])]),
        ] {
            let mut bytes = Vec::new();
            encode_state(&s, &mut bytes);
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_state(&mut r).expect("decodes"), s);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn corrupt_input_yields_typed_errors_not_panics() {
        // Truncated integer.
        let mut bytes = Vec::new();
        encode_value(&Value::Int(42), &mut bytes);
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            decode_value(&mut Reader::new(&bytes)),
            Err(DecodeError::Truncated { .. })
        ));
        // Unknown tag.
        assert!(matches!(
            decode_value(&mut Reader::new(&[99])),
            Err(DecodeError::BadTag { tag: 99 })
        ));
        // Absurd length prefix.
        let mut bytes = vec![TAG_SEQ];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_value(&mut Reader::new(&bytes)),
            Err(DecodeError::BadLength { .. })
        ));
        // Invalid UTF-8 payload.
        let mut bytes = vec![TAG_STR];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_value(&mut Reader::new(&bytes)),
            Err(DecodeError::BadUtf8)
        );
        // Empty input.
        assert!(matches!(
            decode_state(&mut Reader::new(&[])),
            Err(DecodeError::Truncated { .. })
        ));
        // Errors display something readable.
        assert!(DecodeError::BadUtf8.to_string().contains("UTF-8"));
        assert!(DecodeError::Truncated { context: "x" }.to_string().contains('x'));
    }
}
