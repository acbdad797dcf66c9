//! Packed state layouts: fixed-width bit slots compiled from declared
//! variable domains.
//!
//! A [`PackedLayout`] assigns every variable a contiguous run of bits
//! wide enough to index its (finite, declared) domain: a variable over
//! a `k`-value domain gets `⌈log₂ k⌉` bits holding the value's *index*
//! in the domain's canonical value list (singleton domains get zero
//! bits). States then pack into a flat `⌈Σ widths / 8⌉`-byte buffer —
//! no heap `Value` trees, no per-slot allocation — and the explorer
//! can store, hash, and deduplicate millions of them as plain byte
//! runs in an arena.
//!
//! Two properties make the packed path a drop-in replacement for the
//! `Value`-tree path rather than a parallel universe:
//!
//! 1. **Round trip**: `unpack(pack(s)) == s` for every state whose
//!    values all lie in their declared domains (packing is injective
//!    on in-domain states, so exact-mode deduplication may key on the
//!    packed bytes directly).
//! 2. **Fingerprint equality**: [`PackedLayout::fingerprint`] over the
//!    packed bytes equals [`State::fingerprint`] over the tree, *bit
//!    for bit*. The layout pre-computes a Zobrist table
//!    `z[slot][code] = slot_fingerprint(slot, domain[slot][code])`
//!    from the same per-slot hash the tree path uses, so the packed
//!    engine inherits the collision-soundness bound unchanged — it is
//!    the same hash function, evaluated through a table.
//!
//! [`PackedLayout::compile`] returns `None` when a layout is not
//! worthwhile or not possible (domains too large to tabulate, or a
//! state too wide to pack); callers fall back to the `Value`-tree
//! path. The current in-repo `Vars` builder only declares finite
//! explicit domains, so compilation virtually always succeeds, but
//! the fallback keeps the engine honest about the contract.

use crate::codec::DecodeError;
use crate::state::{slot_fingerprint, State};
use crate::value::Value;
use crate::var::Vars;
use fxhash::FxHashMap;

/// Cap on the total packed width of one state, in bits. A state wider
/// than this (4 KiB packed) is past the point where packing pays.
const MAX_STATE_BITS: usize = 1 << 15;

/// Cap on the total number of tabulated `(slot, code)` Zobrist
/// entries across all slots. Each entry costs 8 bytes plus a decode
/// `Value`; past ~4M entries the tables stop fitting hot caches.
const MAX_TOTAL_CODES: usize = 1 << 22;

/// How a slot maps a `Value` to its domain index without a table
/// probe when the domain has recognizable structure.
enum SlotCodec {
    /// The domain is `lo, lo+1, …, lo+k-1` in order: code is `v - lo`.
    IntRange {
        /// First integer of the range.
        lo: i64,
    },
    /// Arbitrary finite domain: code via hash table.
    Table(FxHashMap<Value, u32>),
}

/// One variable's slot in the packed buffer.
struct Slot {
    /// First bit of the slot, counting little-endian from byte 0.
    offset: u32,
    /// Width in bits; `0` for singleton domains.
    width: u32,
    /// Encoder from `Value` to domain index.
    codec: SlotCodec,
}

/// A compiled fixed-width bit layout for the states of one `Vars`
/// declaration. See the module docs for the contract.
pub struct PackedLayout {
    slots: Vec<Slot>,
    /// Packed size of one state, in bytes.
    stride: usize,
    /// `zobrist[slot][code]` = the tree path's slot hash of the
    /// decoded value, so packed and tree fingerprints agree exactly.
    zobrist: Vec<Vec<u64>>,
    /// `decode[slot][code]` = the domain value, for unpacking.
    decode: Vec<Vec<Value>>,
}

impl PackedLayout {
    /// Compiles a layout from declared domains, or `None` when the
    /// state space is too wide to pack or too large to tabulate.
    pub fn compile(vars: &Vars) -> Option<PackedLayout> {
        let mut slots = Vec::with_capacity(vars.len());
        let mut zobrist = Vec::with_capacity(vars.len());
        let mut decode = Vec::with_capacity(vars.len());
        let mut offset = 0usize;
        let mut total_codes = 0usize;
        for v in vars.iter() {
            let values = vars.domain(v).values();
            total_codes += values.len();
            if total_codes > MAX_TOTAL_CODES {
                return None;
            }
            let width = if values.len() <= 1 {
                0
            } else {
                usize::BITS - (values.len() - 1).leading_zeros()
            };
            let codec = match int_range_lo(values) {
                Some(lo) => SlotCodec::IntRange { lo },
                None => SlotCodec::Table(
                    values
                        .iter()
                        .enumerate()
                        .map(|(code, val)| (val.clone(), code as u32))
                        .collect(),
                ),
            };
            slots.push(Slot {
                offset: u32::try_from(offset).ok()?,
                width,
                codec,
            });
            zobrist.push(
                values
                    .iter()
                    .map(|val| slot_fingerprint(v.index(), val))
                    .collect(),
            );
            decode.push(values.to_vec());
            offset += width as usize;
            if offset > MAX_STATE_BITS {
                return None;
            }
        }
        Some(PackedLayout {
            slots,
            stride: offset.div_ceil(8),
            zobrist,
            decode,
        })
    }

    /// Packed size of one state, in bytes. Zero-variable systems pack
    /// to zero bytes.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of variable slots (equals the `Vars` arity).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Total packed width of one state, in bits.
    pub fn state_bits(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.width as usize)
            .sum()
    }

    /// The domain index of `value` in `slot`, or `None` when the
    /// value is outside the declared domain.
    pub fn code_of(&self, slot: usize, value: &Value) -> Option<u32> {
        let n = self.decode[slot].len() as u32;
        match &self.slots[slot].codec {
            SlotCodec::IntRange { lo } => match value {
                Value::Int(i) => {
                    let code = u32::try_from(i.checked_sub(*lo)?).ok()?;
                    (code < n).then_some(code)
                }
                _ => None,
            },
            SlotCodec::Table(map) => map.get(value).copied(),
        }
    }

    /// The domain value decoded from a slot code.
    ///
    /// Panics when `code` is out of range for the slot — packed
    /// buffers produced by [`pack_into`](Self::pack_into) and
    /// [`write_code`](Self::write_code) never contain such codes.
    pub fn value_of(&self, slot: usize, code: u32) -> &Value {
        &self.decode[slot][code as usize]
    }

    /// Reads the code stored in `slot` of a packed buffer.
    pub fn read_code(&self, buf: &[u8], slot: usize) -> u32 {
        let s = &self.slots[slot];
        let (mut byte, mut bit) = ((s.offset / 8) as usize, s.offset % 8);
        let mut acc = 0u32;
        let mut got = 0u32;
        while got < s.width {
            let take = (8 - bit).min(s.width - got);
            let bits = (buf[byte] >> bit) as u32 & ((1u32 << take) - 1);
            acc |= bits << got;
            got += take;
            byte += 1;
            bit = 0;
        }
        acc
    }

    /// Writes `code` into `slot` of a packed buffer, clearing the
    /// slot's previous bits.
    pub fn write_code(&self, buf: &mut [u8], slot: usize, code: u32) {
        let s = &self.slots[slot];
        debug_assert!(s.width == 32 || code < (1u32 << s.width));
        let (mut byte, mut bit) = ((s.offset / 8) as usize, s.offset % 8);
        let mut rest = code;
        let mut put = 0u32;
        while put < s.width {
            let take = (8 - bit).min(s.width - put);
            let mask = ((1u32 << take) - 1) as u8;
            buf[byte] = (buf[byte] & !(mask << bit)) | (((rest as u8) & mask) << bit);
            rest >>= take;
            put += take;
            byte += 1;
            bit = 0;
        }
    }

    /// Packs `values` into `buf` (cleared and resized to one stride).
    /// Returns `false` — leaving `buf` unspecified — when any value
    /// is outside its declared domain.
    pub fn pack_into(&self, values: &[Value], buf: &mut Vec<u8>) -> bool {
        buf.clear();
        buf.resize(self.stride, 0);
        if values.len() != self.slots.len() {
            return false;
        }
        for (slot, value) in values.iter().enumerate() {
            match self.code_of(slot, value) {
                Some(code) => self.write_code(buf, slot, code),
                None => return false,
            }
        }
        true
    }

    /// Packs a state, or `None` when a value is outside its domain.
    pub fn pack(&self, s: &State) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(self.stride);
        self.pack_into(s.values(), &mut buf).then_some(buf)
    }

    /// Unpacks one packed state into `out` (cleared first), checking
    /// what [`unpack_into`](Self::unpack_into) trusts: the decoder for
    /// bytes read back from a file.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when `buf` is shorter than one stride,
    /// [`DecodeError::BadCode`] naming the first slot whose code lies
    /// outside its domain.
    pub fn try_unpack_into(&self, buf: &[u8], out: &mut Vec<Value>) -> Result<(), DecodeError> {
        if buf.len() < self.stride {
            return Err(DecodeError::Truncated { context: "packed state" });
        }
        out.clear();
        out.reserve(self.slots.len());
        for slot in 0..self.slots.len() {
            let code = self.read_code(buf, slot);
            let value = self.decode[slot].get(code as usize);
            out.push(value.ok_or(DecodeError::BadCode { slot, code })?.clone());
        }
        Ok(())
    }

    /// Unpacks one packed state into `out` (cleared first).
    ///
    /// Panics on bytes [`pack_into`](Self::pack_into) and
    /// [`write_code`](Self::write_code) did not produce; see
    /// [`try_unpack_into`](Self::try_unpack_into).
    pub fn unpack_into(&self, buf: &[u8], out: &mut Vec<Value>) {
        if let Err(e) = self.try_unpack_into(buf, out) {
            panic!("{e}");
        }
    }

    /// Unpacks one packed state into a fresh [`State`].
    pub fn unpack(&self, buf: &[u8]) -> State {
        let mut values = Vec::new();
        self.unpack_into(buf, &mut values);
        State::new(values)
    }

    /// The Zobrist fingerprint of a packed state — exactly equal to
    /// [`State::fingerprint`] of the unpacked state.
    pub fn fingerprint(&self, buf: &[u8]) -> u64 {
        (0..self.slots.len())
            .fold(0, |fp, slot| {
                fp ^ self.zobrist[slot][self.read_code(buf, slot) as usize]
            })
    }

    /// The fingerprint change from rewriting `slot` from `old` to
    /// `new`: `fp' = fp ^ delta`. Zero when the codes are equal.
    pub fn fingerprint_delta(&self, slot: usize, old: u32, new: u32) -> u64 {
        self.zobrist[slot][old as usize] ^ self.zobrist[slot][new as usize]
    }
}

/// `Some(lo)` when `values` is exactly `lo, lo+1, …` in order.
fn int_range_lo(values: &[Value]) -> Option<i64> {
    let Some(Value::Int(lo)) = values.first() else {
        return None;
    };
    values
        .iter()
        .enumerate()
        .all(|(i, v)| matches!(v, Value::Int(x) if *x == lo.wrapping_add(i as i64)))
        .then_some(*lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Domain;

    fn mixed_vars() -> Vars {
        let mut vars = Vars::new();
        vars.declare("b", Domain::booleans());
        vars.declare("i", Domain::int_range(-3, 9));
        vars.declare("one", Domain::new(vec![Value::str("only")]));
        vars.declare(
            "s",
            Domain::new(vec![
                Value::str("red"),
                Value::str("green"),
                Value::str("blue"),
            ]),
        );
        vars.declare("w", Domain::int_range(0, 300));
        vars
    }

    fn all_states(vars: &Vars) -> Vec<State> {
        let mut states = vec![Vec::new()];
        for v in vars.iter() {
            let mut next = Vec::new();
            for prefix in &states {
                for val in vars.domain(v).iter() {
                    let mut s = prefix.clone();
                    s.push(val.clone());
                    next.push(s);
                }
            }
            states = next;
        }
        states.into_iter().map(State::new).collect()
    }

    #[test]
    fn round_trip_and_fingerprint_over_full_space() {
        let vars = mixed_vars();
        let layout = PackedLayout::compile(&vars).expect("finite domains compile");
        // 1 + 4 + 0 + 2 + 9 bits = 16 bits = 2 bytes.
        assert_eq!(layout.state_bits(), 16);
        assert_eq!(layout.stride(), 2);
        let mut buf = Vec::new();
        for s in all_states(&vars) {
            assert!(layout.pack_into(s.values(), &mut buf));
            assert_eq!(layout.unpack(&buf), s, "round trip of {s:?}");
            assert_eq!(
                layout.fingerprint(&buf),
                s.fingerprint(),
                "packed fingerprint of {s:?}"
            );
        }
    }

    #[test]
    fn incremental_delta_matches_full_fingerprint() {
        let vars = mixed_vars();
        let layout = PackedLayout::compile(&vars).expect("compiles");
        let s = State::new(vec![
            Value::Bool(true),
            Value::Int(4),
            Value::str("only"),
            Value::str("green"),
            Value::Int(211),
        ]);
        let mut buf = layout.pack(&s).expect("in-domain");
        let fp = layout.fingerprint(&buf);
        // Rewrite slot 1 (i: 4 → -3) and slot 3 (s: green → blue).
        for (slot, val) in [(1usize, Value::Int(-3)), (3, Value::str("blue"))] {
            let old = layout.read_code(&buf, slot);
            let new = layout.code_of(slot, &val).expect("in-domain");
            let delta = layout.fingerprint_delta(slot, old, new);
            layout.write_code(&mut buf, slot, new);
            let expect = layout.fingerprint(&buf);
            assert_eq!(fp ^ delta, expect, "delta for slot {slot} wrong");
            layout.write_code(&mut buf, slot, old);
        }
    }

    #[test]
    fn out_of_domain_values_refuse_to_pack() {
        let vars = mixed_vars();
        let layout = PackedLayout::compile(&vars).expect("compiles");
        let bad = State::new(vec![
            Value::Bool(true),
            Value::Int(10), // outside -3..=9
            Value::str("only"),
            Value::str("green"),
            Value::Int(0),
        ]);
        assert!(layout.pack(&bad).is_none());
        assert_eq!(layout.code_of(1, &Value::Int(-4)), None);
        assert_eq!(layout.code_of(3, &Value::str("mauve")), None);
    }

    #[test]
    fn singleton_slots_take_no_bits() {
        let mut vars = Vars::new();
        vars.declare("a", Domain::new(vec![Value::Int(7)]));
        vars.declare("b", Domain::new(vec![Value::Bool(false)]));
        let layout = PackedLayout::compile(&vars).expect("compiles");
        assert_eq!(layout.state_bits(), 0);
        assert_eq!(layout.stride(), 0);
        let s = State::new(vec![Value::Int(7), Value::Bool(false)]);
        let buf = layout.pack(&s).expect("in-domain");
        assert!(buf.is_empty());
        assert_eq!(layout.unpack(&buf), s);
        assert_eq!(layout.fingerprint(&buf), s.fingerprint());
    }

    #[test]
    fn oversized_state_declines_to_compile() {
        let mut vars = Vars::new();
        // 4096 ten-bit variables exceed the 32768-bit state cap.
        for i in 0..4096 {
            vars.declare(format!("v{i}"), Domain::int_range(0, 1000));
        }
        assert!(PackedLayout::compile(&vars).is_none());
    }

    #[test]
    fn structured_values_pack_via_table_codec() {
        let mut vars = Vars::new();
        let q = vars.declare("q", Domain::seqs_up_to(&Domain::booleans(), 2));
        let layout = PackedLayout::compile(&vars).expect("compiles");
        let mut buf = Vec::new();
        for val in vars.domain(q).iter() {
            let s = State::new(vec![val.clone()]);
            assert!(layout.pack_into(s.values(), &mut buf));
            assert_eq!(layout.unpack(&buf), s);
            assert_eq!(layout.fingerprint(&buf), s.fingerprint());
        }
    }
}
