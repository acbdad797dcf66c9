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
//! Every declared `Vars` compiles, however wide its rows: a domain is
//! a finite value list, and [`PackedLayout::compile`] returns `None`
//! only for one whose codes do not fit a `u32`.

use crate::codec::DecodeError;
use crate::state::{slot_fingerprint, State};
use crate::value::Value;
use crate::var::{Domain, Vars};

/// One variable's slot in the packed buffer.
struct Slot {
    /// First bit of the slot, counting little-endian from byte 0.
    offset: usize,
    /// Width in bits; `0` for singleton domains.
    width: u32,
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
    /// Each slot's domain, shared with the `Vars` the layout was
    /// compiled from: a code is a position in its value list, and its
    /// index encodes (`Domain::index_of`).
    domains: Vec<Domain>,
    /// The bits of a row's last byte past its last slot, which every
    /// row this layout writes leaves clear.
    padding: u8,
}

/// The shape, not the tables: a layout's Zobrist entries and domains
/// are as large as the domains they mirror.
impl std::fmt::Debug for PackedLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedLayout")
            .field("slots", &self.slots.len())
            .field("stride", &self.stride)
            .finish()
    }
}

impl PackedLayout {
    /// Compiles a layout from declared domains, or `None` when a
    /// domain's codes do not fit a `u32`.
    pub fn compile(vars: &Vars) -> Option<PackedLayout> {
        PackedLayout::of_domains(vars.iter().map(|v| vars.domain(v).clone()).collect())
    }

    /// [`compile`](Self::compile) of a `Vars` with these domains, in order.
    pub fn of_domains(domains: Vec<Domain>) -> Option<PackedLayout> {
        let mut slots = Vec::with_capacity(domains.len());
        let mut zobrist = Vec::with_capacity(domains.len());
        let mut offset = 0usize;
        for (slot, domain) in domains.iter().enumerate() {
            let values = domain.values();
            let width = match values.len() {
                0 | 1 => 0,
                n => usize::BITS - (n - 1).leading_zeros(),
            };
            if width > u32::BITS {
                return None;
            }
            slots.push(Slot { offset, width });
            let hash = |val| slot_fingerprint(slot, val);
            zobrist.push(values.iter().map(hash).collect());
            offset += width as usize;
        }
        Some(PackedLayout {
            slots,
            stride: offset.div_ceil(8),
            zobrist,
            domains,
            padding: match offset % 8 {
                0 => 0,
                used => u8::MAX << used,
            },
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
        self.slots.iter().map(|s| s.width as usize).sum()
    }

    /// Each slot's domain, whose values its codes number: two layouts
    /// with equal domains read a row as the same state.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The width of `slot`'s codes, in bits.
    pub fn width(&self, slot: usize) -> u32 {
        self.slots[slot].width
    }

    /// The bits a key over `slots` takes: their widths, summed.
    pub fn key_bits(&self, slots: &[usize]) -> usize {
        slots.iter().map(|&slot| self.width(slot) as usize).sum()
    }

    /// Gathers the codes of `slots` in `row` into `key`, zeroed first:
    /// side by side from bit 0 of word 0, each in its slot's width, so
    /// two rows agree on those slots exactly when their keys are equal.
    /// `key` holds at least [`key_bits`](Self::key_bits)`(slots)` bits,
    /// in as many words as they need; returns that bit count.
    #[inline]
    pub fn gather_key(&self, row: &[u8], slots: &[usize], key: &mut [u64]) -> usize {
        key.fill(0);
        slots.iter().fold(0, |at, &slot| {
            let width = self.width(slot);
            Self::put_bits(key, at, u64::from(self.read_code(row, slot)), width);
            at + width as usize
        })
    }

    /// Writes the low `width` bits of `value` into the zero bits of
    /// `key` at bit `at` (counting from bit 0 of word 0), across a word
    /// boundary if they straddle one: how a key gathered by
    /// [`gather_key`](Self::gather_key) is extended with fields that are
    /// not slot codes.
    #[inline]
    pub fn put_bits(key: &mut [u64], at: usize, value: u64, width: u32) {
        if width == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - width));
        let (word, bit) = (at / 64, (at % 64) as u32);
        key[word] |= value << bit;
        if bit + width > 64 {
            key[word + 1] |= value >> (64 - bit);
        }
    }

    /// The domain index of `value` in `slot`, or `None` when the
    /// value is outside the declared domain.
    #[inline]
    pub fn code_of(&self, slot: usize, value: &Value) -> Option<u32> {
        // Domains whose codes do not fit a `u32` never compile.
        self.domains[slot].index_of(value).map(|i| i as u32)
    }

    /// The domain value decoded from a slot code.
    ///
    /// Panics when `code` is out of range for the slot — packed
    /// buffers produced by [`pack_into`](Self::pack_into) and
    /// [`write_code`](Self::write_code) never contain such codes.
    pub fn value_of(&self, slot: usize, code: u32) -> &Value {
        &self.domains[slot].values()[code as usize]
    }

    /// Reads the code stored in `slot` of a packed buffer.
    #[inline]
    pub fn read_code(&self, buf: &[u8], slot: usize) -> u32 {
        let s = &self.slots[slot];
        let (mut byte, mut bit) = (s.offset / 8, (s.offset % 8) as u32);
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
        let (mut byte, mut bit) = (s.offset / 8, (s.offset % 8) as u32);
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
    /// [`DecodeError::BadPadding`] when it sets a bit past its last
    /// slot — no row this layout writes does, and two rows of one state
    /// must be equal as bytes — and [`DecodeError::BadCode`] naming the
    /// first slot whose code lies outside its domain.
    pub fn try_unpack_into(&self, buf: &[u8], out: &mut Vec<Value>) -> Result<(), DecodeError> {
        self.check(buf)?;
        out.clear();
        let codes = self.domains.iter().enumerate();
        out.extend(
            codes.map(|(slot, domain)| domain.values()[self.read_code(buf, slot) as usize].clone()),
        );
        Ok(())
    }

    /// Checks what [`try_unpack_into`](Self::try_unpack_into) checks
    /// without building the values: that `buf` holds one stride, no
    /// bit past its last slot, and every slot a code inside its domain. Packed buffers this layout
    /// wrote always pass; a row read back from a file is checked here
    /// once, before anything indexes a table by its codes.
    ///
    /// # Errors
    ///
    /// As [`try_unpack_into`](Self::try_unpack_into).
    pub fn check(&self, buf: &[u8]) -> Result<(), DecodeError> {
        if buf.len() < self.stride {
            return Err(DecodeError::Truncated {
                context: "packed state",
            });
        }
        let padding = buf[..self.stride].last().map(|&last| last & self.padding);
        if let Some(bits) = padding.filter(|&bits| bits != 0) {
            return Err(DecodeError::BadPadding { bits });
        }
        for (slot, domain) in self.domains.iter().enumerate() {
            let code = self.read_code(buf, slot);
            if code as usize >= domain.len() {
                return Err(DecodeError::BadCode { slot, code });
            }
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
        (0..self.slots.len()).fold(0, |fp, slot| {
            fp ^ self.zobrist[slot][self.read_code(buf, slot) as usize]
        })
    }

    /// The fingerprint change from rewriting `slot` from `old` to
    /// `new`: `fp' = fp ^ delta`. Zero when the codes are equal.
    #[inline]
    pub fn fingerprint_delta(&self, slot: usize, old: u32, new: u32) -> u64 {
        self.zobrist[slot][old as usize] ^ self.zobrist[slot][new as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `check` refuses exactly what `try_unpack_into` refuses: a code
    /// past its slot's domain (here 3 in the three-colour slot, whose
    /// two bits hold up to 3) and a buffer short of one stride.
    #[test]
    fn check_refuses_codes_past_the_domain() {
        let vars = mixed_vars();
        let layout = PackedLayout::compile(&vars).expect("compiles");
        let s = State::new(vec![
            Value::Bool(false),
            Value::Int(0),
            Value::str("only"),
            Value::str("blue"),
            Value::Int(7),
        ]);
        let mut buf = layout.pack(&s).expect("in-domain");
        assert_eq!(layout.check(&buf), Ok(()));
        layout.write_code(&mut buf, 3, 3);
        let bad = Err(DecodeError::BadCode { slot: 3, code: 3 });
        assert_eq!(layout.check(&buf), bad);
        assert_eq!(layout.try_unpack_into(&buf, &mut Vec::new()), bad);
        let short = Err(DecodeError::Truncated {
            context: "packed state",
        });
        assert_eq!(layout.check(&buf[..1]), short);
    }

    /// A row's last byte keeps the bits past its last slot clear: one
    /// set there is refused, so two rows of one state are equal bytes.
    #[test]
    fn check_refuses_bits_past_the_last_slot() {
        let mut vars = Vars::new();
        vars.declare("x", Domain::int_range(0, 2));
        vars.declare("y", Domain::booleans());
        let layout = PackedLayout::compile(&vars).expect("compiles");
        let used = layout.state_bits() % 8;
        assert_eq!(used, 3, "two bits for x, one for y");
        let s = State::new(vec![Value::Int(2), Value::Bool(true)]);
        let mut buf = layout.pack(&s).expect("in-domain");
        assert_eq!(layout.check(&buf), Ok(()));
        *buf.last_mut().unwrap() |= 1 << used;
        let bad = Err(DecodeError::BadPadding { bits: 1 << used });
        assert_eq!(layout.check(&buf), bad);
        assert_eq!(layout.try_unpack_into(&buf, &mut Vec::new()), bad);
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

    /// A row wider than 4 KiB — 4096 ten-bit slots, 5 120 bytes —
    /// packs, round-trips and fingerprints as its tree does.
    #[test]
    fn a_wide_layout_packs() {
        let mut vars = Vars::new();
        for i in 0..4096 {
            vars.declare(format!("v{i}"), Domain::int_range(0, 1000));
        }
        let layout = PackedLayout::compile(&vars).expect("every declared Vars compiles");
        assert_eq!(layout.stride(), 5120);
        let s = State::new(
            (0..4096)
                .map(|i| Value::Int((i * 7) % 1001))
                .collect::<Vec<_>>(),
        );
        let buf = layout.pack(&s).expect("in-domain");
        assert_eq!(layout.unpack(&buf), s);
        assert_eq!(layout.fingerprint(&buf), s.fingerprint());
    }

    /// A key over slots whose widths sum past a word spills into the
    /// next one, bit for bit: 13 slots of 7 bits are 91 bits, two
    /// words, slot 9 straddling their boundary; the key equals the codes
    /// shifted into place, and `put_bits` extends it past them.
    #[test]
    fn keys_gather_codes_side_by_side_across_words() {
        let mut vars = Vars::new();
        for i in 0..13 {
            vars.declare(format!("v{i}"), Domain::int_range(0, 99));
        }
        let layout = PackedLayout::compile(&vars).expect("compiles");
        let s = State::new((0..13).map(|i| Value::Int(7 * i + 3)).collect::<Vec<_>>());
        let row = layout.pack(&s).expect("in-domain");
        let slots: Vec<usize> = (0..13).collect();
        assert_eq!(layout.key_bits(&slots), 91);
        let mut key = [u64::MAX; 3];
        assert_eq!(layout.gather_key(&row, &slots, &mut key[..2]), 91);
        let expected = (0..13).fold(0u128, |k, i| k | ((7 * i as u128 + 3) << (7 * i)));
        assert_eq!(key[..2], [expected as u64, (expected >> 64) as u64]);
        assert_eq!(key[2], u64::MAX, "nothing past the key's words");
        PackedLayout::put_bits(&mut key[..2], 91, 0b1011, 4);
        assert_eq!(key[1] >> 27, 0b1011);
        // Only the low `width` bits are written; a subset of the slots
        // is a shorter key.
        let mut short = [0u64; 1];
        PackedLayout::put_bits(&mut short, 60, 0xff, 4);
        assert_eq!(short[0], 0xf << 60);
        assert_eq!(layout.gather_key(&row, &[12, 0], &mut short), 14);
        assert_eq!(short[0], 87 | (3 << 7));
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
