//! Image classes: an obligation is checked once per *abstract* step,
//! not once per concrete edge, and the refinement mapping is evaluated
//! once per graph.
//!
//! The hypotheses of the Composition Theorem are evaluated over one
//! explored graph under one refinement mapping `σ` (`q̄ ↦ q₂ ∘ mid ∘ q₁`
//! and the like). A step box `[A]_v`, an angle action `⟨A⟩_v` or an
//! enabledness predicate of the *abstract* specification depends on a
//! concrete step `⟨s, t⟩` only through the **image** of `s` and `t`:
//! the value `σ(v)(s)` for each mapped variable `v` the obligation
//! mentions, and `s[v]` for each unmapped one. That is the substitution
//! lemma behind the refinement-mapping argument (the paper's ref.
//! \[10\]): evaluating the substituted expression on `⟨s, t⟩` equals
//! evaluating the unsubstituted one on `⟨s̄, t̄⟩`, where `s̄` is `s` with
//! every mapped variable set to its image. A product of `k` components
//! has far fewer images than states — the obligation does not look at
//! most of them. This module uses the lemma in both directions.
//!
//! **The mapping, once, by key.** [`Images::of_graph`] gives every
//! state of a graph its image under each mapped variable `v` and keeps
//! the result as one `u32` column per mapped variable into a table of
//! the distinct values. `σ(v)` is a state function of the few slots it
//! reads, so the pass keys on codes, not values: each state's key is the
//! codes of those slots in its packed row, side by side
//! ([`PackedLayout::gather_key`], as many `u64` words as the bits
//! need; a key of 64 bits or fewer — every workload's so far — is
//! interned as one word, only a wider one as a boxed slice), and `σ(v)`
//! runs — through [`CompiledExpr`] — once per distinct key, the first
//! time the key is met. Every obligation
//! checked under that mapping reads the column; none evaluates `σ`
//! again. A certificate's [`Session`](crate::Session) builds one for
//! hypothesis 2(a) and every condition of 2(b); a check under another
//! mapping, or a stand-alone check, builds its own.
//!
//! **Substituted → abstract: classes.** For an obligation with footprint
//! `F` (the variables, primed or not, of its *un*substituted
//! expressions), [`Classes::of_graph`] gives every graph state a class:
//! the interned tuple `⟨ v ∈ F : σ(v)(s) if v ∈ dom σ else s[v] ⟩`,
//! keyed as codes — the unmapped slots' codes in the row, then each
//! mapped variable's image id from its [`Images`] column, in as many
//! bits as the largest id needs — so no value is hashed. A [`Memo`] then
//! maps `(class[s], class[t])` — or `class[s]` for a state predicate —
//! to the obligation's boolean: a state predicate's answers are a byte
//! per class (unknown, false or true), a step predicate's one word per
//! pair met — the target class, a link and the answer packed together —
//! on a list per source class, appended in the order the pairs are met,
//! so a memo never rehashes, and it holds room for the pairs it met, not
//! for every edge it might. Room reserved and never written is not free:
//! it stays untouched only while the allocator maps the block on its
//! own, and once a large free has raised glibc's mmap threshold past
//! its size, it comes from the heap, among pages other columns touched.
//! What a memo holds matters beyond speed: a check on a second thread
//! keeps what it allocated in that thread's allocator arena after it
//! frees it.
//!
//! **One class column per footprint.** The column a class pass leaves
//! (four bytes per state) is kept by the [`Images`] it was computed
//! over and shared: a second [`Classes::of_graph`] of the same footprint
//! on the same images — 2(a) and 2(b) look at the same abstract
//! variables — waits for the first if it is still running, then reads
//! its column, and reports a pass of zero nanoseconds. Two checks on two
//! threads thus run one class pass between them.
//!
//! Both passes number what they meet in state order, so image ids and
//! class ids are those of interning the values themselves: two states
//! share a key exactly when they share the values, because a code is a
//! value's position in its slot's domain.
//!
//! **On demand.** Each pass is a loop over one per-state path: a
//! state's images (keyed on its reads' codes, a value interned the
//! first time it is met) and a state's class key (codes, then image
//! ids). The same paths, driven state by state as a check meets the
//! states rather than over the whole graph, are [`Images::on_demand`]
//! with [`Images::fill`], and [`LazyClasses`]: what the `⊳` monitor,
//! which may stop after a few states, reads the state functions its
//! conjuncts share from — each named by a fresh variable, the mapping
//! read backwards ([`hoist`](crate::hoist)). Ids are then numbered in
//! the order the states are met, and a class key's image field is wide
//! enough for every id the mapping can reach.
//!
//! **Abstract → substituted: misses.** A pair met for the first time is
//! decided on `⟨s̄, t̄⟩` itself, by the first of three tiers that
//! answers:
//!
//! 1. **Ids** ([`IdsProgram`]). The caller's *un*substituted
//!    expression, read once per check as a boolean skeleton
//!    (`∧ ∨ ¬ ⇒`) over leaves. A leaf over unprimed variables
//!    (`i.sig ≠ i.ack`, `Len(q̄) < 7`) is a state function of its reads,
//!    so it is evaluated once per distinct key of their ids — an
//!    unmapped variable's slot code, a mapped one's image id, keyed
//!    as a class is — not once per pair. A leaf `x′ = f`
//!    (`q̄′ = q̄ ∘ ⟨i.val⟩`, `o.val′ = Head(q̄)`) translates `f`'s value,
//!    once per key of `f`'s reads, into `x`'s ids (a slot's domain index
//!    or the images' ordered value index; a value outside them equals
//!    nothing) and is then an id compare with the successor; `x′ = x`
//!    compares the two states' ids. The leaves are decided in the
//!    compiled program's order with its short-circuits, and a leaf that
//!    errs or is not boolean decides nothing, so an answer here is the
//!    compiled program's. A primed leaf of any other shape
//!    (`Len(q′) = Len(q) + 1`), or a leaf whose key is wider than 14
//!    bits, leaves the check without an ids program.
//! 2. **The compiled program.** The unsubstituted expression, compiled
//!    once per check ([`CompiledExpr`]), runs on two [`ImageView`]s —
//!    `s` and `t` borrowed from the graph, each mapped slot read from
//!    its [`Images`] column. No abstract state is built and no
//!    expression tree is walked. The substituted expression would
//!    re-evaluate `σ(v)` at every occurrence of `v` and `v'`. A
//!    substituted box carries a third disjunct, `UNCHANGED` of the
//!    concrete variables `σ(v)` reads; it implies `σ(v)' = σ(v)`, the
//!    second, so dropping it cannot change a result.
//! 3. **The interpreter.** When the abstract evaluation errs, the
//!    caller's substituted expression is evaluated by
//!    [`Expr::holds_action`](opentla_kernel::Expr) / `holds_state` on
//!    the concrete pair and *its* result — value or typed error — is the
//!    answer, so errors are those of the per-edge check.
//!
//! The cost model: a miss on the compiled program costs the whole
//! program on two views (~440 ns a pair on Figure 9's box at (3,3)); on
//! ids it costs a few keyed lookups and id compares, and each leaf's
//! evaluations are bounded by its keys — a few thousand against
//! hundreds of thousands of pairs. A leaf's key indexes a table of
//! every key (at most 2¹⁴ entries), allocated when the leaf is first
//! evaluated and filled on misses only, per check, so an early exit
//! stays proportional. The interpreter is the compiled programs'
//! oracle (`proptest_compiled`, and `image_memo_equivalence` compares
//! the compiled unsubstituted program on the views against the
//! interpreted substituted expression on every step of its corpus);
//! the compiled program is the ids program's (`proptest_image_ids`).
//!
//! Two cases evaluate the substituted expression directly, as a check
//! without this module would:
//!
//! * a state whose key cannot be computed (a partial mapping such as
//!   `Head` of a possibly-empty sequence, or an unbound variable) has
//!   no class and **bypasses** the memo — the substituted expression
//!   may still evaluate there, because `∧`/`∨`/`⇒` short-circuit;
//! * when no two states share a class (a caller that substituted the
//!   mapping itself, so `F` covers every varying variable) the memo is
//!   **skipped**: no class is kept and every lookup evaluates.
//!
//! Neither pass nor the ids program charges a budget or polls
//! anything, and a lookup never replaces a charge: meter accounting,
//! scan order, and hence first-violation edges, traces, lassos and
//! exhaustion frontiers are those of the per-edge evaluation.
//!
//! `Enabled` is **not** pushed through the substitution here (it does
//! not commute with it): the enabledness a mapped fairness target is
//! checked against is still the explicit abstract predicate the caller
//! supplies, which is an ordinary state function and so has images like
//! any other.

use crate::compiled::{CompiledExpr, EvalScratch, Slots};
use crate::obs::{Event, RecorderHandle};
use crate::{RowView, StateGraph};
use fxhash::FxHashMap;
use opentla_kernel::{BinOp, Expr, PackedLayout, Substitution, UnOp, Value, VarId, VarSet};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// "This state has no class": its key could not be computed. Also
/// "`σ(v)` is undefined at this state" in an [`Images`] column.
const NONE: u32 = u32::MAX;
/// "Not met yet": an entry of a column filled on demand, for a state
/// no check has asked about. Ids are below it.
const UNSEEN: u32 = u32::MAX - 1;

/// Keys of slot codes and ids side by side in `u64` words, numbered by
/// the pass that meets them. A key of one word (64 bits or fewer) is
/// interned as that word; only a wider one is boxed.
#[derive(Debug)]
enum KeyIds {
    Word(WordIds),
    Words(FxHashMap<Box<[u64]>, u32>),
}

impl KeyIds {
    /// An empty table for keys of `words` words.
    fn of_width(words: usize) -> Self {
        if words <= 1 {
            KeyIds::Word(WordIds::default())
        } else {
            KeyIds::Words(FxHashMap::default())
        }
    }

    /// Keys met so far.
    fn len(&self) -> usize {
        match self {
            KeyIds::Word(ids) => ids.keys.len(),
            KeyIds::Words(ids) => ids.len(),
        }
    }

    /// The id `key` has, or — met for the first time — the one `first`
    /// gives it.
    fn intern(&mut self, key: &[u64], first: impl FnOnce(usize) -> u32) -> u32 {
        match self {
            KeyIds::Word(ids) => ids.intern(key.first().copied().unwrap_or(0), first),
            KeyIds::Words(ids) => {
                if let Some(&id) = ids.get(key) {
                    return id;
                }
                let id = first(ids.len());
                ids.insert(key.into(), id);
                id
            }
        }
    }
}

/// An empty slot of a [`WordIds`] table.
const VACANT: u32 = u32::MAX;

/// One-word keys and their ids, in the order the keys are met: a dense
/// column of each, and an open-addressed table of entry indices over
/// them, a power of two long and at most ¾ full, a key's home slot the
/// top bits of its multiplicative hash, a probe walking on to the first
/// vacant slot. A key takes 12 bytes in the columns, and the table 4
/// a slot; growing the table reads the keys back from their column, and
/// frees the old table before it allocates the new one.
#[derive(Debug, Default)]
struct WordIds {
    keys: Vec<u64>,
    /// The id of each key, as `first` gave it: the entry's index, or
    /// any word, [`NONE`] included.
    ids: Vec<u32>,
    /// Entry indices, or [`VACANT`]; empty before the first key.
    slots: Vec<u32>,
}

impl WordIds {
    /// The home slot of `key` in a table of `slots` slots.
    #[inline]
    fn home(key: u64, slots: usize) -> usize {
        let shift = u64::BITS - slots.trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The slot holding `key`, or the vacant one a probe for it ends at.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let wrap = self.slots.len() - 1;
        let mut at = WordIds::home(key, self.slots.len());
        loop {
            match self.slots[at] {
                VACANT => return at,
                entry if self.keys[entry as usize] == key => return at,
                _ => at = (at + 1) & wrap,
            }
        }
    }

    /// The id `key` has, or — met for the first time — the one `first`
    /// gives it, told how many keys were met before.
    fn intern(&mut self, key: u64, first: impl FnOnce(usize) -> u32) -> u32 {
        if self.slots.is_empty() {
            self.grow();
        }
        let at = self.probe(key);
        if self.slots[at] != VACANT {
            return self.ids[self.slots[at] as usize];
        }
        let id = first(self.keys.len());
        let entry = u32::try_from(self.keys.len())
            .ok()
            .filter(|&entry| entry != VACANT)
            .expect("keys fit in u32");
        self.keys.push(key);
        self.ids.push(id);
        if 4 * self.keys.len() > 3 * self.slots.len() {
            self.grow();
        } else {
            self.slots[at] = entry;
        }
        id
    }

    /// Doubles the table (16 slots at first) and slots every key anew.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = Vec::new();
        self.slots = vec![VACANT; len];
        for (entry, &key) in self.keys.iter().enumerate() {
            let mut at = WordIds::home(key, len);
            while self.slots[at] != VACANT {
                at = (at + 1) & (len - 1);
            }
            self.slots[at] = entry as u32;
        }
    }
}

/// Words for a key of `bits` bits.
fn words(bits: usize) -> Vec<u64> {
    vec![0; bits.div_ceil(64)]
}

/// Bits of the largest of `count` ids: how wide a class key's image
/// field is.
fn id_bits(count: u64) -> u32 {
    (u64::BITS - count.saturating_sub(1).leading_zeros()).min(u32::BITS)
}

/// `σ(v)(s)` for every mapped variable `v` and every state `s` of one
/// graph, evaluated once per distinct key of the slots `σ(v)` reads: a
/// `u32` per state and mapped variable into the table of distinct
/// values. Computed by one pass over the graph ([`Images::of_graph`]),
/// or state by state as a check meets the states
/// ([`Images::on_demand`]). The default is the images of the empty
/// mapping: none, whatever the graph.
#[derive(Debug, Default)]
pub struct Images {
    mapping: Substitution,
    /// One column per mapped variable, ascending; [`NONE`] where the
    /// image is undefined, [`UNSEEN`] where it was not filled yet.
    columns: Vec<(VarId, Vec<u32>)>,
    /// The column of each variable, by [`VarId`] index up to the last
    /// mapped one; [`NONE`] for an unmapped variable.
    column_of: Vec<u32>,
    /// The distinct values, by id.
    values: Vec<Value>,
    /// The ids of `values` in the order of the values: a value computed
    /// elsewhere finds its id by binary search, and no value is hashed.
    /// Empty while the images are filled on demand.
    by_value: Vec<u32>,
    /// Images that are undefined.
    undefined: u64,
    /// Bits of a value id in a class key: enough for the largest id of
    /// a pass, or for every id images filled on demand can reach.
    id_bits: u32,
    /// What fills a state's images, for images filled on demand.
    on_demand: Option<Box<Imaging>>,
    /// The class column of each footprint met so far, computed once and
    /// shared by every [`Classes`] of that footprint; `None` for the
    /// default images, which are of no graph in particular, and for
    /// images filled on demand.
    classes: Option<Mutex<Vec<(VarSet, ColumnSlot)>>>,
}

/// Where one footprint's class column is, or will be once the first
/// caller has computed it.
type ColumnSlot = Arc<OnceLock<Arc<Column>>>;

/// One mapped variable of an image pass.
#[derive(Debug)]
struct Mapped {
    program: CompiledExpr,
    /// The slots `σ(v)` reads that the graph's rows have: its value is
    /// a function of their codes (a variable past them is unbound at
    /// every state alike).
    reads: Vec<usize>,
    /// Its image id by key, [`NONE`] for a key where it errs.
    ids: KeyIds,
    key: Vec<u64>,
}

/// What images one state, whether the states are met by a pass or on
/// demand: every mapped variable, keyed on its reads, and the value
/// interner.
#[derive(Debug)]
struct Imaging {
    mapped: Vec<Mapped>,
    /// The id of each distinct value, in an ordered map: values are met
    /// on misses only, and no value is hashed.
    ids: BTreeMap<Value, u32>,
    /// Keys evaluated.
    evaluated: u64,
    scratch: EvalScratch,
}

impl Imaging {
    /// The mapped variables of `mapping`, in column order, over rows of
    /// `layout`.
    fn new(layout: &PackedLayout, mapping: &Substitution) -> Imaging {
        let mapped = (mapping.domain())
            .map(|v| {
                let image = mapping.get(v).expect("a variable of the domain");
                let reads: Vec<usize> = (image.unprimed_vars().iter())
                    .map(VarId::index)
                    .filter(|&slot| slot < layout.slots())
                    .collect();
                let key = words(layout.key_bits(&reads));
                Mapped {
                    program: CompiledExpr::compile(image),
                    ids: KeyIds::of_width(key.len()),
                    reads,
                    key,
                }
            })
            .collect();
        Imaging {
            mapped,
            ids: BTreeMap::new(),
            evaluated: 0,
            scratch: EvalScratch::new(),
        }
    }

    /// Images state `id` of `graph` under every mapped variable, handing
    /// `put` each column's image id. A state's image is looked up by the
    /// codes of the slots `σ(v)` reads; only a key met for the first
    /// time evaluates `σ(v)`, on that state, and interns the value into
    /// `values`.
    fn state(
        &mut self,
        graph: &StateGraph,
        id: usize,
        values: &mut Vec<Value>,
        mut put: impl FnMut(usize, u32),
    ) {
        let (layout, row) = (graph.layout(), graph.row(id));
        let Imaging {
            mapped,
            ids,
            evaluated,
            scratch,
        } = self;
        for (c, m) in mapped.iter_mut().enumerate() {
            layout.gather_key(row, &m.reads, &mut m.key);
            let image = m.ids.intern(&m.key, |_| {
                *evaluated += 1;
                match m.program.eval(&graph.view(id), scratch) {
                    Ok(value) => *ids.entry(value).or_insert_with_key(|value| {
                        values.push(value.clone());
                        u32::try_from(values.len() - 1)
                            .ok()
                            .filter(|&id| id < UNSEEN)
                            .expect("distinct values fit in u32")
                    }),
                    Err(_) => NONE,
                }
            });
            put(c, image);
        }
    }

    /// Bits of the key of the widest read set.
    fn key_bits(&self, layout: &PackedLayout) -> usize {
        (self.mapped.iter())
            .map(|m| layout.key_bits(&m.reads))
            .max()
            .unwrap_or(0)
    }
}

impl Images {
    /// One pass over `graph`, imaging every state under every mapped
    /// variable of `mapping` in state order and reporting itself as an
    /// [`Event::ImagePass`] — so the ids are those of interning every
    /// state's value in state order. The key tables are dropped before
    /// this returns: what stays resident is four bytes per state and
    /// mapped variable, plus the distinct values and their order (the
    /// value index). The empty mapping has no images: nothing is
    /// evaluated and nothing reported.
    pub fn of_graph(
        graph: &StateGraph,
        mapping: &Substitution,
        recorder: &RecorderHandle,
    ) -> Images {
        let started = Instant::now();
        let mut imaging = Imaging::new(graph.layout(), mapping);
        let mut images = Images::empty(mapping, graph.len());
        let Images {
            columns,
            values,
            undefined,
            ..
        } = &mut images;
        for id in 0..graph.len() {
            imaging.state(graph, id, values, |c, image| {
                *undefined += u64::from(image == NONE);
                columns[c].1.push(image);
            });
        }
        if !imaging.mapped.is_empty() && recorder.enabled() {
            recorder.record(&Event::ImagePass {
                states: graph.len() as u64,
                mapped_vars: imaging.mapped.len() as u64,
                distinct_values: values.len() as u64,
                undefined: *undefined,
                evaluated: imaging.evaluated,
                key_bits: imaging.key_bits(graph.layout()) as u64,
                nanos: started.elapsed().as_nanos() as u64,
            });
        }
        images.id_bits = id_bits(images.values.len() as u64);
        // The map's ids in the order of their values: the value index.
        images.by_value = imaging.ids.into_values().collect();
        images.classes = Some(Mutex::default());
        images
    }

    /// The images of `graph`'s states under `mapping`, none filled yet:
    /// a state is imaged by [`Images::fill`] — as [`Images::of_graph`]
    /// images it — the first time a check asks for it, so a check that
    /// stops after a few states evaluates a few states, and the columns
    /// grow to the largest state filled. The mapped variables are fresh
    /// names for state functions ([`hoist`](crate::hoist)): an
    /// [`ImageView`] reads each from its column, though the rows have no
    /// slot for it. Nothing is reported.
    pub fn on_demand(graph: &StateGraph, mapping: &Substitution) -> Images {
        let layout = graph.layout();
        let imaging = Imaging::new(layout, mapping);
        // A variable takes at most one value per key of its reads.
        let reachable = imaging.mapped.iter().fold(0u64, |n, m| {
            let keys = 1u64.checked_shl(layout.key_bits(&m.reads) as u32);
            n.saturating_add(keys.unwrap_or(u64::MAX))
        });
        Images {
            id_bits: id_bits(reachable),
            on_demand: Some(Box::new(imaging)),
            ..Images::empty(mapping, 0)
        }
    }

    /// No images yet under `mapping`: its columns, with room for
    /// `states` entries each.
    fn empty(mapping: &Substitution, states: usize) -> Images {
        let columns: Vec<(VarId, Vec<u32>)> = (mapping.domain())
            .map(|v| (v, Vec::with_capacity(states)))
            .collect();
        let mut column_of = Vec::new();
        for (c, (v, _)) in columns.iter().enumerate() {
            if column_of.len() <= v.index() {
                column_of.resize(v.index() + 1, NONE);
            }
            column_of[v.index()] = c as u32;
        }
        Images {
            mapping: mapping.clone(),
            columns,
            column_of,
            ..Images::default()
        }
    }

    /// Images state `id` of `graph`, the graph these are of, under every
    /// mapped variable, unless that was done; nothing for images of a
    /// pass, which are complete.
    pub fn fill(&mut self, graph: &StateGraph, id: usize) {
        let Images {
            columns,
            values,
            undefined,
            on_demand: Some(imaging),
            ..
        } = self
        else {
            return;
        };
        let Some((_, first)) = columns.first() else {
            return;
        };
        match first.get(id) {
            Some(&image) if image != UNSEEN => return,
            Some(_) => {}
            None => {
                let states = (id + 1).next_power_of_two().min(graph.len());
                for (_, column) in columns.iter_mut() {
                    column.resize(states, UNSEEN);
                }
            }
        }
        imaging.state(graph, id, values, |c, image| {
            *undefined += u64::from(image == NONE);
            columns[c].1[id] = image;
        });
    }

    /// The mapping these are the images of.
    pub fn mapping(&self) -> &Substitution {
        &self.mapping
    }

    /// Distinct values among the images.
    pub fn distinct_values(&self) -> usize {
        self.values.len()
    }

    /// Images that are undefined: `σ(v)` erred at the state.
    pub fn undefined(&self) -> u64 {
        self.undefined
    }

    /// The image column of `v` — per state, the id of `σ(v)` there
    /// among the distinct values, numbered in the order they were met,
    /// `u32::MAX` where it is undefined, or `u32::MAX - 1` where it was
    /// not filled yet; `None` for an unmapped variable.
    pub fn column(&self, v: VarId) -> Option<&[u32]> {
        self.column_index(v).map(|c| &self.columns[c].1[..])
    }

    /// The value of image id `id`, as a column holds it; `None` for an
    /// entry that is no id.
    pub fn value(&self, id: u32) -> Option<&Value> {
        self.values.get(id as usize)
    }

    /// The index of `v`'s column; `None` for an unmapped variable.
    fn column_index(&self, v: VarId) -> Option<usize> {
        match self.column_of.get(v.index()) {
            Some(&column) if column != NONE => Some(column as usize),
            _ => None,
        }
    }

    /// The id of `value` among the images; `None` when no state's image
    /// is `value`.
    pub(crate) fn id_of(&self, value: &Value) -> Option<u32> {
        if let Some(imaging) = &self.on_demand {
            return imaging.ids.get(value).copied();
        }
        let at = (self.by_value)
            .binary_search_by(|&id| self.values[id as usize].cmp(value))
            .ok()?;
        Some(self.by_value[at])
    }
}

/// `s̄` borrowed: state `id` of a graph, each mapped variable's slot
/// read from its [`Images`] column and every other slot from the
/// state's row ([`RowView`]). What a [`Memo`] miss is decided on, by a
/// [`CompiledExpr`]; nothing is copied.
#[derive(Clone, Copy, Debug)]
pub struct ImageView<'a> {
    row: RowView<'a>,
    images: &'a Images,
    id: usize,
}

impl<'a> ImageView<'a> {
    /// The view of state `id` of `graph` under `images` (which must be
    /// of that graph). `None` where some image is undefined or not
    /// filled, or — for images of a pass — the state has no slot for a
    /// mapped variable: that state has no abstract evaluation.
    pub fn new(images: &'a Images, graph: &'a StateGraph, id: usize) -> Option<ImageView<'a>> {
        let row = graph.view(id);
        let fresh = images.on_demand.is_some();
        let defined = images.columns.iter().all(|(v, column)| {
            column.get(id).is_some_and(|&image| image < UNSEEN)
                && (fresh || v.index() < row.slot_count())
        });
        defined.then_some(ImageView { row, images, id })
    }
}

impl Slots for ImageView<'_> {
    #[inline]
    fn slot(&self, v: VarId) -> Option<&Value> {
        match self.images.column(v) {
            Some(column) => Some(&self.images.values[column[self.id] as usize]),
            None => self.row.slot(v),
        }
    }

    #[inline]
    fn slot_count(&self) -> usize {
        self.row.slot_count()
    }
}

/// The class of every state of a graph under one footprint: what one
/// class pass computes, shared by every [`Classes`] of that footprint
/// over the same [`Images`].
#[derive(Debug)]
struct Column {
    /// Class per state ([`NONE`] where the key is not computable);
    /// empty when the memo is skipped.
    of: Vec<u32>,
    /// Distinct classes found.
    count: usize,
    /// What the pass took.
    nanos: u64,
}

impl Column {
    /// The class pass of [`Classes::of_graph`].
    fn of_graph(graph: &StateGraph, footprint: &VarSet, images: &Images) -> Column {
        let started = Instant::now();
        let mut keys = ClassKeys::new(graph.layout(), footprint, images);
        let mut of = Vec::with_capacity(graph.len());
        let mut classed = 0usize;
        for id in 0..graph.len() {
            let class = keys.class(graph, images, id);
            classed += usize::from(class.is_some());
            of.push(class.unwrap_or(NONE));
        }
        let count = keys.keys.len();
        if count == classed {
            // Nobody shares a class: keep none.
            of = Vec::new();
        }
        Column {
            of,
            count,
            nanos: started.elapsed().as_nanos() as u64,
        }
    }
}

impl Images {
    /// The class column of `footprint` over `graph`, and whether this
    /// call ran its pass. The images of a graph keep one column per
    /// footprint: the first caller computes it, a caller that comes
    /// while it is being computed waits for it, and every later one
    /// shares it. The default images keep none.
    fn class_column(&self, graph: &StateGraph, footprint: &VarSet) -> (Arc<Column>, bool) {
        let Some(shared) = &self.classes else {
            return (Arc::new(Column::of_graph(graph, footprint, self)), true);
        };
        let slot = {
            let mut slots = shared.lock().unwrap_or_else(PoisonError::into_inner);
            match slots.iter().find(|(known, _)| known == footprint) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Arc::default();
                    slots.push((footprint.clone(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        let mut ran = false;
        let column = slot.get_or_init(|| {
            ran = true;
            Arc::new(Column::of_graph(graph, footprint, self))
        });
        (Arc::clone(column), ran)
    }
}

/// The class of every state of a graph under one footprint and one
/// mapping, plus the tallies its [`Memo`]s leave behind for
/// [`Event::ImageMemo`].
#[derive(Debug)]
pub struct Classes<'g> {
    graph: &'g StateGraph,
    images: &'g Images,
    column: Arc<Column>,
    /// What this check's class pass took: zero when it shares a column
    /// another check computed.
    nanos: u64,
    /// Step lookups, step evaluations, and the evaluations decided on
    /// ids, of every memo dropped so far.
    steps: AtomicU64,
    evaluated: AtomicU64,
    on_ids: AtomicU64,
}

impl<'g> Classes<'g> {
    /// The classes of `graph`'s states under `footprint`: numbers each
    /// state's image tuple by its key — the codes of the unmapped slots
    /// in the state's row, then the image id of each mapped one, read
    /// from `images`, in as many bits as the largest id needs — in
    /// state order. The key table is dropped before the pass returns,
    /// so what stays resident is four bytes per state (nothing when
    /// skipped), kept by `images` and shared: a second call with the
    /// same footprint on the same images — from this thread or another
    /// — runs no pass of its own and reports it took no time.
    ///
    /// # Panics
    ///
    /// If `images` are of a graph with fewer states.
    pub fn of_graph(graph: &'g StateGraph, footprint: &VarSet, images: &'g Images) -> Classes<'g> {
        let (column, ran) = images.class_column(graph, footprint);
        Classes {
            graph,
            images,
            nanos: if ran { column.nanos } else { 0 },
            column,
            steps: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            on_ids: AtomicU64::new(0),
        }
    }

    /// Distinct classes found by the pass.
    pub fn count(&self) -> usize {
        self.column.count
    }

    /// Whether no two states share a class, so lookups evaluate.
    pub fn skipped(&self) -> bool {
        self.column.of.is_empty()
    }

    /// The class of state `id`; `None` when its key is not computable
    /// or the memo is skipped.
    pub fn get(&self, id: usize) -> Option<u32> {
        self.column
            .of
            .get(id)
            .copied()
            .filter(|class| *class != NONE)
    }

    /// `s̄` for state `id`, see [`ImageView`].
    fn view(&self, id: usize) -> Option<ImageView<'g>> {
        ImageView::new(self.images, self.graph, id)
    }

    /// Emits the pass's [`Event::ImageMemo`] for check `check`. Call
    /// after the memos over these classes have been dropped.
    pub(crate) fn report(&self, recorder: &RecorderHandle, check: &str) {
        if recorder.enabled() {
            recorder.record(&Event::ImageMemo {
                check,
                classes: self.count() as u64,
                distinct_pairs: self.evaluated.load(Ordering::Relaxed),
                on_ids: self.on_ids.load(Ordering::Relaxed),
                edges: self.steps.load(Ordering::Relaxed),
                skipped: self.skipped(),
                nanos: self.nanos,
            });
        }
    }
}

/// The classes of one footprint's states under one [`Images`],
/// interned state by state as a check asks for them rather than by a
/// pass: what the `⊳` monitor, which may stop after a few states, keys
/// its memos on. A state's class is the key [`Classes::of_graph`] gives
/// it, numbered in the order the states are asked about; the column
/// grows to the largest state asked about.
#[derive(Debug)]
pub struct LazyClasses {
    keys: ClassKeys,
    /// Per state: [`UNSEEN`], [`NONE`] for no class, or its class.
    of: Vec<u32>,
}

impl LazyClasses {
    /// No class met yet among `graph`'s states under `footprint`.
    pub fn new(graph: &StateGraph, footprint: &VarSet, images: &Images) -> LazyClasses {
        LazyClasses {
            keys: ClassKeys::new(graph.layout(), footprint, images),
            of: Vec::new(),
        }
    }

    /// Distinct classes met so far.
    pub fn count(&self) -> usize {
        self.keys.keys.len()
    }

    /// The class of state `id` of `graph`, interned if it is met for the
    /// first time; `None` where its key is not computable — some image
    /// it reads is undefined, or not filled ([`Images::fill`]) when it
    /// is first asked about.
    pub fn get(&mut self, graph: &StateGraph, images: &Images, id: usize) -> Option<u32> {
        if id >= self.of.len() {
            let states = (id + 1).next_power_of_two().min(graph.len());
            self.of.resize(states, UNSEEN);
        }
        match self.of[id] {
            UNSEEN => {}
            NONE => return None,
            class => return Some(class),
        }
        let class = self.keys.class(graph, images, id);
        self.of[id] = class.unwrap_or(NONE);
        class
    }
}

/// One footprint's class keys, state by state: what both
/// [`Classes::of_graph`]'s pass and [`LazyClasses`] number a state by.
#[derive(Debug)]
struct ClassKeys {
    /// `None` if a footprint variable is neither mapped nor a slot of
    /// the rows: it has no value at any state, so no state has a class.
    shape: Option<KeyShape>,
    key: Vec<u64>,
    keys: KeyIds,
}

impl ClassKeys {
    fn new(layout: &PackedLayout, footprint: &VarSet, images: &Images) -> ClassKeys {
        let shape = KeyShape::of(layout, footprint, images);
        let key = words(shape.as_ref().map_or(0, |shape| shape.bits(layout)));
        ClassKeys {
            shape,
            keys: KeyIds::of_width(key.len()),
            key,
        }
    }

    /// The class of state `id`, numbered in the order classes are met;
    /// `None` where its key is not computable.
    fn class(&mut self, graph: &StateGraph, images: &Images, id: usize) -> Option<u32> {
        let shape = self.shape.as_ref()?;
        if !shape.write(graph, images, id, &mut self.key) {
            return None;
        }
        Some(self.keys.intern(&self.key, |next| {
            u32::try_from(next)
                .ok()
                .filter(|&class| class < UNSEEN)
                .expect("classes fit in u32")
        }))
    }
}

/// What a class key is made of: the codes of the unmapped footprint
/// slots, then each mapped variable's image id from its column. The
/// one writer of class and leaf keys.
#[derive(Debug)]
struct KeyShape {
    codes: Vec<usize>,
    /// Per mapped variable, the index of its [`Images`] column and the
    /// bits of its field: enough for every id in the column.
    mapped: Vec<(usize, u32)>,
}

impl KeyShape {
    /// The key of `vars` under `images`; `None` if one is neither
    /// mapped nor a slot of `layout`'s rows.
    fn of(layout: &PackedLayout, vars: &VarSet, images: &Images) -> Option<KeyShape> {
        let mut shape = KeyShape {
            codes: Vec::new(),
            mapped: Vec::new(),
        };
        for v in vars.iter() {
            match images.column_index(v) {
                Some(column) => shape.mapped.push((column, images.id_bits)),
                None if v.index() < layout.slots() => shape.codes.push(v.index()),
                None => return None,
            }
        }
        Some(shape)
    }

    /// The bits of a key.
    fn bits(&self, layout: &PackedLayout) -> usize {
        let ids: u32 = self.mapped.iter().map(|&(_, bits)| bits).sum();
        layout.key_bits(&self.codes) + ids as usize
    }

    /// Writes the key of state `id` into `key`; `false` if some image is
    /// undefined or not filled there.
    fn write(&self, graph: &StateGraph, images: &Images, id: usize, key: &mut [u64]) -> bool {
        let mut at = graph.layout().gather_key(graph.row(id), &self.codes, key);
        for &(column, bits) in &self.mapped {
            let image = match images.columns[column].1.get(id) {
                Some(&image) if image < UNSEEN => image,
                _ => return false,
            };
            debug_assert!(u64::from(image) >> bits == 0, "an image id fits its field");
            PackedLayout::put_bits(key, at, u64::from(image), bits);
            at += bits as usize;
        }
        true
    }
}

/// A state predicate's answer for a class not met yet, in
/// [`Memo::states`]; a known answer `b` is stored as `1 + b`.
const UNKNOWN: u8 = 0;

/// A step predicate's answers by class pair: per source class, a list
/// of the target classes met with it, threaded through one column of
/// one-word entries that is only ever appended to. A memo writes a word
/// per pair it meets, in the order it meets them, and never rehashes,
/// so what it holds is that word (and the column's room to grow), plus
/// four bytes per class.
/// An answer is a number of a few bits: a truth value for an
/// obligation, the first failing conjunct of one side for the `⊳`
/// monitor (over [`LazyClasses`]).
#[derive(Debug)]
pub struct PairLists {
    /// Per source class, one past the index of its latest entry; 0 for
    /// none.
    heads: Vec<u32>,
    /// Per pair met: the target class in the high half, then the source
    /// class's previous head, then the answer in the low `answer_bits`
    /// bits.
    entries: Vec<u64>,
    answer_bits: u32,
}

impl PairLists {
    /// Empty lists of answers below `2^answer_bits`.
    pub fn new(answer_bits: u32) -> Self {
        assert!((1..16).contains(&answer_bits), "an answer is a few bits");
        PairLists {
            heads: Vec::new(),
            entries: Vec::new(),
            answer_bits,
        }
    }

    /// The remembered answer of `(s, t)`.
    pub fn get(&self, s: u32, t: u32) -> Option<u32> {
        let mut at = *self.heads.get(s as usize)?;
        let answer = (1u32 << self.answer_bits) - 1;
        while at != 0 {
            let entry = self.entries[at as usize - 1];
            if (entry >> 32) as u32 == t {
                return Some(entry as u32 & answer);
            }
            at = (entry as u32) >> self.answer_bits;
        }
        None
    }

    /// Remembers `value` for `(s, t)`, met for the first time. The first
    /// call sizes the heads for `classes`; a source class past them grows
    /// the heads. The entries grow with the pairs met, doubling, but
    /// never past `pairs`, the most the caller can meet (0 if it cannot
    /// say): an H1 memo over Figure 9's 760 344 edges meets 720 pairs.
    pub fn insert(&mut self, classes: usize, pairs: usize, s: u32, t: u32, value: u32) {
        if self.heads.is_empty() {
            self.heads.resize(classes, 0);
        }
        if self.entries.len() == self.entries.capacity() {
            let grown = self.entries.len().max(4);
            let room = match pairs.checked_sub(self.entries.len()) {
                Some(left @ 1..) => grown.min(left),
                _ => grown,
            };
            self.entries.reserve_exact(room);
        }
        if s as usize >= self.heads.len() {
            self.heads.resize(s as usize + 1, 0);
        }
        debug_assert!(value >> self.answer_bits == 0, "an answer fits its bits");
        let head = &mut self.heads[s as usize];
        self.entries
            .push(u64::from(t) << 32 | u64::from(*head) << self.answer_bits | u64::from(value));
        *head = u32::try_from(self.entries.len())
            .ok()
            .filter(|&at| at >> (32 - self.answer_bits) == 0)
            .expect("the class pairs met fit their links");
    }
}

/// One predicate's answers by class, filled on demand. A check keeps
/// one memo per predicate.
///
/// A lookup takes the predicate twice: `abstractly`, the unsubstituted
/// expression to run on the [`ImageView`]s of the abstract state(s),
/// and `directly`, the caller's evaluation of its substituted
/// expression on the concrete state or step at hand. A first meeting
/// of a class (pair) is decided by the memo's [`IdsProgram`], if it has
/// one and that decides it; else it runs `abstractly` and, should that
/// err, `directly`. A state without a class, and every state of a
/// skipped memo, runs `directly` alone.
#[derive(Debug)]
pub struct Memo<'c> {
    classes: &'c Classes<'c>,
    /// The predicate read on ids, if it can be.
    ids: Option<IdsProgram<'c>>,
    /// A state predicate's answers, a byte per class ([`UNKNOWN`] or
    /// `1 +` the answer); sized on the first lookup.
    states: Vec<u8>,
    /// A step predicate's answers, by class pair.
    pairs: PairLists,
    steps: u64,
    evaluated: u64,
    on_ids: u64,
}

impl<'c> Memo<'c> {
    /// An empty memo over `classes` that decides every miss by its
    /// callers' evaluations.
    pub fn new(classes: &'c Classes<'c>) -> Self {
        Memo {
            classes,
            ids: None,
            states: Vec::new(),
            pairs: PairLists::new(1),
            steps: 0,
            evaluated: 0,
            on_ids: 0,
        }
    }

    /// An empty memo over `classes` for the conjunction of `conjuncts`,
    /// which decides a miss on ids first where it can
    /// ([`IdsProgram::of_all`]).
    ///
    /// `conjuncts` must be exactly what its callers' `abstractly`
    /// evaluates, in the same order: a miss decided on ids never runs
    /// `abstractly`, so nothing else ties the two together. Debug
    /// builds run `abstractly` on every such miss as well and panic
    /// unless it gives the same answer.
    pub fn with_ids(classes: &'c Classes<'c>, conjuncts: &[Expr]) -> Self {
        let mut memo = Memo::new(classes);
        if !classes.skipped() {
            memo.ids = IdsProgram::of_all(classes, conjuncts);
        }
        memo
    }

    /// The predicate's value on the step `⟨s, t⟩`: the remembered
    /// answer of its class pair, else an evaluation, remembered if both
    /// states have a class.
    ///
    /// # Errors
    ///
    /// Whatever `directly` returns; errors are not remembered.
    pub fn step<E>(
        &mut self,
        s: usize,
        t: usize,
        abstractly: impl FnOnce(ImageView<'_>, ImageView<'_>) -> Result<bool, E>,
        directly: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        self.steps += 1;
        let classes = self.classes;
        let Some((s_class, t_class)) = classes.get(s).zip(classes.get(t)) else {
            let value = directly()?;
            self.evaluated += 1;
            return Ok(value);
        };
        if let Some(known) = self.pairs.get(s_class, t_class) {
            return Ok(known == 1);
        }
        let views = classes.view(s).zip(classes.view(t));
        let on_ids = match (&mut self.ids, views) {
            (Some(ids), Some(_)) => ids.step(s, t),
            _ => None,
        };
        let value = match (on_ids, views) {
            (Some(value), _) => {
                debug_assert!(
                    views.is_some_and(
                        |(s_bar, t_bar)| abstractly(s_bar, t_bar).is_ok_and(|v| v == value)
                    ),
                    "the ids program disagrees with `abstractly` on {s} → {t}"
                );
                self.on_ids += 1;
                value
            }
            (None, Some((s_bar, t_bar))) => abstractly(s_bar, t_bar).or_else(|_| directly())?,
            (None, None) => directly()?,
        };
        self.evaluated += 1;
        let edges = classes.graph.edge_count();
        (self.pairs).insert(classes.count(), edges, s_class, t_class, u32::from(value));
        Ok(value)
    }

    /// The state-predicate analogue of [`Memo::step`], keyed by the
    /// class of `s` alone.
    ///
    /// # Errors
    ///
    /// Whatever `directly` returns; errors are not remembered.
    pub fn state<E>(
        &mut self,
        s: usize,
        abstractly: impl FnOnce(ImageView<'_>) -> Result<bool, E>,
        directly: impl FnOnce() -> Result<bool, E>,
    ) -> Result<bool, E> {
        let classes = self.classes;
        let Some(class) = classes.get(s) else {
            return directly();
        };
        if self.states.is_empty() {
            self.states.resize(classes.count(), UNKNOWN);
        }
        let known = self.states[class as usize];
        if known != UNKNOWN {
            return Ok(known == 1 + u8::from(true));
        }
        let view = classes.view(s);
        let on_ids = match (&mut self.ids, view) {
            (Some(ids), Some(_)) => ids.holds(s),
            _ => None,
        };
        let value = match (on_ids, view) {
            (Some(value), _) => {
                debug_assert!(
                    view.is_some_and(|s_bar| abstractly(s_bar).is_ok_and(|v| v == value)),
                    "the ids program disagrees with `abstractly` at {s}"
                );
                value
            }
            (None, Some(s_bar)) => abstractly(s_bar).or_else(|_| directly())?,
            (None, None) => directly()?,
        };
        self.states[class as usize] = 1 + u8::from(value);
        Ok(value)
    }
}

impl Drop for Memo<'_> {
    /// Folds this memo's step tallies into its [`Classes`].
    fn drop(&mut self) {
        self.classes.steps.fetch_add(self.steps, Ordering::Relaxed);
        self.classes
            .evaluated
            .fetch_add(self.evaluated, Ordering::Relaxed);
        self.classes
            .on_ids
            .fetch_add(self.on_ids, Ordering::Relaxed);
    }
}

/// A leaf's answer not computed yet for a key, in
/// [`IdsProgram`]'s tables.
const UNDECIDED: u32 = u32::MAX;
/// A leaf that erred (or was not boolean) for a key.
const ERRED: u32 = u32::MAX - 1;
/// `f`'s value for a key of `x′ = f` is no value `x` takes: no id of
/// `x` equals it.
const ABSENT: u32 = u32::MAX - 2;

/// Where a variable's ids are: an unmapped variable's are its slot
/// codes, a mapped one's its image ids.
#[derive(Clone, Copy, Debug)]
enum Space<'g> {
    Code(usize),
    Image(&'g [u32]),
}

impl Space<'_> {
    /// The variable's id at state `id` ([`NONE`] for an undefined image).
    #[inline]
    fn id(self, graph: &StateGraph, id: usize) -> u32 {
        match self {
            Space::Code(slot) => graph.layout().read_code(graph.row(id), slot),
            Space::Image(column) => column[id],
        }
    }

    /// The id `value` has in this space, [`ABSENT`] if none.
    fn id_of(self, graph: &StateGraph, images: &Images, value: &Value) -> u32 {
        let id = match self {
            Space::Code(slot) => graph.layout().code_of(slot, value),
            Space::Image(_) => images.id_of(value),
        };
        id.unwrap_or(ABSENT)
    }
}

/// A boolean skeleton node of an [`IdsProgram`], in the order the
/// compiled program evaluates it.
#[derive(Debug)]
enum Node {
    All(Vec<Node>),
    Any(Vec<Node>),
    Not(Box<Node>),
    Implies(Box<Node>, Box<Node>),
    Leaf(usize),
}

/// A leaf of an [`IdsProgram`].
#[derive(Debug)]
enum Leaf<'g> {
    /// A state function of the current state, in a boolean context:
    /// its truth once per key of its reads.
    Holds { program: CompiledExpr, group: usize },
    /// `x′ = f` (`x′ ≠ f` when not `equal`), `f` a state function of
    /// the current state: its value's id in `x`'s space once per key of
    /// `f`'s reads, compared with the successor's id of `x`.
    Assigns {
        var: Space<'g>,
        program: CompiledExpr,
        group: usize,
        equal: bool,
    },
    /// `x′ = x` (or `≠`): the two states' ids of `x` compared.
    Unchanged { var: Space<'g>, equal: bool },
}

/// The widest leaf key, in bits: a key is the index of its leaf's
/// answer in a table of every key. A read set with a wider key leaves
/// the check without an ids program.
const DENSE_BITS: usize = 14;

/// The leaves that read one set of variables: their key shape, and the
/// number of keys it has.
#[derive(Debug)]
struct Group {
    reads: VarSet,
    shape: KeyShape,
    keys: usize,
}

/// A step or state predicate decided on ids: the boolean skeleton of an
/// expression (`∧ ∨ ¬ ⇒`) over leaves, each a function of the ids of
/// the variables it reads — an unmapped variable's slot code, a mapped
/// one's image id. A leaf that reads only unprimed variables is
/// evaluated once per distinct key of their ids; `x′ = f`, `f` such a
/// state function, translates `f`'s value into `x`'s ids once per key
/// and is then an id compare; `x′ = x` is one with no evaluation.
///
/// The leaves are decided in the compiled program's order, with its
/// short-circuits, and a leaf that errs or is not boolean decides
/// nothing (`None`): so an answer is the compiled program's on the
/// [`ImageView`]s, and `None` wherever that program errs. A leaf is a
/// state function of its reads because a code is a value's position in
/// its slot's domain and an image id a value's position among the
/// interned images. The tables are filled on demand and kept per
/// program; no budget is charged.
#[derive(Debug)]
pub struct IdsProgram<'g> {
    skeleton: Node,
    tables: Tables<'g>,
}

/// An [`IdsProgram`]'s leaves and what it has learnt of them.
#[derive(Debug)]
struct Tables<'g> {
    graph: &'g StateGraph,
    images: &'g Images,
    leaves: Vec<Leaf<'g>>,
    /// Per leaf, its answer by its group's key: [`UNDECIDED`],
    /// [`ERRED`], a truth value, or an id. A leaf's table holds every
    /// key and is allocated the first time the leaf is evaluated.
    answers: Vec<Vec<u32>>,
    groups: Vec<Group>,
    /// Whether some leaf reads a primed variable: then no state
    /// predicate is decided.
    primed: bool,
    /// The state whose group keys `keyed` holds ([`UNDECIDED`] for a
    /// group not keyed yet).
    keyed_for: usize,
    keyed: Vec<u32>,
    scratch: EvalScratch,
}

impl<'g> IdsProgram<'g> {
    /// The conjunction of `conjuncts`, in order, over `classes`' graph
    /// and images; `None` when some leaf reads a primed variable in
    /// another shape than `x′ = f` (`Len(q′) = Len(q) + 1`), reads a
    /// variable that is neither mapped nor a slot of the rows, or has a
    /// key wider than 14 bits.
    pub fn of_all(classes: &Classes<'g>, conjuncts: &[Expr]) -> Option<IdsProgram<'g>> {
        let mut tables = Tables {
            graph: classes.graph,
            images: classes.images,
            leaves: Vec::new(),
            answers: Vec::new(),
            groups: Vec::new(),
            primed: false,
            keyed_for: usize::MAX,
            keyed: Vec::new(),
            scratch: EvalScratch::new(),
        };
        let all = (conjuncts.iter())
            .map(|e| tables.skeleton(e))
            .collect::<Option<_>>()?;
        tables.answers = vec![Vec::new(); tables.leaves.len()];
        Some(IdsProgram {
            skeleton: Node::All(all),
            tables,
        })
    }

    /// The predicate on the step `⟨s, t⟩`: what the compiled program
    /// answers on the [`ImageView`]s of `s` and `t`, which must both
    /// have one, or `None` where that program errs.
    pub fn step(&mut self, s: usize, t: usize) -> Option<bool> {
        self.tables.decide(&self.skeleton, s, Some(t))
    }

    /// The predicate as a state function at `s`, as [`IdsProgram::step`];
    /// `None` for a predicate with a primed leaf.
    pub fn holds(&mut self, s: usize) -> Option<bool> {
        if self.tables.primed {
            return None;
        }
        self.tables.decide(&self.skeleton, s, None)
    }
}

impl<'g> Tables<'g> {
    /// The skeleton of `e`, a boolean context; `None` if unsupported.
    fn skeleton(&mut self, e: &Expr) -> Option<Node> {
        let node = match e {
            Expr::And(es) => Node::All(es.iter().map(|e| self.skeleton(e)).collect::<Option<_>>()?),
            Expr::Or(es) => Node::Any(es.iter().map(|e| self.skeleton(e)).collect::<Option<_>>()?),
            Expr::Unary(UnOp::Not, a) => Node::Not(Box::new(self.skeleton(a)?)),
            Expr::Binary(BinOp::Implies, a, b) => {
                Node::Implies(Box::new(self.skeleton(a)?), Box::new(self.skeleton(b)?))
            }
            Expr::Binary(op @ (BinOp::Eq | BinOp::Ne), a, b) if !e.primed_vars().is_empty() => {
                let (x, f) = match (&**a, &**b) {
                    (Expr::Prime(x), f) | (f, Expr::Prime(x)) if f.primed_vars().is_empty() => {
                        (*x, f)
                    }
                    _ => return None,
                };
                let var = self.space(x)?;
                let equal = *op == BinOp::Eq;
                self.primed = true;
                let leaf = match f {
                    Expr::Var(y) if *y == x => Leaf::Unchanged { var, equal },
                    f => Leaf::Assigns {
                        var,
                        program: CompiledExpr::compile(f),
                        group: self.group(f.unprimed_vars())?,
                        equal,
                    },
                };
                self.leaf(leaf)
            }
            e if e.primed_vars().is_empty() => {
                let group = self.group(e.unprimed_vars())?;
                self.leaf(Leaf::Holds {
                    program: CompiledExpr::compile(e),
                    group,
                })
            }
            _ => return None,
        };
        Some(node)
    }

    fn leaf(&mut self, leaf: Leaf<'g>) -> Node {
        self.leaves.push(leaf);
        Node::Leaf(self.leaves.len() - 1)
    }

    /// Where `v`'s ids are; `None` for a variable neither mapped nor a
    /// slot of the rows (unbound at every state).
    fn space(&self, v: VarId) -> Option<Space<'g>> {
        match self.images.column(v) {
            Some(column) => Some(Space::Image(column)),
            None => (v.index() < self.graph.layout().slots()).then_some(Space::Code(v.index())),
        }
    }

    /// The group of the leaves reading `reads`; `None` if its key is
    /// wider than [`DENSE_BITS`].
    fn group(&mut self, reads: VarSet) -> Option<usize> {
        if let Some(at) = self.groups.iter().position(|g| g.reads == reads) {
            return Some(at);
        }
        let shape = KeyShape::of(self.graph.layout(), &reads, self.images)?;
        let bits = shape.bits(self.graph.layout());
        if bits > DENSE_BITS {
            return None;
        }
        self.groups.push(Group {
            reads,
            shape,
            keys: 1 << bits,
        });
        self.keyed.push(UNDECIDED);
        Some(self.groups.len() - 1)
    }

    /// `node` on `⟨s, t⟩` (`t` `None` for a state function).
    fn decide(&mut self, node: &Node, s: usize, t: Option<usize>) -> Option<bool> {
        match node {
            Node::All(nodes) => {
                for node in nodes {
                    if !self.decide(node, s, t)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Node::Any(nodes) => {
                for node in nodes {
                    if self.decide(node, s, t)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Node::Not(node) => self.decide(node, s, t).map(|b| !b),
            Node::Implies(a, b) => match self.decide(a, s, t)? {
                true => self.decide(b, s, t),
                false => Some(true),
            },
            Node::Leaf(leaf) => self.leaf_at(*leaf, s, t),
        }
    }

    /// Leaf `i` on `⟨s, t⟩`.
    #[inline]
    fn leaf_at(&mut self, i: usize, s: usize, t: Option<usize>) -> Option<bool> {
        let graph = self.graph;
        match self.leaves[i] {
            Leaf::Holds { group, .. } => Some(self.answer(i, group, s)? == 1),
            Leaf::Assigns {
                var, group, equal, ..
            } => {
                let next = var.id(graph, t?);
                let id = self.answer(i, group, s)?;
                (next != NONE).then_some((id == next) == equal)
            }
            Leaf::Unchanged { var, equal } => {
                let (now, next) = (var.id(graph, s), var.id(graph, t?));
                (now != NONE && next != NONE).then_some((now == next) == equal)
            }
        }
    }

    /// Leaf `i`'s answer for the key of `s` in `group`, evaluated on
    /// `s`'s view the first time the key is met; `None` where it errs.
    fn answer(&mut self, i: usize, group: usize, s: usize) -> Option<u32> {
        if self.keyed_for != s {
            self.keyed_for = s;
            self.keyed.fill(UNDECIDED);
        }
        let g = &self.groups[group];
        let mut key = self.keyed[group];
        if key == UNDECIDED {
            let mut word = [0];
            if !g.shape.write(self.graph, self.images, s, &mut word) {
                return None;
            }
            key = word[0] as u32;
            self.keyed[group] = key;
        }
        if self.answers[i].is_empty() {
            self.answers[i] = vec![UNDECIDED; g.keys];
        }
        let key = key as usize;
        let mut answer = self.answers[i][key];
        if answer == UNDECIDED {
            answer = self.evaluate(i, s)?;
            self.answers[i][key] = answer;
        }
        (answer != ERRED).then_some(answer)
    }

    /// Leaf `i` evaluated on `s`'s view; `None`, and nothing learnt,
    /// where `s` has none.
    #[cold]
    fn evaluate(&mut self, i: usize, s: usize) -> Option<u32> {
        let view = ImageView::new(self.images, self.graph, s)?;
        let scratch = &mut self.scratch;
        Some(match &self.leaves[i] {
            Leaf::Holds { program, .. } => match program.holds(&view, scratch) {
                Ok(holds) => u32::from(holds),
                Err(_) => ERRED,
            },
            Leaf::Assigns { var, program, .. } => match program.eval(&view, scratch) {
                Ok(value) => var.id_of(self.graph, self.images, &value),
                Err(_) => ERRED,
            },
            Leaf::Unchanged { .. } => unreachable!("an id compare evaluates nothing"),
        })
    }
}

/// The passes over `Value` trees, the reference of the tests below and
/// of `tests/proptest_image_codes.rs`.
#[cfg(test)]
#[path = "../tests/support/value_passes.rs"]
mod value_passes;

#[cfg(test)]
mod tests {
    use super::value_passes::{value_classes, value_images, ValueImages};
    use super::*;
    use crate::obs::Recorder;
    use crate::{explore, ExploreOptions, GuardedAction, Init, System};
    use opentla_kernel::{Domain, Expr, Vars};
    use std::convert::Infallible;
    use std::sync::{Arc, Mutex};

    fn images(graph: &StateGraph, mapping: &Substitution) -> Images {
        Images::of_graph(graph, mapping, &RecorderHandle::default())
    }

    /// `x` counts 0..=3 while `y` toggles: 8 states.
    fn counter_and_toggle() -> (System, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let y = vars.declare("y", Domain::bits());
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(3)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(y, Expr::int(1).sub(Expr::var(y)))],
        );
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![incr, toggle],
        );
        (sys, x, y)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-word key table reads as a `HashMap<u64, u32>`: every
        /// key met again has the id it was first given, and a key met
        /// for the first time is given what `first` returns, `first`
        /// told how many keys came before. The ids need not be dense:
        /// a class pass numbers keys as met, but an image pass gives a
        /// key the id of its value, shared with other keys, or
        /// [`NONE`] where the mapping errs. Keys are small, or spread
        /// over the high bits, where a hash that read the low bits alone
        /// would pile them onto one slot; the table stays at most ¾
        /// full.
        #[test]
        fn word_ids_read_as_a_hash_map(
            ops in proptest::collection::vec((0..500u64, 0..4u8, 0..100u32), 0..900),
            spread in 0..64u32,
        ) {
            let mut table = KeyIds::of_width(1);
            let mut reference: std::collections::HashMap<u64, u32> = Default::default();
            for (key, kind, word) in ops {
                let key = key << spread;
                let given = match kind {
                    0 => NONE,
                    1 => reference.len() as u32,
                    _ => word,
                };
                let mut asked = None;
                let got = table.intern(&[key], |next| {
                    asked = Some(next);
                    given
                });
                let before = reference.len();
                let want = *reference.entry(key).or_insert(given);
                let new = reference.len() > before;
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(asked, new.then_some(before));
                proptest::prop_assert_eq!(table.len(), reference.len());
                let KeyIds::Word(ids) = &table else {
                    unreachable!("one-word keys")
                };
                proptest::prop_assert!(4 * ids.keys.len() <= 3 * ids.slots.len());
            }
        }
    }

    #[test]
    fn classes_project_onto_the_footprint() {
        let (sys, x, y) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 8);
        let id = images(&graph, &Substitution::default());
        let on_x = Classes::of_graph(&graph, &[x].into_iter().collect(), &id);
        assert_eq!(on_x.count(), 4);
        assert!(!on_x.skipped());
        for a in 0..graph.len() {
            for b in 0..graph.len() {
                assert_eq!(
                    on_x.get(a) == on_x.get(b),
                    graph.state(a).get(x) == graph.state(b).get(x),
                );
            }
        }
        // A footprint covering every variable separates every state.
        let on_both = Classes::of_graph(&graph, &[x, y].into_iter().collect(), &id);
        assert_eq!(on_both.count(), 8);
        assert!(on_both.skipped());
        assert_eq!(on_both.get(0), None);
    }

    #[test]
    fn mapped_variables_are_keyed_by_their_image() {
        let (sys, x, y) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // x ↦ x ÷ 2 has two images; y is not in the footprint.
        let half = Substitution::new([(x, Expr::var(x).div(Expr::int(2)))]);
        let half = images(&graph, &half);
        assert_eq!(half.distinct_values(), 2);
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &half);
        assert_eq!(classes.count(), 2);
        // The view reads the image in x's slot and y's from the state.
        for id in 0..graph.len() {
            let s = graph.state(id);
            let view = classes.view(id).expect("the mapping is total");
            assert_eq!(
                view.slot(x),
                Some(&Expr::var(x).div(Expr::int(2)).eval_state(s).unwrap())
            );
            assert_eq!(view.slot(y), Some(s.get(y)));
            assert_eq!(view.slot_count(), s.len());
        }
    }

    #[test]
    fn states_without_an_image_bypass_the_memo() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // 6 ÷ x is undefined where x = 0 (two of the eight states).
        let partial = Substitution::new([(x, Expr::int(6).div(Expr::var(x)))]);
        let partial = images(&graph, &partial);
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &partial);
        assert_eq!(classes.count(), 3);
        let unclassed: Vec<usize> = (0..graph.len())
            .filter(|id| classes.get(*id).is_none())
            .collect();
        assert_eq!(unclassed.len(), 2);
        let mut memo = Memo::new(&classes);
        let mut calls = 0;
        for _ in 0..3 {
            let got = memo.state(
                unclassed[0],
                |_| unreachable!("no abstract state to evaluate on"),
                || {
                    calls += 1;
                    Ok::<_, Infallible>(true)
                },
            );
            assert_eq!(got, Ok(true));
        }
        assert_eq!(calls, 3, "no class, so every lookup evaluates");
    }

    #[test]
    fn a_class_pair_is_evaluated_once_and_tallied() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let id = images(&graph, &Substitution::default());
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &id);
        let mut edges = 0u64;
        let mut calls = 0u64;
        {
            let mut memo = Memo::new(&classes);
            for s in 0..graph.len() {
                for e in graph.edges(s) {
                    edges += 1;
                    let same = graph.state(s).get(x) == graph.state(e.target as usize).get(x);
                    let got = memo.step(
                        s,
                        e.target as usize,
                        |old, new| {
                            calls += 1;
                            Ok::<_, Infallible>(old.slot(x) == new.slot(x))
                        },
                        || unreachable!("the abstract evaluation succeeds"),
                    );
                    assert_eq!(got, Ok(same));
                }
            }
        }
        // Pairs over x: (n, n) for the 4 toggles and (n, n + 1) for
        // the 3 increments.
        assert_eq!(calls, 7);
        assert_eq!(classes.steps.load(Ordering::Relaxed), edges);
        assert_eq!(classes.evaluated.load(Ordering::Relaxed), calls);
        // An abstract error falls back to the direct evaluation, whose
        // error is returned and not remembered.
        let mut memo = Memo::new(&classes);
        let boom = |_: ImageView<'_>, _: ImageView<'_>| Err::<bool, _>("abstract");
        assert_eq!(memo.step(0, 0, boom, || Err("boom")), Err("boom"));
        assert_eq!(memo.step(0, 0, boom, || Ok(true)), Ok(true));
        assert_eq!(
            memo.step(0, 0, boom, || unreachable!("remembered")),
            Ok(true)
        );
        drop(memo);
        // A state predicate is decided once per class too, from the
        // class's byte; its errors are not remembered either.
        let mut memo = Memo::new(&classes);
        let mut calls = 0u64;
        for _ in 0..2 {
            for s in 0..graph.len() {
                let at_least_two = graph.state(s).get(x) >= &Value::Int(2);
                let got = memo.state(
                    s,
                    |view| {
                        calls += 1;
                        Ok::<_, Infallible>(view.slot(x) >= Some(&Value::Int(2)))
                    },
                    || unreachable!("the abstract evaluation succeeds"),
                );
                assert_eq!(got, Ok(at_least_two));
            }
        }
        assert_eq!(calls, 4, "one evaluation per value of x");
        let mut memo = Memo::new(&classes);
        let boom = |_: ImageView<'_>| Err::<bool, _>("abstract");
        assert_eq!(memo.state(0, boom, || Err("boom")), Err("boom"));
        assert_eq!(memo.state(0, boom, || Ok(false)), Ok(false));
        assert_eq!(
            memo.state(0, boom, || unreachable!("remembered")),
            Ok(false)
        );
    }

    /// A memo with an ids program decides its misses on ids and tallies
    /// them; with a primed leaf of another shape it has none, and every
    /// miss runs the compiled program. The answers are the same.
    /// (Debug builds also run the compiled program on each miss decided
    /// on ids, to check it: so the tallies, not the calls, tell which
    /// tier decided.)
    #[test]
    fn misses_are_decided_on_ids_first() {
        let (sys, x, _) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        // x ↦ x ÷ 2: x̄′ = x̄ + 1 holds on half the increments.
        let half = images(
            &graph,
            &Substitution::new([(x, Expr::var(x).div(Expr::int(2)))]),
        );
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &half);
        let step = Expr::prime(x).eq(Expr::var(x).add(Expr::int(1)));
        let odd = Expr::prime(x).sub(Expr::int(1)).eq(Expr::var(x));
        let answers = |predicate: &Expr, calls: &mut u64| {
            let memo = &mut Memo::with_ids(&classes, std::slice::from_ref(predicate));
            let program = CompiledExpr::compile(predicate);
            let mut answers = Vec::new();
            for s in 0..graph.len() {
                for e in graph.edges(s) {
                    let got = memo.step(
                        s,
                        e.target as usize,
                        |old, new| {
                            *calls += 1;
                            program.holds_step(&old, &new, &mut EvalScratch::new())
                        },
                        || unreachable!("the abstract evaluation succeeds"),
                    );
                    answers.push(got.unwrap());
                }
            }
            answers
        };
        let (mut checked, mut compiled) = (0, 0);
        let decided = answers(&step, &mut checked);
        let tallied = classes.on_ids.load(Ordering::Relaxed);
        assert_eq!(tallied, classes.evaluated.load(Ordering::Relaxed));
        assert!(tallied > 0);
        let expected_checks = if cfg!(debug_assertions) { tallied } else { 0 };
        assert_eq!(checked, expected_checks, "every miss decided on ids");
        let plain = answers(&odd, &mut compiled);
        assert_eq!(decided, plain);
        assert_eq!(compiled, tallied, "no ids program: every miss compiled");
        assert_eq!(classes.on_ids.load(Ordering::Relaxed), tallied);
    }

    /// A leaf key of [`DENSE_BITS`] bits indexes its table, and the
    /// ids program decides as the compiled program does; one bit more
    /// leaves the predicate without an ids program. `x` counts through
    /// 0..=999 (10 bits) beside a bit `t` and a 4-bit `c`, constant at
    /// 9: a leaf over `x` and `c` has a 14-bit key, one over `x`, `c`
    /// and `t` a 15-bit key.
    #[test]
    fn leaf_keys_past_the_dense_bound_leave_no_ids_program() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 999));
        let t = vars.declare("t", Domain::bits());
        let c = vars.declare("c", Domain::int_range(0, 15));
        let incr = GuardedAction::new(
            "incr",
            Expr::bool(true),
            vec![(x, Expr::var(x).add(Expr::int(1)).rem(Expr::int(1000)))],
        );
        let toggle = GuardedAction::new(
            "toggle",
            Expr::var(x).rem(Expr::int(7)).eq(Expr::int(0)),
            vec![(t, Expr::int(1).sub(Expr::var(t)))],
        );
        let init = Init::new([(x, Value::Int(0)), (t, Value::Int(0)), (c, Value::Int(9))]);
        let graph = explore(
            &System::new(vars, init, vec![incr, toggle]),
            &ExploreOptions::default(),
        )
        .unwrap();
        let id = images(&graph, &Substitution::default());
        let sum = |vs: &[VarId]| vs.iter().fold(Expr::int(0), |e, &v| e.add(Expr::var(v)));
        let narrow = Expr::prime(x).eq(sum(&[x, c]).rem(Expr::int(1000)));
        let wide = sum(&[x, c, t]).rem(Expr::int(3)).eq(Expr::int(0));
        let step = narrow.clone().or(wide.clone());
        let classes = Classes::of_graph(&graph, &step.all_vars(), &id);
        let mut ids = IdsProgram::of_all(&classes, std::slice::from_ref(&narrow)).unwrap();
        assert_eq!(ids.tables.groups[0].keys, 1 << DENSE_BITS);
        let program = CompiledExpr::compile(&narrow);
        let scratch = &mut EvalScratch::new();
        for s in 0..graph.len() {
            for e in graph.edges(s) {
                let (old, new) = (graph.view(s), graph.view(e.target as usize));
                let expected = program.holds_step(&old, &new, scratch).unwrap();
                assert_eq!(
                    ids.step(s, e.target as usize),
                    Some(expected),
                    "{s} → {}",
                    e.target
                );
            }
        }
        assert!(IdsProgram::of_all(&classes, std::slice::from_ref(&wide)).is_none());
        assert!(IdsProgram::of_all(&classes, std::slice::from_ref(&step)).is_none());
    }

    /// Class ids past 2¹⁶: `x` counts (and wraps) through 70 001
    /// values beside a toggle, 140 002 states in 70 001 classes over
    /// `x`. Every class pair — `(n, n)` for a toggle, `(n, n + 1)` for
    /// an increment — is decided once, and answers apart.
    #[test]
    fn class_pairs_past_two_to_the_sixteen_are_told_apart() {
        const TOP: i64 = 70_000;
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, TOP));
        let t = vars.declare("t", Domain::bits());
        let incr = GuardedAction::new(
            "incr",
            Expr::bool(true),
            vec![(x, Expr::var(x).add(Expr::int(1)).rem(Expr::int(TOP + 1)))],
        );
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(t, Expr::int(1).sub(Expr::var(t)))],
        );
        let init = Init::new([(x, Value::Int(0)), (t, Value::Int(0))]);
        let sys = System::new(vars, init, vec![incr, toggle]);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 2 * (TOP as usize + 1));
        let id = images(&graph, &Substitution::default());
        let classes = Classes::of_graph(&graph, &[x].into_iter().collect(), &id);
        assert_eq!(classes.count(), TOP as usize + 1);
        assert!((0..graph.len()).any(|s| classes.get(s) > Some(1 << 16)));
        let mut memo = Memo::new(&classes);
        let mut calls = 0usize;
        let code = |s: usize| graph.layout().read_code(graph.row(s), x.index());
        for s in 0..graph.len() {
            for e in graph.edges(s) {
                let moved = code(s) != code(e.target as usize);
                let got = memo.step(
                    s,
                    e.target as usize,
                    |old, new| {
                        calls += 1;
                        Ok::<_, Infallible>(old.slot(x) != new.slot(x))
                    },
                    || unreachable!("the abstract evaluation succeeds"),
                );
                assert_eq!(got, Ok(moved), "{s} → {}", e.target);
            }
        }
        assert_eq!(calls, 2 * (TOP as usize + 1));
    }

    /// Keeps the `nanos` of every `image_memo` event.
    #[derive(Default)]
    struct MemoNanos(Mutex<Vec<u64>>);

    impl Recorder for MemoNanos {
        fn record(&self, event: &Event<'_>) {
            if let Event::ImageMemo { nanos, .. } = *event {
                self.0.lock().unwrap().push(nanos);
            }
        }
    }

    /// The images of a graph keep one class column per footprint: a
    /// second `Classes` of a footprint shares the first one's column and
    /// reports no pass of its own; another footprint runs its own pass.
    /// The default images keep none.
    #[test]
    fn one_class_pass_per_footprint() {
        let (sys, x, y) = counter_and_toggle();
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let half = Substitution::new([(x, Expr::var(x).div(Expr::int(2)))]);
        let images = images(&graph, &half);
        let nanos = Arc::new(MemoNanos::default());
        let recorder = RecorderHandle::new(nanos.clone());
        let report = |footprint: &[VarId], images: &Images| {
            let footprint: VarSet = footprint.iter().copied().collect();
            let classes = Classes::of_graph(&graph, &footprint, images);
            classes.report(&recorder, "simulation");
            (classes.count(), classes.column)
        };
        let (count, first) = report(&[x], &images);
        let (again, shared) = report(&[x], &images);
        assert_eq!((count, again), (2, 2));
        assert!(Arc::ptr_eq(&first, &shared));
        let (_, other) = report(&[x, y], &images);
        assert!(!Arc::ptr_eq(&first, &other));
        let passes = nanos.0.lock().unwrap().clone();
        assert!(passes[0] > 0 && passes[2] > 0, "{passes:?}");
        assert_eq!(passes[1], 0, "the second call ran no pass");
        // Two threads at once: one pass between them.
        let images = self::images(&graph, &half);
        let footprint: VarSet = [x].into_iter().collect();
        let columns = std::thread::scope(|scope| {
            let of = || Classes::of_graph(&graph, &footprint, &images).column;
            let theirs = scope.spawn(of);
            [of(), theirs.join().unwrap()]
        });
        assert!(Arc::ptr_eq(&columns[0], &columns[1]));
        let unmapped = Images::default();
        let (_, a) = report(&[x], &unmapped);
        let (_, b) = report(&[x], &unmapped);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    /// Keeps the `(evaluated, key_bits)` of every `image_pass` event.
    #[derive(Default)]
    struct Passes(Mutex<Vec<(u64, u64)>>);

    impl Recorder for Passes {
        fn record(&self, event: &Event<'_>) {
            if let Event::ImagePass {
                evaluated,
                key_bits,
                ..
            } = *event
            {
                self.0.lock().unwrap().push((evaluated, key_bits));
            }
        }
    }

    /// `images` as the reference has them: every column, `None` for
    /// an undefined image, and the two counts.
    fn as_reference(images: &Images) -> ValueImages {
        let columns = (images.columns.iter())
            .map(|(v, column)| {
                let ids = column.iter().map(|&id| (id != NONE).then_some(id));
                (*v, ids.collect())
            })
            .collect();
        ValueImages {
            columns,
            distinct_values: images.distinct_values(),
            undefined: images.undefined(),
        }
    }

    /// Keys past one word: 80 bit variables `b0..b79` filled one after
    /// the other (81 fill levels) beside a free toggle `t`, 162 states.
    /// `m ↦ Σ bᵢ` reads all 80 bits — an 80-bit image key, 81 images —
    /// and `t ↦ 1 ÷ b79` is undefined below the last level. Class keys
    /// of 80 codes, of 80 codes and a 7-bit image id, and of image ids
    /// alone, number images and classes as the passes over values do.
    #[test]
    fn keys_wider_than_a_word_number_as_the_values_do() {
        let mut vars = Vars::new();
        let bits: Vec<VarId> = (0..80)
            .map(|i| vars.declare(format!("b{i}"), Domain::bits()))
            .collect();
        let t = vars.declare("t", Domain::bits());
        let m = vars.declare("m", Domain::new(vec![Value::Int(0)]));
        let mut actions: Vec<GuardedAction> = (0..80)
            .map(|i| {
                let mut guard = Expr::var(bits[i]).eq(Expr::int(0));
                if i > 0 {
                    guard = guard.and(Expr::var(bits[i - 1]).eq(Expr::int(1)));
                }
                GuardedAction::new(format!("fill{i}"), guard, vec![(bits[i], Expr::int(1))])
            })
            .collect();
        actions.push(GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(t, Expr::int(1).sub(Expr::var(t)))],
        ));
        let init = (bits.iter().chain([&t, &m])).map(|&v| (v, Value::Int(0)));
        let sys = System::new(vars, Init::new(init), actions);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 162);
        let sum = bits.iter().fold(Expr::int(0), |e, &b| e.add(Expr::var(b)));
        let mapping = Substitution::new([(m, sum), (t, Expr::int(1).div(Expr::var(bits[79])))]);
        let passes = Arc::new(Passes::default());
        let images = Images::of_graph(&graph, &mapping, &RecorderHandle::new(passes.clone()));
        let reference = value_images(graph.states(), &mapping);
        assert_eq!(as_reference(&images), reference);
        assert_eq!((reference.distinct_values, reference.undefined), (81, 160));
        // 81 sums and the two keys of b79, each evaluated once.
        assert_eq!(*passes.0.lock().unwrap(), [(83, 80)]);
        // Unmapped, `t` is an 81st code: every state its own class.
        let (unmapped, no_images) = (
            Images::default(),
            value_images(graph.states(), &Substitution::default()),
        );
        let with_t: Vec<VarId> = bits.iter().copied().chain([t]).collect();
        let footprints = [
            (bits.clone(), &images, &reference, 81, false),
            (
                bits.iter().copied().chain([m]).collect(),
                &images,
                &reference,
                81,
                false,
            ),
            (with_t.clone(), &images, &reference, 1, false),
            (vec![m, t], &images, &reference, 1, false),
            (with_t, &unmapped, &no_images, 162, true),
        ];
        for (footprint, images, reference, count, skipped) in footprints {
            let footprint: VarSet = footprint.into_iter().collect();
            let classes = Classes::of_graph(&graph, &footprint, images);
            let expected = value_classes(graph.states(), &footprint, reference);
            let of: Vec<Option<u32>> = (0..graph.len()).map(|id| classes.get(id)).collect();
            assert_eq!(of, expected.of, "{} variables", footprint.len());
            assert_eq!((classes.count(), classes.skipped()), (count, skipped));
            assert_eq!((expected.count, expected.skipped), (count, skipped));
        }
    }
}
