//! The image and class passes over `Value` trees: what
//! `opentla_check::image` computed before it keyed on slot codes, kept
//! as the reference the code-keyed passes are compared with. Each state
//! is a [`State`]; a mapped variable's image is interpreted
//! (`Expr::eval_state`) at every state and interned by value, and a
//! class is the interned tuple of the footprint's values — a mapped
//! variable's image id, an unmapped one's value id — numbered in state
//! order. Only `opentla-kernel` is used, so the check crate's own unit
//! tests include this file too.

use opentla_kernel::{State, Substitution, Value, VarId, VarSet};
use std::collections::HashMap;

/// The images of every state under a mapping.
#[derive(Debug, PartialEq, Eq)]
pub struct ValueImages {
    /// Per mapped variable, ascending: per state, the id of its image
    /// among the distinct values in first-seen order, `None` where the
    /// evaluation erred.
    pub columns: Vec<(VarId, Vec<Option<u32>>)>,
    pub distinct_values: usize,
    pub undefined: u64,
}

impl ValueImages {
    fn column(&self, v: VarId) -> Option<&[Option<u32>]> {
        (self.columns.iter())
            .find(|(mapped, _)| *mapped == v)
            .map(|(_, column)| &column[..])
    }
}

/// Interns `value` into `ids` in first-seen order.
fn intern(ids: &mut HashMap<Value, u32>, value: &Value) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(value.clone()).or_insert(next)
}

/// Every state's image under every mapped variable of `mapping`, one
/// value interner across all of them, states in order and each state's
/// mapped variables ascending.
pub fn value_images(states: &[State], mapping: &Substitution) -> ValueImages {
    let mapped: Vec<VarId> = mapping.domain().collect();
    let mut columns: Vec<(VarId, Vec<Option<u32>>)> =
        mapped.iter().map(|v| (*v, Vec::new())).collect();
    let mut ids = HashMap::new();
    let mut undefined = 0;
    for s in states {
        for (v, column) in &mut columns {
            let image = mapping.get(*v).expect("a mapped variable").eval_state(s);
            column.push(image.ok().map(|value| intern(&mut ids, &value)));
            undefined += u64::from(column.last() == Some(&None));
        }
    }
    ValueImages {
        columns,
        distinct_values: ids.len(),
        undefined,
    }
}

/// Every state's class over a footprint.
#[derive(Debug, PartialEq, Eq)]
pub struct ValueClasses {
    /// Per state, its class; `None` without one, and everywhere when
    /// skipped.
    pub of: Vec<Option<u32>>,
    pub count: usize,
    /// No two states share a class.
    pub skipped: bool,
}

/// Every state's class: the tuple, in footprint order, of each mapped
/// variable's image id and each unmapped variable's value id, numbered
/// in state order. A state where some image is undefined or some
/// unmapped variable has no slot has no class.
pub fn value_classes(states: &[State], footprint: &VarSet, images: &ValueImages) -> ValueClasses {
    let mut values = HashMap::new();
    let mut keys: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut of = Vec::with_capacity(states.len());
    for (id, s) in states.iter().enumerate() {
        let key: Option<Vec<u32>> = footprint
            .iter()
            .map(|v| match images.column(v) {
                Some(column) => column[id],
                None => s.try_get(v).map(|value| intern(&mut values, value)),
            })
            .collect();
        of.push(key.map(|key| {
            let next = keys.len() as u32;
            *keys.entry(key).or_insert(next)
        }));
    }
    let count = keys.len();
    let skipped = count == of.iter().flatten().count();
    if skipped {
        of.iter_mut().for_each(|class| *class = None);
    }
    ValueClasses { of, count, skipped }
}
