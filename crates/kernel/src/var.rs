//! Flexible variables, variable sets, and finite domains.

use crate::Value;
use std::collections::HashSet;
use std::fmt;

/// An interned flexible variable.
///
/// Variables are declared in a [`Vars`] registry, which owns their names
/// and (optional) finite domains; a `VarId` is a cheap copyable handle.
///
/// # Example
///
/// ```
/// use opentla_kernel::{Vars, Domain};
/// let mut vars = Vars::new();
/// let x = vars.declare("x", Domain::bits());
/// assert_eq!(vars.name(x), "x");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// The position of this variable in its registry (and in every
    /// [`crate::State`] built against that registry).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VarId({})", self.0)
    }
}

/// A finite, ordered domain of values for a variable.
///
/// Domains drive state enumeration in the model checker and bounded
/// witness search in the semantics engine. The order is the enumeration
/// order, which makes exploration (and therefore counterexamples)
/// deterministic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Domain {
    values: Vec<Value>,
}

impl Domain {
    /// A domain from an explicit list of values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains duplicates: every
    /// variable must be able to take at least one value, and duplicate
    /// entries would silently skew enumeration counts.
    pub fn new(values: Vec<Value>) -> Self {
        assert!(!values.is_empty(), "domain must be nonempty");
        let mut seen = HashSet::with_capacity(values.len());
        for v in &values {
            assert!(seen.insert(v), "domain contains duplicate value {v}");
        }
        Domain { values }
    }

    /// The two-element domain `{0, 1}` used for handshake bits.
    pub fn bits() -> Self {
        Domain::int_range(0, 1)
    }

    /// The boolean domain `{FALSE, TRUE}`.
    pub fn booleans() -> Self {
        Domain::new(vec![Value::Bool(false), Value::Bool(true)])
    }

    /// The integer interval `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_range(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty integer range {lo}..={hi}");
        Domain::new((lo..=hi).map(Value::Int).collect())
    }

    /// All sequences over `elems` of length at most `max_len`, shortest
    /// first. This is the domain of a bounded queue's content variable.
    pub fn seqs_up_to(elems: &Domain, max_len: usize) -> Self {
        let mut out: Vec<Value> = vec![Value::empty_seq()];
        let mut layer: Vec<Vec<Value>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for prefix in &layer {
                for e in elems.iter() {
                    let mut s = prefix.clone();
                    s.push(e.clone());
                    out.push(Value::seq(s.clone()));
                    next.push(s);
                }
            }
            layer = next;
        }
        Domain::new(out)
    }

    /// The values of the domain, in enumeration order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over the values in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: domains are nonempty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `v` belongs to the domain.
    pub fn contains(&self, v: &Value) -> bool {
        self.values.contains(v)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// The registry of declared variables: names and domains.
///
/// All states, expressions, and formulas in one verification problem
/// share a single `Vars`; a [`VarId`] indexes into it.
#[derive(Clone, Debug, Default)]
pub struct Vars {
    names: Vec<String>,
    domains: Vec<Domain>,
}

impl Vars {
    /// An empty registry.
    pub fn new() -> Self {
        Vars::default()
    }

    /// Declares a fresh variable with the given name and domain.
    ///
    /// Names are for diagnostics only and need not be unique, though
    /// unique names make counterexamples far easier to read.
    pub fn declare(&mut self, name: impl Into<String>, domain: Domain) -> VarId {
        let id = VarId(u32::try_from(self.names.len()).expect("too many variables"));
        self.names.push(name.into());
        self.domains.push(domain);
        id
    }

    /// The name of a declared variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not declared in this registry.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// The domain of a declared variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not declared in this registry.
    pub fn domain(&self, v: VarId) -> &Domain {
        &self.domains[v.index()]
    }

    /// Looks a variable up by name (first match).
    pub fn find(&self, name: &str) -> Option<VarId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variables have been declared.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all declared variables.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len()).map(|i| VarId(i as u32))
    }

    /// The number of states in the full domain product, if it fits in a
    /// `u128`.
    pub fn state_space_size(&self) -> Option<u128> {
        let mut n: u128 = 1;
        for d in &self.domains {
            n = n.checked_mul(d.len() as u128)?;
        }
        Some(n)
    }
}

/// A set of variables, stored as a bitset.
///
/// Used for free-variable computations and for the tuples of variables
/// that subscript `□[A]_v`, `WF_v`, and `+v`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct VarSet {
    bits: Vec<u64>,
}

impl VarSet {
    /// The empty set.
    pub fn new() -> Self {
        VarSet::default()
    }

    /// Inserts a variable; returns whether it was newly added.
    pub fn insert(&mut self, v: VarId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let newly = self.bits[w] & (1 << b) == 0;
        self.bits[w] |= 1 << b;
        newly
    }

    /// Whether the set contains `v`.
    pub fn contains(&self, v: VarId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Adds every variable of `other`.
    pub fn union_with(&mut self, other: &VarSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
    }

    /// Whether the two sets share no variable.
    pub fn is_disjoint(&self, other: &VarSet) -> bool {
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & b == 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &VarSet) -> bool {
        self.bits
            .iter()
            .enumerate()
            .all(|(i, a)| a & !other.bits.get(i).copied().unwrap_or(0) == 0)
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Iterates over the members in index order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| VarId((w * 64 + b) as u32))
        })
    }
}

impl FromIterator<VarId> for VarSet {
    fn from_iter<I: IntoIterator<Item = VarId>>(iter: I) -> Self {
        let mut s = VarSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<VarId> for VarSet {
    fn extend<I: IntoIterator<Item = VarId>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|v| v.index())).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let y = vars.declare("y", Domain::int_range(0, 2));
        assert_eq!(vars.name(x), "x");
        assert_eq!(vars.name(y), "y");
        assert_eq!(vars.find("y"), Some(y));
        assert_eq!(vars.find("z"), None);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars.state_space_size(), Some(6));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn domain_rejects_duplicates() {
        Domain::new(vec![Value::Int(1), Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn domain_rejects_empty() {
        Domain::new(vec![]);
    }

    #[test]
    fn seq_domain_counts() {
        // Sequences over {0,1} of length ≤ 2: ⟨⟩, ⟨0⟩, ⟨1⟩, 4 pairs = 7.
        let d = Domain::seqs_up_to(&Domain::bits(), 2);
        assert_eq!(d.len(), 7);
        assert!(d.contains(&Value::empty_seq()));
        assert!(d.contains(&Value::seq(vec![Value::Int(1), Value::Int(0)])));
        // Shortest-first enumeration order.
        assert_eq!(d.values()[0], Value::empty_seq());
    }

    #[test]
    fn varset_basics() {
        let mut vars = Vars::new();
        let ids: Vec<VarId> = (0..70)
            .map(|i| vars.declare(format!("v{i}"), Domain::bits()))
            .collect();
        let mut s = VarSet::new();
        assert!(s.insert(ids[0]));
        assert!(s.insert(ids[65]));
        assert!(!s.insert(ids[0]));
        assert!(s.contains(ids[65]));
        assert!(!s.contains(ids[64]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![ids[0], ids[65]]);

        let t: VarSet = [ids[1], ids[64]].into_iter().collect();
        assert!(s.is_disjoint(&t));
        let mut u = s.clone();
        u.union_with(&t);
        assert_eq!(u.len(), 4);
        assert!(s.is_subset(&u));
        assert!(!u.is_subset(&s));
    }

    #[test]
    fn varset_empty() {
        let s = VarSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.is_disjoint(&VarSet::new()));
        assert!(s.is_subset(&VarSet::new()));
    }
}
