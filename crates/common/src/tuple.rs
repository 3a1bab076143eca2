//! Row representation.
//!
//! A [`Tuple`] is an immutable, reference-counted row of [`Value`]s. Cloning
//! one bumps a reference count, so the shared plan hands the same row from a
//! scan through every operator and out to every subscribed query without
//! copying it; the only writer, [`Tuple::values_mut`], copies on write. The
//! engine moves tuples between operators in *vectors* (batches) following the
//! vectorised execution model referenced in Section 3.2 of the paper; the
//! batch container lives in `shareddb-core`, this module only defines the
//! per-row type.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A single row of values, shared between its holders.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Creates an empty tuple.
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the tuple has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to the values. Copy-on-write: when the row is shared,
    /// this tuple first gets its own copy, so no other holder sees the edit.
    pub fn values_mut(&mut self) -> &mut [Value] {
        Arc::make_mut(&mut self.values)
    }

    /// Returns the values as an owned vector (a copy of the shared row).
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }

    /// Returns the value at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Concatenates two tuples (the output of a join).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }

    /// Returns a tuple consisting of the selected column indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Approximate heap footprint in bytes (used by memory accounting): the
    /// shared allocation, reference counts included, plus the values' own
    /// heap data. Every holder of a shared row counts the whole row, so a sum
    /// over holders overstates the memory of rows held more than once.
    pub fn heap_size(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<Value>()
            + self.values.iter().map(Value::heap_size).sum::<usize>()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl From<Arc<[Value]>> for Tuple {
    fn from(values: Arc<[Value]>) -> Self {
        Tuple { values }
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Builds a [`Tuple`] from a heterogeneous list of values, straight into the
/// row's shared allocation.
///
/// ```
/// use shareddb_common::{tuple, Value};
/// let t = tuple![1i64, "alice", 2.5f64];
/// assert_eq!(t[1], Value::text("alice"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from(::std::sync::Arc::<[$crate::Value]>::from([
            $($crate::Value::from($v)),*
        ]))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1i64, "bob", 3.5f64];
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(1), Some(&Value::text("bob")));
        assert_eq!(t.get(9), None);
        assert!(!t.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn concat_preserves_order() {
        let a = tuple![1i64, "x"];
        let b = tuple![2i64];
        let c = a.concat(&b);
        assert_eq!(
            c.values(),
            &[Value::Int(1), Value::text("x"), Value::Int(2)]
        );
    }

    #[test]
    fn project_reorders() {
        let t = tuple![10i64, 20i64, 30i64];
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let t = tuple![1i64, "a"];
        assert_eq!(t.to_string(), "[1, 'a']");
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (0..3).map(Value::from).collect();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn values_mut_on_a_clone_leaves_the_original_unchanged() {
        let original = tuple![1i64, "shared"];
        let mut copy = original.clone();
        copy.values_mut()[1] = Value::text("edited");
        assert_eq!(original, tuple![1i64, "shared"]);
        assert_eq!(copy, tuple![1i64, "edited"]);
    }

    #[test]
    fn ordering_is_lexicographic_over_values() {
        assert!(tuple![1i64, 2i64] < tuple![1i64, 3i64]);
        assert!(tuple![1i64] < tuple![1i64, 0i64]);
    }
}
