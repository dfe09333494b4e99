//! The data-type compatibility table (§6).
//!
//! *"The structural similarity of two leaves is initialized to the type
//! compatibility of their corresponding data types. This value ([0,0.5])
//! is a lookup in a compatibility table. Identical data types have a
//! compatibility of 0.5. (A max of 0.5 allows for later increases in
//! structural similarity.)"*
//!
//! Like the paper's prototype — §9.1 notes the tables are *"accessible
//! and tunable in the case of Cupid"* — the table has sensible defaults
//! and per-pair overrides.

use std::collections::HashMap;

use cupid_model::{BroadType, DataType};

/// Tunable data-type compatibility lookup, values in `[0, 0.5]`.
#[derive(Debug, Clone)]
pub struct TypeCompatibility {
    /// Identical data types (paper-mandated 0.5).
    pub identical: f64,
    /// Same broad class (e.g. `Int` vs `Decimal`).
    pub same_broad: f64,
    /// One side is `String`-like: strings can encode almost anything, so
    /// text is mildly compatible with other atomic classes.
    pub text_vs_other: f64,
    /// One side has no type information.
    pub unknown_vs_other: f64,
    /// Unrelated atomic classes (e.g. `Bool` vs `Date`).
    pub unrelated: f64,
    /// Explicit overrides, symmetric (stored in both orders).
    overrides: HashMap<(DataType, DataType), f64>,
}

impl Default for TypeCompatibility {
    fn default() -> Self {
        TypeCompatibility {
            identical: 0.5,
            same_broad: 0.4,
            text_vs_other: 0.25,
            unknown_vs_other: 0.25,
            unrelated: 0.1,
            overrides: HashMap::new(),
        }
    }
}

impl TypeCompatibility {
    /// Write the table's canonical encoding (defaults plus overrides,
    /// sorted by wire code so `HashMap` iteration order can't leak in)
    /// into a fingerprint writer — a component of
    /// [`crate::CupidConfig::fingerprint`].
    pub(crate) fn fingerprint_into(&self, w: &mut cupid_model::WireWriter) {
        use cupid_model::wire::data_type_code;
        for v in [self.identical, self.same_broad, self.text_vs_other, self.unknown_vs_other] {
            w.put_f64(v);
        }
        w.put_f64(self.unrelated);
        let mut overrides: Vec<(u8, u8, f64)> = self
            .overrides
            .iter()
            .map(|(&(a, b), &v)| (data_type_code(a), data_type_code(b), v))
            .collect();
        overrides.sort_by_key(|x| (x.0, x.1));
        w.put_list(overrides, |w, (a, b, v)| {
            w.put_u8(a);
            w.put_u8(b);
            w.put_f64(v);
        });
    }

    /// Install a symmetric override for a specific type pair. The value is
    /// clamped into `[0, 0.5]`.
    pub fn set_override(&mut self, a: DataType, b: DataType, value: f64) -> &mut Self {
        let v = value.clamp(0.0, 0.5);
        self.overrides.insert((a, b), v);
        self.overrides.insert((b, a), v);
        self
    }

    /// Compatibility of two atomic data types, in `[0, 0.5]`.
    ///
    /// `Complex` participates too: two structured elements are "type
    /// compatible" at the identical level (their similarity is decided by
    /// structure, not by this seed), while structured-vs-atomic is
    /// incompatible.
    pub fn compat(&self, a: DataType, b: DataType) -> f64 {
        if let Some(&v) = self.overrides.get(&(a, b)) {
            return v;
        }
        if a == b {
            return self.identical;
        }
        let (ba, bb) = (a.broad(), b.broad());
        if ba == BroadType::Complex || bb == BroadType::Complex {
            // structured vs atomic never matches on type
            return if ba == bb { self.identical } else { 0.0 };
        }
        if ba == bb {
            return self.same_broad;
        }
        if ba == BroadType::Unknown || bb == BroadType::Unknown {
            return self.unknown_vs_other;
        }
        if ba == BroadType::Text || bb == BroadType::Text {
            return self.text_vs_other;
        }
        self.unrelated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_types_score_half() {
        let t = TypeCompatibility::default();
        assert_eq!(t.compat(DataType::Int, DataType::Int), 0.5);
        assert_eq!(t.compat(DataType::String, DataType::String), 0.5);
    }

    #[test]
    fn same_broad_class() {
        let t = TypeCompatibility::default();
        assert_eq!(t.compat(DataType::Int, DataType::Decimal), 0.4);
        assert_eq!(t.compat(DataType::Date, DataType::DateTime), 0.4);
        assert_eq!(t.compat(DataType::Money, DataType::Float), 0.4);
    }

    #[test]
    fn canonical_example_2_string_vs_int_telephone() {
        // §9.1 test 2: telephone as string in one schema, integer in the
        // other — must still be matchable (non-zero compatibility).
        let t = TypeCompatibility::default();
        let c = t.compat(DataType::String, DataType::Int);
        assert!(c > 0.0 && c < 0.5);
    }

    #[test]
    fn complex_vs_atomic_incompatible() {
        let t = TypeCompatibility::default();
        assert_eq!(t.compat(DataType::Complex, DataType::Int), 0.0);
        assert_eq!(t.compat(DataType::Complex, DataType::Complex), 0.5);
    }

    #[test]
    fn overrides_win_and_clamp() {
        let mut t = TypeCompatibility::default();
        t.set_override(DataType::Bool, DataType::Int, 0.45);
        assert_eq!(t.compat(DataType::Bool, DataType::Int), 0.45);
        assert_eq!(t.compat(DataType::Int, DataType::Bool), 0.45);
        t.set_override(DataType::Bool, DataType::Date, 9.0);
        assert_eq!(t.compat(DataType::Bool, DataType::Date), 0.5); // clamped
    }

    #[test]
    fn all_values_within_range() {
        let t = TypeCompatibility::default();
        let all = [
            DataType::Unknown,
            DataType::String,
            DataType::Int,
            DataType::Decimal,
            DataType::Float,
            DataType::Money,
            DataType::Bool,
            DataType::Date,
            DataType::Time,
            DataType::DateTime,
            DataType::Binary,
            DataType::Identifier,
            DataType::Enumeration,
            DataType::Complex,
        ];
        for &a in &all {
            for &b in &all {
                let v = t.compat(a, b);
                assert!((0.0..=0.5).contains(&v), "compat({a:?},{b:?}) = {v}");
                assert_eq!(v, t.compat(b, a), "symmetry for ({a:?},{b:?})");
            }
        }
    }
}
