//! Cupid's thresholds and control parameters (Table 1 of the paper).
//!
//! The defaults are exactly the "Typical Value" column of Table 1; every
//! knob is public and documented with the paper's own description of how
//! it should be set.

use cupid_lexical::strsim::AffixConfig;
use cupid_lexical::TokenType;
use cupid_model::ExpandOptions;

use crate::types_compat::TypeCompatibility;

/// Per-token-type weights for the element-level name similarity (§5.3):
/// *"Content and concept tokens are assigned a greater weight (wi) since
/// these token types are more relevant than numbers and conjunctions,
/// prepositions, etc."*
///
/// The weights are relative; the name-similarity formula normalizes by
/// the weighted token mass, so they need not sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenTypeWeights {
    /// Weight of `Content` tokens.
    pub content: f64,
    /// Weight of `Concept` tokens.
    pub concept: f64,
    /// Weight of `Number` tokens.
    pub number: f64,
    /// Weight of `SpecialSymbol` tokens.
    pub special: f64,
    /// Weight of `CommonWord` tokens. Zero reproduces the "marked to be
    /// ignored during comparison" behaviour of §5.1.
    pub common: f64,
}

impl Default for TokenTypeWeights {
    fn default() -> Self {
        TokenTypeWeights { content: 1.0, concept: 1.0, number: 0.5, special: 0.25, common: 0.0 }
    }
}

impl TokenTypeWeights {
    /// Weight for a token type.
    #[inline]
    pub fn weight(&self, t: TokenType) -> f64 {
        match t {
            TokenType::Number => self.number,
            TokenType::SpecialSymbol => self.special,
            TokenType::CommonWord => self.common,
            TokenType::Concept => self.concept,
            TokenType::Content => self.content,
        }
    }
}

/// All control parameters of the Cupid algorithm. Defaults follow
/// Table 1.
#[derive(Debug, Clone)]
pub struct CupidConfig {
    /// `thns` — name-similarity threshold for determining compatible
    /// categories. *"The choice of value is not critical, as it is used
    /// merely for pruning the number of element-to-element linguistic
    /// comparisons."* (Table 1: 0.5)
    pub th_ns: f64,
    /// `thhigh` — if `wsim(s,t) ≥ thhigh` the structural similarity of all
    /// leaf pairs under `s` and `t` is increased. *"Should be greater than
    /// thaccept."* (Table 1: 0.6)
    pub th_high: f64,
    /// `thlow` — if `wsim(s,t) ≤ thlow` the structural similarity of leaf
    /// pairs is decreased. *"Should be less than thaccept."* (Table 1:
    /// 0.35)
    pub th_low: f64,
    /// `cinc` — multiplicative increase factor for leaf structural
    /// similarities. *"Typically a function of maximum schema depth."*
    /// (Table 1: 1.2)
    pub c_inc: f64,
    /// `cdec` — multiplicative decrease factor, *"typically about
    /// cinc⁻¹"*. (Table 1: 0.9)
    pub c_dec: f64,
    /// `thaccept` — `wsim(s,t) ≥ thaccept` for a strong link or a valid
    /// mapping element. (Table 1: 0.5)
    pub th_accept: f64,
    /// `wstruct` for non-leaf pairs — structural contribution to `wsim`.
    /// (Table 1: 0.5–0.6, *"lower for leaf-leaf pairs than for non-leaf
    /// pairs"*; default 0.6)
    pub w_struct: f64,
    /// `wstruct` for leaf-leaf pairs. (default 0.5)
    pub w_struct_leaf: f64,
    /// Leaf-count pruning (§6): only compare elements whose subtree leaf
    /// counts are *"within a factor of 2"*. `None` disables pruning.
    pub leaf_ratio_prune: Option<f64>,
    /// §8.4 "Pruning leaves": consider only leaves within depth `k` of the
    /// node being compared. `None` uses full leaf sets.
    pub leaf_depth_limit: Option<u32>,
    /// §8.4 "Optionality": drop optional leaves with no strong links from
    /// both numerator and denominator of `ssim`.
    pub use_optionality: bool,
    /// Linguistic similarity assigned to pairs named in a user-supplied
    /// initial mapping (§8.4: *"initialized to a predefined maximum
    /// value"*).
    pub initial_mapping_lsim: f64,
    /// Per-token-type weights for name similarity (§5.3).
    pub token_weights: TokenTypeWeights,
    /// Affix (substring) matching fallback parameters (§5.2).
    pub affix: AffixConfig,
    /// Data-type compatibility table (§6).
    pub type_compat: TypeCompatibility,
    /// Schema expansion options: join-view/view reification (§8.3, §8.4).
    pub expand: ExpandOptions,
}

impl Default for CupidConfig {
    fn default() -> Self {
        CupidConfig {
            th_ns: 0.5,
            th_high: 0.6,
            th_low: 0.35,
            c_inc: 1.2,
            c_dec: 0.9,
            th_accept: 0.5,
            w_struct: 0.6,
            w_struct_leaf: 0.5,
            leaf_ratio_prune: Some(2.0),
            leaf_depth_limit: None,
            use_optionality: true,
            initial_mapping_lsim: 1.0,
            token_weights: TokenTypeWeights::default(),
            affix: AffixConfig::default(),
            type_compat: TypeCompatibility::default(),
            expand: ExpandOptions::all(),
        }
    }
}

impl CupidConfig {
    /// Deterministic 64-bit fingerprint of every control parameter —
    /// thresholds and factors by exact bit pattern, token weights,
    /// affix and type-compatibility tables, expansion options. Two
    /// configs with the same fingerprint produce bit-identical match
    /// results on the same inputs, so the repository stores this next
    /// to each snapshot and treats any mismatch as "the persisted memo
    /// and pair cache are for a different matcher" (DESIGN.md §8).
    pub fn fingerprint(&self) -> u64 {
        let mut w = cupid_model::WireWriter::new();
        // Layout version: bump when fields are added/reordered so old
        // fingerprints can never collide with new ones by accident.
        w.put_u32(1);
        for v in [
            self.th_ns,
            self.th_high,
            self.th_low,
            self.c_inc,
            self.c_dec,
            self.th_accept,
            self.w_struct,
            self.w_struct_leaf,
            self.initial_mapping_lsim,
        ] {
            w.put_f64(v);
        }
        match self.leaf_ratio_prune {
            Some(r) => {
                w.put_bool(true);
                w.put_f64(r);
            }
            None => w.put_bool(false),
        }
        match self.leaf_depth_limit {
            Some(k) => {
                w.put_bool(true);
                w.put_u32(k);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.use_optionality);
        for v in [
            self.token_weights.content,
            self.token_weights.concept,
            self.token_weights.number,
            self.token_weights.special,
            self.token_weights.common,
        ] {
            w.put_f64(v);
        }
        w.put_u32(self.affix.min_affix_len as u32);
        w.put_f64(self.affix.max_score);
        self.type_compat.fingerprint_into(&mut w);
        w.put_bool(self.expand.join_views);
        w.put_bool(self.expand.views);
        cupid_model::fnv1a(w.bytes())
    }

    /// The `wstruct` to use for a pair, depending on whether both sides
    /// are leaves.
    #[inline]
    pub fn w_struct_for(&self, both_leaves: bool) -> f64 {
        if both_leaves {
            self.w_struct_leaf
        } else {
            self.w_struct
        }
    }

    /// Validate the threshold ordering invariants stated in Table 1:
    /// `thlow < thaccept ≤ thhigh`, factors positive, weights in `[0,1]`.
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let in01 = |name: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} = {v} outside [0,1]"))
            }
        };
        in01("th_ns", self.th_ns)?;
        in01("th_high", self.th_high)?;
        in01("th_low", self.th_low)?;
        in01("th_accept", self.th_accept)?;
        in01("w_struct", self.w_struct)?;
        in01("w_struct_leaf", self.w_struct_leaf)?;
        in01("initial_mapping_lsim", self.initial_mapping_lsim)?;
        if self.th_high < self.th_accept {
            return Err(format!(
                "th_high ({}) should be ≥ th_accept ({})",
                self.th_high, self.th_accept
            ));
        }
        if self.th_low >= self.th_accept {
            return Err(format!(
                "th_low ({}) should be < th_accept ({})",
                self.th_low, self.th_accept
            ));
        }
        if self.c_inc < 1.0 {
            return Err(format!("c_inc ({}) should be ≥ 1", self.c_inc));
        }
        if !(0.0..=1.0).contains(&self.c_dec) {
            return Err(format!("c_dec ({}) should be in [0,1]", self.c_dec));
        }
        if let Some(r) = self.leaf_ratio_prune {
            if r < 1.0 {
                return Err(format!("leaf_ratio_prune ({r}) should be ≥ 1"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let c = CupidConfig::default();
        assert_eq!(c.th_ns, 0.5);
        assert_eq!(c.th_high, 0.6);
        assert_eq!(c.th_low, 0.35);
        assert_eq!(c.c_inc, 1.2);
        assert_eq!(c.c_dec, 0.9);
        assert_eq!(c.th_accept, 0.5);
        assert_eq!(c.w_struct, 0.6);
        assert_eq!(c.w_struct_leaf, 0.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn w_struct_lower_for_leaves() {
        let c = CupidConfig::default();
        assert!(c.w_struct_for(true) <= c.w_struct_for(false));
    }

    #[test]
    fn validate_catches_threshold_inversions() {
        let mut c = CupidConfig::default();
        c.th_high = 0.4; // below th_accept
        assert!(c.validate().is_err());

        let mut c = CupidConfig::default();
        c.th_low = 0.7; // above th_accept
        assert!(c.validate().is_err());

        let mut c = CupidConfig::default();
        c.c_inc = 0.5;
        assert!(c.validate().is_err());

        let mut c = CupidConfig::default();
        c.leaf_ratio_prune = Some(0.5);
        assert!(c.validate().is_err());
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = CupidConfig::default().fingerprint();
        assert_eq!(base, CupidConfig::default().fingerprint(), "fingerprint is deterministic");
        let mut c = CupidConfig::default();
        c.th_accept = 0.55;
        assert_ne!(c.fingerprint(), base);
        let mut c = CupidConfig::default();
        c.leaf_depth_limit = Some(3);
        assert_ne!(c.fingerprint(), base);
        let mut c = CupidConfig::default();
        c.token_weights.number = 0.75;
        assert_ne!(c.fingerprint(), base);
        let mut c = CupidConfig::default();
        c.affix.min_affix_len = 4;
        assert_ne!(c.fingerprint(), base);
        let mut c = CupidConfig::default();
        c.type_compat.set_override(cupid_model::DataType::Int, cupid_model::DataType::Money, 0.45);
        assert_ne!(c.fingerprint(), base);
        c.type_compat.set_override(cupid_model::DataType::Date, cupid_model::DataType::String, 0.2);
        assert_eq!(c.fingerprint(), 0x0a14_4053_39e3_1dcb, "two overrides' recorded value");
        let mut c = CupidConfig::default();
        c.expand = ExpandOptions::none();
        assert_ne!(c.fingerprint(), base);
    }

    #[test]
    fn common_word_weight_zero_by_default() {
        let w = TokenTypeWeights::default();
        assert_eq!(w.weight(TokenType::CommonWord), 0.0);
        assert!(w.weight(TokenType::Content) > w.weight(TokenType::Number));
    }
}
