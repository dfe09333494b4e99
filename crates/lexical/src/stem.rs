//! A conservative English suffix stemmer.
//!
//! Section 5.1 of the paper puts names *"into a canonical form by stemming
//! and tokenization"*, and Section 9.3 notes that *"the tokenization done
//! by Cupid, followed by stemming"* helps select word meanings. Schema
//! element names are dominated by noun plurals (`Lines`/`Line`,
//! `Items`/`Item`, `Territories`/`Territory`) and a few verbal forms
//! (`Shipping`/`Ship`, `Billing`/`Bill`), so we implement a deliberately
//! conservative stemmer: plural reduction plus `-ing`/`-ed` stripping with
//! consonant-doubling repair. Over-stemming is worse than under-stemming
//! for matching — a false token merge produces false element matches —
//! so every rule requires a minimum remaining stem length.
//!
//! Every rule keeps a prefix of its input except `-ies` → `-y`, so
//! [`stem`] borrows that prefix and allocates only to append the `y`.
//! The stemmer is not idempotent: `speedings` stems to `speed`, and
//! `speed` to `spe`.

use std::borrow::Cow;

/// Stem a single lower-case token.
///
/// The input is expected to be lower case ASCII (the tokenizer guarantees
/// this); non-ASCII input is returned unchanged. Only an `-ies` plural
/// allocates; every other stem borrows a prefix of `token`.
///
/// ```
/// use cupid_lexical::stem;
/// assert_eq!(stem("lines"), "line");
/// assert_eq!(stem("items"), "item");
/// assert_eq!(stem("territories"), "territory");
/// assert_eq!(stem("shipping"), "ship");
/// assert_eq!(stem("address"), "address"); // -ss is not a plural
/// ```
pub fn stem(token: &str) -> Cow<'_, str> {
    match stem_prefix(token) {
        (kept, false) => Cow::Borrowed(kept),
        (kept, true) => Cow::Owned(format!("{kept}y")),
    }
}

/// The stem of `token` as the prefix of it that the rules keep, and
/// whether the `-ies` rule appends a `y` to that prefix.
pub(crate) fn stem_prefix(token: &str) -> (&str, bool) {
    if !token.is_ascii() || token.len() < 3 {
        return (token, false);
    }
    match step_plural(token) {
        // A `-y` stem cannot end in `-ing` or `-ed`.
        (base, true) => (base, true),
        (kept, false) => (step_ing_ed(kept), false),
    }
}

/// Plural reduction: `-ies` → `-y`, `-sses`/`-xes`/`-ches`/`-shes` → drop
/// `es`, generic `-s` → drop (but never `-ss` or `-us`). Returns the kept
/// prefix and whether a `y` follows it.
fn step_plural(s: &str) -> (&str, bool) {
    if let Some(base) = s.strip_suffix("ies") {
        if base.len() >= 2 {
            return (base, true);
        }
    }
    for es_suffix in ["sses", "xes", "ches", "shes", "zes"] {
        if let Some(base) = s.strip_suffix(es_suffix) {
            // keep everything except the trailing "es"
            let keep = &s[..base.len() + es_suffix.len() - 2];
            if keep.len() >= 2 {
                return (keep, false);
            }
        }
    }
    if s.ends_with('s') && !s.ends_with("ss") && !s.ends_with("us") && !s.ends_with("is") {
        let base = &s[..s.len() - 1];
        if base.len() >= 2 {
            return (base, false);
        }
    }
    (s, false)
}

/// Strip `-ing` / `-ed`, repairing doubled consonants (`shipping` →
/// `shipp` → `ship`). Requires at least three characters of stem and at
/// least one vowel in the remainder, so `string` and `red` survive.
fn step_ing_ed(s: &str) -> &str {
    for suffix in ["ing", "ed"] {
        if let Some(base) = s.strip_suffix(suffix) {
            if base.len() >= 3 && contains_vowel(base) {
                let b = base.as_bytes();
                let n = b.len();
                // undo consonant doubling: shipp -> ship, billl never occurs
                if n >= 2
                    && b[n - 1] == b[n - 2]
                    && !is_vowel(b[n - 1])
                    && b[n - 1] != b's'
                    && b[n - 1] != b'l'
                    && b[n - 1] != b'z'
                {
                    return &base[..n - 1];
                }
                return base;
            }
        }
    }
    s
}

#[inline]
fn is_vowel(b: u8) -> bool {
    matches!(b, b'a' | b'e' | b'i' | b'o' | b'u')
}

fn contains_vowel(s: &str) -> bool {
    s.bytes().any(is_vowel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plurals_from_the_paper_figures() {
        // Figure 1 / Figure 2 / Figure 7 vocabulary
        assert_eq!(stem("lines"), "line");
        assert_eq!(stem("items"), "item");
        assert_eq!(stem("orders"), "order");
        assert_eq!(stem("customers"), "customer");
        assert_eq!(stem("products"), "product");
        assert_eq!(stem("territories"), "territory");
        assert_eq!(stem("brands"), "brand");
        assert_eq!(stem("employees"), "employee");
        assert_eq!(stem("methods"), "method");
    }

    #[test]
    fn non_plurals_survive() {
        assert_eq!(stem("address"), "address");
        assert_eq!(stem("status"), "status");
        assert_eq!(stem("analysis"), "analysis");
        assert_eq!(stem("ss"), "ss");
    }

    #[test]
    fn es_plurals() {
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("addresses"), "address");
        assert_eq!(stem("branches"), "branch");
    }

    #[test]
    fn ing_and_ed_forms() {
        assert_eq!(stem("shipping"), "ship");
        assert_eq!(stem("billing"), "bill");
        assert_eq!(stem("invited"), "invit");
        assert_eq!(stem("deliver"), "deliver");
    }

    #[test]
    fn short_and_vowelless_tokens_untouched() {
        assert_eq!(stem("id"), "id");
        assert_eq!(stem("po"), "po");
        assert_eq!(stem("string"), "string"); // str has no vowel
        assert_eq!(stem("ing"), "ing");
    }

    #[test]
    fn ies_plural_keeps_y() {
        assert_eq!(stem("cities"), "city");
        assert_eq!(stem("quantities"), "quantity");
    }

    #[test]
    fn not_idempotent_in_general() {
        // `-ings` loses `s` and then `ing`; the stem left ends in `-ed`,
        // which a second pass strips. Thesaurus lookups canonicalize
        // their input again for this reason, canonical tokens included.
        assert_eq!(stem("speedings"), "speed");
        assert_eq!(stem("speed"), "spe");
    }

    #[test]
    fn idempotent_on_paper_vocabulary() {
        // Only on the paper's vocabulary: see `not_idempotent_in_general`.
        for w in ["line", "item", "city", "ship", "address", "quantity", "territory"] {
            assert_eq!(stem(&stem(w)), stem(w), "stem not idempotent for {w}");
        }
    }

    #[test]
    fn non_ascii_passthrough() {
        assert_eq!(stem("straße"), "straße");
    }
}
