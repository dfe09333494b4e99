//! Golden TreeMatch output across configuration corners.
//!
//! `batch_equivalence` compares two callers of `tree_match` and
//! `lazy_equivalence` two drivers of the same TreeMatch state, so a
//! change inside TreeMatch passes both as long as it changes every
//! caller alike. This suite pins TreeMatch's own output instead. For
//! each schema pair and configuration corner it hashes:
//! - every bit of `leaf_ssim`, `ssim` and `wsim` from `tree_match` and
//!   from `tree_match_lazy`, with both runs' `TreeMatchStats` counters;
//! - the `StructuralContext` of every explanation of the pair.
//!
//! The pairs are the paper's four (with their experiment configs; the
//! relational one reifies join views, so DAGs are covered) and a seeded
//! set of synthetic pairs of 8–64 leaves. The corners are each pair's
//! base config plus `leaf_ratio_prune: None`, `use_optionality: false`
//! and `leaf_depth_limit` of 1 and 2.
//!
//! The digests in [`EXPECTED`] are recorded values: if one changes,
//! TreeMatch's output changed. A failure prints every digest in the
//! table's layout.

use cupid::core::{lazy, linguistic, treematch, CupidConfig, MatchSession, TreeMatchResult};
use cupid::corpus::synthetic::{generate, SyntheticConfig};
use cupid::corpus::{cidx_excel, fig1, fig2, star_rdb, thesauri};
use cupid::eval::configs;
use cupid::lexical::Thesaurus;
use cupid::model::{expand, fnv1a, Schema, WireWriter};

/// Recorded digests per pair, one per corner in [`CORNERS`] order.
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 5])] = &[
    ("fig1", [0xaa147045fe346001, 0x653055ceba93262d, 0xaa147045fe346001, 0x14e8d94bf4af8bd0, 0xc165846515c87400]),
    ("fig2", [0x8f4e6f687754d1d0, 0x12af7bc572512f8b, 0x8f4e6f687754d1d0, 0x8402613ab24ed7a1, 0x9c0dfa4c7a8f452b]),
    ("cidx_excel", [0xff8a7f67e5cbb00a, 0xaca91fff480dc76d, 0x11782590e3751bac, 0x34fe5b54be6f8577, 0x5b7258fec64c8600]),
    ("rdb_star", [0xa3fd97ebbd5775dd, 0x362888bf540f6265, 0x5a0df000a82a55fc, 0x927cdac66d36afc9, 0xa3fd97ebbd5775dd]),
    ("synthetic_8", [0x2aa06a5aca261e8e, 0xd7d49131db51bf06, 0x2aa06a5aca261e8e, 0xa5ca96c640723f75, 0xc1d6d85a1defeab0]),
    ("synthetic_16", [0x4aaa549459808afe, 0xbb15898f2b2772de, 0x4aaa549459808afe, 0xcc5565bf0d08ab1c, 0x3413b1a936d9b21b]),
    ("synthetic_24", [0x7163c8565a774d8a, 0x217afeb9682f2ffc, 0x7163c8565a774d8a, 0x164a1b56bd446b47, 0xd324da01b8193778]),
    ("synthetic_32", [0xf9ef852cb7fd522d, 0xb88c4df504fd187e, 0xf9ef852cb7fd522d, 0xf7d4e3a84c033b80, 0xd53d8ecd9e3a680a]),
    ("synthetic_48", [0xecb94c823ce73c99, 0x009fc676e3e53e5e, 0xecb94c823ce73c99, 0xc2a5dec1e0f37a7b, 0x3fb019c1551e2a5b]),
    ("synthetic_64", [0x6ca5d69972ca8c24, 0xaa5f24fcc6fc3bf8, 0x6ca5d69972ca8c24, 0xf0769118a2efba61, 0x9ad09711e8ed2708]),
];

/// A named edit of a pair's base config.
type Corner = (&'static str, fn(&mut CupidConfig));

/// Configuration corners, applied on top of each pair's base config.
const CORNERS: [Corner; 5] = [
    ("base", |_| {}),
    ("no_prune", |c| c.leaf_ratio_prune = None),
    ("no_optionality", |c| c.use_optionality = false),
    ("depth_1", |c| c.leaf_depth_limit = Some(1)),
    ("depth_2", |c| c.leaf_depth_limit = Some(2)),
];

/// Synthetic pairs as (approximate leaves, generator seed).
const SYNTHETIC: [(usize, u64); 6] =
    [(8, 131), (16, 132), (24, 133), (32, 134), (48, 135), (64, 136)];

struct Case {
    name: String,
    source: Schema,
    target: Schema,
    thesaurus: Thesaurus,
    base: CupidConfig,
}

fn cases() -> Vec<Case> {
    let case = |name: &str, source, target, thesaurus, base| Case {
        name: name.to_string(),
        source,
        target,
        thesaurus,
        base,
    };
    let mut out = vec![
        case("fig1", fig1::po(), fig1::porder(), fig1::thesaurus(), configs::shallow_xml()),
        case(
            "fig2",
            fig2::po(),
            fig2::purchase_order(),
            thesauri::paper_thesaurus(),
            configs::shallow_xml(),
        ),
        case(
            "cidx_excel",
            cidx_excel::cidx(),
            cidx_excel::excel(),
            thesauri::paper_thesaurus(),
            configs::shallow_xml(),
        ),
        case(
            "rdb_star",
            star_rdb::rdb(),
            star_rdb::star(),
            thesauri::empty_thesaurus(),
            configs::relational(),
        ),
    ];
    for (leaves, seed) in SYNTHETIC {
        let p = generate(&SyntheticConfig::sized(leaves, seed));
        out.push(case(
            &format!("synthetic_{leaves}"),
            p.source,
            p.target,
            p.thesaurus,
            CupidConfig::default(),
        ));
    }
    out
}

fn put_result(w: &mut WireWriter, res: &TreeMatchResult) {
    for m in [&res.leaf_ssim, &res.ssim, &res.wsim] {
        w.put_len(m.rows());
        w.put_len(m.cols());
        for (_, _, v) in m.iter() {
            w.put_f64(v);
        }
    }
    let s = &res.stats;
    for n in [s.compared_pairs, s.pruned_pairs, s.increases, s.decreases, s.lazy_copied_pairs] {
        w.put_len(n);
    }
}

/// Digest of one pair under one configuration.
fn digest(case: &Case, cfg: &CupidConfig) -> u64 {
    let (s1, s2) = (&case.source, &case.target);
    let t1 = expand(s1, &cfg.expand).unwrap();
    let t2 = expand(s2, &cfg.expand).unwrap();
    let la = linguistic::analyze(s1, s2, &case.thesaurus, cfg);
    let mut w = WireWriter::new();
    put_result(&mut w, &treematch::tree_match(&t1, &t2, &la.lsim, cfg));
    put_result(&mut w, &lazy::tree_match_lazy(&t1, &t2, &la.lsim, cfg));

    let mut session = MatchSession::new(cfg, &case.thesaurus);
    let (a, b) = (session.add(s1).unwrap(), session.add(s2).unwrap());
    let explanation = session.explain_pair(a, b);
    w.put_len(explanation.mappings.len());
    for e in &explanation.mappings {
        let st = &e.structure;
        w.put_len(e.source.index());
        w.put_len(e.target.index());
        for n in
            [st.source_leaves, st.target_leaves, st.source_strong_links, st.target_strong_links]
        {
            w.put_len(n);
        }
        w.put_f64(st.main_pass_wsim);
        for flag in [st.pruned, st.increased, st.decreased] {
            w.put_bool(flag);
        }
    }
    fnv1a(w.bytes())
}

#[test]
fn treematch_output_matches_recorded_digests() {
    let mut actual: Vec<(String, [u64; 5])> = Vec::new();
    for case in cases() {
        let mut row = [0u64; 5];
        for (slot, (_, corner)) in row.iter_mut().zip(CORNERS) {
            let mut cfg = case.base.clone();
            corner(&mut cfg);
            *slot = digest(&case, &cfg);
        }
        actual.push((case.name, row));
    }
    let expected: Vec<(String, [u64; 5])> =
        EXPECTED.iter().map(|&(name, row)| (name.to_string(), row)).collect();
    if actual != expected {
        let mut table = String::new();
        for (name, row) in &actual {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", cells.join(", ")));
        }
        let corners: Vec<&str> = CORNERS.iter().map(|(name, _)| *name).collect();
        panic!("TreeMatch digests changed (corners: {}):\n{table}", corners.join(", "));
    }
}
