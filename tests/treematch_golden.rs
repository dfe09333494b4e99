//! Golden TreeMatch and pair-pipeline output across configuration
//! corners.
//!
//! `batch_equivalence` compares two callers of `tree_match` and
//! `lazy_equivalence` two drivers of the same TreeMatch state, so a
//! change inside TreeMatch passes both as long as it changes every
//! caller alike. This suite pins the output itself instead, in two
//! tables. For each schema pair and configuration corner,
//! [`EXPECTED`] hashes:
//! - every bit of `leaf_ssim`, `ssim` and `wsim` from `tree_match` and
//!   from `tree_match_lazy`, with both runs' `TreeMatchStats` counters;
//! - the `StructuralContext` of every explanation of the pair.
//!
//! [`EXPECTED_PIPELINE`] hashes what the whole pair pipeline returns:
//! - the explanation's full wire bytes (name similarity, category
//!   scale, token pairs with provenance, structure and counters);
//! - the leaf and non-leaf mappings of `Cupid::match_schemas`.
//!
//! The pairs are the paper's four (with their experiment configs; the
//! relational one reifies join views, so DAGs are covered) and a seeded
//! set of synthetic pairs of 8–144 leaves; the two largest give strong
//! rows of two and three 64-bit words. The corners are each pair's
//! base config plus `leaf_ratio_prune: None`, `use_optionality: false`
//! and `leaf_depth_limit` of 1 and 2.
//!
//! The digests are recorded values: if one changes, the output changed.
//! A failure prints every digest in the table's layout.

use cupid::core::{
    lazy, linguistic, treematch, Cupid, CupidConfig, MappingElement, MatchSession, PairExplanation,
    TreeMatchResult,
};
use cupid::corpus::synthetic::{generate, SyntheticConfig};
use cupid::corpus::{cidx_excel, fig1, fig2, star_rdb, thesauri};
use cupid::eval::configs;
use cupid::lexical::Thesaurus;
use cupid::model::tree::SyntheticKind;
use cupid::model::{expand, fnv1a, NodeId, Schema, SchemaTree, WireReader, WireWriter};

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
    ("synthetic_96", [0x08afb6eb8158238c, 0x97f6cba0c8daae57, 0x08afb6eb8158238c, 0x8bef7b0ae52958ec, 0x189eae6937b63164]),
    ("synthetic_144", [0xb2b315c935371536, 0xb274479e84469c44, 0xb2b315c935371536, 0x4caafaf75108f1eb, 0xe058406f8fff6e99]),
];

/// Recorded pipeline digests per pair, one per corner in [`CORNERS`]
/// order.
#[rustfmt::skip]
const EXPECTED_PIPELINE: &[(&str, [u64; 5])] = &[
    ("fig1", [0xd412c36af87d2f00, 0x7cc21f812666853d, 0xd412c36af87d2f00, 0x389b3d1f61a98bae, 0x977765cab73b2f8d]),
    ("fig2", [0xe7312c192f929111, 0x48c6b6ccbfb62ab7, 0xe7312c192f929111, 0x39f562f9c4363695, 0x2346f0ae5b823028]),
    ("cidx_excel", [0xd2abb9514fb09119, 0x584a2ed59947dc98, 0xea22d149a0331555, 0xa9670e98400f0c23, 0x4000f815d8803336]),
    ("rdb_star", [0x5b43bf1b0de1f35e, 0xe947b7b930827cf5, 0xeee076d4c248a2cd, 0xedaa719a7034565b, 0x5b43bf1b0de1f35e]),
    ("synthetic_8", [0xba6b724dc0bbd3ab, 0x6cea0432be938107, 0xba6b724dc0bbd3ab, 0x44c8d3f9924cf58e, 0xbfd2204e9bff5e79]),
    ("synthetic_16", [0xd63d3f67c82a2fce, 0x29f032e820b6a33a, 0xd63d3f67c82a2fce, 0xf44a7419cf4c1ea3, 0xd6816203f5b684d3]),
    ("synthetic_24", [0x4499d90f88f7ec18, 0xcc0fb690a96bd9f8, 0x4499d90f88f7ec18, 0x799d9789e464cd89, 0xa6369064a42c623e]),
    ("synthetic_32", [0x8ca6dc54e93112ac, 0xeb7ca1e49ef8bd43, 0x8ca6dc54e93112ac, 0xe9de58c1a481c6c0, 0xc9ca653e6e1d86bf]),
    ("synthetic_48", [0x324e21cfcc3f8ca9, 0x9c2c9c51fc362cb1, 0x324e21cfcc3f8ca9, 0x4a25118f9a384a62, 0xe118a743b60d6c32]),
    ("synthetic_64", [0xab00da3f46d072b5, 0x1eba1337689b6680, 0xab00da3f46d072b5, 0x47e57af0773e109d, 0x04d9323fc7fa458b]),
    ("synthetic_96", [0x7a8a367738d9daeb, 0x98e3440a9aca9d1e, 0x7a8a367738d9daeb, 0x40b34b40e0e720ed, 0x4a0114d7bbb8cf93]),
    ("synthetic_144", [0xdb9fd10d08e07acb, 0x54fd1b6931494ae8, 0xdb9fd10d08e07acb, 0xc9345d631bab192a, 0xd022721283600424]),
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
const SYNTHETIC: [(usize, u64); 8] =
    [(8, 131), (16, 132), (24, 133), (32, 134), (48, 135), (64, 136), (96, 137), (144, 138)];

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

    let explanation = explain(case, cfg);
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

/// The pair's explanation from a fresh session.
fn explain(case: &Case, cfg: &CupidConfig) -> PairExplanation {
    let mut session = MatchSession::new(cfg, &case.thesaurus);
    let (a, b) = (session.add(&case.source).unwrap(), session.add(&case.target).unwrap());
    session.explain_pair(a, b)
}

/// Digest of one pair's explanation and single-pair mappings under one
/// configuration.
fn pipeline_digest(case: &Case, cfg: &CupidConfig) -> u64 {
    let mut w = WireWriter::new();
    explain(case, cfg).write_wire(&mut w);
    let out = Cupid::with_config(cfg.clone(), case.thesaurus.clone())
        .match_schemas(&case.source, &case.target)
        .unwrap();
    for mappings in [&out.leaf_mappings, &out.nonleaf_mappings] {
        put_mappings(&mut w, mappings);
    }
    fnv1a(w.bytes())
}

fn put_mappings(w: &mut WireWriter, mappings: &[MappingElement]) {
    w.put_len(mappings.len());
    for m in mappings {
        w.put_len(m.source.index());
        w.put_len(m.target.index());
        w.put_str(&m.source_path);
        w.put_str(&m.target_path);
        for v in [m.wsim, m.ssim, m.lsim] {
            w.put_f64(v);
        }
    }
}

/// Digest every case under every corner and compare with a recorded
/// table; on a mismatch, panic with the whole table as recorded now.
fn check(what: &str, expected: &[(&str, [u64; 5])], digest: fn(&Case, &CupidConfig) -> u64) {
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
        expected.iter().map(|&(name, row)| (name.to_string(), row)).collect();
    if actual != expected {
        let mut table = String::new();
        for (name, row) in &actual {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            table.push_str(&format!("    (\"{name}\", [{}]),\n", cells.join(", ")));
        }
        let corners: Vec<&str> = CORNERS.iter().map(|(name, _)| *name).collect();
        panic!("{what} digests changed (corners: {}):\n{table}", corners.join(", "));
    }
}

#[test]
fn treematch_output_matches_recorded_digests() {
    check("TreeMatch", EXPECTED, digest);
}

#[test]
fn pair_pipeline_output_matches_recorded_digests() {
    check("Pair pipeline", EXPECTED_PIPELINE, pipeline_digest);
}

/// The indices of a bit row's set bits, ascending.
fn bits(row: &[u64]) -> Vec<u32> {
    (0..64 * row.len() as u32).filter(|&l| row[l as usize / 64] >> (l % 64) & 1 == 1).collect()
}

/// The trees own TreeMatch's per-tree tables: for every node of the
/// paper's eight schemas (join views included) and of the synthetic
/// pairs, `leaf_mask` and `required_mask` hold exactly `leaves` and
/// `required_leaves`, `leaf_runs` concatenate to `leaves`,
/// `nonleaf_post_order` is the post-order without its leaves, and
/// `leaf_nodes` lists `leaf_node` of every leaf; decoding a tree rebuilds
/// them all.
#[test]
fn tree_masks_hold_the_leaf_sets() {
    let mut split_runs = 0;
    let mut check = |what: &str, tree: &SchemaTree| {
        for (id, _) in tree.iter() {
            assert_eq!(tree.leaf_mask(id).len(), tree.leaf_count().div_ceil(64), "{what} {id}");
            assert_eq!(bits(tree.leaf_mask(id)), tree.leaves(id), "{what} {id}");
            assert_eq!(bits(tree.required_mask(id)), tree.required_leaves(id), "{what} {id}");
            let runs = tree.leaf_runs(id);
            let joined: Vec<u32> = runs.iter().flat_map(|&(start, end)| start..end).collect();
            assert_eq!(joined, tree.leaves(id), "{what} {id}");
            assert!(runs.windows(2).all(|w| w[0].1 < w[1].0), "{what} {id}: runs are maximal");
            let view = tree.node(id).synthetic == Some(SyntheticKind::JoinView);
            split_runs += usize::from(view && runs.len() >= 2);
        }
        let nonleaf: Vec<NodeId> =
            tree.post_order().iter().copied().filter(|&id| !tree.is_leaf(id)).collect();
        assert_eq!(tree.nonleaf_post_order(), nonleaf, "{what}");
        let leaf_nodes: Vec<NodeId> =
            (0..tree.leaf_count() as u32).map(|l| tree.leaf_node(l)).collect();
        assert_eq!(tree.leaf_nodes(), leaf_nodes, "{what}");
    };
    for case in cases() {
        for schema in [&case.source, &case.target] {
            let tree = expand(schema, &case.base.expand).unwrap();
            let what = format!("{}: {}", case.name, schema.name());
            check(&what, &tree);
            let mut w = WireWriter::new();
            tree.write_wire(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = SchemaTree::read_wire(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.len(), tree.len());
            check(&format!("decoded {what}"), &back);
        }
    }
    // RDB's and Star's join views cover leaves that are not consecutive,
    // so some view node has two runs or more (counted before and after
    // decoding).
    assert!(split_runs >= 2, "no join-view node with two runs or more");
}
