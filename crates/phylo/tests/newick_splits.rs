//! The split emitter against the tree parser: reading a record straight
//! into split masks ([`SplitReader::next_splits`],
//! [`BipartitionScratch::newick_splits`]) must give exactly what parsing
//! the tree and extracting its splits gives ([`NewickReader::next_tree`] +
//! [`BipartitionScratch::for_each_split`], [`parse_newick_readonly`]): the
//! same masks in the same order for every record, and on broken input the
//! same error (message and absolute offset), the same lenient skip report
//! and the same namespace after rollback.
//!
//! The generated files cross the 64- and 128-taxon word boundaries as
//! labels first appear mid-stream, and carry multifurcations, unary
//! chains, single-leaf records, roots of degree 2 and 3, quoted labels
//! with `''`, nested comments, internal labels and every spelling of a
//! branch length `f64::from_str` accepts.

use phylo::{
    parse_newick_readonly, BipartitionScratch, IngestPolicy, IngestReport, NewickReader,
    PhyloError, SplitReader, TaxaPolicy, TaxonSet,
};
use proptest::prelude::*;

/// Every branch-length spelling the dialect accepts.
const LENGTHS: [&str; 14] = [
    "1",
    "0.5",
    "5.",
    "+.5",
    ".25",
    "-0.0",
    "1E+3",
    "2e-3",
    "7e1",
    "inf",
    "NaN",
    "-infinity",
    "+Inf",
    "0.23647114233998084",
];

/// A deterministic xorshift stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Taxon `i`'s label as written: some need quotes (and one holds a `'`),
/// and a bare label is sometimes quoted anyway.
fn label(i: usize, rng: &mut Rng) -> String {
    match i % 9 {
        3 => format!("'it''s {i}'"),
        5 => format!("'t ({i})'"),
        _ if rng.one_in(6) => format!("'t{i}'"),
        _ => format!("t{i}"),
    }
}

/// Trivia that may sit between any two tokens.
fn trivia(rng: &mut Rng, out: &mut String) {
    match rng.below(12) {
        0 => out.push_str("[c]"),
        1 => out.push_str("[a [nested, (x;y)] comment]"),
        2 => out.push_str(" \n\t"),
        _ => {}
    }
}

/// A node's optional internal label and branch length.
fn suffix(internal: bool, rng: &mut Rng, out: &mut String) {
    if internal && rng.one_in(4) {
        out.push_str(if rng.one_in(2) { "0.95" } else { "'clade x'" });
    }
    trivia(rng, out);
    if rng.one_in(2) {
        out.push(':');
        trivia(rng, out);
        out.push_str(LENGTHS[rng.below(LENGTHS.len())]);
    }
}

/// The subtree over `leaves`: 2..=4 children where it multifurcates,
/// sometimes wrapped in a unary chain.
fn subtree(leaves: &[usize], rng: &mut Rng, out: &mut String) {
    let unary = rng.one_in(10);
    if unary {
        out.push('(');
    }
    if leaves.len() == 1 {
        out.push_str(&label(leaves[0], rng));
        suffix(false, rng, out);
    } else {
        let k = if rng.one_in(4) { 3 + rng.below(2) } else { 2 };
        children(leaves, k, rng, out);
        suffix(true, rng, out);
    }
    if unary {
        out.push(')');
        suffix(true, rng, out);
    }
}

/// `(` the leaves split into up to `k` non-empty groups `)`.
fn children(leaves: &[usize], k: usize, rng: &mut Rng, out: &mut String) {
    let k = k.min(leaves.len());
    let mut cuts: Vec<usize> = (1..leaves.len()).collect();
    for i in (1..cuts.len()).rev() {
        cuts.swap(i, rng.below(i + 1));
    }
    cuts.truncate(k - 1);
    cuts.sort_unstable();
    out.push('(');
    let mut from = 0;
    for (g, &to) in cuts.iter().chain([leaves.len()].iter()).enumerate() {
        if g > 0 {
            out.push(',');
        }
        trivia(rng, out);
        subtree(&leaves[from..to], rng, out);
        from = to;
    }
    out.push(')');
}

/// A file of `records` trees whose labels come from a pool that widens
/// from a quarter of `width` to all of it, so taxa first appear
/// mid-stream. Each tree takes most of the pool in shuffled order.
fn file(width: usize, records: usize, seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let mut out = String::new();
    for r in 0..records {
        let pool = (width / 4 + (width - width / 4) * (r + 1) / records).max(1);
        if rng.one_in(12) {
            out.push_str(&label(rng.below(pool), &mut rng));
            suffix(false, &mut rng, &mut out);
            out.push_str(";\n");
            continue;
        }
        let mut leaves: Vec<usize> = (0..pool).collect();
        for i in (1..leaves.len()).rev() {
            leaves.swap(i, rng.below(i + 1));
        }
        leaves.truncate(pool - rng.below(pool.min(4)));
        trivia(&mut rng, &mut out);
        if leaves.len() == 1 {
            subtree(&leaves, &mut rng, &mut out);
        } else {
            // Roots of degree 2 and 3.
            children(&leaves, 2 + rng.below(2), &mut rng, &mut out);
            suffix(true, &mut rng, &mut out);
        }
        out.push_str(";\n");
    }
    out
}

/// One record as either path reads it: its masks, or the error.
type Read = Result<Vec<u64>, PhyloError>;

/// Read `bytes` to the end (or the first error) through both paths, each
/// with its own namespace: per record, what it gave, and then the report
/// and the namespace's width.
fn both(
    bytes: &[u8],
    taxa_policy: TaxaPolicy,
    policy: IngestPolicy,
    start: &TaxonSet,
) -> [(Vec<Read>, IngestReport, usize); 2] {
    let mut scratch = BipartitionScratch::new();
    let mut taxa = start.clone();
    let mut trees = NewickReader::new(bytes, taxa_policy, policy);
    let mut by_tree = Vec::new();
    loop {
        match trees.next_tree(&mut taxa) {
            Ok(Some(tree)) => {
                let mut masks = Vec::new();
                scratch.for_each_split(&tree, &taxa, |w| masks.extend_from_slice(w));
                by_tree.push(Ok(masks));
            }
            Ok(None) => break,
            Err(e) => {
                by_tree.push(Err(e));
                break;
            }
        }
    }
    let tree_side = (by_tree, trees.into_report(), taxa.len());

    let mut taxa = start.clone();
    let mut splits = NewickReader::new(bytes, taxa_policy, policy);
    let mut by_splits = Vec::new();
    loop {
        let mut masks = vec![7]; // appended to, never overwritten
        match splits.next_splits(&mut taxa, &mut scratch, &mut masks) {
            Ok(Some(n)) => {
                let words = taxa.len().div_ceil(64);
                assert_eq!(masks.len(), 1 + n * words, "count and stride");
                by_splits.push(Ok(masks.split_off(1)));
            }
            Ok(None) => break,
            Err(e) => {
                by_splits.push(Err(e));
                break;
            }
        }
    }
    [tree_side, (by_splits, splits.into_report(), taxa.len())]
}

/// Apply `edits` random byte edits: overwrite, insert or delete one byte,
/// drawn from the dialect's structural bytes, a letter, a digit, a NUL
/// and a byte that is not UTF-8.
fn mutate(text: &str, edits: usize, seed: u64) -> Vec<u8> {
    const BYTES: &[u8] = b"(),;:'[] A1.e\0\xff";
    let mut rng = Rng(seed | 1);
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        let b = BYTES[rng.below(BYTES.len())];
        match rng.below(3) {
            0 => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ => {
                bytes.remove(at);
            }
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn splits_match_parse_and_extract(
        width in 4usize..200,
        records in 1usize..24,
        seed in any::<u64>(),
    ) {
        let text = file(width, records, seed);
        let empty = TaxonSet::new();
        let [tree, splits] = both(text.as_bytes(), TaxaPolicy::Grow, IngestPolicy::Strict, &empty);
        prop_assert!(tree.0.iter().all(Result::is_ok), "{:?}", tree.0.last());
        prop_assert_eq!(tree.0.len(), records);
        prop_assert_eq!(&tree, &splits);

        // Against the namespace the file grew, under Require: every
        // record again, and each record alone through the daemon's
        // read-only entry point.
        let mut all = TaxonSet::new();
        let whole = phylo::read_trees_from_str(&text, &mut all, TaxaPolicy::Grow).unwrap();
        let [tree, splits] = both(text.as_bytes(), TaxaPolicy::Require, IngestPolicy::Strict, &all);
        prop_assert_eq!(&tree, &splits);
        let mut scratch = BipartitionScratch::new();
        for (record, parsed) in text.split_inclusive(";\n").zip(&whole) {
            let mut want = Vec::new();
            scratch.for_each_split(parsed, &all, |w| want.extend_from_slice(w));
            // The shared canonicalisation against the reference extractor.
            let reference: Vec<u64> = parsed
                .bipartitions(&all)
                .iter()
                .flat_map(|b| b.bits().words().to_vec())
                .collect();
            prop_assert_eq!(&reference, &want);
            let mut got = Vec::new();
            let n = scratch.newick_splits(record, &all, &mut got).unwrap();
            prop_assert_eq!(n * all.len().div_ceil(64), got.len());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn broken_records_are_refused_alike(
        width in 4usize..160,
        records in 1usize..10,
        edits in 1usize..4,
        seed in any::<u64>(),
    ) {
        let text = file(width, records, seed);
        let bytes = mutate(&text, edits, seed ^ 0x5eed);
        let empty = TaxonSet::new();
        for policy in [IngestPolicy::Strict, IngestPolicy::lenient()] {
            let [tree, splits] = both(&bytes, TaxaPolicy::Grow, policy, &empty);
            prop_assert_eq!(&tree, &splits, "{:?}", String::from_utf8_lossy(&bytes));
        }
        // Under Require against part of the namespace: unknown labels.
        let mut part = TaxonSet::new();
        let _ = phylo::read_trees_from_str(&text, &mut part, TaxaPolicy::Grow);
        part.truncate(part.len() / 2);
        for policy in [IngestPolicy::Strict, IngestPolicy::lenient()] {
            let [tree, splits] = both(&bytes, TaxaPolicy::Require, policy, &part);
            prop_assert_eq!(&tree, &splits);
        }
        // Each broken record alone, read-only: the same refusal, trailing
        // content and early ends included.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let mut all = TaxonSet::new();
            let _ = phylo::read_trees_from_str(&file(width, records, seed), &mut all, TaxaPolicy::Grow);
            let mut scratch = BipartitionScratch::new();
            for record in text.split_inclusive('\n') {
                let want = parse_newick_readonly(record, &all).map(|t| {
                    let mut masks = Vec::new();
                    scratch.for_each_split(&t, &all, |w| masks.extend_from_slice(w));
                    masks
                });
                let mut got = Vec::new();
                let got = scratch.newick_splits(record, &all, &mut got).map(|_| got);
                prop_assert_eq!(got, want, "{:?}", record);
            }
        }
    }
}

#[test]
fn every_length_spelling_reads_alike_and_others_are_refused_alike() {
    let mut taxa = TaxonSet::new();
    for l in ["A", "B", "C", "D", "E"] {
        taxa.intern(l);
    }
    let mut scratch = BipartitionScratch::new();
    let bad = [
        "", "+", ".", "e5", "1e", "1e+", "1.5.2", "0x10", "1_0", "--1", "in", "nana", "1.5abc",
    ];
    for length in LENGTHS.iter().chain(&bad) {
        assert_eq!(
            LENGTHS.contains(length),
            length.parse::<f64>().is_ok(),
            "{length:?}"
        );
        let record = format!("((A:{length},B),(C,D):{length},E);");
        let want = parse_newick_readonly(&record, &taxa).map(|t| {
            let mut masks = Vec::new();
            scratch.for_each_split(&t, &taxa, |w| masks.extend_from_slice(w));
            masks
        });
        let mut got = Vec::new();
        let got = scratch.newick_splits(&record, &taxa, &mut got).map(|_| got);
        assert_eq!(got, want, "{record}");
        let refused = match length {
            _ if LENGTHS.contains(length) => None,
            &"" => Some(PhyloError::parse(3, "expected branch length after ':'")),
            _ => Some(PhyloError::parse(
                4,
                format!("invalid branch length {length:?}"),
            )),
        };
        assert_eq!(got.err(), refused, "{record}");
    }
}

#[test]
fn fixed_refusals_match_the_parser_at_the_same_offsets() {
    let mut taxa = TaxonSet::new();
    for l in ["A", "B", "C", "D"] {
        taxa.intern(l);
    }
    let cases = [
        "((A,B);",
        "(A,B));",
        "(A,,B);",
        "(A,B)",
        "(A,B); junk",
        "(A:x,B);",
        "('A,B);",
        "[(A,B);",
        "(A B,C);",
        ",A;",
        "(A,B)(C,D);",
        "();",
        "(A:1:2,B);",
        "(A:,B);",
        "(A:'1',B);",
        ":1(A,B):2;",
        "(A,X);",
        "A(B,C);",
        "(A,B)x y;",
        "",
        "  [only a comment]  ",
    ];
    let mut scratch = BipartitionScratch::new();
    for case in cases {
        let want = parse_newick_readonly(case, &taxa).map(|_| ());
        let got = scratch
            .newick_splits(case, &taxa, &mut Vec::new())
            .map(|_| ());
        assert_eq!(got, want, "{case:?}");
    }
}
