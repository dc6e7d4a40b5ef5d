//! Parser robustness: arbitrary byte soup must produce `Err`, never a
//! panic, and valid inputs perturbed by mutation must either parse or
//! error cleanly. The streaming reader and the lenient recovery reader get
//! the same treatment.

use phylo::ingest::read_collection;
use phylo::{
    parse_newick, BipartitionScratch, IngestPolicy, NewickReader, PhyloError, SplitReader,
    TaxaPolicy, TaxonSet,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic(s in "\\PC{0,120}") {
        let mut taxa = TaxonSet::new();
        let _ = parse_newick(&s, &mut taxa, TaxaPolicy::Grow);
    }

    #[test]
    fn newick_flavored_soup_never_panics(
        s in "[(),;:A-Ea-e0-9.'\\[\\] _-]{0,160}",
    ) {
        let mut taxa = TaxonSet::new();
        let _ = parse_newick(&s, &mut taxa, TaxaPolicy::Grow);
        // the streaming splitter must also survive and terminate, whether
        // it builds trees or lexes records straight into split masks
        let strict = || NewickReader::new(s.as_bytes(), TaxaPolicy::Grow, IngestPolicy::Strict);
        let mut taxa2 = TaxonSet::new();
        let mut stream = strict();
        for _ in 0..200 {
            match stream.next_tree(&mut taxa2) {
                Ok(None) | Err(_) => break,
                Ok(Some(_)) => {}
            }
        }
        let (mut taxa3, mut scratch, mut masks) = (TaxonSet::new(), BipartitionScratch::new(), Vec::new());
        let mut stream = strict();
        for _ in 0..200 {
            match stream.next_splits(&mut taxa3, &mut scratch, &mut masks) {
                Ok(None) | Err(_) => break,
                Ok(Some(_)) => {}
            }
        }
    }

    #[test]
    fn mutated_valid_tree_parses_or_errors(
        idx in 0usize..28,
        replacement in "[(),;:A-D0-9.]",
    ) {
        let base = "((A:1.5,B):2,(C,D):1e-2);";
        let mut bytes = base.as_bytes().to_vec();
        let i = idx % bytes.len();
        bytes[i] = replacement.as_bytes()[0];
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let mut taxa = TaxonSet::new();
            if let Ok(tree) = parse_newick(s, &mut taxa, TaxaPolicy::Grow) {
                // a successful parse must produce a structurally sound tree
                prop_assert!(tree.root().is_some());
                prop_assert!(tree.leaf_count() >= 1);
            }
        }
    }

    #[test]
    fn mutated_collection_survives_lenient_and_errors_strict(
        cut in 0usize..90,
        flip_pos in 0usize..90,
        flip_byte in any::<u8>(),
    ) {
        // Truncation + one arbitrary byte flip (including NUL and invalid
        // UTF-8) over a multi-record collection.
        let base = "((A:1.5,B):2,(C,D):1e-2);\n(('x y',C),(B,A));\n((A,(B,C)),D);\n((D,C),(B,A));\n";
        let mut bytes = base.as_bytes().to_vec();
        bytes.truncate(cut.min(bytes.len()));
        if !bytes.is_empty() {
            let i = flip_pos % bytes.len();
            bytes[i] = flip_byte;
        }
        // Lenient: never panics, never errors with an unlimited skip
        // budget; every accepted tree is structurally sound.
        let (coll, report) = read_collection(&bytes[..], IngestPolicy::lenient()).unwrap();
        prop_assert_eq!(coll.trees.len(), report.accepted);
        for t in &coll.trees {
            prop_assert!(t.root().is_some());
            prop_assert!(t.leaf_count() >= 1);
        }
        // Strict: success means nothing was skipped; a parse failure
        // carries an absolute byte offset inside the input.
        match read_collection(&bytes[..], IngestPolicy::Strict) {
            Ok((strict_coll, strict_report)) => {
                prop_assert!(!strict_report.is_partial());
                prop_assert_eq!(strict_coll.trees.len(), strict_report.accepted);
            }
            Err(PhyloError::Parse { offset, .. }) => prop_assert!(offset <= bytes.len()),
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn unbalanced_parens_and_nul_bytes_recover(
        extra_open in 0usize..4,
        extra_close in 0usize..4,
        nul_at in 0usize..60,
    ) {
        // Unbalance the first record, then stamp a NUL byte somewhere; the
        // second record must still be reachable whenever it survives the
        // NUL intact.
        let mut s = String::new();
        for _ in 0..extra_open {
            s.push('(');
        }
        s.push_str("((A,B),(C,D))");
        for _ in 0..extra_close {
            s.push(')');
        }
        s.push_str(";\n((A,C),(B,D));\n");
        let mut bytes = s.into_bytes();
        let i = nul_at % bytes.len();
        bytes[i] = 0;
        let (coll, report) = read_collection(&bytes[..], IngestPolicy::lenient()).unwrap();
        prop_assert_eq!(coll.trees.len(), report.accepted);
        prop_assert_eq!(report.records(), report.accepted + report.skipped.len());
        // Skip positions stay inside the input.
        for rec in &report.skipped {
            prop_assert!(rec.byte <= bytes.len());
            prop_assert!(rec.line >= 1);
        }
        // Strict never panics either.
        let _ = read_collection(&bytes[..], IngestPolicy::Strict);
    }

    #[test]
    fn invalid_utf8_inside_quotes_is_a_typed_error(
        junk in proptest::collection::vec(0x80u8..=0xff, 1..4),
        prefix in "[a-z ]{0,3}",
    ) {
        // Continuation/lead bytes alone, or truncated sequences, inside a
        // quoted label: strict ingest refuses with an offset inside the
        // input, lenient skips just that record, and nothing panics.
        let mut bytes = b"((A,B),(C,D));\n(('".to_vec();
        bytes.extend_from_slice(prefix.as_bytes());
        bytes.extend_from_slice(&junk);
        bytes.extend_from_slice(b"',B),(C,D));\n((A,C),(B,D));\n");
        if std::str::from_utf8(&bytes).is_err() {
            match read_collection(&bytes[..], IngestPolicy::Strict) {
                Err(PhyloError::Parse { offset, message }) => {
                    prop_assert!(offset <= bytes.len());
                    prop_assert!(message.contains("invalid UTF-8"), "{}", message);
                }
                other => prop_assert!(false, "expected a parse error, got {:?}", other),
            }
            let (coll, report) = read_collection(&bytes[..], IngestPolicy::lenient()).unwrap();
            prop_assert_eq!(coll.trees.len(), 2);
            prop_assert_eq!(report.skipped.len(), 1);
            prop_assert_eq!(report.skipped[0].record, 1);
        }
    }

    #[test]
    fn parse_write_parse_fixpoint(seed in any::<u64>(), n in 4usize..24) {
        // generated trees → text → tree → text must be a fixpoint
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tree = phylo_sim_free_random_tree(n, &mut rng);
        let taxa = TaxonSet::with_numbered("t", n);
        let s1 = phylo::write_newick(&tree, &taxa);
        let mut taxa2 = taxa.clone();
        let t2 = parse_newick(&s1, &mut taxa2, TaxaPolicy::Require).unwrap();
        let s2 = phylo::write_newick(&t2, &taxa2);
        prop_assert_eq!(s1, s2);
    }
}

/// Local random-tree builder (this crate cannot depend on phylo-sim).
fn phylo_sim_free_random_tree(n: usize, rng: &mut rand::rngs::StdRng) -> phylo::Tree {
    use rand::RngExt;
    let (mut t, root) = phylo::Tree::with_root();
    t.add_leaf(root, phylo::TaxonId(0));
    t.add_leaf(root, phylo::TaxonId(1));
    for i in 2..n {
        let edges: Vec<_> = t.edges().collect();
        let (p, c) = edges[rng.random_range(0..edges.len())];
        t.detach_child(p, c);
        let mid = t.add_child(p);
        t.attach_child(mid, c);
        t.add_leaf(mid, phylo::TaxonId(i as u32));
    }
    t
}
