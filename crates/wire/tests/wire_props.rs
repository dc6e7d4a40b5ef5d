//! Round-trip and corruption properties for the binary tree encoding.
//!
//! The contract under test: encode → decode reproduces the tree
//! *bitwise* — identical Newick serialization, identical `SplitBatch`
//! masks and hashes, identical frozen BFH digest — across widths
//! spanning the one-word/multi-word boundary (15..129 taxa),
//! multifurcations, edge lengths, and single-taxon degenerate trees; and
//! every byte flip or truncation of a record or container surfaces as a
//! typed error, never a panic and never a silently wrong tree.

use bfhrf::Bfh;
use phylo::{
    parse_newick, write_newick, BipartitionScratch, IngestPolicy, TaxaPolicy, TaxonId, TaxonSet,
    Tree, TreeCollection,
};
use phylo_wire::{
    collection_to_vec, decode_tree, decode_tree_exact, encode_tree_vec, read_collection_sniffed,
    read_trees_sniffed, WireError, FILE_MAGIC,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Cursor;

/// Random tree on `n` taxa: recursive partition into 2–4 child groups
/// (so multifurcations are the norm, not the exception), with each node
/// carrying an edge length with probability ~1/2.
fn random_tree(n: usize, seed: u64, with_lengths: bool) -> (Tree, TaxonSet) {
    let taxa = TaxonSet::with_numbered("t", n);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut tree, root) = Tree::with_root();
    let ids: Vec<u32> = (0..n as u32).collect();
    build_clade(&mut tree, root, &ids, &mut rng);
    if with_lengths {
        for node in tree.postorder() {
            if rng.random_range(0..2) == 0 {
                let len = rng.random_range(0..1_000_000) as f64 / 997.0;
                tree.set_length(node, Some(len));
            }
        }
    }
    (tree, taxa)
}

fn build_clade(tree: &mut Tree, parent: phylo::NodeId, ids: &[u32], rng: &mut StdRng) {
    debug_assert!(!ids.is_empty());
    if ids.len() == 1 {
        tree.add_leaf(parent, TaxonId(ids[0]));
        return;
    }
    let groups = rng.random_range(2..=4.min(ids.len()));
    let mut cuts: Vec<usize> = (1..ids.len()).collect();
    // Partial shuffle: pick groups-1 distinct cut points.
    for i in 0..groups - 1 {
        let j = rng.random_range(i..cuts.len());
        cuts.swap(i, j);
    }
    let mut cuts: Vec<usize> = cuts[..groups - 1].to_vec();
    cuts.sort_unstable();
    cuts.push(ids.len());
    let mut start = 0;
    for cut in cuts {
        let part = &ids[start..cut];
        start = cut;
        if part.len() == 1 {
            tree.add_leaf(parent, TaxonId(part[0]));
        } else {
            let child = tree.add_child(parent);
            build_clade(tree, child, part, rng);
        }
    }
}

fn assert_trees_bitwise_equal(a: &Tree, b: &Tree, taxa: &TaxonSet) {
    assert_eq!(write_newick(a, taxa), write_newick(b, taxa));
    let mut sa = BipartitionScratch::new();
    let mut sb = BipartitionScratch::new();
    let ba = sa.batch_splits(a, taxa);
    let bb = sb.batch_splits(b, taxa);
    assert_eq!(ba.len(), bb.len(), "split counts differ");
    assert_eq!(ba.hashes(), bb.hashes(), "split hashes differ");
    for i in 0..ba.len() {
        assert_eq!(ba.mask(i), bb.mask(i), "split mask {i} differs");
    }
}

fn round_trip(tree: &Tree, taxa: &TaxonSet) -> Tree {
    let rec = encode_tree_vec(tree).expect("encodable");
    let (decoded, used) = decode_tree(&rec, taxa.len()).expect("decodable");
    assert_eq!(used, rec.len(), "record must be fully consumed");
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_trees_round_trip_bitwise(n in 3usize..70, seed in any::<u64>()) {
        let (tree, taxa) = random_tree(n, seed, seed.is_multiple_of(3));
        let decoded = round_trip(&tree, &taxa);
        assert_trees_bitwise_equal(&tree, &decoded, &taxa);
    }

    #[test]
    fn every_byte_flip_of_a_record_is_a_typed_error(n in 4usize..24, seed in any::<u64>()) {
        let (tree, taxa) = random_tree(n, seed, true);
        let rec = encode_tree_vec(&tree).unwrap();
        for i in 0..rec.len() {
            for bit in [0u8, 3, 7] {
                let mut bad = rec.clone();
                bad[i] ^= 1 << bit;
                // Never a panic, never a silently accepted record.
                prop_assert!(
                    decode_tree_exact(&bad, taxa.len()).is_err(),
                    "flip of byte {i} bit {bit} decoded successfully"
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_a_record_is_a_typed_error(n in 4usize..24, seed in any::<u64>()) {
        let (tree, taxa) = random_tree(n, seed, true);
        let rec = encode_tree_vec(&tree).unwrap();
        for cut in 0..rec.len() {
            prop_assert!(
                decode_tree(&rec[..cut], taxa.len()).is_err(),
                "truncation at {cut} decoded successfully"
            );
        }
    }
}

#[test]
fn width_sweep_preserves_bfh_digest_and_splits() {
    // 15..129 spans the one-word fast path, both 64-bit boundaries, and
    // two-word masks; the frozen digest is the strongest bitwise-identity
    // witness the workspace has.
    for n in [15usize, 16, 31, 63, 64, 65, 127, 128, 129] {
        let spec = phylo_sim::DatasetSpec::new("wire-width", n, 8, n as u64 + 1);
        let coll = phylo_sim::generate(&spec);
        let bytes = collection_to_vec(&coll).unwrap();
        let (decoded, report) =
            read_collection_sniffed(Cursor::new(&bytes), IngestPolicy::Strict).unwrap();
        assert_eq!(report.accepted, coll.len(), "n={n}");
        assert!(!report.is_partial());
        assert_eq!(decoded.taxa.len(), coll.taxa.len());
        for (a, b) in coll.trees.iter().zip(&decoded.trees) {
            assert_trees_bitwise_equal(a, b, &coll.taxa);
        }
        let live = Bfh::build(&coll.trees, &coll.taxa);
        let twin = Bfh::build(&decoded.trees, &decoded.taxa);
        assert_eq!(live.freeze().digest(), twin.freeze().digest(), "n={n}");
    }
}

#[test]
fn multifurcating_and_caterpillar_shapes_round_trip() {
    let mut taxa = TaxonSet::new();
    for text in [
        "(A,B,C,D,E,F,G,H);",             // star
        "(((((((A,B),C),D),E),F),G),H);", // caterpillar
        "((A,B,C),(D,E,F,G),H);",         // mixed arity
        "(A:0.5,(B:1.25,C):2.0,D);",      // partial lengths
        "((A,B));",                       // unary root chain
    ] {
        let tree = parse_newick(text, &mut taxa, TaxaPolicy::Grow).unwrap();
        let decoded = round_trip(&tree, &taxa);
        assert_trees_bitwise_equal(&tree, &decoded, &taxa);
    }
}

#[test]
fn single_taxon_tree_round_trips() {
    let mut taxa = TaxonSet::new();
    let id = taxa.intern("only");
    let (mut tree, root) = Tree::with_root();
    tree.set_taxon(root, Some(id));
    let decoded = round_trip(&tree, &taxa);
    assert_eq!(decoded.num_nodes(), 1);
    assert_eq!(decoded.taxon(decoded.root().unwrap()), Some(id));
}

#[test]
fn unencodable_shapes_are_rejected_not_mangled() {
    let taxa = TaxonSet::with_numbered("t", 4);
    // Empty tree.
    let empty = Tree::new();
    assert!(matches!(
        encode_tree_vec(&empty),
        Err(WireError::Unencodable(_))
    ));
    // Leaf without a taxon.
    let (mut bald, root) = Tree::with_root();
    bald.add_child(root);
    bald.add_leaf(root, TaxonId(0));
    assert!(matches!(
        encode_tree_vec(&bald),
        Err(WireError::Unencodable(_))
    ));
    // Taxon on an internal node.
    let (mut labeled, root) = Tree::with_root();
    labeled.add_leaf(root, TaxonId(0));
    labeled.add_leaf(root, TaxonId(1));
    labeled.set_taxon(root, Some(TaxonId(2)));
    assert!(matches!(
        encode_tree_vec(&labeled),
        Err(WireError::Unencodable(_))
    ));
    let _ = taxa;
}

#[test]
fn out_of_range_and_duplicate_taxa_are_corrupt() {
    let (tree, taxa) = random_tree(6, 7, false);
    let rec = encode_tree_vec(&tree).unwrap();
    // Same bytes, smaller namespace: ids past the width must be rejected.
    assert!(matches!(
        decode_tree(&rec, 3),
        Err(WireError::Corrupt { .. })
    ));
    assert!(decode_tree(&rec, taxa.len()).is_ok());
}

#[test]
fn trailing_bytes_after_exact_record_are_rejected() {
    let (tree, taxa) = random_tree(5, 11, false);
    let mut rec = encode_tree_vec(&tree).unwrap();
    assert!(decode_tree_exact(&rec, taxa.len()).is_ok());
    rec.push(0);
    assert!(decode_tree_exact(&rec, taxa.len()).is_err());
}

// ---------------------------------------------------------------------
// Container-level properties
// ---------------------------------------------------------------------

fn sample_collection(n_taxa: usize, n_trees: usize, seed: u64) -> TreeCollection {
    let spec = phylo_sim::DatasetSpec::new("wire-coll", n_taxa, n_trees, seed);
    phylo_sim::generate(&spec)
}

#[test]
fn container_round_trips_taxa_and_trees() {
    let coll = sample_collection(40, 12, 5);
    let bytes = collection_to_vec(&coll).unwrap();
    let (twin, report) =
        read_collection_sniffed(Cursor::new(&bytes), IngestPolicy::Strict).unwrap();
    assert_eq!(report.accepted, 12);
    // Label table round-trips in interning order.
    for (id, label) in coll.taxa.iter() {
        assert_eq!(twin.taxa.get(label), Some(id));
    }
    for (a, b) in coll.trees.iter().zip(&twin.trees) {
        assert_trees_bitwise_equal(a, b, &coll.taxa);
    }
    // A container of insect-preset trees, edge lengths included, is
    // smaller than their Newick text.
    let insect = phylo_sim::generate(&phylo_sim::DatasetSpec::insect().with_trees(50));
    let text: String = insect
        .trees
        .iter()
        .map(|t| write_newick(t, &insect.taxa) + "\n")
        .collect();
    assert!(text.contains(':'), "the trees carry edge lengths");
    let bin = collection_to_vec(&insect).unwrap().len();
    assert!(
        bin < text.len(),
        "container {bin} B, Newick {} B",
        text.len()
    );
}

#[test]
fn sniffed_newick_reads_are_identical_to_the_plain_reader() {
    let text = "((A,B),(C,D));\n(garbage(((;\n((A,C),(B,D)):0.5;\n";
    let policy = IngestPolicy::lenient();
    let (via_sniff, sniff_report) =
        read_collection_sniffed(Cursor::new(text.as_bytes()), policy).unwrap();
    let (via_plain, plain_report) =
        phylo::ingest::read_collection(Cursor::new(text.as_bytes()), policy).unwrap();
    assert_eq!(via_sniff.len(), via_plain.len());
    assert_eq!(sniff_report, plain_report);
    for (a, b) in via_plain.trees.iter().zip(&via_sniff.trees) {
        assert_trees_bitwise_equal(a, b, &via_plain.taxa);
    }
}

#[test]
fn require_policy_remaps_ids_onto_the_reference_namespace() {
    // Reference namespace interned in one order; the query container's
    // embedded table uses another. Decoded trees must speak reference ids.
    let refs = TreeCollection::parse("((A,B),(C,D),E);").unwrap();
    let queries = TreeCollection::parse("((C,(B,A)),(D,E));").unwrap();
    let bytes = collection_to_vec(&queries).unwrap();
    let mut taxa = refs.taxa.clone();
    let (trees, report) = read_trees_sniffed(
        Cursor::new(&bytes),
        &mut taxa,
        TaxaPolicy::Require,
        IngestPolicy::Strict,
    )
    .unwrap();
    assert_eq!(report.accepted, 1);
    assert_eq!(
        taxa.len(),
        refs.taxa.len(),
        "Require must not grow the namespace"
    );
    assert_eq!(
        write_newick(&trees[0], &refs.taxa),
        write_newick(&queries.trees[0], &queries.taxa),
    );
}

#[test]
fn require_policy_rejects_unknown_labels() {
    let refs = TreeCollection::parse("((A,B),C);").unwrap();
    let queries = TreeCollection::parse("((A,B),Z);").unwrap();
    let bytes = collection_to_vec(&queries).unwrap();
    let mut taxa = refs.taxa.clone();
    let err = read_trees_sniffed(
        Cursor::new(&bytes),
        &mut taxa,
        TaxaPolicy::Require,
        IngestPolicy::Strict,
    )
    .unwrap_err();
    assert!(err.to_string().contains("binary record"), "{err}");
}

#[test]
fn lenient_container_read_skips_a_corrupt_body_and_keeps_the_rest() {
    let coll = sample_collection(24, 5, 9);
    let mut bytes = collection_to_vec(&coll).unwrap();
    // Locate the third record's body inside the container and flip one
    // byte in its middle: framing stays intact, so a lenient read skips
    // exactly that record.
    let victim = encode_tree_vec(&coll.trees[2]).unwrap();
    let at = bytes
        .windows(victim.len())
        .position(|w| w == victim.as_slice())
        .expect("record bytes present in container");
    bytes[at + victim.len() / 2] ^= 0x10;

    assert!(
        read_collection_sniffed(Cursor::new(&bytes), IngestPolicy::Strict).is_err(),
        "strict must refuse the corrupt record"
    );
    let (partial, report) =
        read_collection_sniffed(Cursor::new(&bytes), IngestPolicy::lenient()).unwrap();
    assert_eq!(report.accepted, 4);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].record, 2);
    assert_eq!(partial.trees.len(), 4);
    for (a, b) in coll
        .trees
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(_, t)| t)
        .zip(&partial.trees)
    {
        assert_trees_bitwise_equal(a, b, &coll.taxa);
    }
}

#[test]
fn every_container_byte_flip_fails_strict_reads_without_panicking() {
    let coll = sample_collection(12, 3, 13);
    let bytes = collection_to_vec(&coll).unwrap();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x04;
        // Flips inside the magic fall through to the Newick parser, which
        // rejects the binary junk; everything else trips a seal, a record
        // checksum, or a structural check. Either way: typed error.
        assert!(
            read_collection_sniffed(Cursor::new(&bad), IngestPolicy::Strict).is_err(),
            "flip at byte {i} was accepted"
        );
    }
}

#[test]
fn every_container_truncation_fails_strict_reads_without_panicking() {
    let coll = sample_collection(12, 3, 17);
    let bytes = collection_to_vec(&coll).unwrap();
    for cut in 0..bytes.len() {
        let result = read_collection_sniffed(Cursor::new(&bytes[..cut]), IngestPolicy::Strict);
        if cut >= FILE_MAGIC.len() {
            assert!(result.is_err(), "truncation at {cut} was accepted");
        }
        // Shorter-than-magic prefixes sniff as Newick; they may parse as
        // an empty collection, but must never panic.
    }
}
