//! A build reads each tree to its postorder shape on the calling thread
//! and canonicalises it where the chunk is consumed: in the fold, or in
//! the scorer's runs for queries. Whatever the thread count, build mode
//! or source (Newick, lenient Newick with malformed records, `bin`, or
//! trees parsed up front), the table, the kept Q = R scores and the
//! ingest report must be the ones the parsed trees give, and `avgrf`
//! must print the same report and notes at every thread count and for
//! `bfhrf-seq`.

use bfhrf::{Bfh, BfhBuilder, RunGuard, CHUNK};
use phylo::{IngestPolicy, TaxaPolicy, TaxonSet};

/// 700 trees on 30 taxa (three chunks), as Newick lines.
fn lines() -> Vec<String> {
    let c = phylo_sim::perturb::random_collection(30, 700, 0x51a9e);
    c.trees
        .iter()
        .map(|t| phylo::write_newick(t, &c.taxa) + "\n")
        .collect()
}

/// The same trees with a malformed record, one with a label of its own,
/// every 97 lines.
fn with_bad_records(lines: &[String]) -> String {
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i % 97 == 5 {
            out.push_str("(t3,(t200,;\n");
        }
        out.push_str(line);
    }
    out
}

#[test]
fn tables_scores_and_reports_agree_across_threads_modes_and_sources() {
    let lines = lines();
    let text = lines.concat();
    assert!(lines.len() > 2 * CHUNK);
    let dirty = with_bad_records(&lines);
    let (clean, _) = phylo::ingest::read_collection(text.as_bytes(), IngestPolicy::Strict).unwrap();
    let (_, dirty_report) =
        phylo::ingest::read_collection(dirty.as_bytes(), IngestPolicy::lenient()).unwrap();
    assert_eq!(dirty_report.skipped.len(), 8);
    let binary = phylo_wire::collection_to_vec(&clean).unwrap();
    let want = BfhBuilder::new()
        .freeze_trees(&clean.trees, &clean.taxa)
        .unwrap();
    let bfh = Bfh::build(&clean.trees, &clean.taxa);
    let scores = bfhrf::rf::bfhrf_all(&clean.trees, &clean.taxa, &bfh).unwrap();
    let guard = RunGuard::default();
    let inputs: [(&str, &[u8], IngestPolicy); 3] = [
        ("newick", text.as_bytes(), IngestPolicy::Strict),
        ("lenient", dirty.as_bytes(), IngestPolicy::lenient()),
        ("bin", &binary, IngestPolicy::Strict),
    ];
    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for builder in [BfhBuilder::new(), BfhBuilder::new().parallel(true)] {
                let what = format!("{threads} threads, {builder:?}");
                let sliced = builder.freeze_trees(&clean.trees, &clean.taxa).unwrap();
                assert_eq!(sliced.digest(), want.digest(), "{what}");
                for (name, bytes, policy) in inputs {
                    let mut taxa = TaxonSet::new();
                    let mut stream =
                        phylo_wire::SniffedReader::open(bytes, &mut taxa, TaxaPolicy::Grow, policy)
                            .unwrap();
                    let (table, kept) = builder.freeze_stream_kept(&mut taxa, &mut stream).unwrap();
                    assert_eq!(table.digest(), want.digest(), "{name}, {what}");
                    assert_eq!(taxa.len(), clean.taxa.len(), "{name}, {what}");
                    for parallel in [false, true] {
                        let got = kept.score(&table, parallel, &guard).unwrap();
                        assert_eq!(got, scores, "{name}, {what}");
                    }
                    let report = stream.into_report();
                    if name == "lenient" {
                        assert_eq!(report, dirty_report, "{what}");
                    } else {
                        assert_eq!(report.accepted, clean.trees.len(), "{name}, {what}");
                        assert!(!report.is_partial(), "{name}, {what}");
                    }
                    // The streamed query scorer reads the same shapes.
                    let mut again = taxa.clone();
                    let mut queries = phylo_wire::SniffedReader::open(
                        bytes,
                        &mut again,
                        TaxaPolicy::Require,
                        policy,
                    )
                    .unwrap();
                    let streamed = bfhrf::rf::bfhrf_streaming(
                        &table,
                        &mut again,
                        threads > 1,
                        &guard,
                        &mut queries,
                    )
                    .unwrap();
                    assert_eq!(streamed, scores, "{name}, {what}");
                }
            }
        });
    }
}

#[test]
fn avgrf_reports_and_notes_agree_across_thread_counts() {
    let lines = lines();
    let dir = std::env::temp_dir().join(format!("bfhrf-shape-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirty = dir.join("dirty.nwk");
    std::fs::write(&dirty, with_bad_records(&lines)).unwrap();
    let queries = dir.join("queries.nwk");
    std::fs::write(&queries, lines[..40].concat()).unwrap();
    let dirty = dirty.display().to_string();
    let queries = queries.display().to_string();
    for extra in [&[][..], &["--queries", &queries][..]] {
        let run = |flags: &[&str]| {
            let argv: Vec<String> = ["avgrf", "--refs", &dirty, "--lenient"]
                .iter()
                .chain(extra)
                .chain(flags)
                .map(|s| s.to_string())
                .collect();
            let out = bfhrf_cli::run_full(&argv).unwrap();
            assert_eq!(out.code, bfhrf_cli::EXIT_PARTIAL, "{argv:?}");
            (out.stdout, out.notes)
        };
        let want = run(&["--threads", "1"]);
        assert!(
            want.1.iter().any(|n| n.contains("8 skipped")),
            "{:?}",
            want.1
        );
        for flags in [
            &["--threads", "2"][..],
            &["--threads", "4"][..],
            &["--algorithm", "bfhrf-seq"][..],
            &["--algorithm", "ds"][..],
        ] {
            assert_eq!(run(flags), want, "{extra:?} {flags:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
