//! The serve daemon instruments each request at its boundary: a clock
//! pair, one histogram record and one counter bump, through handles it
//! resolves once at bind. This holds that record to its budget. Over
//! 100 000 records it allocates nothing, and its best-of-5 cost per record
//! stays under 3% of one insect-preset query scored against the frozen
//! table (extraction plus probe), measured in the same test.
//!
//! One test per binary: the counting allocator sees every thread.

use bfhrf::BfhBuilder;
use bfhrf_bench::peak_alloc::{InstallPeakAlloc, GLOBAL};
use phylo::BipartitionScratch;
use phylo_sim::datasets::{generate, DatasetSpec};
use std::time::Instant;

#[global_allocator]
static ALLOC: InstallPeakAlloc = InstallPeakAlloc;

/// Records per timed round, and in the allocation count.
const RECORDS: usize = 100_000;
/// Reference trees in the table.
const R: usize = 2_000;
/// Queries per timed round.
const QUERIES: usize = 200;
/// Timed rounds per side; each side is scored by its best round, since
/// noise only ever inflates a round.
const ROUNDS: usize = 5;
/// The record's budget, as a share of one query.
const MAX_SHARE: f64 = 0.03;

/// The fastest of [`ROUNDS`] runs of `f`, in seconds.
fn best_of(mut f: impl FnMut()) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn request_record_allocates_nothing_and_costs_under_3_percent_of_a_query() {
    let latency = phylo_obs::global().histogram("obs_overhead_request_ns", &[]);
    let requests = phylo_obs::global().counter("obs_overhead_requests_total", &[]);
    let record = || {
        let t = Instant::now();
        latency.record_duration(t.elapsed());
        requests.inc();
    };

    GLOBAL.reset_peak();
    let start = GLOBAL.current_bytes();
    for _ in 0..RECORDS {
        record();
    }
    let grown = GLOBAL.peak_bytes() - start;
    assert_eq!(
        grown, 0,
        "{RECORDS} request records allocated {grown} bytes"
    );
    assert_eq!(latency.count(), RECORDS as u64);
    assert_eq!(requests.get(), RECORDS as u64);

    let coll = generate(&DatasetSpec::insect().with_trees(R));
    let table = BfhBuilder::new()
        .freeze_trees(&coll.trees, &coll.taxa)
        .unwrap();
    let queries = &coll.trees[..QUERIES];
    let mut scratch = BipartitionScratch::new();
    let per_record = best_of(|| (0..RECORDS).for_each(|_| record())) / RECORDS as f64;
    let per_query = best_of(|| {
        for q in queries {
            std::hint::black_box(table.average_scratch(q, &coll.taxa, &mut scratch));
        }
    }) / QUERIES as f64;
    let share = per_record / per_query;
    let report = format!(
        "request record {:.0} ns, insect query {:.1} us: {:.2}% of a query (budget {:.0}%)",
        per_record * 1e9,
        per_query * 1e6,
        share * 100.0,
        MAX_SHARE * 100.0
    );
    eprintln!("{report}");
    assert!(share < MAX_SHARE, "{report}");
}
