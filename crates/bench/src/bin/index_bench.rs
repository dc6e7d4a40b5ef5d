//! Persistent-index benchmark, emitted as machine-readable JSON.
//!
//! ```text
//! index_bench [--trees R] [--frozen-trees F] [--repeats K] [--requests Q] [--out FILE]
//! ```
//!
//! Four questions, one file (`BENCH_index.json`):
//!
//! 1. **Startup**: how much faster is loading a snapshot than re-parsing
//!    the Newick collection and rebuilding the hash from scratch?
//!    (one warmup cycle, then median-of-K with CV for cold build,
//!    snapshot save, snapshot load)
//! 2. **Frozen open**: at `--frozen-trees` scale (default 100k trees,
//!    its own index directory), time-to-first-answer for the zero-copy
//!    path — `Index::open_frozen` mapping the `frozen.bfh` sidecar and
//!    probing it in place — vs the read-write `Index::open`, which
//!    streams the whole snapshot and cross-checks every split against the
//!    sidecar before taking it as its write base.
//!    Both sides answer the same `avgrf` query and both answers are
//!    asserted equal to the pre-computed live answer before any timing
//!    is recorded.
//! 3. **Catalog**: what does collection routing cost — a cold open
//!    (snapshot load + WAL replay on first acquire, the price of an LRU
//!    eviction) vs a warm acquire (pin an already-open collection, the
//!    steady-state per-request cost)?
//! 4. **Serving**: how many `avgrf` requests per second does `bfhrf
//!    serve` sustain with 1, 4, and 8 concurrent client connections —
//!    both as single-op request/response frames and as pipelined v2
//!    `batch` frames (64 queries each, `batch_qps` counts individual
//!    queries)? Rounds interleave the client counts and each row keeps
//!    its peak observed throughput (noise only ever subtracts).
//!
//! The loaded hash is checked against the freshly built one (counters
//! must match) so a timing win can never hide a correctness loss.

use bfhrf_cli::server::{ServeConfig, Server};
use phylo_index::Index;
use phylo_sim::DatasetSpec;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trees = 2000usize;
    let mut frozen_trees = 100_000usize;
    let mut repeats = 3usize;
    let mut requests = 50usize;
    let mut out_path = "BENCH_index.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("index_bench: {name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        let parse = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|e| {
                eprintln!("index_bench: bad {name}: {e}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--trees" => trees = parse("--trees", grab("--trees")),
            "--frozen-trees" => frozen_trees = parse("--frozen-trees", grab("--frozen-trees")),
            "--repeats" => repeats = parse("--repeats", grab("--repeats")),
            "--requests" => requests = parse("--requests", grab("--requests")),
            "--out" => out_path = grab("--out"),
            other => {
                eprintln!("index_bench: unknown argument {other:?}");
                eprintln!(
                    "usage: index_bench [--trees R] [--frozen-trees F] [--repeats K] [--requests Q] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let repeats = repeats.max(1);
    let requests = requests.max(1);

    eprintln!("[index_bench] generating insect preset (n=144, r={trees}) ...");
    let spec = DatasetSpec::insect().with_trees(trees);
    let ds = bfhrf_bench::datasets::prepare(&spec);

    let dir = std::env::temp_dir().join(format!("bfhrf-index-bench-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    let index_dir = dir.join("index");

    // -------- startup: cold rebuild vs snapshot save / load ------------
    // warmup cycle (unrecorded) + median-of-K with CV per phase
    let mut colds = Vec::with_capacity(repeats);
    let mut saves = Vec::with_capacity(repeats);
    let mut loads = Vec::with_capacity(repeats);
    let mut built = None;
    for rep in 0..=repeats {
        if rep == 0 {
            eprintln!("[index_bench] warmup cycle ...");
        } else {
            eprintln!("[index_bench] repeat {rep}/{repeats} ...");
        }
        let t = Instant::now();
        let coll = phylo::TreeCollection::parse(&ds.newick).expect("simulated trees parse");
        let bfh = bfhrf::Bfh::build_sharded(&coll.trees, &coll.taxa, 8);
        let cold_s = t.elapsed().as_secs_f64();

        if index_dir.exists() {
            std::fs::remove_dir_all(&index_dir).expect("clearing index dir");
        }
        let t = Instant::now();
        let index =
            Index::create(&index_dir, bfh.clone(), coll.taxa.clone()).expect("index create");
        let save_s = t.elapsed().as_secs_f64();
        drop(index);

        let t = Instant::now();
        let index = Index::open(&index_dir).expect("index open");
        let load_s = t.elapsed().as_secs_f64();
        assert_eq!(
            index.bfh().distinct(),
            bfh.distinct(),
            "loaded hash diverged"
        );
        assert_eq!(index.bfh().sum(), bfh.sum(), "loaded hash diverged");
        if rep > 0 {
            colds.push(cold_s);
            saves.push(save_s);
            loads.push(load_s);
        }
        built = Some((bfh, coll));
    }
    let (bfh, coll) = built.expect("at least one repeat ran");
    let (cold, cold_cv) = (
        bfhrf_bench::stats::median(&colds),
        bfhrf_bench::stats::coeff_of_variation(&colds),
    );
    let (save, save_cv) = (
        bfhrf_bench::stats::median(&saves),
        bfhrf_bench::stats::coeff_of_variation(&saves),
    );
    let (load, load_cv) = (
        bfhrf_bench::stats::median(&loads),
        bfhrf_bench::stats::coeff_of_variation(&loads),
    );
    eprintln!("[index_bench] cold build {cold:.4}s, snapshot save {save:.4}s, load {load:.4}s");

    // -------- frozen sidecar: zero-copy mmap open vs full open ---------
    // The tentpole claim of the frozen sidecar: a query-only consumer can
    // open a huge index without materializing a single split. Side A maps
    // `frozen.bfh` and probes it in place; side B is the read-write open —
    // the snapshot streamed and every split probed against the sidecar
    // before the sidecar becomes its base. Both sides
    // answer one avgrf query so "open" means time-to-first-answer, and
    // both answers are asserted equal to the live hash's before timing.
    eprintln!("[index_bench] frozen open: generating insect preset (n=144, r={frozen_trees}) ...");
    let fspec = DatasetSpec::insect().with_trees(frozen_trees);
    let fds = bfhrf_bench::datasets::prepare(&fspec);
    let fcoll = phylo::TreeCollection::parse(&fds.newick).expect("frozen-open trees parse");
    drop(fds);
    eprintln!("[index_bench] frozen open: building + persisting the index ...");
    let fbfh = bfhrf::Bfh::build_sharded(&fcoll.trees, &fcoll.taxa, 8);
    let fquery = fcoll.trees[0].clone();
    let expected = bfhrf::bfhrf_average(&fquery, &fcoll.taxa, &fbfh);
    let frozen_dir = dir.join("frozen");
    drop(Index::create(&frozen_dir, fbfh, fcoll.taxa.clone()).expect("frozen-open create"));
    let snap_bytes = std::fs::metadata(frozen_dir.join(phylo_index::SNAPSHOT_FILE))
        .expect("snapshot metadata")
        .len();
    let sidecar_bytes = std::fs::metadata(frozen_dir.join(phylo_index::FROZEN_FILE))
        .expect("sidecar metadata")
        .len();
    let mut scratch = phylo::BipartitionScratch::new();
    let mut mmap_opens = Vec::with_capacity(repeats);
    let mut full_opens = Vec::with_capacity(repeats);
    let mut mapped = false;
    for rep in 0..=repeats {
        let t = Instant::now();
        let fo = Index::open_frozen(&frozen_dir).expect("frozen open");
        let ans = fo.frozen.average_scratch(&fquery, &fo.taxa, &mut scratch);
        let mmap_s = t.elapsed().as_secs_f64();
        assert_eq!(ans, expected, "frozen-open answer diverged from live");
        mapped = fo.mapped;
        drop(fo);

        let t = Instant::now();
        let mut idx = Index::open(&frozen_dir).expect("full open");
        let frozen = idx.frozen();
        let ans = frozen.average_scratch(&fquery, &fcoll.taxa, &mut scratch);
        let full_s = t.elapsed().as_secs_f64();
        assert_eq!(ans, expected, "full-open answer diverged from live");
        drop(frozen);
        drop(idx);

        if rep > 0 {
            mmap_opens.push(mmap_s);
            full_opens.push(full_s);
        }
    }
    let (fz_open, fz_open_cv) = (
        bfhrf_bench::stats::median(&mmap_opens),
        bfhrf_bench::stats::coeff_of_variation(&mmap_opens),
    );
    let (full_open, full_open_cv) = (
        bfhrf_bench::stats::median(&full_opens),
        bfhrf_bench::stats::coeff_of_variation(&full_opens),
    );
    assert!(
        fz_open < full_open,
        "zero-copy open ({fz_open:.4}s) must beat the read-write open ({full_open:.4}s)"
    );
    eprintln!(
        "[index_bench] frozen open: mmap {:.1}ms vs full {:.1}ms → {:.1}x (mapped: {mapped}, snapshot {:.1} MiB, sidecar {:.1} MiB)",
        fz_open * 1e3,
        full_open * 1e3,
        full_open / fz_open,
        snap_bytes as f64 / (1 << 20) as f64,
        sidecar_bytes as f64 / (1 << 20) as f64,
    );
    std::fs::remove_dir_all(&frozen_dir).ok();
    drop(fcoll);

    // -------- catalog: cold open vs LRU-warm acquire -------------------
    // A cold acquire pays the full collection open (snapshot load + WAL
    // replay) — the cost an LRU eviction pushes onto the next request for
    // the evicted collection. A warm acquire just pins the open cell. The
    // gap is the budget/latency trade the catalog makes.
    let cat_dir = dir.join("catalog");
    let cat_trees: String = ds
        .newick
        .lines()
        .filter(|l| !l.trim().is_empty())
        .take(300)
        .map(|l| format!("{l}\n"))
        .collect();
    {
        let mut cat = phylo_index::Catalog::open(&cat_dir, None).expect("catalog open");
        cat.create("bench", &cat_trees).expect("catalog create");
    }
    let mut cat_colds = Vec::with_capacity(repeats);
    let mut cat_warms = Vec::with_capacity(repeats);
    const WARM_ACQUIRES: usize = 1000;
    for rep in 0..=repeats {
        // Fresh Catalog per repeat: the open pool starts empty, so the
        // first acquire is genuinely cold.
        let mut cat = phylo_index::Catalog::open(&cat_dir, None).expect("catalog reopen");
        let t = Instant::now();
        drop(cat.acquire("bench").expect("cold acquire"));
        let cold_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..WARM_ACQUIRES {
            drop(cat.acquire("bench").expect("warm acquire"));
        }
        let warm_s = t.elapsed().as_secs_f64() / WARM_ACQUIRES as f64;
        if rep > 0 {
            cat_colds.push(cold_s);
            cat_warms.push(warm_s);
        }
    }
    let (cat_cold, cat_cold_cv) = (
        bfhrf_bench::stats::median(&cat_colds),
        bfhrf_bench::stats::coeff_of_variation(&cat_colds),
    );
    let (cat_warm, cat_warm_cv) = (
        bfhrf_bench::stats::median(&cat_warms),
        bfhrf_bench::stats::coeff_of_variation(&cat_warms),
    );
    eprintln!(
        "[index_bench] catalog cold open {:.1}us, warm acquire {:.3}us ({:.0}x)",
        cat_cold * 1e6,
        cat_warm * 1e6,
        cat_cold / cat_warm
    );

    // -------- serving: avgrf throughput at 1/4/8 clients ---------------
    let newick = phylo::write_newick(&coll.trees[0], &coll.taxa);
    let query = format!(r#"{{"op":"avgrf","queries":["{newick}"]}}"#);
    let batch_size = 64usize;
    let batch_query = format!(
        r#"{{"v":2,"op":"batch","queries":[{}]}}"#,
        vec![format!("\"{newick}\""); batch_size].join(",")
    );
    // Slots ride well above the 8-client peak: rounds run back-to-back,
    // and a fresh round's connects can race the server's teardown of the
    // previous round's (already-closed) sockets.
    let srv = Server::bind(&ServeConfig {
        index_dir: index_dir.clone(),
        addr: "127.0.0.1:0".into(),
        threads: 32,
        mem_budget: None,
        timeout_ms: None,
        catalog_dir: None,
    })
    .expect("server bind");
    let addr = srv.local_addr();
    let handle = std::thread::spawn(move || srv.run().expect("server run"));

    // per client count: one warmup batch, then `repeats` timed batches.
    // Clients pipeline single-op frames (window of 4 in flight) the way a
    // v2 client does, and connect + park on a barrier first so connect and
    // thread-spawn cost stays outside the timed window.
    let frame = format!("{query}\n").into_bytes();
    let run_batch = |clients: usize, n_requests: usize| -> f64 {
        let barrier = std::sync::Barrier::new(clients + 1);
        let mut t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let frame = &frame;
                let barrier = &barrier;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("client connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut writer = stream.try_clone().expect("client clone");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    let mut sent = 0usize;
                    let mut read = 0usize;
                    barrier.wait();
                    while read < n_requests {
                        while sent < n_requests && sent - read < 4 {
                            writer.write_all(frame).expect("client write");
                            sent += 1;
                        }
                        line.clear();
                        reader.read_line(&mut line).expect("client read");
                        assert!(line.contains("\"ok\":true"), "server refused: {line}");
                        read += 1;
                    }
                });
            }
            barrier.wait();
            t = Instant::now();
        });
        t.elapsed().as_secs_f64()
    };
    // Same shape for the v2 batch op: each client pipelines `frames`
    // batch frames (window of 4 in flight) on one connection; the row's
    // batch_qps counts individual queries served per second.
    let batch_frame = format!("{batch_query}\n").into_bytes();
    let run_batch_op = |clients: usize, frames: usize| -> f64 {
        let barrier = std::sync::Barrier::new(clients + 1);
        let mut t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let batch_frame = &batch_frame;
                let barrier = &barrier;
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("client connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut writer = stream.try_clone().expect("client clone");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    let mut sent = 0usize;
                    let mut read = 0usize;
                    barrier.wait();
                    while read < frames {
                        while sent < frames && sent - read < 2 {
                            writer.write_all(batch_frame).expect("client write");
                            sent += 1;
                        }
                        line.clear();
                        reader.read_line(&mut line).expect("client read");
                        assert!(line.contains("\"ok\":true"), "server refused: {line}");
                        read += 1;
                    }
                });
            }
            barrier.wait();
            t = Instant::now();
        });
        t.elapsed().as_secs_f64()
    };
    // Rounds interleave the client counts (1, 4, 8, 1, 4, 8, ...) so any
    // slow drift on the host — cache warming, background load — taxes
    // every row equally instead of biasing whichever count ran last.
    let batch_frames = (requests / 4).max(4);
    const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];
    let serve_repeats = repeats.max(5);
    for &clients in &CLIENT_COUNTS {
        run_batch(clients, (requests / 4).max(5)); // warmup
        run_batch_op(clients, (batch_frames / 2).max(2)); // warmup
    }
    let mut secs_by = [const { Vec::new() }; CLIENT_COUNTS.len()];
    let mut qps_by = [const { Vec::new() }; CLIENT_COUNTS.len()];
    let mut batch_qps_by = [const { Vec::new() }; CLIENT_COUNTS.len()];
    for _ in 0..serve_repeats {
        for (i, &clients) in CLIENT_COUNTS.iter().enumerate() {
            let seconds = run_batch(clients, requests);
            secs_by[i].push(seconds);
            qps_by[i].push((clients * requests) as f64 / seconds);
            let seconds = run_batch_op(clients, batch_frames);
            batch_qps_by[i].push((clients * batch_frames * batch_size) as f64 / seconds);
        }
    }
    // Rows carry peak q/s over the rounds (noise — a preempting neighbour,
    // a cold cache — only ever subtracts from a throughput sample, so the
    // maximum is the closest estimate of true capacity; same argument the
    // obs-overhead bench documents), with the CV across rounds for honesty.
    let peak = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut serve_rows = Vec::new();
    for (i, &clients) in CLIENT_COUNTS.iter().enumerate() {
        let total = clients * requests;
        let seconds = secs_by[i].iter().copied().fold(f64::INFINITY, f64::min);
        let qps = peak(&qps_by[i]);
        let cv = bfhrf_bench::stats::coeff_of_variation(&qps_by[i]);
        let batch_qps = peak(&batch_qps_by[i]);
        let batch_cv = bfhrf_bench::stats::coeff_of_variation(&batch_qps_by[i]);
        eprintln!(
            "[index_bench] {clients} client(s): {total} requests in {seconds:.4}s ({qps:.1}/s, cv {cv:.3}); batch op {batch_qps:.1} q/s (cv {batch_cv:.3})"
        );
        serve_rows.push((clients, total, seconds, qps, cv, batch_qps, batch_cv));
    }

    let mut bye = TcpStream::connect(addr).expect("shutdown connect");
    bye.write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("shutdown write");
    drop(bye);
    handle.join().expect("server thread");

    // -------- emit ------------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"name\": \"insect\", \"n_taxa\": {}, \"n_trees\": {}, \"distinct\": {}}},",
        coll.taxa.len(),
        coll.len(),
        bfh.distinct()
    );
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    json.push_str("  \"warmup\": 1,\n");
    let _ = writeln!(json, "  \"cold_build_seconds\": {cold:.6},");
    let _ = writeln!(json, "  \"cold_build_cv\": {cold_cv:.4},");
    let _ = writeln!(json, "  \"snapshot_save_seconds\": {save:.6},");
    let _ = writeln!(json, "  \"snapshot_save_cv\": {save_cv:.4},");
    let _ = writeln!(json, "  \"snapshot_load_seconds\": {load:.6},");
    let _ = writeln!(json, "  \"snapshot_load_cv\": {load_cv:.4},");
    let _ = writeln!(
        json,
        "  \"load_speedup_vs_cold_build\": {:.3},",
        cold / load
    );
    let _ = writeln!(json, "  \"frozen_trees\": {frozen_trees},");
    let _ = writeln!(json, "  \"frozen_snapshot_bytes\": {snap_bytes},");
    let _ = writeln!(json, "  \"frozen_sidecar_bytes\": {sidecar_bytes},");
    let _ = writeln!(json, "  \"frozen_mapped\": {mapped},");
    let _ = writeln!(json, "  \"frozen_open_seconds\": {fz_open:.6},");
    let _ = writeln!(json, "  \"frozen_open_cv\": {fz_open_cv:.4},");
    let _ = writeln!(json, "  \"full_open_seconds\": {full_open:.6},");
    let _ = writeln!(json, "  \"full_open_cv\": {full_open_cv:.4},");
    let _ = writeln!(
        json,
        "  \"frozen_open_speedup_vs_full\": {:.3},",
        full_open / fz_open
    );
    let _ = writeln!(json, "  \"catalog_cold_open_seconds\": {cat_cold:.9},");
    let _ = writeln!(json, "  \"catalog_cold_open_cv\": {cat_cold_cv:.4},");
    let _ = writeln!(json, "  \"catalog_warm_acquire_seconds\": {cat_warm:.9},");
    let _ = writeln!(json, "  \"catalog_warm_acquire_cv\": {cat_warm_cv:.4},");
    let _ = writeln!(
        json,
        "  \"catalog_warm_speedup_vs_cold\": {:.3},",
        cat_cold / cat_warm
    );
    let _ = writeln!(json, "  \"batch_size\": {batch_size},");
    json.push_str("  \"serve\": [\n");
    for (i, (clients, total, seconds, qps, cv, batch_qps, batch_cv)) in
        serve_rows.iter().enumerate()
    {
        let _ = write!(
            json,
            "    {{\"clients\": {clients}, \"requests\": {total}, \"seconds\": {seconds:.6}, \"qps\": {qps:.1}, \"cv\": {cv:.4}, \"batch_qps\": {batch_qps:.1}, \"batch_cv\": {batch_cv:.4}}}"
        );
        json.push_str(if i + 1 < serve_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "snapshot load vs cold rebuild: {:.2}x (written to {out_path})",
        cold / load
    );
}
