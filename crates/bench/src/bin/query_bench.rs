//! Query-path benchmark: frozen probe-optimized kernel vs the live
//! hashbrown hash, emitted as machine-readable JSON (`BENCH_query.json`).
//!
//! ```text
//! query_bench [--fast] [--trees R] [--queries Q] [--repeats K] [--out FILE]
//! ```
//!
//! Six sections, one file:
//!
//! 1. **Single-thread probe path**: the headline. Query splits are
//!    extracted and hashed once up front (both paths share that cost in
//!    production), then the pure probe kernels race over the same
//!    batches: the hashbrown map probe (`split_frequency_words` per
//!    split) vs the frozen pipelined kernel
//!    (`FrozenBfh::frequency_sum_batch`). Target: ≥ 1.5× (measured
//!    ~2×). Reported as median seconds with CV and probes/second.
//! 2. **Wire ablation**: rebuilding a `Tree` per wire item by Newick
//!    parse vs phylo-wire binary decode (`decode_tree_exact`), splits
//!    asserted bitwise identical (masks and hashes) before timing; rounds
//!    alternate and each side keeps its best. Target: decode ≥ 5× faster per
//!    tree. The cell also records the payload sizes of both encodings.
//! 3. **End-to-end**: full single-thread query scoring — extraction +
//!    hashing + probing + Algorithm 2 — live (`bfhrf_average_scratch`
//!    over `Bfh`) vs frozen (`FrozenBfh::average_scratch`). Extraction
//!    dominates here (~70% of a query at n = 144), so this speedup is
//!    the diluted, whole-pipeline view of the same kernel win.
//! 4. **Multi-thread**: the same batch through the parallel comparators.
//!    The cell records the detected core count — on a 1-core host the
//!    rayon pools serialize and the frozen-vs-live ratio collapses
//!    toward the end-to-end ratio, which is expected, not a regression.
//! 5. **Serve**: q/s of a real `bfhrf serve` daemon (frozen snapshot
//!    path) over one connection, three ways — strict request/response
//!    single-op frames, the same frames pipelined (window of 32 in
//!    flight), and v2 `batch` frames (64 queries each) — next to an
//!    in-process emulation of the pre-freeze request path (parse + live
//!    sequential probe per request) for the before/after contrast. Each
//!    cell keeps its peak q/s over `repeats` rounds.
//! 6. **Obs overhead**: the frozen probe loop bare vs wrapped in the
//!    same request-boundary instrumentation the serve daemon uses (one
//!    clock pair + histogram record + counter bump per request, where
//!    one request covers the whole query batch, as served avgrf does).
//!    Measured
//!    as best-of-N interleaved rounds (noise only inflates a round) and
//!    asserted within 3%, re-measured up to three times on a miss.
//!
//! Every frozen answer is asserted equal to the live answer before any
//! timing is reported — a throughput win can never hide a correctness
//! loss.

use bfhrf::{BfhrfComparator, Comparator, FrozenComparator};
use bfhrf_bench::measure::measured_repeats;
use phylo::BipartitionScratch;
use phylo_obs::json::Json;
use phylo_sim::DatasetSpec;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trees = 2000usize;
    let mut queries = 200usize;
    let mut repeats = 5usize;
    let mut requests = 300usize;
    let mut out_path = "BENCH_query.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("query_bench: {name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        let parse = |name: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|e| {
                eprintln!("query_bench: bad {name}: {e}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--fast" => {
                trees = 300;
                queries = 50;
                repeats = 2;
                requests = 50;
            }
            "--trees" => trees = parse("--trees", grab("--trees")),
            "--queries" => queries = parse("--queries", grab("--queries")),
            "--repeats" => repeats = parse("--repeats", grab("--repeats")),
            "--requests" => requests = parse("--requests", grab("--requests")),
            "--out" => out_path = grab("--out"),
            other => {
                eprintln!("query_bench: unknown argument {other:?}");
                eprintln!(
                    "usage: query_bench [--fast] [--trees R] [--queries Q] [--repeats K] [--requests N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let repeats = repeats.max(1);
    let queries = queries.max(1);

    eprintln!("[query_bench] generating insect preset (n=144, r={trees}) ...");
    let spec = DatasetSpec::insect().with_trees(trees);
    let ds = bfhrf_bench::datasets::prepare(&spec);
    let coll = phylo::TreeCollection::parse(&ds.newick).expect("simulated trees parse");
    let q: Vec<phylo::Tree> = coll.trees.iter().take(queries).cloned().collect();

    eprintln!("[query_bench] building + freezing the hash ...");
    let bfh = bfhrf::Bfh::build_sharded(&coll.trees, &coll.taxa, 8);
    let frozen = bfh.freeze();

    // Correctness first: frozen must answer exactly like live on every
    // query before any throughput number is written down.
    {
        let mut scratch = BipartitionScratch::new();
        for tree in &q {
            assert_eq!(
                bfhrf::bfhrf_average(tree, &coll.taxa, &bfh),
                frozen.average_scratch(tree, &coll.taxa, &mut scratch),
                "frozen diverged from live"
            );
        }
    }

    // -------- single-thread probe path (the headline) ------------------
    // Extract + hash every query's splits once, as production batched
    // scoring does, then race the two probe kernels over identical input.
    eprintln!("[query_bench] probe path: hashbrown vs frozen kernel ...");
    use bfhrf::SplitFrequency;
    let batches: Vec<(usize, Vec<u64>, Vec<u128>)> = {
        let mut scratch = BipartitionScratch::new();
        q.iter()
            .map(|tree| {
                let b = scratch.batch_splits(tree, &coll.taxa);
                let masks: Vec<u64> = (0..b.len())
                    .flat_map(|i| b.mask(i).iter().copied())
                    .collect();
                (b.words(), masks, b.hashes().to_vec())
            })
            .collect()
    };
    let total_probes: usize = batches.iter().map(|(_, _, h)| h.len()).sum();
    {
        // both kernels must sum the same frequencies over the same batches
        let mut live_sum = 0u64;
        let mut frozen_sum = 0u64;
        for (words, masks, hashes) in &batches {
            for i in 0..hashes.len() {
                let w = &masks[i * words..(i + 1) * words];
                live_sum += u64::from(bfh.split_frequency_words(coll.taxa.len(), w));
            }
            let batch = phylo::SplitBatch::from_parts(*words, masks, hashes);
            frozen_sum += frozen.frequency_sum_batch(&batch);
        }
        assert_eq!(live_sum, frozen_sum, "probe kernels diverged");
    }
    let live_probe = measured_repeats(1, repeats, || {
        let mut acc = 0u64;
        for (words, masks, hashes) in &batches {
            for i in 0..hashes.len() {
                let w = &masks[i * words..(i + 1) * words];
                acc += u64::from(bfh.split_frequency_words(coll.taxa.len(), w));
            }
        }
        acc
    });
    let frozen_probe = measured_repeats(1, repeats, || {
        let mut acc = 0u64;
        for (words, masks, hashes) in &batches {
            let batch = phylo::SplitBatch::from_parts(*words, masks, hashes);
            acc += frozen.frequency_sum_batch(&batch);
        }
        acc
    });
    let probe_speedup = live_probe.median_s / frozen_probe.median_s;
    eprintln!(
        "[query_bench] probe path: live {:.1} ns/probe (cv {:.3}), frozen {:.1} ns/probe (cv {:.3}) → {probe_speedup:.2}x",
        live_probe.median_s * 1e9 / total_probes as f64,
        live_probe.cv,
        frozen_probe.median_s * 1e9 / total_probes as f64,
        frozen_probe.cv
    );

    // -------- wire ablation: Newick parse vs binary record decode -------
    // The serve payload path rebuilds a `Tree` per wire item either by
    // parsing Newick text or by decoding a phylo-wire record. Both
    // reconstructions must yield bitwise-identical splits (masks *and*
    // hashes) before either is timed, so the decode speedup can never
    // hide a topology change.
    eprintln!("[query_bench] wire ablation: newick parse vs binary decode ...");
    let wire_newicks: Vec<String> = q
        .iter()
        .map(|t| phylo::write_newick(t, &coll.taxa))
        .collect();
    let wire_records: Vec<Vec<u8>> = q
        .iter()
        .map(|t| phylo_wire::encode_tree_vec(t).expect("simulated trees encode"))
        .collect();
    let wire_newick_bytes: usize = wire_newicks.iter().map(String::len).sum();
    let wire_bin_bytes: usize = wire_records.iter().map(Vec::len).sum();
    // The two decoders differ by a few µs per tree, inside this host's
    // run-to-run noise, so rounds alternate parse/decode (a noisy
    // neighbour taxes both sides equally) and each side is scored by its
    // best round: additive noise only ever inflates a round, so the
    // minimum is the closest estimate of the true cost.
    let ablation_rounds = repeats.max(5) * 2;
    {
        let mut sp = BipartitionScratch::new();
        let mut sd = BipartitionScratch::new();
        for (newick, record) in wire_newicks.iter().zip(&wire_records) {
            let parsed = phylo::parse_newick_readonly(newick, &coll.taxa).expect("query parses");
            let decoded =
                phylo_wire::decode_tree_exact(record, coll.taxa.len()).expect("record decodes");
            let bp = sp.batch_splits(&parsed, &coll.taxa);
            let pm: Vec<u64> = (0..bp.len())
                .flat_map(|i| bp.mask(i).iter().copied())
                .collect();
            let ph = bp.hashes().to_vec();
            let bd = sd.batch_splits(&decoded, &coll.taxa);
            let dm: Vec<u64> = (0..bd.len())
                .flat_map(|i| bd.mask(i).iter().copied())
                .collect();
            assert_eq!(pm, dm, "decoded splits diverged from parsed splits");
            assert_eq!(ph, bd.hashes(), "decoded split hashes diverged");
        }
    }
    let wire_round = |decode: bool| {
        let t = Instant::now();
        let mut acc = 0usize;
        if decode {
            for record in &wire_records {
                acc += phylo_wire::decode_tree_exact(record, coll.taxa.len())
                    .expect("record decodes")
                    .num_nodes();
            }
        } else {
            for newick in &wire_newicks {
                acc += phylo::parse_newick_readonly(newick, &coll.taxa)
                    .expect("query parses")
                    .num_nodes();
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    };
    let (wire_parse, wire_decode) = {
        wire_round(false); // warmup
        wire_round(true);
        let mut parse_times = Vec::with_capacity(ablation_rounds);
        let mut decode_times = Vec::with_capacity(ablation_rounds);
        for _ in 0..ablation_rounds {
            parse_times.push(wire_round(false));
            decode_times.push(wire_round(true));
        }
        let best = |ts: &[f64]| ts.iter().copied().fold(f64::INFINITY, f64::min);
        let cv = bfhrf_bench::stats::coeff_of_variation;
        (
            (best(&parse_times), cv(&parse_times)),
            (best(&decode_times), cv(&decode_times)),
        )
    };
    let wire_speedup = wire_parse.0 / wire_decode.0;
    eprintln!(
        "[query_bench] wire ablation: parse {:.1} us/tree (cv {:.3}), decode {:.1} us/tree (cv {:.3}) → {wire_speedup:.2}x ({wire_bin_bytes} B bin vs {wire_newick_bytes} B newick)",
        wire_parse.0 * 1e6 / q.len() as f64,
        wire_parse.1,
        wire_decode.0 * 1e6 / q.len() as f64,
        wire_decode.1
    );

    // -------- end-to-end single-thread query scoring -------------------
    eprintln!("[query_bench] end-to-end: live vs frozen ...");
    let live_st = measured_repeats(1, repeats, || {
        let mut scratch = BipartitionScratch::new();
        let mut acc = 0u64;
        for tree in &q {
            let rf = bfhrf::rf::bfhrf_average_scratch(tree, &coll.taxa, &bfh, &mut scratch);
            acc = acc.wrapping_add(rf.left + rf.right);
        }
        acc
    });
    let frozen_st = measured_repeats(1, repeats, || {
        let mut scratch = BipartitionScratch::new();
        let mut acc = 0u64;
        for tree in &q {
            let rf = frozen.average_scratch(tree, &coll.taxa, &mut scratch);
            acc = acc.wrapping_add(rf.left + rf.right);
        }
        acc
    });
    let st_speedup = live_st.median_s / frozen_st.median_s;
    eprintln!(
        "[query_bench] end-to-end: live {:.4}s (cv {:.3}), frozen {:.4}s (cv {:.3}) → {st_speedup:.2}x",
        live_st.median_s, live_st.cv, frozen_st.median_s, frozen_st.cv
    );

    // -------- multi-thread comparator throughput -----------------------
    // Record the detected core count next to the ratio: on a 1-core host
    // both rayon pools serialize, so live and frozen pay the same
    // extraction cost sequentially and the frozen speedup collapses
    // toward the end-to-end ratio. That near-1.0x is host topology, not
    // a kernel regression — the cell says so.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("[query_bench] multi-thread comparators ({cores} core(s)) ...");
    let live_cmp = BfhrfComparator::new(&bfh, &coll.taxa).parallel(true);
    let frozen_cmp = FrozenComparator::new(&frozen, &coll.taxa).parallel(true);
    assert_eq!(
        live_cmp.average_all(&q).expect("live batch"),
        frozen_cmp.average_all(&q).expect("frozen batch"),
        "parallel frozen diverged from live"
    );
    let live_mt = measured_repeats(1, repeats, || live_cmp.average_all(&q).expect("live batch"));
    let frozen_mt = measured_repeats(1, repeats, || {
        frozen_cmp.average_all(&q).expect("frozen batch")
    });
    let mt_speedup = live_mt.median_s / frozen_mt.median_s;
    eprintln!(
        "[query_bench] multi-thread: live {:.4}s, frozen {:.4}s → {mt_speedup:.2}x",
        live_mt.median_s, frozen_mt.median_s
    );

    // -------- serve: daemon qps vs pre-freeze request-path emulation ---
    eprintln!("[query_bench] serve daemon ({requests} requests, 1 client) ...");
    let dir = std::env::temp_dir().join(format!("bfhrf-query-bench-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing scratch dir");
    }
    let index_dir = dir.join("index");
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    phylo_index::Index::create(&index_dir, bfh.clone(), coll.taxa.clone()).expect("index create");

    let newick = phylo::write_newick(&coll.trees[0], &coll.taxa);
    let query_line = format!(r#"{{"op":"avgrf","queries":["{newick}"]}}"#);
    let srv = bfhrf_cli::server::Server::bind(&bfhrf_cli::server::ServeConfig {
        index_dir: index_dir.clone(),
        addr: "127.0.0.1:0".into(),
        threads: 4,
        mem_budget: None,
        timeout_ms: None,
        catalog_dir: None,
    })
    .expect("server bind");
    let addr = srv.local_addr();
    let handle = std::thread::spawn(move || srv.run().expect("server run"));
    // Each serve cell runs one warmup round plus `repeats` timed rounds on
    // a persistent connection and keeps the peak q/s — noise (a preempting
    // neighbour, a cold cache) only ever subtracts from a throughput
    // sample, so the maximum is the closest estimate of true capacity.
    let serve_qps = {
        let stream = TcpStream::connect(addr).expect("client connect");
        let mut writer = stream.try_clone().expect("client clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let frame = format!("{query_line}\n").into_bytes();
        let mut send = |n: usize| {
            for _ in 0..n {
                writer.write_all(&frame).expect("client write");
                line.clear();
                reader.read_line(&mut line).expect("client read");
                assert!(line.contains("\"ok\":true"), "server refused: {line}");
            }
        };
        send((requests / 4).max(5)); // warmup
        let mut best = 0f64;
        for _ in 0..repeats {
            let t = Instant::now();
            send(requests);
            best = best.max(requests as f64 / t.elapsed().as_secs_f64());
        }
        best
    };

    // Pipelined: the same single-query op, but with a window of frames in
    // flight on one connection so framing and scoring overlap instead of
    // alternating. This is what `bfhrf query --batch 1` does on the wire.
    eprintln!("[query_bench] serve daemon, pipelined single-op frames ...");
    let pipeline_window = 32usize;
    let pipelined_qps = {
        let stream = TcpStream::connect(addr).expect("client connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("client clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let frame = format!("{query_line}\n").into_bytes();
        let mut run = |n: usize| {
            let mut sent = 0usize;
            let mut read = 0usize;
            while read < n {
                while sent < n && sent - read < pipeline_window {
                    writer.write_all(&frame).expect("client write");
                    sent += 1;
                }
                line.clear();
                reader.read_line(&mut line).expect("client read");
                assert!(line.contains("\"ok\":true"), "server refused: {line}");
                read += 1;
            }
        };
        run((requests / 4).max(5)); // warmup
        let mut best = 0f64;
        for _ in 0..repeats {
            let t = Instant::now();
            run(requests);
            best = best.max(requests as f64 / t.elapsed().as_secs_f64());
        }
        best
    };

    // Batch: the v2 headline op — many queries per frame, one snapshot,
    // one response. Framing + JSON + syscall cost amortize over the whole
    // frame, which is where the wire path finally catches the kernel.
    let batch_size = 64usize;
    let batch_frames = (requests / 4).max(8);
    eprintln!(
        "[query_bench] serve daemon, batch op ({batch_frames} frames x {batch_size} queries) ..."
    );
    let batch_line = format!(
        r#"{{"v":2,"op":"batch","queries":[{}]}}"#,
        vec![format!("\"{newick}\""); batch_size].join(",")
    );
    let batch_qps = {
        let stream = TcpStream::connect(addr).expect("client connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut writer = stream.try_clone().expect("client clone");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let frame = format!("{batch_line}\n").into_bytes();
        let mut run = |frames: usize| {
            let mut sent = 0usize;
            let mut read = 0usize;
            while read < frames {
                while sent < frames && sent - read < 2 {
                    writer.write_all(&frame).expect("client write");
                    sent += 1;
                }
                line.clear();
                reader.read_line(&mut line).expect("client read");
                assert!(line.contains("\"ok\":true"), "server refused: {line}");
                read += 1;
            }
        };
        run((batch_frames / 4).max(2)); // warmup
        let mut best = 0f64;
        for _ in 0..repeats {
            let t = Instant::now();
            run(batch_frames);
            best = best.max((batch_frames * batch_size) as f64 / t.elapsed().as_secs_f64());
        }
        best
    };
    eprintln!(
        "[query_bench] serve: sequential {serve_qps:.1} q/s, pipelined {pipelined_qps:.1} q/s, batch {batch_qps:.1} q/s"
    );

    let mut bye = TcpStream::connect(addr).expect("shutdown connect");
    bye.write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("shutdown write");
    drop(bye);
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();

    // The pre-freeze request path, minus the socket: clone-namespace
    // parse + live sequential probe per request (what each served query
    // cost before the frozen snapshot existed).
    let newick0 = phylo::write_newick(&coll.trees[0], &coll.taxa);
    let inproc_live = measured_repeats(1, repeats, || {
        let mut acc = 0u64;
        for _ in 0..requests {
            let mut scratch_taxa = coll.taxa.clone();
            let tree = phylo::parse_newick(&newick0, &mut scratch_taxa, phylo::TaxaPolicy::Require)
                .expect("query parses");
            let rf = bfhrf::bfhrf_average(&tree, &coll.taxa, &bfh);
            acc = acc.wrapping_add(rf.left + rf.right);
        }
        acc
    });
    let inproc_frozen = measured_repeats(1, repeats, || {
        let mut scratch = BipartitionScratch::new();
        let mut acc = 0u64;
        for _ in 0..requests {
            let tree = phylo::parse_newick_readonly(&newick0, &coll.taxa).expect("query parses");
            let rf = frozen.average_scratch(&tree, &coll.taxa, &mut scratch);
            acc = acc.wrapping_add(rf.left + rf.right);
        }
        acc
    });
    let inproc_live_qps = requests as f64 / inproc_live.median_s;
    let inproc_frozen_qps = requests as f64 / inproc_frozen.median_s;
    eprintln!(
        "[query_bench] serve {serve_qps:.1} q/s; in-process request path: live {inproc_live_qps:.1} q/s, frozen {inproc_frozen_qps:.1} q/s"
    );

    // -------- obs overhead: bare vs instrumented probe loop -------------
    // The serve daemon instruments at request boundaries only: one clock
    // pair, one histogram record, one counter bump per request. Replay
    // exactly that pattern around the frozen probe kernel and require the
    // overhead to stay within 3%. The quantity under test is a
    // nanoseconds-per-query delta, so a noisy CI neighbour can fake a
    // regression — re-measure up to three times before believing one.
    eprintln!("[query_bench] obs overhead: bare vs instrumented probe loop ...");
    const OBS_MAX_RATIO: f64 = 1.03;
    // The daemon records once per request — one avgrf request covers a
    // whole query file — so one pass over all the batches is the honest
    // request analogue here. A single pass is sub-millisecond, far too
    // short to resolve a 3% delta against timer jitter, so each timed
    // round runs many request-passes back to back. Rounds alternate
    // bare/instrumented so a noisy neighbour taxes both sides equally,
    // and each side is scored by its best round (additive noise only
    // ever inflates a round, so the minimum is the closest estimate of
    // the true cost).
    const OBS_PASSES: usize = 16;
    let obs_lat = phylo_obs::global().histogram("bench_probe_ns", &[]);
    let obs_ctr = phylo_obs::global().counter("bench_probe_total", &[]);
    let bare_pass = || {
        let mut acc = 0u64;
        for _ in 0..OBS_PASSES {
            for (words, masks, hashes) in &batches {
                let batch = phylo::SplitBatch::from_parts(*words, masks, hashes);
                acc += frozen.frequency_sum_batch(&batch);
            }
        }
        acc
    };
    let inst_pass = || {
        let mut acc = 0u64;
        for _ in 0..OBS_PASSES {
            let t = Instant::now();
            for (words, masks, hashes) in &batches {
                let batch = phylo::SplitBatch::from_parts(*words, masks, hashes);
                acc += frozen.frequency_sum_batch(&batch);
            }
            obs_lat.record_duration(t.elapsed());
            obs_ctr.inc();
        }
        acc
    };
    let timed = |f: &dyn Fn() -> u64| {
        let t = Instant::now();
        std::hint::black_box(f());
        t.elapsed().as_secs_f64()
    };
    let obs_rounds = repeats.max(5) * 2;
    let (obs_bare, obs_inst, obs_ratio, obs_attempts) = {
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            std::hint::black_box(bare_pass());
            std::hint::black_box(inst_pass());
            let mut bare_times = Vec::with_capacity(obs_rounds);
            let mut inst_times = Vec::with_capacity(obs_rounds);
            for _ in 0..obs_rounds {
                bare_times.push(timed(&bare_pass));
                inst_times.push(timed(&inst_pass));
            }
            let best = |ts: &[f64]| ts.iter().copied().fold(f64::INFINITY, f64::min);
            let (bare_s, inst_s) = (best(&bare_times), best(&inst_times));
            let ratio = inst_s / bare_s;
            if ratio <= OBS_MAX_RATIO || attempt >= 3 {
                let cv = bfhrf_bench::stats::coeff_of_variation;
                break (
                    (bare_s, cv(&bare_times)),
                    (inst_s, cv(&inst_times)),
                    ratio,
                    attempt,
                );
            }
            eprintln!(
                "[query_bench] obs overhead {ratio:.4}x > {OBS_MAX_RATIO:.2}x, re-measuring (attempt {attempt}/3) ..."
            );
        }
    };
    eprintln!(
        "[query_bench] obs overhead: bare {:.6}s, instrumented {:.6}s → {obs_ratio:.4}x ({obs_attempts} attempt(s))",
        obs_bare.0, obs_inst.0
    );
    assert!(
        obs_ratio <= OBS_MAX_RATIO,
        "request-boundary instrumentation costs {obs_ratio:.4}x (> {OBS_MAX_RATIO:.2}x) \
         over the bare probe loop after {obs_attempts} attempts"
    );

    // -------- emit ------------------------------------------------------
    let q_per_run = q.len() as f64;
    let doc = Json::obj(vec![
        (
            "dataset",
            Json::obj(vec![
                ("name", "insect".into()),
                ("n_taxa", coll.taxa.len().into()),
                ("n_trees", coll.len().into()),
                ("distinct", frozen.distinct().into()),
            ]),
        ),
        ("queries", q.len().into()),
        ("repeats", repeats.into()),
        ("warmup", 1u64.into()),
        (
            "single_thread",
            Json::obj(vec![
                ("probes", total_probes.into()),
                ("live_seconds", live_probe.median_s.into()),
                ("live_cv", live_probe.cv.into()),
                (
                    "live_mprobes_per_s",
                    (total_probes as f64 / live_probe.median_s / 1e6).into(),
                ),
                ("frozen_seconds", frozen_probe.median_s.into()),
                ("frozen_cv", frozen_probe.cv.into()),
                (
                    "frozen_mprobes_per_s",
                    (total_probes as f64 / frozen_probe.median_s / 1e6).into(),
                ),
                ("speedup", probe_speedup.into()),
            ]),
        ),
        (
            "wire",
            Json::obj(vec![
                ("trees", q.len().into()),
                ("newick_bytes", wire_newick_bytes.into()),
                ("bin_bytes", wire_bin_bytes.into()),
                ("parse_seconds", wire_parse.0.into()),
                ("parse_cv", wire_parse.1.into()),
                (
                    "parse_us_per_tree",
                    (wire_parse.0 * 1e6 / q.len() as f64).into(),
                ),
                ("decode_seconds", wire_decode.0.into()),
                ("decode_cv", wire_decode.1.into()),
                (
                    "decode_us_per_tree",
                    (wire_decode.0 * 1e6 / q.len() as f64).into(),
                ),
                ("speedup", wire_speedup.into()),
            ]),
        ),
        (
            "end_to_end",
            Json::obj(vec![
                ("live_seconds", live_st.median_s.into()),
                ("live_cv", live_st.cv.into()),
                ("live_qps", (q_per_run / live_st.median_s).into()),
                ("frozen_seconds", frozen_st.median_s.into()),
                ("frozen_cv", frozen_st.cv.into()),
                ("frozen_qps", (q_per_run / frozen_st.median_s).into()),
                ("speedup", st_speedup.into()),
            ]),
        ),
        (
            "multi_thread",
            Json::obj(vec![
                ("cores", cores.into()),
                ("live_seconds", live_mt.median_s.into()),
                ("live_cv", live_mt.cv.into()),
                ("frozen_seconds", frozen_mt.median_s.into()),
                ("frozen_cv", frozen_mt.cv.into()),
                ("speedup", mt_speedup.into()),
            ]),
        ),
        (
            "serve",
            Json::obj(vec![
                ("requests", requests.into()),
                ("clients", 1u64.into()),
                ("qps", serve_qps.into()),
                ("pipeline_window", pipeline_window.into()),
                ("pipelined_qps", pipelined_qps.into()),
                ("batch_size", batch_size.into()),
                ("batch_frames", batch_frames.into()),
                ("batch_qps", batch_qps.into()),
                ("inproc_live_qps", inproc_live_qps.into()),
                ("inproc_frozen_qps", inproc_frozen_qps.into()),
            ]),
        ),
        (
            "obs",
            Json::obj(vec![
                ("bare_seconds", obs_bare.0.into()),
                ("bare_cv", obs_bare.1.into()),
                ("instrumented_seconds", obs_inst.0.into()),
                ("instrumented_cv", obs_inst.1.into()),
                ("overhead_ratio", obs_ratio.into()),
                ("max_ratio", OBS_MAX_RATIO.into()),
                ("attempts", obs_attempts.into()),
            ]),
        ),
    ]);
    let json = format!("{doc}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!(
        "single-thread probe path frozen vs hashbrown: {probe_speedup:.2}x, end-to-end {st_speedup:.2}x, served batch {batch_qps:.0} q/s (written to {out_path})"
    );
}
