//! Per-layer metrics, measured from outside: spans around calls into each
//! module's public functions, on the workload's own inputs.

use crate::trace::{self, Tracer};
use crate::Metric;
use bfhrf::{Bfh, FrozenBfh, RfAverage};
use bfhrf_cli::proto::{self, Envelope, QueryFlags, Request, Response, ScoreRow};
use phylo::{BipartitionScratch, IngestPolicy, TaxaPolicy, TaxonSet, Tree};
use phylo_index::Index;
use std::path::Path;
use std::time::Instant;

/// The row the daemon sends for an average (no presentation flags).
pub fn row(index: usize, rf: RfAverage) -> ScoreRow {
    ScoreRow {
        index,
        left: rf.left,
        right: rf.right,
        n_refs: rf.n_refs,
        avg: rf.average(),
    }
}

/// Algorithm 2's last step: a query's split frequency sum against the
/// table, turned into its row.
pub fn score_row(index: usize, frozen: &FrozenBfh, q_splits: usize, freq_sum: u64) -> ScoreRow {
    let rf = RfAverage {
        left: frozen.sum() - freq_sum,
        right: q_splits as u64 * frozen.n_trees() as u64 - freq_sum,
        n_refs: frozen.n_trees(),
    };
    row(index, rf)
}

/// A score response as the daemon renders it.
pub fn render(taxa: &TaxonSet, rows: Vec<ScoreRow>, id: Option<u64>) -> String {
    Response::Scores {
        n_taxa: taxa.len(),
        generation: 0,
        snap: 0,
        scores: rows,
        notes: Vec::new(),
    }
    .to_json(id)
    .to_string()
}

/// The query payloads and id of a scoring frame.
fn frame_queries(frame: &str) -> Option<(Vec<String>, Option<u64>)> {
    let env = proto::parse_request(frame).ok()?;
    match env.request {
        Request::AvgRf { queries, .. } | Request::Batch { queries, .. } => Some((queries, env.id)),
        _ => None,
    }
}

/// Replay one served frame in-process through the layers it passes on the
/// daemon's query path, as a `request` span with one child per layer call.
pub fn replay_frame(
    t: &mut Tracer,
    req: u64,
    frame: &str,
    bin: bool,
    frozen: &FrozenBfh,
    taxa: &TaxonSet,
    scratch: &mut BipartitionScratch,
) {
    let root = t.open("request", None, req);
    let (queries, id) = t
        .time("proto.parse", Some(root), req, || frame_queries(frame))
        .unwrap_or_default();
    let mut rows = Vec::with_capacity(queries.len());
    for (k, q) in queries.iter().enumerate() {
        let tree = if bin {
            t.time("wire.decode", Some(root), req, || decode_bin(q, taxa.len()))
        } else {
            t.time("newick.parse", Some(root), req, || {
                phylo::parse_newick_readonly(q, taxa).map_err(|e| e.to_string())
            })
        };
        let Ok(tree) = tree else { continue };
        let batch = t.time("extract", Some(root), req, || {
            scratch.batch_splits(&tree, taxa)
        });
        let freq_sum = t.time("probe", Some(root), req, || {
            frozen.frequency_sum_batch(&batch)
        });
        rows.push(score_row(k, frozen, batch.len(), freq_sum));
    }
    let text = t.time("proto.render", Some(root), req, || render(taxa, rows, id));
    std::hint::black_box(text);
    t.close(root);
}

/// A tree as a `bin` session sends it: a base64-wrapped `phylo-wire`
/// record (taxon ids in the namespace the tree was built in).
pub fn encode_bin(tree: &Tree) -> Result<String, String> {
    phylo_wire::encode_tree_vec(tree)
        .map(|b| phylo_wire::b64::encode(&b))
        .map_err(|e| format!("encode: {e}"))
}

/// A single-query `avgrf` frame (protocol v1, no flags).
pub fn avgrf_frame(newick: &str) -> String {
    Envelope::v1(Request::AvgRf {
        queries: vec![newick.to_string()],
        flags: QueryFlags::default(),
        collection: None,
    })
    .to_json()
    .to_string()
}

pub fn decode_bin(b64: &str, n_taxa: usize) -> Result<Tree, String> {
    let bytes = phylo_wire::b64::decode(b64).map_err(|e| e.to_string())?;
    phylo_wire::decode_tree_exact(&bytes, n_taxa).map_err(|e| e.to_string())
}

/// Everything the layer sweep replays: the workload's table and namespace,
/// its query pool in both encodings, and its frames with their answers.
pub struct Sweep<'a> {
    pub frozen: &'a FrozenBfh,
    pub taxa: &'a TaxonSet,
    pub newick: &'a [String],
    pub bin: &'a [String],
    pub frames: &'a [String],
    pub answers: &'a [Vec<ScoreRow>],
}

/// Time every query-path layer over the whole pool, round after round
/// until `secs` pass (at least three rounds), and report each layer's
/// median-round cost per item. Every call is a root span in `t`, so the
/// sweep never counts toward a request's coverage.
pub fn sweep(s: &Sweep<'_>, t: &mut Tracer, secs: f64) -> Vec<Metric> {
    let mut scratch = BipartitionScratch::new();
    let n = s.newick.len();
    let names = [
        "newick.parse",
        "wire.decode",
        "extract",
        "probe",
        "proto.parse",
        "proto.render",
    ];
    let mut per_round: Vec<[f64; 6]> = Vec::new();
    let (mut splits, mut hits) = (0usize, 0usize);
    let began = Instant::now();
    while per_round.len() < 3 || began.elapsed().as_secs_f64() < secs {
        let first = t.spans.len();
        let round = per_round.len() as u64;
        for i in 0..n {
            let req = round << 32 | i as u64;
            let parsed = t.time(names[0], None, req, || {
                phylo::parse_newick_readonly(&s.newick[i], s.taxa).expect("pool tree parses")
            });
            let decoded = t.time(names[1], None, req, || {
                decode_bin(&s.bin[i], s.taxa.len()).expect("pool record decodes")
            });
            std::hint::black_box(decoded);
            let batch = t.time(names[2], None, req, || {
                scratch.batch_splits(&parsed, s.taxa)
            });
            let sum = t.time(names[3], None, req, || s.frozen.frequency_sum_batch(&batch));
            std::hint::black_box(sum);
            if round == 0 {
                splits += batch.len();
                hits += (0..batch.len())
                    .filter(|&k| s.frozen.frequency_hashed(batch.hash(k), batch.mask(k)) > 0)
                    .count();
            }
        }
        for (j, frame) in s.frames.iter().enumerate() {
            let req = round << 32 | j as u64;
            let (_, id) = t
                .time(names[4], None, req, || frame_queries(frame))
                .expect("benchmark frames are scoring frames");
            let rows = s.answers[j].clone();
            let text = t.time(names[5], None, req, || render(s.taxa, rows, id));
            std::hint::black_box(text);
        }
        let spans = &t.spans[first..];
        per_round.push(std::array::from_fn(|k| {
            let (ns, count) = trace::total_ns(spans, names[k]);
            ns as f64 / count.max(1) as f64
        }));
        // The trace file keeps the first round only.
        if round > 0 {
            t.spans.truncate(first);
        }
    }
    let med = |k: usize| crate::stats::median(&per_round.iter().map(|r| r[k]).collect::<Vec<_>>());
    let bytes = |v: &[String]| v.iter().map(String::len).sum::<usize>() as f64 / n as f64;
    vec![
        Metric::new("newick.parse_us", "us", med(0) / 1e3, n),
        Metric::new("newick.bytes_per_tree", "bytes", bytes(s.newick), n),
        Metric::new("wire.decode_us", "us", med(1) / 1e3, n),
        Metric::new("wire.bytes_per_tree", "bytes", bytes(s.bin), n),
        Metric::new("extract.us", "us", med(2) / 1e3, n),
        Metric::new("extract.splits", "count", splits as f64 / n as f64, n),
        Metric::new(
            "probe.ns_per_split",
            "ns",
            med(3) * n as f64 / splits as f64,
            splits,
        ),
        Metric::new(
            "probe.hit_frac",
            "ratio",
            hits as f64 / splits as f64,
            splits,
        ),
        Metric::new("frozen.mb", "MB", s.frozen.approx_bytes() as f64 / 1e6, 1),
        Metric::new("frozen.distinct", "count", s.frozen.distinct() as f64, 1),
        Metric::new("proto.parse_us", "us", med(4) / 1e3, s.frames.len()),
        Metric::new("proto.render_us", "us", med(5) / 1e3, s.frames.len()),
    ]
}

/// `ingest.us_per_tree` and `build.us_per_tree`: read and parse a Newick
/// file of reference trees the way `bfhrf avgrf` does, then build a
/// sharded hash from them.
pub fn ingest_and_build(path: &Path, t: &mut Tracer) -> Result<Vec<Metric>, String> {
    let ingest = t.open("ingest", None, 0);
    let (trees, taxa) = read_trees(path)?;
    t.close(ingest);
    let build = t.open("build", None, 0);
    std::hint::black_box(Bfh::build_sharded(&trees, &taxa, crate::shards()));
    t.close(build);
    let per_tree = |id: usize| t.spans[id].dur_ns() as f64 / 1e3 / trees.len() as f64;
    Ok(vec![
        Metric::new("ingest.us_per_tree", "us", per_tree(ingest), trees.len()),
        Metric::new("build.us_per_tree", "us", per_tree(build), trees.len()),
    ])
}

/// Read a reference file through the same sniffing reader `bfhrf avgrf`
/// loads `--refs` with.
pub fn read_trees(path: &Path) -> Result<(Vec<Tree>, TaxonSet), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut taxa = TaxonSet::new();
    let (trees, _) = phylo_wire::read_trees_sniffed(
        std::io::BufReader::new(file),
        &mut taxa,
        TaxaPolicy::Grow,
        IngestPolicy::Strict,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((trees, taxa))
}

/// `index.open_s`: open the index (snapshot, WAL replay, frozen table).
pub fn open_index(dir: &Path, t: &mut Tracer) -> Result<(Index, Metric), String> {
    let id = t.open("index.open", None, 0);
    let mut index = Index::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    drop(std::hint::black_box(index.view()));
    t.close(id);
    let secs = t.spans[id].dur_ns() as f64 / 1e9;
    Ok((index, Metric::new("index.open_s", "s", secs, 1)))
}

/// What one mutation costs, layer by layer, on the workload's own table:
/// `bfh.clone_ms` (the remove dry run), `freeze.ms` (every publication)
/// and `index.append_ms` (one logged add or remove, mean of the pair).
pub fn mutation_layers(
    index: &mut Index,
    tree: &Tree,
    t: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let clone = t.open("bfh.clone", None, 0);
    drop(std::hint::black_box(index.bfh().clone()));
    t.close(clone);
    let freeze = t.open("freeze", None, 0);
    drop(std::hint::black_box(index.bfh().freeze()));
    t.close(freeze);
    let append = t.open("index.append", None, 0);
    t.time("append_add", Some(append), 0, || index.append_add(tree))
        .map_err(|e| format!("append add: {e}"))?;
    t.time("append_remove", Some(append), 0, || {
        index.append_remove(tree)
    })
    .map_err(|e| format!("append remove: {e}"))?;
    t.close(append);
    let ms = |id: usize| t.spans[id].dur_ns() as f64 / 1e6;
    Ok(vec![
        Metric::new("bfh.clone_ms", "ms", ms(clone), 1),
        Metric::new("freeze.ms", "ms", ms(freeze), 1),
        Metric::new("index.append_ms", "ms", ms(append) / 2.0, 2),
    ])
}

/// An order-independent digest of a hash's contents, so two tables that
/// hold the same splits and frequencies agree however their maps are laid
/// out after add/remove churn.
pub fn content_digest(bfh: &Bfh) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100_0000_01B3).rotate_left(23);
    let entries = bfh.iter().fold(0u64, |acc, (bits, freq)| {
        let h = bits
            .words()
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, &w| mix(h, w));
        acc.wrapping_add(mix(h, u64::from(freq)))
    });
    [bfh.n_trees() as u64, bfh.sum(), bfh.distinct() as u64]
        .into_iter()
        .fold(entries, mix)
}
