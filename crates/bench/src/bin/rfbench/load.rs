//! The load generator. Load comes from this one process: a sender (the
//! calling thread) and a receiver thread, over at most two connections to
//! the daemon running in-process.
//!
//! Open loop: frame `i` is due at `start + i / rate` whatever the daemon is
//! doing, as independent users would send it. Latency runs from the due
//! time, so a stall is also charged to every request queued behind it, and
//! the generator records how late it sent each frame.

use crate::trace::Tracer;
use bfhrf_cli::json;
use bfhrf_cli::proto::Response;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The admin client's pause between a write's reply and its next write.
/// A publication frees the previous table only once the reads in flight
/// on it finish; a write sent back to back could start its freeze while a
/// descheduled reader still held that table, and the run's heap peak then
/// rose by ~35 MB on `serve-mixed` or not, depending on the scheduler.
pub const WRITE_GAP: Duration = Duration::from_millis(50);

/// A client connection: one NDJSON request line in, one response line out.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Conn {
            writer,
            reader: BufReader::with_capacity(256 << 10, stream),
        })
    }

    /// Send one frame (without its newline) and wait for the answer.
    pub fn request(&mut self, frame: &str) -> Result<Response, String> {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => parse_response(&line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = json::parse(line.trim_end()).map_err(|e| format!("bad response frame: {e}"))?;
    Response::from_json(&doc).map(|(r, _)| r)
}

/// Due offset of frame `i` in a stream at `rate` frames per second.
pub fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Milliseconds from frame `i`'s due time to `at`.
pub fn since_due_ms(start: Instant, i: usize, rate: f64, at: Instant) -> f64 {
    at.saturating_duration_since(start + due(i, rate))
        .as_secs_f64()
        * 1e3
}

/// Checks one answer: `Err` means a wrong answer, which aborts the run.
pub type Check<'a> = &'a (dyn Fn(usize, &Response) -> Result<(), String> + Sync);

/// Replays frame `i` in-process on the receiver thread, recording spans.
pub type Replay<'a> = &'a mut (dyn FnMut(usize, &mut Tracer) + Send);

/// Writes beside the reads, on a second connection: one admin client that
/// waits for each reply (a closed loop) and sends write `k` no earlier
/// than `start + k / rate` and no sooner than [`WRITE_GAP`] after the
/// previous reply. Its latency runs from the send, so a write is never
/// charged for the queue an open loop of writes would build behind a slow
/// one. The sender drains its replies without blocking between sends, so
/// the generator stays at two threads.
pub struct Side<'a> {
    pub conn: Conn,
    pub frames: &'a [String],
    pub rate: f64,
    pub n: usize,
    pub check: Check<'a>,
}

#[derive(Default)]
pub struct OpenLoop {
    /// Per request of the main stream, from its due time (failures too).
    pub lat_ms: Vec<f64>,
    /// Per request of the side stream, from its send.
    pub side_lat_ms: Vec<f64>,
    /// How late the generator sent each frame of either stream.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
}

impl OpenLoop {
    /// Fold another window's samples and counts into this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.lat_ms.extend(other.lat_ms);
        self.side_lat_ms.extend(other.side_lat_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Drive `n = rate × secs` frames (cycling through `frames`) at `rate` per
/// second over `conn`, plus the optional side stream. Every answer goes
/// through `check`; every `replay_every`-th frame is also replayed
/// in-process on the receiver thread.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conn: &mut Conn,
    frames: &[String],
    rate: f64,
    secs: f64,
    check: Check<'_>,
    replay: Option<(Replay<'_>, usize, Instant)>,
    side: Option<Side<'_>>,
) -> Result<OpenLoop, String> {
    let n = ((rate * secs).round() as usize).max(1);
    let lines: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| format!("{f}\n").into_bytes())
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let Conn { writer, reader } = conn;
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(reader, n, start, rate, check, replay));
        let sent = send(writer, &lines, n, start, rate, side);
        let (lat_ms, failed, tracer) = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())??;
        let mut out = sent?;
        out.lat_ms = lat_ms;
        out.failed += failed;
        out.attempted += n as u64;
        out.tracer = tracer;
        Ok(out)
    })
}

fn receive(
    reader: &mut BufReader<TcpStream>,
    n: usize,
    start: Instant,
    rate: f64,
    check: Check<'_>,
    replay: Option<(Replay<'_>, usize, Instant)>,
) -> Result<(Vec<f64>, u64, Option<Tracer>), String> {
    let mut tracer = replay.as_ref().map(|(_, _, origin)| Tracer::new(*origin));
    let mut replay = replay.map(|(f, every, _)| (f, every));
    let mut lat = Vec::with_capacity(n);
    let mut failed = 0u64;
    let mut line = String::new();
    for i in 0..n {
        line.clear();
        let got = reader.read_line(&mut line);
        let at = Instant::now();
        lat.push(since_due_ms(start, i, rate, at));
        match got {
            Ok(n_read) if n_read > 0 => {}
            // Closed, reset or timed out: this and every later request fail.
            _ => {
                failed += (n - i) as u64;
                break;
            }
        }
        match parse_response(&line)? {
            Response::Error { .. } => failed += 1,
            resp => check(i, &resp)?,
        }
        if let (Some((f, every)), Some(t)) = (replay.as_mut(), tracer.as_mut()) {
            if i % *every == 0 {
                f(i, t);
            }
        }
    }
    Ok((lat, failed, tracer))
}

fn send(
    writer: &mut TcpStream,
    lines: &[Vec<u8>],
    n: usize,
    start: Instant,
    rate: f64,
    mut side: Option<Side<'_>>,
) -> Result<OpenLoop, String> {
    let mut out = OpenLoop {
        late_ms: Vec::with_capacity(n),
        ..OpenLoop::default()
    };
    let side_lines: Vec<Vec<u8>> = side
        .as_ref()
        .map(|s| {
            s.frames
                .iter()
                .map(|f| format!("{f}\n").into_bytes())
                .collect()
        })
        .unwrap_or_default();
    if let Some(s) = &side {
        s.conn
            .writer
            .set_nonblocking(true)
            .map_err(|e| format!("side socket: {e}"))?;
        out.side_lat_ms.reserve(s.n);
    }
    let (mut next, mut side_next) = (0usize, 0usize);
    // The side write in flight and when it was sent; the earliest the
    // next one may go.
    let mut in_flight: Option<Instant> = None;
    let mut side_ready = start;
    let mut side_pending: Vec<u8> = Vec::new();
    let mut buf = Vec::new();
    loop {
        let now = Instant::now();
        buf.clear();
        while next < n && start + due(next, rate) <= now {
            buf.extend_from_slice(&lines[next % lines.len()]);
            out.late_ms.push(since_due_ms(start, next, rate, now));
            next += 1;
        }
        if !buf.is_empty() {
            if let Err(e) = writer.write_all(&buf) {
                // The receiver charges every unanswered request as failed.
                eprintln!("rfbench: send failed after {next} frames: {e}");
                break;
            }
        }
        let mut side_done = true;
        if let Some(s) = side.as_mut() {
            if let Some(sent) = in_flight {
                if drain_side(s, sent, &mut side_pending, &mut out)? {
                    in_flight = None;
                    side_ready = Instant::now() + WRITE_GAP;
                } else if now > sent + REPLY_TIMEOUT {
                    out.failed += (s.n - out.side_lat_ms.len()) as u64;
                    break;
                }
            }
            let due_at = (start + due(side_next, s.rate)).max(side_ready);
            if in_flight.is_none() && side_next < s.n && due_at <= now {
                write_all_nonblocking(
                    &mut s.conn.writer,
                    &side_lines[side_next % side_lines.len()],
                )?;
                in_flight = Some(Instant::now());
                side_next += 1;
            }
            side_done = side_next == s.n && in_flight.is_none();
        }
        if next == n && side_done {
            break;
        }
        // Sleep to the next due frame; poll for the write's reply once a
        // millisecond while it is in flight.
        let mut wake = if next < n {
            start + due(next, rate)
        } else {
            now + Duration::from_millis(1)
        };
        if let Some(s) = &side {
            wake = match in_flight {
                Some(_) => wake.min(now + Duration::from_millis(1)),
                None if side_next < s.n => {
                    wake.min((start + due(side_next, s.rate)).max(side_ready))
                }
                None => wake,
            };
        }
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    if let Some(s) = &side {
        out.attempted += s.n as u64;
    }
    Ok(out)
}

fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("side connection closed".into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("side send: {e}")),
        }
    }
    Ok(())
}

/// Read what has arrived of the reply to the write sent at `sent`, without
/// blocking; `true` once the whole reply is in and checked.
fn drain_side(
    s: &mut Side<'_>,
    sent: Instant,
    pending: &mut Vec<u8>,
    out: &mut OpenLoop,
) -> Result<bool, String> {
    let mut chunk = [0u8; 4096];
    loop {
        match s.conn.reader.get_mut().read(&mut chunk) {
            Ok(0) => return Err("side connection closed".into()),
            Ok(k) => pending.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("side receive: {e}")),
        }
    }
    let Some(pos) = pending.iter().position(|&b| b == b'\n') else {
        return Ok(false);
    };
    let k = out.side_lat_ms.len();
    out.side_lat_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    let line: Vec<u8> = pending.drain(..=pos).collect();
    match parse_response(&String::from_utf8_lossy(&line))? {
        // A failed write breaks the add/remove pairing the answer checks
        // rely on, so it ends the run.
        Response::Error { message, .. } => Err(format!("side request {k} failed: {message}")),
        resp => (s.check)(k, &resp).map(|()| true),
    }
}

/// Closed loop, one client sending one request at a time: send every line
/// of `lines` (frames with their newline) once over `conn`, each after the
/// previous answer, and return each round trip in seconds, in frame order.
pub fn pass(conn: &mut Conn, lines: &[Vec<u8>], check: Check<'_>) -> Result<Vec<f64>, String> {
    let mut rtts = Vec::with_capacity(lines.len());
    let mut line = String::new();
    for (i, frame) in lines.iter().enumerate() {
        line.clear();
        let t = Instant::now();
        conn.writer
            .write_all(frame)
            .map_err(|e| format!("send: {e}"))?;
        match conn.reader.read_line(&mut line) {
            Ok(k) if k > 0 => rtts.push(t.elapsed().as_secs_f64()),
            Ok(_) => return Err("connection closed during a pass".into()),
            Err(e) => return Err(format!("receive: {e}")),
        }
        match parse_response(&line)? {
            Response::Error { message, .. } => {
                return Err(format!("pass frame {i} failed: {message}"))
            }
            resp => check(i, &resp)?,
        }
    }
    Ok(rtts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_under_a_stalled_sender() {
        // 1000 frames/s; the sender stalls 10 ms, then sends frames 0..10
        // at once and the daemon answers each 0.1 ms after it is sent.
        let start = Instant::now();
        let rate = 1000.0;
        let resume = start + Duration::from_millis(10);
        let lat: Vec<f64> = (0..10)
            .map(|i| since_due_ms(start, i, rate, resume + Duration::from_micros(100)))
            .collect();
        // Frame 0 waited the whole stall; frame 9, due at 9 ms, waited 1 ms.
        assert!((lat[0] - 10.1).abs() < 1e-6, "{lat:?}");
        assert!((lat[9] - 1.1).abs() < 1e-6, "{lat:?}");
        // Timing from the send instead would have hidden the stall.
        assert!(lat.iter().all(|&l| l > 0.1 + 1e-9));
        // A reply before its due time (impossible, but clock-safe) reads 0.
        assert_eq!(
            since_due_ms(start + Duration::from_secs(1), 0, rate, start),
            0.0
        );
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due(0, 250.0), Duration::ZERO);
        assert_eq!(due(250, 250.0), Duration::from_secs(1));
        assert_eq!(due(1, 4.0), Duration::from_millis(250));
    }
}
