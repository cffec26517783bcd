//! `serve-mixed`: independent tools hitting one warm `decisive serve`
//! daemon on a unix socket. Eight sessions (each pinned to one of two
//! connections) share one engine store: warm reads, cross-session reads
//! and writes meet in the daemon, and serialisation and protocol cost
//! show, as does queueing under load.
//!
//! The pool holds eight electrical designs — two each of 4, 8, 16 and 32
//! rails — and the brown-out-at-threshold supply. Per block of 50
//! requests: 40 `pipeline` on a pool design, 4 `pipeline` on a fresh
//! one-parameter edit of a pool rail design, 3 `analyze`, 2 `status`, 1
//! `recommend` on a design of at most 8 rails.
//!
//! The timed phase has three parts. A closed loop (each connection sends
//! its next request when the previous one is answered) gives the daemon's
//! capacity, `throughput_per_s`. Then an open loop sends on a seeded
//! Poisson schedule at two fixed rates in turn, [`LOW_RATE`] and
//! [`HIGH_RATE`] (about a quarter and three fifths of that capacity on the
//! 2-core machine of the baseline), and times each request from when it
//! was due, so a stall is charged to every request queued behind it.
//! `latency_ms_p50` is the median at the low rate; the record gives both
//! rates' percentiles. One harness thread drives both connections without
//! blocking.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use decisive::circuit::SolverKernel;
use decisive::federation::{json, Value};
use decisive::serve::{Daemon, ServeOptions};

use super::{repeated_setup, write, Ctx, JOBS};
use crate::inproc;
use crate::proc::Reaped;
use crate::report::Report;
use crate::rng::{BlockMix, Rng};
use crate::stats;
use crate::subjects::{self, RailDesign};
use crate::trace::{Phase, Replay};

/// Named sessions of the daemon.
pub const SESSIONS: usize = 8;
/// Client connections; session `s` uses connection `s % CONNECTIONS`.
pub const CONNECTIONS: usize = 2;
/// Rails of the pool's rail designs; the brown-out supply comes last.
pub const POOL_RAILS: [usize; 8] = [4, 4, 8, 8, 16, 16, 32, 32];
/// Pool designs `recommend` may target: those of at most 8 rails.
const RECOMMEND_TARGETS: [usize; 4] = [0, 1, 2, 3];
/// Closed-loop requests per second of `--seconds`: a fixed amount of
/// work, about a fifth of the timed phase on the baseline machine, so the
/// daemon's cache ends the phase the same size however fast it ran.
pub const CAPACITY_REQUESTS_PER_S: f64 = 45.0;
/// Requests per second of the low-rate phase.
pub const LOW_RATE: f64 = 56.0;
/// Requests per second of the high-rate phase.
pub const HIGH_RATE: f64 = 135.0;
/// Share of `--seconds` each open-loop phase lasts.
pub const RATE_SHARE: f64 = 0.4;
/// The latency limit each rate is judged against.
pub const LIMIT_MS_P95: f64 = 50.0;
/// Requests the traced run replays after the priming.
const REPLAY_REQUESTS: usize = 200;

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `pipeline` on a pool design.
    Pool,
    /// `pipeline` on a fresh one-parameter edit of a pool rail design.
    Edit,
    /// `analyze` on a pool design.
    Analyze,
    /// `status`.
    Status,
    /// `recommend` on a pool design of at most 8 rails.
    Recommend,
}

impl Op {
    /// The kind's name in records and traces.
    pub fn name(self) -> &'static str {
        match self {
            Op::Pool => "pipeline_warm",
            Op::Edit => "pipeline_edit",
            Op::Analyze => "analyze",
            Op::Status => "status",
            Op::Recommend => "recommend",
        }
    }
}

/// Requests per block of the mix (50 requests).
const MIX: [(Op, usize); 5] =
    [(Op::Pool, 40), (Op::Edit, 4), (Op::Analyze, 3), (Op::Status, 2), (Op::Recommend, 1)];

/// Every this many pool `pipeline` responses, one is kept for the oracle
/// (and every `EDIT_CHECK_EVERY`-th edit response).
const POOL_CHECK_EVERY: usize = 10;
const EDIT_CHECK_EVERY: usize = 5;

/// The generated files of one run: pool designs and edits, as
/// `(bd path, csv path, bd text, csv text)`.
#[derive(Debug, Clone)]
pub struct Files {
    /// Pool designs.
    pub pool: Vec<[String; 4]>,
    /// One-parameter edits of the pool rail designs.
    pub edits: Vec<[String; 4]>,
}

impl Files {
    /// The files of `seed`, with enough edits for a run of `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Files {
        let share = MIX.iter().find(|(op, _)| *op == Op::Edit).map_or(0, |m| m.1) as f64
            / MIX.iter().map(|m| m.1).sum::<usize>() as f64;
        // Poisson arrivals can run ahead of their rate: half again as many.
        let requests = (CAPACITY_REQUESTS_PER_S * seconds
            + 1.5 * (LOW_RATE + HIGH_RATE) * RATE_SHARE * seconds)
            .max(REPLAY_REQUESTS as f64);
        let count = (requests * share).ceil() as usize;
        let mut designs: Vec<RailDesign> = POOL_RAILS
            .iter()
            .enumerate()
            .map(|(k, &rails)| RailDesign::new(&format!("pool{k}"), rails, seed))
            .collect();
        let mut pool: Vec<[String; 4]> = designs
            .iter()
            .enumerate()
            .map(|(k, d)| {
                [
                    format!("pool/p{k}.bd"),
                    format!("pool/p{k}.csv"),
                    d.bd_text(),
                    d.reliability_csv(),
                ]
            })
            .collect();
        let (bd, csv) = subjects::brownout();
        let k = POOL_RAILS.len();
        pool.push([format!("pool/p{k}.bd"), format!("pool/p{k}.csv"), bd, csv]);
        // Edits visit the rail designs in turn; each builds on the
        // previous edit of the same design.
        let mut rng = Rng::new(seed, "serve-mixed/edits");
        let edits = (0..count.max(1))
            .map(|e| {
                let k = e % POOL_RAILS.len();
                designs[k].edit_param(&mut rng);
                [
                    format!("edits/e{e}.bd"),
                    pool[k][1].clone(),
                    designs[k].bd_text(),
                    pool[k][3].clone(),
                ]
            })
            .collect();
        Files { pool, edits }
    }

    /// Writes every file under `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        for sub in ["pool", "edits"] {
            std::fs::create_dir_all(dir.join(sub)).map_err(|e| format!("{sub}: {e}"))?;
        }
        for [bd_path, csv_path, bd, csv] in &self.pool {
            write(&dir.join(bd_path), bd)?;
            write(&dir.join(csv_path), csv)?;
        }
        // An edit shares its design's reliability file.
        for [bd_path, _, bd, _] in &self.edits {
            write(&dir.join(bd_path), bd)?;
        }
        Ok(())
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id.
    pub id: u64,
    /// Kind.
    pub op: Op,
    /// Session index.
    pub session: usize,
    /// Pool design or edit index, for kinds that name a file.
    pub target: usize,
}

impl Request {
    /// The wire line.
    pub fn line(&self, files: &Files) -> String {
        let session = format!("s{}", self.session);
        let mut fields = vec![
            ("op", Value::from(self.op_tag())),
            ("id", Value::Int(self.id as i64)),
            ("session", Value::from(session.as_str())),
        ];
        let file = match self.op {
            Op::Status => None,
            Op::Edit => Some(&files.edits[self.target]),
            _ => Some(&files.pool[self.target]),
        };
        if let Some([bd, csv, _, _]) = file {
            fields.push(("path", Value::from(bd.as_str())));
            fields.push(("reliability", Value::from(csv.as_str())));
        }
        json::to_string(&Value::record(fields))
    }

    fn op_tag(&self) -> &'static str {
        match self.op {
            Op::Pool | Op::Edit => "pipeline",
            Op::Analyze => "analyze",
            Op::Status => "status",
            Op::Recommend => "recommend",
        }
    }
}

/// The seeded request sequence. Kinds and targets are drawn from
/// fixed-composition blocks, so every seed sends the same mix.
#[derive(Debug, Clone)]
pub struct RequestGen {
    edits: usize,
    mix: BlockMix<Op>,
    pool: BlockMix<usize>,
    recommend: BlockMix<usize>,
    rng: Rng,
    next_id: u64,
    next_edit: usize,
}

impl RequestGen {
    /// The sequence of `seed` over `files`.
    pub fn new(seed: u64, files: &Files) -> RequestGen {
        let every = |targets: &[usize]| targets.iter().map(|&t| (t, 1)).collect::<Vec<_>>();
        let pool: Vec<usize> = (0..=POOL_RAILS.len()).collect();
        RequestGen {
            edits: files.edits.len(),
            mix: BlockMix::new(Rng::new(seed, "serve-mixed/mix"), &MIX),
            pool: BlockMix::new(Rng::new(seed, "serve-mixed/pool"), &every(&pool)),
            recommend: BlockMix::new(
                Rng::new(seed, "serve-mixed/recommend"),
                &every(&RECOMMEND_TARGETS),
            ),
            rng: Rng::new(seed, "serve-mixed/requests"),
            next_id: 1_000,
            next_edit: 0,
        }
    }

    /// The next request, on connection `conn` when given (closed loop),
    /// on any session otherwise.
    pub fn next_request(&mut self, conn: Option<usize>) -> Request {
        let op = self.mix.next_kind();
        let session = match conn {
            Some(c) => c + CONNECTIONS * self.rng.below(SESSIONS / CONNECTIONS),
            None => self.rng.below(SESSIONS),
        };
        let target = match op {
            Op::Status => 0,
            Op::Recommend => self.recommend.next_kind(),
            Op::Edit => {
                assert!(self.next_edit < self.edits, "more edits sent than generated");
                self.next_edit += 1;
                self.next_edit - 1
            }
            Op::Pool | Op::Analyze => self.pool.next_kind(),
        };
        self.next_id += 1;
        Request { id: self.next_id, op, session, target }
    }
}

/// The priming requests: every session analyses every pool design with
/// both verbs and asks for the recommendations `recommend` may target, so
/// the timed phase starts warm.
fn priming(first_id: u64) -> Vec<Request> {
    let mut out = Vec::new();
    for session in 0..SESSIONS {
        for target in 0..=POOL_RAILS.len() {
            let mut ops = vec![Op::Pool, Op::Analyze];
            if RECOMMEND_TARGETS.contains(&target) {
                ops.push(Op::Recommend);
            }
            for op in ops {
                out.push(Request { id: first_id + out.len() as u64, op, session, target });
            }
        }
    }
    out
}

/// One non-blocking client connection with its write and read buffers.
struct Conn {
    stream: UnixStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

impl Conn {
    fn open(path: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn { stream, out: Vec::new(), inbuf: Vec::new() })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.flush()
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads what is available and returns the complete lines.
    fn lines(&mut self) -> Result<Vec<Vec<u8>>, String> {
        self.flush()?;
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
            let rest = self.inbuf.split_off(pos + 1);
            let mut line = std::mem::replace(&mut self.inbuf, rest);
            line.pop();
            lines.push(line);
        }
        Ok(lines)
    }
}

/// The id and success of a response line, read from its head (`id` and
/// `ok` precede the result payload).
fn head(line: &[u8]) -> (Option<u64>, bool) {
    let head = String::from_utf8_lossy(&line[..line.len().min(256)]);
    let id = head.find("\"id\":").and_then(|at| {
        let digits: String = head[at + 5..].chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    });
    (id, head.contains("\"ok\":true"))
}

/// The `result` payload of an ok response (the last field of the line).
fn result_of(line: &[u8]) -> Option<&[u8]> {
    let at = line.windows(9).position(|w| w == b"\"result\":")?;
    line.get(at + 9..line.len().checked_sub(1)?)
}

/// The engine phases of a response's `stats`, parsed from that object
/// alone: the rest of the payload can be megabytes.
fn stats_phases(line: &[u8]) -> Vec<Phase> {
    let Some(at) = line.windows(9).position(|w| w == b"\"stats\":{") else { return Vec::new() };
    let object = &line[at + 8..];
    // Stats hold phase names and numbers only, never braces in strings.
    let mut depth = 0usize;
    let end = object.iter().position(|&b| {
        depth = match b {
            b'{' => depth + 1,
            b'}' => depth - 1,
            _ => depth,
        };
        depth == 0
    });
    let Some(stats) =
        end.and_then(|end| json::parse(&String::from_utf8_lossy(&object[..=end])).ok())
    else {
        return Vec::new();
    };
    let phases = stats.get("phases").and_then(Value::as_list).unwrap_or_default();
    phases
        .iter()
        .filter_map(|p| {
            let executed = p.get("jobs_executed")?.as_i64()?;
            let name = p.get("name")?.as_str()?.to_owned();
            Some((name, p.get("wall_ms")?.as_f64()?, usize::try_from(executed).ok()?))
        })
        .collect()
}

/// A running daemon with its two client connections.
struct Served {
    child: Reaped,
    conns: Vec<Conn>,
}

/// Starts the daemon in `dir` and connects.
fn start(ctx: &Ctx, dir: &Path) -> Result<Served, String> {
    let child = Command::new(&ctx.exe)
        .args(["serve", "--socket", "d.sock", "--cache", "cache", "--jobs", JOBS])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn serve: {e}"))?;
    let child = Reaped(child);
    let socket = dir.join("d.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut conns = Vec::with_capacity(CONNECTIONS);
    while conns.len() < CONNECTIONS {
        match Conn::open(&socket) {
            Ok(conn) => conns.push(conn),
            // The socket appears, and then accepts, shortly after spawn.
            Err(e) if Instant::now() > deadline => return Err(format!("daemon socket: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    Ok(Served { child, conns })
}

/// A sent request awaiting its response.
struct Pending {
    request: Request,
    due: Instant,
}

/// Sends requests over the connections and collects responses.
struct Client<'a> {
    files: &'a Files,
    served: &'a mut Served,
    pending: BTreeMap<u64, Pending>,
    outstanding: [usize; CONNECTIONS],
    kept: Vec<(Request, Vec<u8>)>,
    pool_seen: usize,
    edit_seen: usize,
    failures: Vec<String>,
}

impl<'a> Client<'a> {
    fn new(files: &'a Files, served: &'a mut Served) -> Client<'a> {
        Client {
            files,
            served,
            pending: BTreeMap::new(),
            outstanding: [0; CONNECTIONS],
            kept: Vec::new(),
            pool_seen: 0,
            edit_seen: 0,
            failures: Vec::new(),
        }
    }

    /// Sleeps until a response may be readable or `until`, whichever
    /// comes first (at most 1 ms while a request is still being written).
    fn wait(&self, until: Instant) -> Result<(), String> {
        let fds: Vec<_> = self.served.conns.iter().map(|c| c.stream.as_raw_fd()).collect();
        let mut timeout = until.saturating_duration_since(Instant::now());
        if self.served.conns.iter().any(|c| !c.out.is_empty()) {
            timeout = timeout.min(Duration::from_millis(1));
        }
        crate::proc::wait_readable(&fds, timeout).map_err(|e| format!("ppoll: {e}"))
    }

    fn send(&mut self, request: Request, due: Instant) -> Result<(), String> {
        let conn = request.session % CONNECTIONS;
        self.served.conns[conn].send(&request.line(self.files))?;
        self.outstanding[conn] += 1;
        self.pending.insert(request.id, Pending { request, due });
        Ok(())
    }

    /// Collects every available response; returns `(kind, due, done)` of
    /// each completed request.
    fn poll(&mut self) -> Result<Vec<(Op, Instant, Instant)>, String> {
        let mut done = Vec::new();
        for conn in 0..CONNECTIONS {
            for line in self.served.conns[conn].lines()? {
                let now = Instant::now();
                let (id, ok) = head(&line);
                let Some(p) = id.and_then(|id| self.pending.remove(&id)) else {
                    self.failures.push("response with an unknown id".into());
                    continue;
                };
                self.outstanding[conn] -= 1;
                if !ok {
                    let text = String::from_utf8_lossy(&line[..line.len().min(300)]).into_owned();
                    self.failures.push(format!("request {} failed: {text}", p.request.id));
                    continue;
                }
                let keep = match p.request.op {
                    Op::Pool => {
                        self.pool_seen += 1;
                        self.pool_seen % POOL_CHECK_EVERY == 1
                    }
                    Op::Edit => {
                        self.edit_seen += 1;
                        self.edit_seen % EDIT_CHECK_EVERY == 1
                    }
                    _ => false,
                };
                if keep {
                    self.kept.push((p.request.clone(), line));
                }
                done.push((p.request.op, p.due, now));
            }
        }
        Ok(done)
    }

    /// Waits until every sent request is answered.
    fn drain(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !self.pending.is_empty() {
            if Instant::now() > deadline {
                return Err(format!("{} request(s) never answered", self.pending.len()));
            }
            self.poll()?;
            self.wait(Instant::now() + Duration::from_millis(5))?;
        }
        Ok(())
    }
}

/// Set-up: files, daemon, priming.
fn set_up(ctx: &Ctx, files: &Files, dir: &Path) -> Result<Served, String> {
    files.write(dir)?;
    let mut served = start(ctx, dir)?;
    let mut client = Client::new(files, &mut served);
    let now = Instant::now();
    for request in priming(1) {
        client.send(request, now)?;
    }
    client.drain()?;
    match client.failures.first() {
        Some(e) => Err(format!("priming: {e}")),
        None => Ok(served),
    }
}

/// Latencies of one open-loop phase.
#[derive(Debug, Default)]
struct OpenPhase {
    /// Milliseconds from due to response, per request.
    latencies: Vec<f64>,
    /// Milliseconds the generator sent each request late.
    lateness: Vec<f64>,
    /// Latencies per request kind.
    by_op: BTreeMap<&'static str, Vec<f64>>,
    /// Seconds from the first due time to the last response.
    seconds: f64,
}

impl OpenPhase {
    fn record(&mut self, done: Vec<(Op, Instant, Instant)>) {
        for (op, was_due, at) in done {
            let ms = (at - was_due).as_secs_f64() * 1e3;
            self.latencies.push(ms);
            self.by_op.entry(op.name()).or_default().push(ms);
        }
    }

    /// Record details of the phase, keyed `<name>_…`.
    fn details(&self, name: &str, rate: f64, report: &mut Report) {
        let p = |v: &[f64], q| stats::percentile(v, q).unwrap_or(0.0);
        let p95 = p(&self.latencies, 95.0);
        report.detail(&format!("{name}_rate_per_s"), Value::Real(rate));
        report.detail(&format!("{name}_count"), Value::Int(self.latencies.len() as i64));
        report.detail(&format!("{name}_ms_p50"), Value::Real(p(&self.latencies, 50.0)));
        report.detail(&format!("{name}_ms_p95"), Value::Real(p95));
        report.detail(&format!("{name}_within_limit"), Value::Bool(p95 <= LIMIT_MS_P95));
        let completed = self.latencies.len() as f64 / self.seconds.max(f64::MIN_POSITIVE);
        report.detail(&format!("{name}_completed_per_s"), Value::Real(completed));
        let late = p(&self.lateness, 95.0);
        report.detail(&format!("{name}_generator_late_ms_p95"), Value::Real(late));
        if late > 1.0 {
            eprintln!("# warning: the generator ran {late:.2} ms late at p95 at {rate} requests/s");
        }
        for (op, samples) in &self.by_op {
            report.detail(&format!("{name}_{op}_ms_p50"), Value::Real(p(samples, 50.0)));
        }
    }
}

/// Sends the generator's requests on a seeded Poisson schedule at `rate`
/// for `seconds`, and waits for every answer.
fn open_phase(
    client: &mut Client<'_>,
    gen: &mut RequestGen,
    schedule: &mut Rng,
    rate: f64,
    seconds: f64,
    report: &mut Report,
) -> Result<OpenPhase, String> {
    let mut phase = OpenPhase::default();
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let mut due = started + Duration::from_secs_f64(schedule.exponential(1.0 / rate));
    while due < end {
        let now = Instant::now();
        if now >= due {
            phase.lateness.push((now - due).as_secs_f64() * 1e3);
            client.send(gen.next_request(None), due)?;
            report.attempted += 1;
            due += Duration::from_secs_f64(schedule.exponential(1.0 / rate));
            continue;
        }
        phase.record(client.poll()?);
        client.wait(due)?;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while !client.pending.is_empty() && Instant::now() < deadline {
        phase.record(client.poll()?);
        client.wait(Instant::now() + Duration::from_millis(5))?;
    }
    if !client.pending.is_empty() {
        report.fail(format!("{} request(s) never answered", client.pending.len()));
        client.pending.clear();
    }
    phase.seconds = started.elapsed().as_secs_f64();
    Ok(phase)
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let files = Files::new(ctx.seed, ctx.seconds);
    let (_dir, mut served) = repeated_setup(ctx, &mut report, |dir| set_up(ctx, &files, dir))?;
    let mut gen = RequestGen::new(ctx.seed, &files);
    let mut client = Client::new(&files, &mut served);

    // Closed loop: capacity.
    let pid = client.served.child.0.id();
    let cpu_before = crate::proc::process_cpu_ms(pid);
    let started = Instant::now();
    let total = (CAPACITY_REQUESTS_PER_S * ctx.seconds).ceil() as u64;
    let mut sent = 0u64;
    while sent < total || !client.pending.is_empty() {
        for conn in 0..CONNECTIONS {
            if client.outstanding[conn] == 0 && sent < total {
                client.send(gen.next_request(Some(conn)), Instant::now())?;
                sent += 1;
            }
        }
        client.poll()?;
        client.wait(Instant::now() + Duration::from_millis(5))?;
    }
    report.attempted += sent;
    let capacity = sent as f64 / started.elapsed().as_secs_f64();

    // Open loop at the two fixed rates, one after the other.
    let mut schedule = Rng::new(ctx.seed, "serve-mixed/arrivals");
    let seconds = ctx.seconds * RATE_SHARE;
    let low = open_phase(&mut client, &mut gen, &mut schedule, LOW_RATE, seconds, &mut report)?;
    let high = open_phase(&mut client, &mut gen, &mut schedule, HIGH_RATE, seconds, &mut report)?;
    if let (Some(before), Some(after)) = (cpu_before, crate::proc::process_cpu_ms(pid)) {
        report.set("cpu_ms_per_op", (after - before) / report.attempted.max(1) as f64);
    }
    report.latencies(&low.latencies);
    report.set("throughput_per_s", capacity);
    low.details("low", LOW_RATE, &mut report);
    high.details("high", HIGH_RATE, &mut report);
    let kept = std::mem::take(&mut client.kept);
    let failures = std::mem::take(&mut client.failures);
    for failure in failures {
        report.fail(failure);
    }

    // Shut the daemon down and wait for it.
    let shutdown = Value::record([("op", Value::from("shutdown")), ("id", Value::Int(0))]);
    served.conns[0].send(&json::to_string(&shutdown))?;
    let Served { child, conns } = served;
    if !child.finish(Duration::from_secs(30)) {
        report.fail("the daemon did not exit cleanly after `shutdown`");
    }
    drop(conns);

    // Oracle, untimed: kept `pipeline` results against the in-process
    // pipeline on the same files.
    let mut references: BTreeMap<String, String> = BTreeMap::new();
    for (request, line) in &kept {
        let [path, _, bd, csv] = if request.op == Op::Edit {
            &files.edits[request.target]
        } else {
            &files.pool[request.target]
        };
        if !references.contains_key(path) {
            references.insert(path.clone(), inproc::reference_doc(bd, csv, SolverKernel::Sparse)?);
        }
        let got = result_of(line).map(|r| inproc::verdict_doc(&String::from_utf8_lossy(r)));
        if got != Some(Ok(references[path].clone())) {
            report.fail(format!("request {} ({path}): result differs from in-process", request.id));
        }
    }
    report.detail("checked_responses", Value::Int(kept.len() as i64));
    Ok(report)
}

/// Replays the first [`REPLAY_REQUESTS`] requests of the sequence
/// in-process through `Daemon::handle_line` in a closed loop, after the
/// same priming as the timed run. Returns the replay and its wall time
/// without the priming.
fn replay_requests(ctx: &Ctx, dir: &Path, traced: bool) -> Result<(Replay, f64), String> {
    let files = Files::new(ctx.seed, ctx.seconds);
    files.write(dir)?;
    let replay = Replay::new(traced);
    let (telemetry, counters) = replay.engine_telemetry();
    let options = ServeOptions {
        jobs: Some(1),
        cache_dir: Some(dir.join("cache")),
        ..ServeOptions::default()
    };
    let daemon = Daemon::new(options, telemetry)?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_current_dir(dir).map_err(|e| e.to_string())?;
    let result = (|| {
        for request in priming(1) {
            daemon.handle_line(&request.line(&files));
        }
        if let Some(counters) = &counters {
            counters.take();
        }
        let replay_started = Instant::now();
        let mut gen = RequestGen::new(ctx.seed, &files);
        for _ in 0..REPLAY_REQUESTS {
            let request = gen.next_request(None);
            let span = replay.request(request.op.name());
            let line = request.line(&files);
            let (response, ms) =
                replay.time_ms("serve", "handle", || daemon.handle_line(&line).unwrap_or_default());
            replay.sample(&format!("serve.handle_ms.{}", request.op.name()), ms);
            replay.sample("serve.response_bytes", response.len() as f64);
            if !head(response.as_bytes()).1 {
                return Err(format!("replayed request {} failed", request.id));
            }
            let phases = stats_phases(response.as_bytes());
            replay.attribute("serve", &phases, counters.as_ref().map(|c| c.take()));
            drop(span);
        }
        Ok(replay_started.elapsed().as_secs_f64() * 1e3)
    })();
    std::env::set_current_dir(cwd).map_err(|e| e.to_string())?;
    let wall_ms = result?;
    daemon.persist()?;
    Ok((replay, wall_ms))
}

/// The traced run.
pub fn trace(ctx: &Ctx) -> Result<Report, String> {
    super::traced_run(ctx, |dir, traced| replay_requests(ctx, dir, traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequences_and_schedules_are_reproducible() {
        let files = Files::new(5, 10.0);
        let lines = |seed| {
            let mut gen = RequestGen::new(seed, &files);
            (0..200).map(|_| gen.next_request(None).line(&files)).collect::<Vec<_>>()
        };
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
        let arrivals = |seed| {
            let mut rng = Rng::new(seed, "serve-mixed/arrivals");
            (0..100).map(|_| rng.exponential(1.0 / HIGH_RATE).to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(arrivals(5), arrivals(5));
        let mean = arrivals(5).iter().map(|&b| f64::from_bits(b)).sum::<f64>() / 100.0;
        assert!((mean * HIGH_RATE - 1.0).abs() < 0.3, "mean gap {mean}");
    }

    #[test]
    fn response_heads_and_results_are_read_without_parsing() {
        let line = br#"{"v":1,"id":1234,"session":"s1","op":"pipeline","ok":true,"wall_ms":1.5,"result":{"a":1}}"#;
        assert_eq!(head(line), (Some(1234), true));
        assert_eq!(result_of(line), Some(&br#"{"a":1}"#[..]));
        assert_eq!(head(br#"{"v":1,"id":7,"ok":false,"error":"x"}"#), (Some(7), false));
        let stats = br#"{"result":{"fmea":{},"stats":{"phases":[{"name":"risk-log","wall_ms":0.5,"jobs_executed":1}]},"x":1}}"#;
        assert_eq!(stats_phases(stats), vec![("risk-log".to_owned(), 0.5, 1)]);
    }
}
