//! The `serve-ingest` load client: closed-loop connections to a running
//! `sfa serve`, each sending its next request only after the previous
//! reply arrived, for a fixed time.
//!
//! The requests follow the well-formed mix of the repository's load
//! generator (`draw_request` in `sfa_experiments::loadgen`): `TOPK`, `SIM`,
//! `PAIRS` and `HEALTH` equally likely, their arguments drawn by the same
//! arithmetic on a per-request hash, and every [`INGEST_EVERY`]-th request
//! an `INGEST` of one to three columns. That generator sends a fixed number
//! of requests and checks only reply headers; this client runs for a fixed
//! time, checks every reply's contents, and measures when an acknowledged
//! `INGEST` reaches the served snapshot.
//!
//! Visibility is probed with `SIM p p` on a column `p` that only this
//! connection's ingests touch: each ingested row carries `p` after its
//! drawn columns, and drawn ingest columns avoid every probe column. The
//! reply carries `|p|` in the current snapshot, so the n-th acknowledged
//! ingest is visible once `|p| >= |p|₀ + n`. (`HEALTH`'s `rows=` counts
//! acknowledged rows, not the rows of the served snapshot, so it cannot
//! show visibility.) Probes are extra requests between the drawn ones and
//! are not latency samples.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What one load run is told.
pub struct LoadConfig {
    pub addr: String,
    pub seconds: f64,
    pub seed: u64,
    pub n_cols: u32,
    pub base_rows: u64,
}

/// Closed-loop connections, one thread each: the host has 2 cores.
pub const CONNECTIONS: usize = 2;

/// Every this many drawn requests, a connection sends an `INGEST`.
pub const INGEST_EVERY: u64 = 50;

/// While ingests are pending, a connection probes after every this many
/// drawn requests.
const PROBE_EVERY: u64 = 16;

/// Latency percentiles are taken per window of this length; the run
/// reports their medians, so a scheduler stall moves one window rather
/// than the whole run.
const WINDOW_NS: u64 = 250_000_000;

/// The threshold `sfa serve` runs with; `PAIRS` replies stay above it.
const S_STAR: f64 = 0.7;

/// One drawn request.
pub enum Request {
    TopK {
        col: u32,
        k: usize,
    },
    Sim(u32, u32),
    /// `PAIRS 0.<tenths>`.
    Pairs {
        tenths: u64,
    },
    Health,
    /// Strictly ascending columns, the connection's probe column last.
    Ingest(Vec<u32>),
}

impl Request {
    /// Request `n` of connection `conn`.
    pub fn draw(seed: u64, conn: usize, n: u64, n_cols: u32) -> Self {
        let roll = splitmix64(seed ^ splitmix64((conn as u64) << 40 | n));
        let cols = u64::from(n_cols);
        let col = |x: u64| u32::try_from(x).expect("below n_cols");
        if n % INGEST_EVERY == INGEST_EVERY - 1 {
            let usable = cols - CONNECTIONS as u64;
            let mut set = vec![
                col(roll % usable),
                col(roll / 7 % usable),
                col(roll / 49 % usable),
            ];
            set.sort_unstable();
            set.dedup();
            set.push(probe_col(n_cols, conn));
            return Self::Ingest(set);
        }
        match roll % 4 {
            0 => Self::TopK {
                col: col(roll / 5 % cols),
                k: 1 + (roll % 8) as usize,
            },
            1 => Self::Sim(col(roll / 3 % cols), col(roll / 11 % cols)),
            2 => Self::Pairs {
                tenths: 1 + roll % 9,
            },
            _ => Self::Health,
        }
    }

    /// The request line, without its newline.
    pub fn line(&self) -> String {
        match self {
            Self::TopK { col, k } => format!("TOPK {col} {k}"),
            Self::Sim(a, b) => format!("SIM {a} {b}"),
            Self::Pairs { tenths } => format!("PAIRS 0.{tenths}"),
            Self::Health => "HEALTH".to_owned(),
            Self::Ingest(cols) => {
                let words: Vec<String> = cols.iter().map(u32::to_string).collect();
                format!("INGEST {}", words.join(" "))
            }
        }
    }

    /// Index into [`VERBS`].
    const fn verb(&self) -> usize {
        match self {
            Self::TopK { .. } => 0,
            Self::Sim(..) => 1,
            Self::Pairs { .. } => 2,
            Self::Health => 3,
            Self::Ingest(_) => 4,
        }
    }
}

const VERBS: [&str; 5] = ["TOPK", "SIM", "PAIRS", "HEALTH", "INGEST"];

/// The column only connection `conn`'s ingests touch.
#[allow(clippy::cast_possible_truncation)]
const fn probe_col(n_cols: u32, conn: usize) -> u32 {
    n_cols - 1 - conn as u32
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-connection results, merged by [`run`].
#[derive(Default)]
struct ConnReport {
    /// `(ns since start, latency ns)` of every answered drawn request.
    samples: Vec<(u64, u64)>,
    /// Every reply received, timed or not (the server's `answered`).
    replies: u64,
    by_verb: [u64; 5],
    failed: u64,
    violations: u64,
    first_violation: Option<String>,
    ingests: u64,
    visible_ms: Vec<f64>,
}

/// Why one request did not get a valid answer.
enum Fail {
    /// `ERR`, `OVERLOADED`, a closed socket or a timeout.
    Refused,
    /// A reply that breaks the protocol.
    Violation(String),
}

struct Conn {
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Self {
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends `line`, which ends in its newline.
    fn send(&mut self, line: &str) -> Result<(), Fail> {
        self.reader
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(|_| Fail::Refused)
    }

    fn recv(&mut self) -> Result<&str, Fail> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) | Err(_) => Err(Fail::Refused),
            Ok(_) => Ok(self.line.trim_end()),
        }
    }

    /// Reads a single-line `OK …` reply and returns what follows `OK `.
    fn recv_ok(&mut self) -> Result<String, Fail> {
        let line = self.recv()?;
        if line.starts_with("ERR") || line == "OVERLOADED" {
            return Err(Fail::Refused);
        }
        line.strip_prefix("OK ")
            .map(str::to_owned)
            .ok_or_else(|| Fail::Violation(format!("bad reply {line:?}")))
    }

    /// Reads the `OK <n>` header of a multi-line reply.
    fn recv_count(&mut self) -> Result<usize, Fail> {
        let n = self.recv_ok()?;
        n.parse()
            .map_err(|_| Fail::Violation(format!("bad reply header OK {n:?}")))
    }
}

fn parse_sim(token: Option<&str>) -> Result<f64, Fail> {
    token
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|s| (0.0..=1.0).contains(s))
        .ok_or_else(|| Fail::Violation(format!("bad similarity {token:?}")))
}

fn parse_num<T: std::str::FromStr>(token: Option<&str>, what: &str) -> Result<T, Fail> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| Fail::Violation(format!("bad {what} {token:?}")))
}

/// One connection's closed loop.
struct Client<'a> {
    cfg: &'a LoadConfig,
    id: usize,
    conn: Conn,
    /// Drawn requests sent so far.
    drawn: u64,
    probe_base: u64,
    acked_ingests: u64,
    /// `(ingest number, ack instant)` of ingests not yet seen in a snapshot.
    pending: Vec<(u64, Instant)>,
    last_epoch: u64,
    report: ConnReport,
}

impl<'a> Client<'a> {
    fn new(cfg: &'a LoadConfig, id: usize) -> std::io::Result<Self> {
        Ok(Self {
            cfg,
            id,
            conn: Conn::open(&cfg.addr)?,
            drawn: 0,
            probe_base: 0,
            acked_ingests: 0,
            pending: Vec::new(),
            last_epoch: 0,
            report: ConnReport::default(),
        })
    }

    fn topk(&mut self, col: u32, k: usize) -> Result<(), Fail> {
        let n = self.conn.recv_count()?;
        if n > k {
            return Err(Fail::Violation(format!(
                "TOPK {col} {k} returned {n} partners"
            )));
        }
        let mut prev = f64::INFINITY;
        for _ in 0..n {
            let line = self.conn.recv()?.to_owned();
            let mut it = line.split(' ');
            let partner: u32 = parse_num(it.next(), "TOPK partner")?;
            let sim = parse_sim(it.next())?;
            if partner >= self.cfg.n_cols || partner == col || sim > prev {
                return Err(Fail::Violation(format!("TOPK {col}: bad line {line:?}")));
            }
            prev = sim;
        }
        Ok(())
    }

    /// Checks a `SIM a b` reply; returns its intersection size.
    fn sim(&mut self, a: u32, b: u32) -> Result<u64, Fail> {
        let reply = self.conn.recv_ok()?;
        let mut it = reply.split(' ');
        let sim = parse_sim(it.next())?;
        let inter: u64 = parse_num(it.next(), "SIM intersection")?;
        let union: u64 = parse_num(it.next(), "SIM union")?;
        #[allow(clippy::cast_precision_loss)]
        let exact = if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        };
        if inter > union || (sim - exact).abs() > 1e-6 || (a == b && inter != union) {
            return Err(Fail::Violation(format!("SIM {a} {b} = {reply:?}")));
        }
        Ok(inter)
    }

    fn pairs(&mut self, tenths: u64) -> Result<(), Fail> {
        let n = self.conn.recv_count()?;
        #[allow(clippy::cast_precision_loss)]
        let floor = f64::max(tenths as f64 / 10.0, S_STAR) - 1e-6;
        for _ in 0..n {
            let line = self.conn.recv()?.to_owned();
            let mut it = line.split(' ');
            let i: u32 = parse_num(it.next(), "PAIRS i")?;
            let j: u32 = parse_num(it.next(), "PAIRS j")?;
            let sim = parse_sim(it.next())?;
            if i >= j || j >= self.cfg.n_cols || sim < floor {
                return Err(Fail::Violation(format!(
                    "PAIRS 0.{tenths}: bad line {line:?}"
                )));
            }
        }
        Ok(())
    }

    fn health(&mut self) -> Result<(), Fail> {
        let reply = self.conn.recv_ok()?;
        let field = |name: &str| {
            reply
                .split(' ')
                .find_map(|kv| kv.strip_prefix(name))
                .and_then(|v| v.parse::<u64>().ok())
        };
        let (Some(epoch), Some(rows), Some(cols)) =
            (field("epoch="), field("rows="), field("cols="))
        else {
            return Err(Fail::Violation(format!("bad HEALTH {reply:?}")));
        };
        if epoch < self.last_epoch
            || rows < self.cfg.base_rows + self.acked_ingests
            || cols != u64::from(self.cfg.n_cols)
        {
            return Err(Fail::Violation(format!("inconsistent HEALTH {reply:?}")));
        }
        self.last_epoch = epoch;
        Ok(())
    }

    fn ingest(&mut self) -> Result<(), Fail> {
        let reply = self.conn.recv_ok()?;
        let row_id: u64 = parse_num(Some(reply.as_str()), "INGEST row id")?;
        if row_id < self.cfg.base_rows {
            return Err(Fail::Violation(format!(
                "INGEST row id {row_id} inside the base table"
            )));
        }
        self.acked_ingests += 1;
        self.pending.push((self.acked_ingests, Instant::now()));
        Ok(())
    }

    /// Reads and checks the reply to `request`.
    fn check_reply(&mut self, request: &Request) -> Result<(), Fail> {
        match *request {
            Request::TopK { col, k } => self.topk(col, k),
            Request::Sim(a, b) => self.sim(a, b).map(|_| ()),
            Request::Pairs { tenths } => self.pairs(tenths),
            Request::Health => self.health(),
            Request::Ingest(_) => self.ingest(),
        }
    }

    /// `SIM p p` on the probe column; returns its cardinality.
    fn probe_count(&mut self) -> Result<u64, Fail> {
        let p = probe_col(self.cfg.n_cols, self.id);
        self.conn.send(&format!("SIM {p} {p}\n"))?;
        let count = self.sim(p, p)?;
        self.report.replies += 1;
        Ok(count)
    }

    /// Resolves every pending ingest the snapshot now holds.
    fn probe(&mut self) -> Result<(), Fail> {
        let seen = self.probe_count()?.saturating_sub(self.probe_base);
        let now = Instant::now();
        let visible_ms = &mut self.report.visible_ms;
        self.pending.retain(|&(n, acked)| {
            let visible = n <= seen;
            if visible {
                visible_ms.push(now.duration_since(acked).as_secs_f64() * 1e3);
            }
            !visible
        });
        Ok(())
    }

    /// One drawn request, timed, then a probe when one is due.
    fn step(&mut self, start: Instant) -> Result<(), Fail> {
        let request = Request::draw(self.cfg.seed, self.id, self.drawn, self.cfg.n_cols);
        let line = request.line() + "\n";
        self.drawn += 1;
        let sent = Instant::now();
        self.conn.send(&line)?;
        self.check_reply(&request)?;
        let done = Instant::now();
        self.report.samples.push((
            nanos(done.duration_since(start)),
            nanos(done.duration_since(sent)),
        ));
        self.report.replies += 1;
        self.report.by_verb[request.verb()] += 1;
        if !self.pending.is_empty() && self.drawn.is_multiple_of(PROBE_EVERY) {
            self.probe()?;
        }
        Ok(())
    }

    fn run(mut self, start: Instant, deadline: Instant) -> ConnReport {
        match self.probe_count() {
            Ok(base) => self.probe_base = base,
            Err(_) => {
                self.report.failed += 1;
                return self.report;
            }
        }
        while Instant::now() < deadline {
            if let Err(fail) = self.step(start) {
                self.report.failed += 1;
                if let Fail::Violation(what) = fail {
                    self.report.violations += 1;
                    self.report.first_violation.get_or_insert(what);
                }
                // The reply stream can no longer be trusted: reconnect.
                match Conn::open(&self.cfg.addr) {
                    Ok(conn) => self.conn = conn,
                    Err(_) => break,
                }
            }
        }
        // Wait (bounded) for the last ingests to reach a snapshot, so every
        // acknowledged row is either seen or counted as failed.
        let settle = Instant::now() + Duration::from_secs(5);
        while !self.pending.is_empty() && Instant::now() < settle {
            if self.probe().is_err() {
                self.report.failed += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.report.failed += self.pending.len() as u64;
        self.report.ingests = self.acked_ingests;
        if self.conn.send("QUIT\n").is_ok() && self.conn.recv().is_ok() {
            self.report.replies += 1;
        }
        self.report
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
fn percentile(sorted: &[u64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 || c == '\u{7f}' => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the load and prints one JSON object describing it.
pub fn run(cfg: &LoadConfig) -> Result<(), String> {
    let clients: Vec<Client> = (0..CONNECTIONS)
        .map(|id| Client::new(cfg, id).map_err(|e| format!("connect {}: {e}", cfg.addr)))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let reports: Vec<ConnReport> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| s.spawn(move || c.run(start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });

    let mut all = ConnReport::default();
    for r in reports {
        all.samples.extend(r.samples);
        all.replies += r.replies;
        for (a, b) in all.by_verb.iter_mut().zip(r.by_verb) {
            *a += b;
        }
        all.failed += r.failed;
        all.violations += r.violations;
        all.first_violation = all.first_violation.or(r.first_violation);
        all.ingests += r.ingests;
        all.visible_ms.extend(r.visible_ms);
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let windows = ((cfg.seconds * 1e9) as u64 / WINDOW_NS).max(1) as usize;
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(at, lat) in &all.samples {
        let w = usize::try_from(at / WINDOW_NS).unwrap_or(usize::MAX);
        per_window[w.min(windows - 1)].push(lat);
    }
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for w in &mut per_window {
        // Fewer than 1000 samples leave fewer than 10 beyond the p99.
        if w.len() < 1000 {
            continue;
        }
        w.sort_unstable();
        p50s.push(percentile(w, 0.50) / 1e3);
        p99s.push(percentile(w, 0.99) / 1e3);
    }
    let by_verb: Vec<String> = VERBS
        .iter()
        .zip(all.by_verb)
        .map(|(v, n)| format!("\"{v}\": {n}"))
        .collect();
    println!(
        "{{\"answered\": {}, \"replies\": {}, \"failed\": {}, \"violations\": {}, \
         \"first_violation\": {}, \"by_verb\": {{{}}}, \"windows\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"ingests\": {}, \
         \"visible_samples\": {}, \"ingest_visible_ms\": {}}}",
        all.samples.len(),
        all.replies,
        all.failed,
        all.violations,
        json_string(&all.first_violation.unwrap_or_default()),
        by_verb.join(", "),
        p50s.len(),
        median(&mut p50s),
        median(&mut p99s),
        all.ingests,
        all.visible_ms.len(),
        median(&mut all.visible_ms),
    );
    Ok(())
}
