//! Adversarial harness for the compiled `sfa serve` binary.
//!
//! Each test spawns a real server process on a loopback port, drives it
//! with the seeded load generator (well-formed traffic mixed with
//! slow-loris stalls, mid-request disconnects, garbage floods, and
//! oversized lines), and pins the robustness contract:
//!
//! * the server never panics and its memory stays bounded under abuse;
//! * every accepted request is answered, shed, or timed out — the
//!   `serving` metrics block balances exactly;
//! * overload sheds explicitly (`OVERLOADED`), not by silent drops;
//! * SIGTERM (or `--deadline-secs`) drains within the budget and exits 3;
//!   a second signal forces immediate exit 130;
//! * every acknowledged `INGEST` row survives a drain-then-restart,
//!   verified by re-querying `SIM` against recomputed ground truth.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sfa::core::ServingMetrics;
use sfa::json::Json;
use sfa::matrix::{io, RowMajorMatrix};
use sfa_experiments::chaos::send_sigterm;
use sfa_experiments::loadgen::{run_load, LoadConfig};

const N_COLS: u32 = 6;

fn sfa_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sfa"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sfa_serve_robustness").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The base fixture: 12 rows over 6 columns with a planted similar pair
/// (columns 0 and 1 identical) and varied tail columns.
fn base_rows() -> Vec<Vec<u32>> {
    (0..12u32)
        .map(|r| {
            let mut cols = vec![0, 1];
            if r % 2 == 0 {
                cols.push(2);
            }
            if r % 3 == 0 {
                cols.push(3 + r % 3);
            }
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

fn write_fixture(dir: &Path) -> PathBuf {
    let path = dir.join("table.sfab");
    let matrix = RowMajorMatrix::from_rows(N_COLS, base_rows()).unwrap();
    io::write_binary(&matrix, &path).unwrap();
    path
}

/// A spawned `sfa serve` child with its bound address already read off
/// stdout (port 0 support: the OS picks, the server prints).
struct ServeProc {
    child: Child,
    addr: String,
}

fn spawn_serve(fixture: &Path, state: &Path, metrics: &Path, extra: &[&str]) -> ServeProc {
    spawn_serve_env(fixture, state, metrics, extra, &[])
}

fn spawn_serve_env(
    fixture: &Path,
    state: &Path,
    metrics: &Path,
    extra: &[&str],
    env: &[(&str, &str)],
) -> ServeProc {
    let mut cmd = Command::new(sfa_bin());
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--threshold", "0.4"])
        .arg("--input")
        .arg(fixture)
        .arg("--state-dir")
        .arg(state)
        .arg("--metrics-json")
        .arg(metrics)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn sfa serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_owned();
    ServeProc { child, addr }
}

/// The `metrics.serving` block of the document `sfa serve` wrote.
fn read_serving(path: &Path) -> ServingMetrics {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    let doc = Json::parse(&text).expect("valid json");
    let serving = doc
        .get("metrics")
        .and_then(|metrics| metrics.get("serving"))
        .expect("serve writes a serving block");
    let field = |key: &str| {
        serving
            .get(key)
            .unwrap_or_else(|| panic!("serving block lacks `{key}`"))
    };
    let count = |key: &str| field(key).as_u64().expect("a count");
    let number = |key: &str| field(key).as_f64().expect("a number");
    ServingMetrics {
        accepted: count("accepted"),
        answered: count("answered"),
        shed: count("shed"),
        timed_out: count("timed_out"),
        malformed: count("malformed"),
        ingested_rows: count("ingested_rows"),
        snapshot_swaps: count("snapshot_swaps"),
        uptime_secs: number("uptime_secs"),
        qps: number("qps"),
        p50_micros: count("p50_micros"),
        p99_micros: count("p99_micros"),
    }
}

/// Resident set size of a live process in kilobytes (linux only; `None`
/// elsewhere, which skips the bound check).
fn rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One direct protocol client with a read timeout.
struct Probe {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Probe {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        Self {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn roundtrip(&mut self, req: &str) -> String {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        line.trim_end().to_owned()
    }
}

/// Column occurrence counts over the base fixture plus a set of extra
/// (acknowledged) rows — the ground truth `SIM c c` must reproduce.
fn expected_counts(acked: &[Vec<u32>]) -> HashMap<u32, u64> {
    let mut counts = HashMap::new();
    for row in base_rows().iter().chain(acked) {
        for &c in row {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn adversarial_load_is_survived_and_acked_ingests_outlive_restart() {
    let work = tmp_dir("adversarial");
    let fixture = write_fixture(&work);
    let state = work.join("state");
    let metrics_path = work.join("metrics.json");
    let mut serve = spawn_serve(
        &fixture,
        &state,
        &metrics_path,
        &[
            "--threads",
            "2",
            "--queue-depth",
            "16",
            "--request-timeout-ms",
            "300",
            "--drain-secs",
            "3",
        ],
    );

    // Round 1: the full adversarial mix, run to completion. Every INGEST
    // the server acknowledges becomes a durability obligation.
    let cfg = LoadConfig {
        clients: 24,
        requests_per_client: 16,
        ingest_every: 5,
        ..LoadConfig::new(&serve.addr, 20000214, N_COLS)
    };
    let report = run_load(&cfg);
    assert_eq!(report.violations, 0, "protocol violations: {report:?}");
    assert!(
        report.ok > 0,
        "no well-formed request succeeded: {report:?}"
    );
    let mut acked: Vec<(u64, Vec<u32>)> = report.acked_ingests.clone();

    // Controlled ingests through a direct client, acked synchronously.
    let mut probe = Probe::connect(&serve.addr);
    for cols in [vec![0, 2], vec![2, 5], vec![4]] {
        let words: Vec<String> = cols.iter().map(ToString::to_string).collect();
        let reply = probe.roundtrip(&format!("INGEST {}", words.join(" ")));
        let row_id: u64 = reply
            .strip_prefix("OK ")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("ingest not acked: {reply:?}"));
        acked.push((row_id, cols));
    }

    // Bounded memory under abuse: a 12-row index served through a few
    // KB of buffers must stay far under 256 MiB resident.
    if let Some(kb) = rss_kb(serve.child.id()) {
        assert!(kb < 256 * 1024, "server ballooned to {kb} KiB under load");
    }

    // Round 2: ingest-free query load still in flight when SIGTERM lands.
    let addr = serve.addr.clone();
    let drain_load = std::thread::spawn(move || {
        run_load(&LoadConfig {
            clients: 8,
            requests_per_client: 200,
            ingest_every: 0,
            adversarial: false,
            ..LoadConfig::new(&addr, 7, N_COLS)
        })
    });
    std::thread::sleep(Duration::from_millis(100));
    let drained_at = Instant::now();
    send_sigterm(&mut serve.child);
    let status = serve.child.wait().unwrap();
    assert_eq!(status.code(), Some(3), "graceful drain exits 3");
    assert!(
        drained_at.elapsed() < Duration::from_secs(8),
        "drain blew the budget: {:?}",
        drained_at.elapsed()
    );
    let round2 = drain_load.join().unwrap();
    assert_eq!(round2.violations, 0, "{round2:?}");

    // The serving metrics block must balance exactly.
    let serving = read_serving(&metrics_path);
    assert!(serving.balances(), "dispositions must balance: {serving:?}");
    assert!(serving.answered > 0);
    assert_eq!(
        serving.ingested_rows,
        acked.len() as u64,
        "every acked ingest and nothing else: {serving:?}"
    );

    // Restart from the same state dir: every acknowledged row is served.
    let acked_rows: Vec<Vec<u32>> = acked.iter().map(|(_, cols)| cols.clone()).collect();
    let mut serve2 = spawn_serve(&fixture, &state, &work.join("metrics2.json"), &[]);
    let mut probe = Probe::connect(&serve2.addr);
    let health = probe.roundtrip("HEALTH");
    let rows_word = health
        .split(' ')
        .find_map(|w| w.strip_prefix("rows="))
        .expect("health reports rows");
    assert_eq!(
        rows_word.parse::<u64>().unwrap(),
        12 + acked_rows.len() as u64,
        "restart must replay exactly the acked rows: {health}"
    );
    for (col, want) in expected_counts(&acked_rows) {
        let reply = probe.roundtrip(&format!("SIM {col} {col}"));
        let expect = if want == 0 {
            "OK 0.000000 0 0".to_owned()
        } else {
            format!("OK 1.000000 {want} {want}")
        };
        assert_eq!(reply, expect, "column {col} count after restart");
    }
    send_sigterm(&mut serve2.child);
    assert_eq!(serve2.child.wait().unwrap().code(), Some(3));
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn overload_sheds_explicitly_under_burst() {
    let work = tmp_dir("overload");
    let fixture = write_fixture(&work);
    let metrics_path = work.join("metrics.json");
    // One worker and a one-deep queue: a slow-loris pins the worker for
    // its whole request timeout, so a burst must overflow the gate.
    let mut serve = spawn_serve(
        &fixture,
        &work.join("state"),
        &metrics_path,
        &[
            "--threads",
            "1",
            "--queue-depth",
            "1",
            "--request-timeout-ms",
            "500",
            "--drain-secs",
            "2",
        ],
    );

    let mut loris = TcpStream::connect(&serve.addr).expect("connect");
    loris.write_all(b"TOPK 0").expect("partial request");
    std::thread::sleep(Duration::from_millis(50));
    // Read-only burst: writing to an already-shed socket can RST away
    // the buffered OVERLOADED reply, so these clients only read.
    let mut shed_seen = 0u32;
    let mut burst = Vec::new();
    for _ in 0..8 {
        let c = TcpStream::connect(&serve.addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        burst.push(BufReader::new(c));
    }
    for c in &mut burst {
        let mut line = String::new();
        let _ = c.read_line(&mut line);
        if line.trim_end() == "OVERLOADED" {
            shed_seen += 1;
        }
    }
    assert!(
        shed_seen >= 1,
        "an 8-connection burst against a 1-deep queue must shed"
    );
    drop(loris);

    send_sigterm(&mut serve.child);
    assert_eq!(serve.child.wait().unwrap().code(), Some(3));
    let serving = read_serving(&metrics_path);
    assert!(serving.balances(), "{serving:?}");
    assert!(
        serving.shed >= u64::from(shed_seen),
        "server must account every shed it sent: {serving:?}"
    );
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn second_sigterm_forces_immediate_exit_130() {
    let work = tmp_dir("forced");
    let fixture = write_fixture(&work);
    // The drain-hold hook keeps the process alive after the drain, so
    // the second signal has a deterministic window to land in.
    let mut serve = spawn_serve_env(
        &fixture,
        &work.join("state"),
        &work.join("metrics.json"),
        &["--drain-secs", "1"],
        &[("SFA_DRAIN_HOLD_MS", "10000")],
    );
    send_sigterm(&mut serve.child);
    std::thread::sleep(Duration::from_millis(400));
    let escalated_at = Instant::now();
    send_sigterm(&mut serve.child);
    let status = serve.child.wait().unwrap();
    assert_eq!(
        status.code(),
        Some(130),
        "second signal must force exit 130 without waiting out the hold"
    );
    assert!(
        escalated_at.elapsed() < Duration::from_secs(5),
        "forced exit must not wait for the drain hold"
    );
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn deadline_drains_without_a_signal_and_exits_3() {
    let work = tmp_dir("deadline");
    let fixture = write_fixture(&work);
    let metrics_path = work.join("metrics.json");
    let mut serve = spawn_serve(
        &fixture,
        &work.join("state"),
        &metrics_path,
        &["--deadline-secs", "1", "--drain-secs", "2"],
    );
    let mut probe = Probe::connect(&serve.addr);
    assert!(probe.roundtrip("HEALTH").starts_with("OK "));
    let status = serve.child.wait().unwrap();
    assert_eq!(status.code(), Some(3), "deadline drain exits 3");
    let serving = read_serving(&metrics_path);
    assert!(serving.balances(), "{serving:?}");
    assert_eq!(serving.answered, 1, "{serving:?}");
    std::fs::remove_dir_all(&work).ok();
}
