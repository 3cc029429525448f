//! `perfbench`: the compiled half of the sfa benchmark; `run.py` drives it.
//!
//! ```text
//! perfbench gen          --workload W --seed N --dir DIR
//! perfbench mine-rowsort --input F [--threads N | --memory-budget BYTES] --spill-dir DIR
//! perfbench load         --addr HOST:PORT --seconds S --seed N --cols C --base-rows R
//! perfbench trace        --input F --schemes a,b,… [--threads N | --memory-budget BYTES]
//!                        --spill-dir DIR
//! perfbench trace-serve  --input F --seed N --ingests N --state-dir DIR
//! ```

mod layers;
mod load;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` options after the subcommand.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_owned(), value.clone()));
        }
        Ok(Self(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.req(key).map(PathBuf::from)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("bad --{key}: {v:?}")))
            .transpose()
    }

    fn num_req<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.num(key)?.ok_or_else(|| format!("missing --{key}"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing subcommand")?;
    let opts = Opts::parse(rest)?;
    match command.as_str() {
        "gen" => layers::generate(
            opts.req("workload")?,
            opts.num_req("seed")?,
            &opts.path("dir")?,
        ),
        "mine-rowsort" => layers::mine_rowsort(
            &opts.path("input")?,
            opts.num("threads")?,
            opts.num("memory-budget")?,
            &opts.path("spill-dir")?,
        ),
        "load" => load::run(&load::LoadConfig {
            addr: opts.req("addr")?.to_owned(),
            seconds: opts.num_req("seconds")?,
            seed: opts.num_req("seed")?,
            n_cols: opts.num_req("cols")?,
            base_rows: opts.num_req("base-rows")?,
        }),
        "trace" => {
            let schemes: Vec<String> = opts.req("schemes")?.split(',').map(str::to_owned).collect();
            let spill_dir = opts.path("spill-dir")?;
            layers::trace_mining(
                &opts.path("input")?,
                &schemes,
                &layers::MineMode {
                    threads: opts.num("threads")?,
                    budget: opts.num("memory-budget")?,
                    spill_dir: &spill_dir,
                },
            )
        }
        "trace-serve" => layers::trace_serve(
            &opts.path("input")?,
            opts.num_req("seed")?,
            opts.num_req("ingests")?,
            &opts.path("state-dir")?,
        ),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
