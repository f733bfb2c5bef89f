//! The HiDISC repository benchmark: one command that runs a workload,
//! checks its outputs against independent oracles, and prints every
//! metric by name and unit.
//!
//! ```text
//! hibench --workload <suite-paper|latency-sweep|serve-mix> --seed <n>
//!         --seconds <s> --trace <0|1> [--scale test|paper] [--out <dir>]
//!         [--inject-fault]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it makes a separate traced run and prints the per-layer metrics, the
//! span summary and the tracing overhead, and writes the spans to
//! `<out>/spans-<workload>-<seed>.json`. The last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`. The exit code is
//! 0 only when every output matched its oracle. See README.md.

mod batch;
mod calib;
mod http;
mod layers;
mod oracle;
mod serve_mix;
mod span;

use std::path::PathBuf;
use std::process::ExitCode;

use hidisc_workloads::Scale;

use layers::Metric;
use span::Tracer;

const WORKLOADS: [&str; 3] = ["suite-paper", "latency-sweep", "serve-mix"];

/// Parsed command line.
pub struct Args {
    /// One of `WORKLOADS`.
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scale of the batch workloads (`serve-mix` always serves
    /// test-scale jobs).
    pub scale: Scale,
    pub out: PathBuf,
    /// Corrupt one result before the oracles see it (self-test of the
    /// oracles).
    pub inject_fault: bool,
}

const USAGE: &str = "usage: hibench --workload <suite-paper|latency-sweep|serve-mix> \
    [--seed N] [--seconds S] [--trace 0|1] [--scale test|paper] [--out DIR] [--inject-fault]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: WORKLOADS[0],
        seed: 2003,
        seconds: 10.0,
        trace: false,
        scale: Scale::Paper,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        inject_fault: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-fault" {
            a.inject_fault = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?)
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                a.scale = match value {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failure messages and sample counts, printed before the result.
    pub notes: Vec<String>,
    /// Digest of the simulated statistics (see `oracle::digest`).
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {msg}"));
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":\"{}\",\
         \"git_sha\":\"{}\",\"nproc\":{threads},\"threads\":{},\"profile\":\"{}\"}}",
        a.workload,
        a.seed,
        json_num(a.seconds),
        a.trace,
        if a.workload == "serve-mix" || a.scale == Scale::Test {
            "test"
        } else {
            "paper"
        },
        hidisc_serve::GIT_SHA,
        // Batch grids run on one thread; serve-mix adds two client
        // threads beside the service's reactor and one worker.
        if a.workload == "serve-mix" { 2 } else { 1 },
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    println!("meta {meta}");

    let traced = Tracer::new(a.trace);
    let out = match a.workload {
        "suite-paper" => batch::run(batch::Kind::SuitePaper, &a, &traced),
        "latency-sweep" => batch::run(batch::Kind::LatencySweep, &a, &traced),
        _ => serve_mix::run(&a, &traced),
    };

    for n in &out.notes {
        println!("note {n}");
    }
    if let Some(d) = out.digest {
        println!("digest {} {d:016x}", a.workload);
    }
    let mut failed = out.failed;
    if a.trace {
        println!(
            "spans {:<24} {:>8} {:>12} {:>12}",
            "name", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in traced.summary() {
            println!("spans {name:<24} {count:>8} {total:>12.6} {own:>12.6}");
        }
        let path = a.out.join(format!("spans-{}-{}.json", a.workload, a.seed));
        let written = std::fs::create_dir_all(&a.out)
            .and_then(|()| std::fs::write(&path, traced.chrome_json(&meta)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                println!("note FAILED: writing {}: {e}", path.display());
                failed += 1;
            }
        }
    }
    let attempted = out.attempted.max(1);
    println!(
        "metric {:<40} {:>16} fraction",
        "failed_frac",
        json_num(failed as f64 / attempted as f64)
    );
    let mut fields = Vec::new();
    for m in &out.metrics {
        println!("metric {:<40} {:>16} {}", m.name, json_num(m.value), m.unit);
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        ));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
