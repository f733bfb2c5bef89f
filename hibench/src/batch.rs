//! The batch workloads: a grid of (benchmark × machine configuration ×
//! model) cells simulated on one thread.
//!
//! * `suite-paper`: the seven paper benchmarks × four models under
//!   `MachineConfig::paper()` — what `repro fig8/fig9/table2` run.
//! * `latency-sweep`: `pointer` and `neighborhood` × the four Figure-10
//!   latency points × four models — what `repro fig10` runs.

use std::time::{Duration, Instant};

use hidisc::{MachineConfig, MachineStats, Model, TraceConfig};
use hidisc_bench::{env_of, table2, SuiteResult, FIG10_LATENCIES};
use hidisc_slicer::{compile, CompiledWorkload, CompilerConfig, ExecEnv};
use hidisc_workloads::{by_name, suite, Scale, Workload};

use crate::calib::Meter;
use crate::layers::{median, model_slug, peak_rss_mb, put, ratio, simulate, SimLayers};
use crate::oracle;
use crate::span::Tracer;
use crate::{serve_mix, Args, Outcome};

#[derive(Clone, Copy)]
pub enum Kind {
    SuitePaper,
    LatencySweep,
}

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Table 2 of the paper: average speed-up of CP+AP, CP+CMP and HiDISC
/// over the baseline, in percent.
const PAPER_TABLE2: [f64; 3] = [1.3, 10.7, 11.9];

/// Figure 10 of the paper: IPC lost from 4/40 to 16/160, in percent, for
/// the baseline superscalar and for HiDISC.
const PAPER_FIG10_LOSS: [(&str, [f64; 2]); 2] =
    [("neighborhood", [13.9, 4.8]), ("pointer", [20.3, 1.8])];

/// Mean absolute error, in percentage points, of the Figure-10 IPC loss
/// across the sweep against the paper. `ipc(benchmark, latency index,
/// model)` looks up a simulated IPC; `None` when one is missing.
pub fn fig10_err(ipc: &dyn Fn(&str, usize, Model) -> Option<f64>) -> Option<f64> {
    let last = FIG10_LATENCIES.len() - 1;
    let mut errs = Vec::new();
    for (bench, paper) in PAPER_FIG10_LOSS {
        for (model, want) in [Model::Superscalar, Model::HiDisc].into_iter().zip(paper) {
            let loss = 100.0 * (1.0 - ipc(bench, last, model)? / ipc(bench, 0, model)?);
            errs.push((loss - want).abs());
        }
    }
    Some(errs.iter().sum::<f64>() / errs.len() as f64)
}

struct Prepared {
    w: Workload,
    env: ExecEnv,
    compiled: CompiledWorkload,
}

struct Cell {
    wi: usize,
    ci: usize,
    model: Model,
}

struct Grid {
    prepared: Vec<Prepared>,
    configs: Vec<(String, MachineConfig)>,
    cells: Vec<Cell>,
}

impl Grid {
    fn new(kind: Kind, prepared: Vec<Prepared>) -> Grid {
        let configs: Vec<(String, MachineConfig)> = match kind {
            Kind::SuitePaper => vec![("paper".to_string(), MachineConfig::paper())],
            Kind::LatencySweep => FIG10_LATENCIES
                .iter()
                .map(|&(l2, mem)| {
                    (
                        format!("{l2}/{mem}"),
                        MachineConfig::paper_with_latency(l2, mem),
                    )
                })
                .collect(),
        };
        let mut cells = Vec::new();
        for wi in 0..prepared.len() {
            for ci in 0..configs.len() {
                for model in Model::ALL {
                    cells.push(Cell { wi, ci, model });
                }
            }
        }
        Grid {
            prepared,
            configs,
            cells,
        }
    }
}

/// Workload generation plus compile (slicing and profiling): the work
/// `setup_s` times. Returns the prepared workloads and the seconds spent
/// in each of the two layers.
fn setup(
    kind: Kind,
    scale: Scale,
    seed: u64,
    tracer: &Tracer,
) -> Result<(Vec<Prepared>, f64, f64), String> {
    let root = tracer.begin("setup", 0, 0);
    let span = tracer.begin("workloads.gen", root.id(), 0);
    let t = Instant::now();
    let workloads: Vec<Workload> = match kind {
        Kind::SuitePaper => suite(scale, seed),
        Kind::LatencySweep => ["pointer", "neighborhood"]
            .iter()
            .map(|n| by_name(n, scale, seed).ok_or_else(|| format!("no workload {n}")))
            .collect::<Result<_, _>>()?,
    };
    let gen_s = t.elapsed().as_secs_f64();
    tracer.end(span, Vec::new());
    let mut compile_s = 0.0;
    let mut prepared = Vec::new();
    for w in workloads {
        let span = tracer.begin("slicer.compile", root.id(), 0);
        let t = Instant::now();
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default())
            .map_err(|e| format!("{}: compile failed: {e}", w.name))?;
        compile_s += t.elapsed().as_secs_f64();
        tracer.end(span, vec![("benchmark", w.name.to_string())]);
        prepared.push(Prepared { w, env, compiled });
    }
    tracer.end(root, Vec::new());
    Ok((prepared, gen_s, compile_s))
}

/// What a sequence of grid passes measured.
struct Passes {
    /// Per cell: calibrated ns (see `calib`) of `Machine::new` plus
    /// `Machine::run`, one sample per pass that reached the cell.
    ns: Vec<Vec<f64>>,
    /// Per cell: raw host ns of `Machine::new`, and of `Machine::run`,
    /// for the per-layer split.
    new_ns: Vec<Vec<f64>>,
    run_ns: Vec<Vec<f64>>,
    /// Per cell: the stats of its first successful run.
    first: Vec<Option<MachineStats>>,
    /// Complete passes.
    passes: usize,
    runs: u64,
    errors: Vec<String>,
    events: u64,
    dropped: u64,
    /// Host speed relative to nominal while the passes ran.
    host_speed: f64,
}

impl Passes {
    /// Calibrated seconds to simulate the grid once: the sum over cells
    /// of the median of each cell's repeats.
    fn grid_s(&self) -> f64 {
        self.ns.iter().map(|v| median(v)).sum::<f64>() * 1e-9
    }
}

/// Runs grid passes on this thread until `seconds` have passed (at least
/// one full pass, at most `max_passes`). Every repeat of a cell must be
/// `sim_eq` to its first run, and to `reference` when given.
fn measure(
    grid: &Grid,
    seconds: f64,
    max_passes: usize,
    tracer: &Tracer,
    telemetry: TraceConfig,
    reference: Option<&[Option<MachineStats>]>,
) -> Passes {
    let n = grid.cells.len();
    let mut p = Passes {
        ns: vec![Vec::new(); n],
        new_ns: vec![Vec::new(); n],
        run_ns: vec![Vec::new(); n],
        first: vec![None; n],
        passes: 0,
        runs: 0,
        errors: Vec::new(),
        events: 0,
        dropped: 0,
        host_speed: 0.0,
    };
    let mut meter = Meter::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut pass = 0;
    while pass < max_passes && (pass == 0 || Instant::now() < deadline) {
        let pass_span = tracer.begin("grid.pass", 0, 0);
        let mut complete = true;
        for (c, cell) in grid.cells.iter().enumerate() {
            if pass > 0 && Instant::now() >= deadline {
                complete = false;
                break;
            }
            let prep = &grid.prepared[cell.wi];
            let (label, mut cfg) = grid.configs[cell.ci].clone();
            cfg.trace = telemetry;
            let ((res, machine, new_ns, run_ns), ns) = meter.time(|| {
                let span = tracer.begin("cell", pass_span.id(), 0);
                let sim = simulate(
                    tracer,
                    span.id(),
                    0,
                    cell.model,
                    &prep.compiled,
                    &prep.env,
                    cfg,
                );
                tracer.end(
                    span,
                    vec![
                        ("benchmark", prep.w.name.to_string()),
                        ("config", label.clone()),
                        ("model", model_slug(cell.model).to_string()),
                    ],
                );
                sim
            });
            p.runs += 1;
            p.events += machine.telemetry().events().len() as u64;
            p.dropped += machine.telemetry().dropped();
            drop(machine);
            let where_ = || format!("{} {} on {}", prep.w.name, label, cell.model);
            match res {
                Ok(st) => {
                    p.ns[c].push(ns);
                    p.new_ns[c].push(new_ns as f64);
                    p.run_ns[c].push(run_ns as f64);
                    let want = reference
                        .and_then(|r| r[c].as_ref())
                        .or(p.first[c].as_ref());
                    if want.is_some_and(|w| !w.sim_eq(&st)) {
                        p.errors
                            .push(format!("{}: repeat run differs from the first", where_()));
                    }
                    if p.first[c].is_none() {
                        p.first[c] = Some(st);
                    }
                }
                Err(e) => p.errors.push(format!("{}: {e}", where_())),
            }
        }
        tracer.end(pass_span, vec![("pass", pass.to_string())]);
        p.passes += usize::from(complete);
        pass += 1;
    }
    p.host_speed = meter.host_speed();
    p
}

fn paper_err(kind: Kind, grid: &Grid, first: &[Option<MachineStats>]) -> Option<f64> {
    let stats = |wi: usize, ci: usize, m: Model| {
        grid.cells
            .iter()
            .position(|c| c.wi == wi && c.ci == ci && c.model == m)
            .and_then(|c| first[c].as_ref())
    };
    match kind {
        Kind::SuitePaper => {
            let results: Vec<SuiteResult> = grid
                .prepared
                .iter()
                .enumerate()
                .map(|(wi, p)| {
                    let per_model = Model::ALL
                        .iter()
                        .map(|&m| stats(wi, 0, m).cloned())
                        .collect::<Option<Vec<_>>>()?;
                    Some(SuiteResult {
                        name: p.w.name,
                        per_model,
                    })
                })
                .collect::<Option<_>>()?;
            let avg = table2(&results);
            let errs = avg[1..]
                .iter()
                .zip(PAPER_TABLE2)
                .map(|(a, paper)| (100.0 * (a - 1.0) - paper).abs());
            Some(errs.sum::<f64>() / PAPER_TABLE2.len() as f64)
        }
        Kind::LatencySweep => fig10_err(&|bench, ci, m| {
            let wi = grid.prepared.iter().position(|p| p.w.name == bench)?;
            Some(stats(wi, ci, m)?.ipc())
        }),
    }
}

/// Runs one batch workload: set-up, timed passes, oracles, and — with
/// `--trace 1` — a traced pass set, a telemetry pass and a service probe.
pub fn run(kind: Kind, a: &Args, traced: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut prepared = None;
    let mut meter = Meter::new();
    for _ in 0..if a.trace { 1 } else { SETUP_REPS } {
        let (res, ns) = meter.time(|| setup(kind, a.scale, a.seed, &off));
        match res {
            Ok((p, _, _)) => prepared = Some(p),
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return out;
            }
        }
        setups.push(ns * 1e-9);
    }
    let grid = Grid::new(kind, prepared.expect("at least one set-up ran"));
    let mut base = measure(&grid, a.seconds, usize::MAX, &off, TraceConfig::OFF, None);
    let rss = peak_rss_mb();
    out.attempted += base.runs;
    for e in std::mem::take(&mut base.errors) {
        out.fail(e);
    }
    if a.inject_fault {
        if let Some(st) = base.first.iter_mut().flatten().next() {
            st.mem_checksum ^= 1;
        }
    }
    check_against_interpreter(&grid, &base.first, &mut out);
    if base.first.iter().all(Option::is_some) {
        out.digest = Some(oracle::digest(base.first.iter().flatten()));
    }
    let grid_s = base.grid_s();

    if !a.trace {
        let m = &mut out.metrics;
        put(m, "setup_s", median(&setups), "s");
        put(m, "cpu_s", grid_s, "s");
        let committed: u64 = base
            .first
            .iter()
            .flatten()
            .map(|s| s.total_committed())
            .sum();
        put(m, "msips", ratio(committed as f64, grid_s * 1e6), "MSIPS");
        put(m, "peak_rss_mb", rss, "MiB");
        put(
            m,
            "paper_err_pp",
            paper_err(kind, &grid, &base.first).unwrap_or(0.0),
            "pp",
        );
        let cycles: u64 = base.first.iter().flatten().map(|s| s.cycles).sum();
        out.notes.push(format!(
            "work: {committed} committed instructions, {cycles} simulated cycles"
        ));
        out.notes.push(format!(
            "samples: {} cell runs in {} complete passes; timings are each cell's median repeat",
            base.runs, base.passes
        ));
        out.notes.push(format!(
            "host speed: {:.3} of nominal (calibrated times are scaled by it)",
            base.host_speed
        ));
        return out;
    }

    // Traced run: the same grid with spans on, for the per-layer numbers.
    let (prep_t, gen_s, compile_s) = match setup(kind, a.scale, a.seed, traced) {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let grid_t = Grid::new(kind, prep_t);
    let mut spanned = measure(
        &grid_t,
        a.seconds,
        usize::MAX,
        traced,
        TraceConfig::OFF,
        Some(&base.first),
    );
    out.attempted += spanned.runs;
    for e in std::mem::take(&mut spanned.errors) {
        out.fail(e);
    }
    let tele = telemetry_overhead(&grid, &base.first, &mut out);
    let m = &mut out.metrics;
    put(m, "workloads.gen_s", gen_s, "s");
    put(m, "slicer.compile_s", compile_s, "s");
    let mut layers = SimLayers::default();
    for (c, st) in spanned.first.iter().enumerate() {
        if let Some(st) = st {
            let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min) as u64;
            layers.add(st, best(&spanned.new_ns[c]), best(&spanned.run_ns[c]));
        }
    }
    layers.metrics(m);
    put(m, "telemetry.overhead_frac", tele.0 - 1.0, "fraction");
    put(m, "telemetry.events", tele.1 as f64, "count");
    put(m, "telemetry.dropped", tele.2 as f64, "count");
    put(
        m,
        "trace.overhead_frac",
        ratio(spanned.grid_s(), grid_s) - 1.0,
        "fraction",
    );
    serve_mix::probe(a.seed, traced, &mut out);
    out
}

/// Prices telemetry: each cell runs with telemetry off and then with
/// every category on, back to back, so host drift hits both alike.
/// Returns (host time on ÷ host time off, events, dropped events).
fn telemetry_overhead(
    grid: &Grid,
    reference: &[Option<MachineStats>],
    out: &mut Outcome,
) -> (f64, u64, u64) {
    let off = Tracer::new(false);
    let (mut ns, mut events, mut dropped) = ([0u64; 2], 0, 0);
    for (c, cell) in grid.cells.iter().enumerate() {
        let p = &grid.prepared[cell.wi];
        for (i, trace) in [TraceConfig::OFF, TraceConfig::ALL_EVENTS]
            .into_iter()
            .enumerate()
        {
            let mut cfg = grid.configs[cell.ci].1;
            cfg.trace = trace;
            let (res, machine, new_ns, run_ns) =
                simulate(&off, 0, 0, cell.model, &p.compiled, &p.env, cfg);
            out.attempted += 1;
            ns[i] += new_ns + run_ns;
            events += machine.telemetry().events().len() as u64;
            dropped += machine.telemetry().dropped();
            match (res, &reference[c]) {
                (Ok(st), Some(want)) if !want.sim_eq(&st) => out.fail(format!(
                    "{} on {}: telemetry changed the simulated result",
                    p.w.name, cell.model
                )),
                (Err(e), _) => out.fail(format!("{} on {}: {e}", p.w.name, cell.model)),
                _ => {}
            }
        }
    }
    (ratio(ns[1] as f64, ns[0] as f64), events, dropped)
}

/// Checks every cell's final memory against the functional interpreter's
/// run of the sequential program (which also checks the generator's
/// expected result word).
fn check_against_interpreter(grid: &Grid, first: &[Option<MachineStats>], out: &mut Outcome) {
    for (wi, p) in grid.prepared.iter().enumerate() {
        let want = oracle::sequential_checksum(&p.w);
        for (c, cell) in grid.cells.iter().enumerate() {
            if cell.wi != wi {
                continue;
            }
            let label = &grid.configs[cell.ci].0;
            match (&want, &first[c]) {
                (Err(e), _) => out.fail(e.clone()),
                (Ok(_), None) => {} // the failed run is already counted
                (Ok(sum), Some(st)) if st.mem_checksum != *sum => out.fail(format!(
                    "{} {label} on {}: memory checksum {:016x}, interpreter {sum:016x}",
                    p.w.name, cell.model, st.mem_checksum
                )),
                _ => {}
            }
        }
    }
}
