//! Metric records, sample statistics, and the per-layer counters taken
//! from `MachineStats` of the simulations a workload ran.

use std::time::Instant;

use hidisc::{Machine, MachineConfig, MachineStats, Model, RunError};
use hidisc_slicer::{CompiledWorkload, ExecEnv};

use crate::span::{SpanId, Tracer};

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Appends a metric.
pub fn put(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric-name form of a model.
pub fn model_slug(m: Model) -> &'static str {
    match m {
        Model::Superscalar => "superscalar",
        Model::CpAp => "cp_ap",
        Model::CpCmp => "cp_cmp",
        Model::HiDisc => "hidisc",
    }
}

pub fn model_index(m: Model) -> usize {
    Model::ALL
        .iter()
        .position(|&x| x == m)
        .expect("Model::ALL lists every model")
}

/// One simulation: `Machine::new` then `Machine::run`, timed from
/// outside, with a `core.new` and a `core.run` span under `parent`.
/// Returns the stats and the host nanoseconds of the two calls.
pub fn simulate(
    tracer: &Tracer,
    parent: SpanId,
    lane: u32,
    model: Model,
    compiled: &CompiledWorkload,
    env: &ExecEnv,
    cfg: MachineConfig,
) -> (Result<MachineStats, RunError>, Machine, u64, u64) {
    let attrs = || vec![("model", model_slug(model).to_string())];
    let span = tracer.begin("core.new", parent, lane);
    let t0 = Instant::now();
    let mut m = Machine::new(model, compiled, env, cfg);
    let t1 = Instant::now();
    tracer.end(span, attrs());
    let span = tracer.begin("core.run", parent, lane);
    let t2 = Instant::now();
    let res = m.run(compiled.profile.dyn_instrs);
    let t3 = Instant::now();
    tracer.end(span, attrs());
    let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
    (res, m, ns(t0, t1), ns(t2, t3))
}

/// Core roles the `ooo.*` metrics are split by.
const ROLES: [&str; 3] = ["superscalar", "cp", "ap"];

fn role_of(core_name: &str) -> usize {
    match core_name {
        "CP" => 1,
        "AP" => 2,
        _ => 0, // "superscalar" and the CP+CMP model's "superscalar+"
    }
}

const QUEUES: [&str; 5] = ["ldq", "sdq", "cdq", "cq", "scq"];

/// Sums of the simulated counters and host times of a set of runs.
#[derive(Default)]
pub struct SimLayers {
    new_ns: u64,
    run_ns: [u64; 4],
    stepped: [u64; 4],
    cycles: u64,
    ff_skipped: u64,
    ff_jumps: u64,
    committed: u64,
    ooo: [[u64; 8]; 3],
    l1: [u64; 5],
    l2: [u64; 2],
    mshr_rejects: u64,
    mshr_merges: u64,
    dram: u64,
    cmp: [u64; 6],
    pushes: u64,
    full: [u64; 5],
    empty: [u64; 5],
}

impl SimLayers {
    /// Adds one run, with the host nanoseconds of its `Machine::new` and
    /// `Machine::run` calls.
    pub fn add(&mut self, st: &MachineStats, new_ns: u64, run_ns: u64) {
        let mi = model_index(st.model);
        self.new_ns += new_ns;
        self.run_ns[mi] += run_ns;
        self.stepped[mi] += st.cycles - st.ff_skipped_cycles;
        self.cycles += st.cycles;
        self.ff_skipped += st.ff_skipped_cycles;
        self.ff_jumps += st.ff_jumps;
        self.committed += st.total_committed();
        for (name, c) in &st.cores {
            let r = &mut self.ooo[role_of(name)];
            for (acc, v) in r.iter_mut().zip([
                c.dispatched,
                c.committed,
                c.mispredicts,
                c.ruu_full_cycles,
                c.lsq_full_cycles,
                c.mshr_retries,
                c.lod_events,
                c.mem_dep_stalls,
            ]) {
                *acc += v;
            }
        }
        let m = &st.mem;
        self.l1[0] += m.l1.demand_accesses;
        self.l1[1] += m.l1.demand_misses;
        self.l1[2] += m.l1.prefetch_accesses;
        self.l1[3] += m.l1.useful_prefetch_hits;
        self.l1[4] += m.l1.late_prefetch_hits;
        self.l2[0] += m.l2.demand_accesses;
        self.l2[1] += m.l2.demand_misses;
        self.mshr_rejects += m.mshr_rejects;
        self.mshr_merges += m.mshr_merges;
        self.dram += m.mem_accesses;
        if let Some(c) = &st.cmp {
            for (acc, v) in self.cmp.iter_mut().zip([
                c.forks,
                c.dropped_forks,
                c.instrs,
                c.prefetches,
                c.dropped_prefetches,
                c.scq_block_cycles,
            ]) {
                *acc += v;
            }
        }
        for (i, q) in st.queues.iter().enumerate() {
            self.pushes += q.pushes;
            self.full[i] += q.full_rejects;
            self.empty[i] += q.empty_rejects;
        }
    }

    /// The `core.*`, `ooo.*`, `mem.*`, `cmp.*` and `queues.*` metrics.
    pub fn metrics(&self, out: &mut Vec<Metric>) {
        let f = |v: u64| v as f64;
        put(out, "core.new_s", f(self.new_ns) * 1e-9, "s");
        for m in Model::ALL {
            let i = model_index(m);
            let slug = model_slug(m);
            put(
                out,
                format!("core.run_s.{slug}"),
                f(self.run_ns[i]) * 1e-9,
                "s",
            );
            put(
                out,
                format!("core.ns_per_stepped_cycle.{slug}"),
                ratio(f(self.run_ns[i]), f(self.stepped[i])),
                "ns",
            );
        }
        put(
            out,
            "core.stepped_cycles",
            f(self.cycles - self.ff_skipped),
            "count",
        );
        put(
            out,
            "core.ff_skip_frac",
            ratio(f(self.ff_skipped), f(self.cycles)),
            "fraction",
        );
        put(out, "core.ff_jumps", f(self.ff_jumps), "count");
        put(out, "core.sim_cycles", f(self.cycles), "count");
        put(out, "core.committed", f(self.committed), "count");
        for (role, r) in ROLES.iter().zip(&self.ooo) {
            let [dispatched, committed, mispredicts, ruu, lsq, mshr, lod, memdep] = *r;
            put(
                out,
                format!("ooo.dispatched.{role}"),
                f(dispatched),
                "count",
            );
            put(out, format!("ooo.committed.{role}"), f(committed), "count");
            put(
                out,
                format!("ooo.commit_frac.{role}"),
                ratio(f(committed), f(dispatched)),
                "fraction",
            );
            put(
                out,
                format!("ooo.mispredicts.{role}"),
                f(mispredicts),
                "count",
            );
            put(out, format!("ooo.ruu_full_cycles.{role}"), f(ruu), "count");
            put(out, format!("ooo.lsq_full_cycles.{role}"), f(lsq), "count");
            put(out, format!("ooo.mshr_retries.{role}"), f(mshr), "count");
            put(out, format!("ooo.lod_events.{role}"), f(lod), "count");
            put(
                out,
                format!("ooo.mem_dep_stalls.{role}"),
                f(memdep),
                "count",
            );
        }
        let [l1_acc, l1_miss, prefetches, useful, late] = self.l1.map(f);
        put(
            out,
            "mem.l1_demand_miss_rate",
            ratio(l1_miss, l1_acc),
            "fraction",
        );
        put(
            out,
            "mem.l2_demand_miss_rate",
            ratio(f(self.l2[1]), f(self.l2[0])),
            "fraction",
        );
        put(
            out,
            "mem.prefetch_useful_frac",
            ratio(useful, prefetches),
            "fraction",
        );
        put(
            out,
            "mem.late_prefetch_frac",
            ratio(late, useful + late),
            "fraction",
        );
        put(out, "mem.mshr_rejects", f(self.mshr_rejects), "count");
        put(out, "mem.mshr_merges", f(self.mshr_merges), "count");
        put(out, "mem.dram_accesses", f(self.dram), "count");
        for (name, v) in [
            "forks",
            "dropped_forks",
            "instrs",
            "prefetches",
            "dropped_prefetches",
            "scq_block_cycles",
        ]
        .iter()
        .zip(self.cmp)
        {
            put(out, format!("cmp.{name}"), f(v), "count");
        }
        put(out, "queues.pushes", f(self.pushes), "count");
        for (q, v) in QUEUES.iter().zip(self.full) {
            put(out, format!("queues.full_rejects.{q}"), f(v), "count");
        }
        for (q, v) in QUEUES.iter().zip(self.empty) {
            put(out, format!("queues.empty_rejects.{q}"), f(v), "count");
        }
    }
}
