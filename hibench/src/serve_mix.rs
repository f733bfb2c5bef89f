//! The `serve-mix` workload: an in-process `hidisc_serve::Service` (one
//! worker, default cache) driven by two keep-alive connections in a
//! closed loop.
//!
//! * Connection A sends test-scale `POST /v1/run` jobs from a seeded key
//!   stream. Three in five repeat an earlier key (the cache read path),
//!   which keeps the median request on that path; the rest are fresh keys
//!   varying workload, model, latency point and seed (simulate plus cache
//!   insert), which A polls on `GET /v1/jobs/<id>`.
//! * Connection B sends small `POST /v1/sweep` grids (4–8 points)
//!   overlapping A's keys, reads the NDJSON stream line by line, then
//!   fetches each point's stats.
//!
//! One round serves a fixed prefix of both scripts against a fresh
//! service; a run repeats rounds for `--seconds` and pools them. Every
//! served result is checked against a direct simulation of the same key.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hidisc::{MachineConfig, MachineStats, Model, TraceConfig};
use hidisc_bench::{env_of, FIG10_LATENCIES};
use hidisc_serve::client::{extract_stats, http_request};
use hidisc_serve::json::Json;
use hidisc_serve::{ServeConfig, Service};
use hidisc_slicer::{compile, CompilerConfig};
use hidisc_workloads::{by_name, Scale};

use crate::batch::fig10_err;
use crate::calib::Meter;
use crate::http::Conn;
use crate::layers::{median, peak_rss_mb, percentile, put, ratio, simulate, SimLayers};
use crate::oracle::fnv;
use crate::span::{SpanId, Tracer};
use crate::{Args, Outcome};

const SUITE: [&str; 7] = [
    "dm",
    "raytrace",
    "pointer",
    "update",
    "field",
    "neighborhood",
    "tc",
];

/// Pause between two polls of a queued job.
const POLL: Duration = Duration::from_millis(1);
/// Bound on one request, including polling for its result.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// Service starts per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// One round serves this many requests of A's script...
const ROUND_RUNS: usize = 300;
/// ...beside this many sweeps of B's script, against a fresh service.
const ROUND_SWEEPS: u64 = 18;
/// Keys of A's stream (from its start) folded into the digest.
const DIGEST_PREFIX: usize = 64;
/// Direct runs re-simulated with every telemetry category on, to price
/// telemetry.
const TELEMETRY_SAMPLE: usize = 32;

/// One job: a test-scale workload instance on one model at one Figure-10
/// latency point.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    workload: &'static str,
    seed: u64,
    model: usize,
    lat: usize,
}

impl Key {
    fn model(&self) -> Model {
        Model::ALL[self.model]
    }

    fn cfg(&self) -> MachineConfig {
        let (l2, mem) = FIG10_LATENCIES[self.lat];
        hidisc_sweep::build_config(Some(l2), Some(mem), None, None, None, 0)
            .expect("Figure-10 latency points are valid configurations")
    }

    /// The job id the service must answer with: its content address.
    fn id(&self) -> String {
        let key = hidisc_sweep::job_key(
            &self.cfg(),
            self.workload,
            Scale::Test,
            self.seed,
            self.model(),
            None,
        );
        format!("{key:016x}")
    }

    fn body(&self) -> String {
        let (l2, mem) = FIG10_LATENCIES[self.lat];
        format!(
            "{{\"workload\":\"{}\",\"scale\":\"test\",\"seed\":{},\"model\":\"{}\",\
             \"l2_lat\":{l2},\"mem_lat\":{mem}}}",
            self.workload,
            self.seed,
            self.model().name().to_lowercase()
        )
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = mix(self.0);
        self.0 % n
    }
}

/// A workload seed derived from the benchmark seed: `n` selects the
/// instance. Kept below 2^53 so JSON carries it exactly.
fn instance_seed(seed: u64, n: u64) -> u64 {
    seed.wrapping_mul(100_003).wrapping_add(n) & ((1 << 53) - 1)
}

/// The `j`-th fresh key of A's stream. Keys come in groups of eight that
/// share one workload instance and differ in (model, latency point);
/// groups take the benchmarks in turn, so every seed asks for the same
/// mix of work.
fn fresh_key(seed: u64, j: u64) -> Key {
    let g = j / 8;
    let mut r = Rng(mix(seed ^ mix(g)));
    let mut combos: Vec<usize> = (0..16).collect();
    for i in (1..combos.len()).rev() {
        combos.swap(i, r.below(i as u64 + 1) as usize);
    }
    let c = combos[(j % 8) as usize];
    Key {
        workload: SUITE[(g % SUITE.len() as u64) as usize],
        seed: instance_seed(seed, 1 + g),
        model: c % 4,
        lat: c / 4,
    }
}

/// Connection A's key stream.
struct ScriptA {
    seed: u64,
    rng: Rng,
    issued: Vec<Key>,
}

impl ScriptA {
    fn new(seed: u64) -> ScriptA {
        ScriptA {
            seed,
            rng: Rng(mix(seed ^ 0xa)),
            issued: Vec::new(),
        }
    }

    fn next(&mut self) -> Key {
        if !self.issued.is_empty() && self.rng.below(5) < 3 {
            return self.issued[self.rng.below(self.issued.len() as u64) as usize];
        }
        let k = fresh_key(self.seed, self.issued.len() as u64);
        self.issued.push(k);
        k
    }
}

/// One of connection B's sweep grids.
struct SweepPlan {
    workload: &'static str,
    seed: u64,
    models: Vec<usize>,
    lats: Vec<usize>,
}

impl SweepPlan {
    /// Sweep `i` of B's stream. Sweeps 0 and 1 are the Figure-10 pair
    /// (`paper_err_pp` on this workload).
    fn nth(seed: u64, i: u64) -> SweepPlan {
        let all = vec![0, 1, 2, 3];
        if i < 2 {
            return SweepPlan {
                workload: ["pointer", "neighborhood"][i as usize],
                seed,
                models: all,
                lats: vec![0, FIG10_LATENCIES.len() - 1],
            };
        }
        // Odd sweeps reuse an instance A reaches about now; even ones a
        // fresh instance. Workloads and grid shapes take turns.
        let mut r = Rng(mix(seed ^ mix(0xb000_0000 + i)));
        let (workload, wseed) = if i % 2 == 1 {
            let k = fresh_key(seed, 4 * i + r.below(8));
            (k.workload, k.seed)
        } else {
            (
                SUITE[(i / 2 % SUITE.len() as u64) as usize],
                instance_seed(seed, 1_000_000 + i),
            )
        };
        let l1 = r.below(4) as usize;
        let l2 = (l1 + 1 + r.below(3) as usize) % 4;
        let (models, lats) = match i % 3 {
            0 => (all, vec![l1]),
            1 => (all, vec![l1, l2]),
            _ => {
                let m1 = r.below(4) as usize;
                (vec![m1, (m1 + 1 + r.below(3) as usize) % 4], vec![l1, l2])
            }
        };
        SweepPlan {
            workload,
            seed: wseed,
            models,
            lats,
        }
    }

    fn keys(&self) -> Vec<Key> {
        let mut out = Vec::new();
        for &model in &self.models {
            for &lat in &self.lats {
                out.push(Key {
                    workload: self.workload,
                    seed: self.seed,
                    model,
                    lat,
                });
            }
        }
        out
    }

    fn body(&self) -> String {
        let models: Vec<String> = self
            .models
            .iter()
            .map(|&m| format!("\"{}\"", Model::ALL[m].name().to_lowercase()))
            .collect();
        let lats: Vec<String> = self
            .lats
            .iter()
            .map(|&l| format!("[{},{}]", FIG10_LATENCIES[l].0, FIG10_LATENCIES[l].1))
            .collect();
        format!(
            "{{\"workloads\":[\"{}\"],\"scales\":[\"test\"],\"seeds\":[{}],\
             \"models\":[{}],\"latencies\":[{}]}}",
            self.workload,
            self.seed,
            models.join(","),
            lats.join(",")
        )
    }
}

/// What one client connection saw.
#[derive(Default)]
struct Client {
    attempted: u64,
    failures: Vec<String>,
    /// Served results: key and FNV-1a of the stats JSON.
    served: Vec<(Key, u64)>,
    end: Option<Instant>,
    // Connection A.
    run_ms: Vec<f64>,
    post_ms: Vec<f64>,
    job_ms: Vec<f64>,
    polls: u64,
    polled_runs: u64,
    // Connection B.
    sweep_ms: Vec<f64>,
    ttfb_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    points: u64,
    cached_points: u64,
}

fn field<'a>(v: &'a Json, name: &str) -> Option<&'a str> {
    v.get(name).and_then(Json::as_str)
}

/// Fetches a finished job's stats, polling while it is queued or
/// running. Returns the stats and the number of requests made.
fn await_job(
    conn: &mut Conn,
    id: &str,
    job_ms: &mut Vec<f64>,
    tracer: &Tracer,
    parent: SpanId,
    lane: u32,
    until: Instant,
) -> (Result<String, String>, u64) {
    let path = format!("/v1/jobs/{id}");
    let mut requests = 0;
    loop {
        let span = tracer.begin("serve.job", parent, lane);
        let t = Instant::now();
        let r = conn.request("GET", &path, "");
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span, Vec::new());
        requests += 1;
        let r = match r {
            Ok(r) => r,
            Err(e) => return (Err(e), requests),
        };
        if r.status != 200 {
            return (Err(format!("GET {path}: status {}", r.status)), requests);
        }
        if r.body.contains("\"status\":\"done\"") {
            let stats = extract_stats(&r.body)
                .map(str::to_string)
                .ok_or_else(|| format!("GET {path}: done without stats"));
            return (stats, requests);
        }
        if !r.body.contains("\"status\":\"queued\"") && !r.body.contains("\"status\":\"running\"") {
            return (Err(format!("GET {path}: {}", r.body.trim_end())), requests);
        }
        if Instant::now() > until {
            let e = format!("GET {path}: no result within {REQUEST_TIMEOUT:?}");
            return (Err(e), requests);
        }
        std::thread::sleep(POLL);
    }
}

/// Connection A: the first `ROUND_RUNS` `/v1/run` jobs of its script.
fn client_a(addr: SocketAddr, seed: u64, tracer: &Tracer) -> Client {
    const LANE: u32 = 1;
    let mut c = Client::default();
    let mut conn = match Conn::open(addr, REQUEST_TIMEOUT) {
        Ok(conn) => conn,
        Err(e) => {
            c.attempted += 1;
            c.failures.push(e);
            return c;
        }
    };
    let mut script = ScriptA::new(seed);
    for _ in 0..ROUND_RUNS {
        let key = script.next();
        let id = key.id();
        c.attempted += 1;
        let span = tracer.begin("serve.request", 0, LANE);
        let t0 = Instant::now();
        let result = (|| -> Result<String, String> {
            let post = tracer.begin("serve.run", span.id(), LANE);
            let r = conn.request("POST", "/v1/run", &key.body())?;
            c.post_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tracer.end(post, Vec::new());
            if !r.body.contains(&format!("\"job\":\"{id}\"")) {
                return Err(format!("POST /v1/run for {key:?}: job id is not {id}"));
            }
            match r.status {
                200 => extract_stats(&r.body)
                    .map(str::to_string)
                    .ok_or_else(|| "POST /v1/run: 200 without stats".to_string()),
                202 => {
                    c.polled_runs += 1;
                    std::thread::sleep(POLL);
                    let until = t0 + REQUEST_TIMEOUT;
                    let (res, polls) = await_job(
                        &mut conn,
                        &id,
                        &mut c.job_ms,
                        tracer,
                        span.id(),
                        LANE,
                        until,
                    );
                    c.polls += polls;
                    res
                }
                s => Err(format!("POST /v1/run: status {s}: {}", r.body.trim_end())),
            }
        })();
        let done = Instant::now();
        tracer.end(
            span,
            vec![("workload", key.workload.to_string()), ("job", id.clone())],
        );
        match result {
            Ok(stats) => {
                c.run_ms.push(done.duration_since(t0).as_secs_f64() * 1e3);
                c.served.push((key, fnv(&stats)));
            }
            Err(e) => c.failures.push(e),
        }
    }
    c.end = Some(Instant::now());
    c
}

/// Connection B: the first `ROUND_SWEEPS` streamed `/v1/sweep` grids of
/// its script.
fn client_b(addr: SocketAddr, seed: u64, tracer: &Tracer) -> Client {
    const LANE: u32 = 2;
    let mut c = Client::default();
    let mut conn = match Conn::open(addr, REQUEST_TIMEOUT) {
        Ok(conn) => conn,
        Err(e) => {
            c.attempted += 1;
            c.failures.push(e);
            return c;
        }
    };
    for i in 0..ROUND_SWEEPS {
        let plan = SweepPlan::nth(seed, i);
        let keys = plan.keys();
        let ids: HashMap<String, Key> = keys.iter().map(|k| (k.id(), *k)).collect();
        c.attempted += 1;
        let span = tracer.begin("serve.sweep", 0, LANE);
        let t0 = Instant::now();
        let mut lines: Vec<(String, Instant)> = Vec::new();
        let status = conn.stream("POST", "/v1/sweep", &plan.body(), &mut |l, at| {
            lines.push((l.to_string(), at))
        });
        tracer.end(
            span,
            vec![
                ("workload", plan.workload.to_string()),
                ("points", keys.len().to_string()),
            ],
        );
        let checked = (|| -> Result<Vec<Key>, String> {
            match status? {
                200 => {}
                s => return Err(format!("POST /v1/sweep: status {s}")),
            }
            let (first, last) = match (lines.first(), lines.last()) {
                (Some(f), Some(l)) => (f.1, l.1),
                _ => return Err("POST /v1/sweep: empty stream".to_string()),
            };
            c.ttfb_ms.push(first.duration_since(t0).as_secs_f64() * 1e3);
            c.sweep_ms.push(last.duration_since(t0).as_secs_f64() * 1e3);
            let mut got = Vec::new();
            let mut prev: Option<Instant> = None;
            for (line, at) in &lines {
                let v = Json::parse(line.trim_end())
                    .map_err(|e| format!("sweep line does not parse: {e}"))?;
                let Some(point) = field(&v, "point") else {
                    continue;
                };
                if field(&v, "status") != Some("done") {
                    return Err(format!("sweep point failed: {}", line.trim_end()));
                }
                let key = *ids
                    .get(point)
                    .ok_or_else(|| format!("sweep answered unknown point {point}"))?;
                if let Some(p) = prev {
                    c.gap_ms.push(at.duration_since(p).as_secs_f64() * 1e3);
                }
                prev = Some(*at);
                c.points += 1;
                if v.get("cached").and_then(Json::as_bool) == Some(true) {
                    c.cached_points += 1;
                }
                got.push(key);
            }
            if got.len() != keys.len() {
                return Err(format!(
                    "sweep delivered {} of {} points",
                    got.len(),
                    keys.len()
                ));
            }
            Ok(got)
        })();
        match checked {
            Ok(got) => {
                for key in got {
                    c.attempted += 1;
                    let until = Instant::now() + REQUEST_TIMEOUT;
                    let id = key.id();
                    match await_job(&mut conn, &id, &mut c.job_ms, tracer, 0, LANE, until).0 {
                        Ok(stats) => c.served.push((key, fnv(&stats))),
                        Err(e) => c.failures.push(e),
                    }
                }
            }
            Err(e) => c.failures.push(e),
        }
    }
    c.end = Some(Instant::now());
    c
}

type Scrape = HashMap<String, f64>;

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let r = http_request(
        &addr.to_string(),
        "GET",
        "/metrics",
        "",
        Duration::from_secs(10),
    )?;
    if r.status != 200 {
        return Err(format!("GET /metrics: status {}", r.status));
    }
    Ok(r.body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            Some((name.to_string(), v.parse().ok()?))
        })
        .collect())
}

fn start_service() -> Result<Service, String> {
    let cfg = ServeConfig::builder()
        .workers(1)
        .build()
        .map_err(|e| format!("service config: {e}"))?;
    Service::start(cfg).map_err(|e| format!("service start: {e}"))
}

/// One round: both scripts served once by a fresh service.
struct Round {
    a: Client,
    b: Client,
    start: Instant,
    before: Scrape,
    after: Scrape,
    /// Calibrated ns (see `calib`) of the whole round, on all threads:
    /// service start, both clients, the scrapes and the shutdown.
    ns: f64,
}

impl Round {
    fn delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    fn secs(&self, c: &Client) -> f64 {
        c.end
            .unwrap_or(self.start)
            .duration_since(self.start)
            .as_secs_f64()
    }
}

fn round(seed: u64, tracer: &Tracer) -> Result<Round, String> {
    let svc = start_service()?;
    let addr = svc.addr();
    let before = scrape(addr)?;
    let start = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| client_a(addr, seed, tracer));
        let b = s.spawn(|| client_b(addr, seed, tracer));
        (
            a.join().expect("client A panicked"),
            b.join().expect("client B panicked"),
        )
    });
    let after = scrape(addr)?;
    svc.shutdown();
    Ok(Round {
        a,
        b,
        start,
        before,
        after,
        ns: 0.0,
    })
}

/// Serves rounds until `seconds` have passed (at least one), each timed
/// by `meter`.
fn measure(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    meter: &mut Meter,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (r, ns) = meter.time(|| round(seed, tracer));
        rounds.push(Round { ns, ..r? });
    }
    Ok(rounds)
}

/// Direct (not served) runs of a key set, with layer counters.
struct Direct {
    stats: BTreeMap<Key, MachineStats>,
    errors: Vec<String>,
    layers: SimLayers,
    gen_s: f64,
    compile_s: f64,
    instances: usize,
}

/// Simulates every key directly, on this thread: regenerate (through
/// `by_name`, as the service does), compile, run.
fn direct_runs(keys: &BTreeSet<Key>, tracer: &Tracer) -> Direct {
    let mut groups: BTreeMap<(&'static str, u64), Vec<Key>> = BTreeMap::new();
    for k in keys {
        groups.entry((k.workload, k.seed)).or_default().push(*k);
    }
    let mut d = Direct {
        stats: BTreeMap::new(),
        errors: Vec::new(),
        layers: SimLayers::default(),
        gen_s: 0.0,
        compile_s: 0.0,
        instances: 0,
    };
    for ((workload, seed), keys) in groups {
        let span = tracer.begin("workloads.gen", 0, 0);
        let t = Instant::now();
        let w = by_name(workload, Scale::Test, seed);
        d.gen_s += t.elapsed().as_secs_f64();
        tracer.end(span, vec![("benchmark", workload.to_string())]);
        let Some(w) = w else {
            d.errors.push(format!("no workload {workload}"));
            continue;
        };
        let span = tracer.begin("slicer.compile", 0, 0);
        let t = Instant::now();
        let env = env_of(&w);
        let compiled = compile(&w.prog, &env, &CompilerConfig::default());
        d.compile_s += t.elapsed().as_secs_f64();
        tracer.end(span, vec![("benchmark", workload.to_string())]);
        d.instances += 1;
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => {
                d.errors
                    .push(format!("{workload} seed {seed}: compile failed: {e}"));
                continue;
            }
        };
        for k in keys {
            let (res, _, new_ns, run_ns) =
                simulate(tracer, 0, 0, k.model(), &compiled, &env, k.cfg());
            match res {
                Ok(st) => {
                    d.layers.add(&st, new_ns, run_ns);
                    d.stats.insert(k, st);
                }
                Err(e) => d.errors.push(format!("{k:?}: direct run failed: {e}")),
            }
        }
    }
    d
}

/// The keys whose stats the digest and `paper_err_pp` read: fixed by the
/// seed, whatever the run reached.
fn fixed_keys(seed: u64) -> Vec<Key> {
    let mut script = ScriptA::new(seed);
    let mut keys: Vec<Key> = (0..DIGEST_PREFIX).map(|_| script.next()).collect();
    keys.extend(SweepPlan::nth(seed, 0).keys());
    keys.extend(SweepPlan::nth(seed, 1).keys());
    keys
}

/// Counts the clients' work and failures, and checks every served result
/// against the direct run of its key.
fn verify(rounds: &mut [Round], direct: &Direct, inject_fault: bool, out: &mut Outcome) {
    for e in &direct.errors {
        out.fail(e.clone());
    }
    for r in rounds.iter_mut() {
        for c in [&mut r.a, &mut r.b] {
            out.attempted += c.attempted;
            for e in c.failures.drain(..) {
                out.fail(e);
            }
            if inject_fault {
                if let Some(s) = c.served.first_mut() {
                    s.1 ^= 1;
                }
            }
            for (key, hash) in &c.served {
                match direct.stats.get(key) {
                    Some(st) if fnv(&st.to_json()) == *hash => {}
                    Some(_) => out.fail(format!(
                        "served result for {key:?} differs from a direct run"
                    )),
                    None => {} // the direct run's failure is already counted
                }
            }
        }
    }
}

fn served_keys(rounds: &[Round], seed: u64) -> BTreeSet<Key> {
    let mut keys: BTreeSet<Key> = fixed_keys(seed).into_iter().collect();
    for r in rounds {
        keys.extend(r.a.served.iter().chain(&r.b.served).map(|(k, _)| *k));
    }
    keys
}

/// The per-layer numbers of the service, from `/metrics` deltas and the
/// clients' own timings, pooled over `rounds`. Client timings are wall
/// time, as a user of the service sees it.
fn serve_layers(rounds: &[Round], out: &mut Vec<crate::layers::Metric>) {
    let delta = |name: &str| rounds.iter().map(|r| r.delta(name)).sum::<f64>();
    let pool = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let runs = pool(&|r| &r.a.run_ms);
    put(out, "serve.run_p50_ms", percentile(&runs, 50.0), "ms");
    put(out, "serve.run_p99_ms", percentile(&runs, 99.0), "ms");
    let a_s: f64 = rounds.iter().map(|r| r.secs(&r.a)).sum();
    let b_s: f64 = rounds.iter().map(|r| r.secs(&r.b)).sum();
    let points: u64 = rounds.iter().map(|r| r.b.points).sum();
    put(
        out,
        "serve.runs_per_s",
        ratio(runs.len() as f64, a_s),
        "1/s",
    );
    put(out, "sweep.points_per_s", ratio(points as f64, b_s), "1/s");
    put(out, "sweep.p50_ms", median(&pool(&|r| &r.b.sweep_ms)), "ms");
    for phase in ["queue_wait", "sim_run", "serialize"] {
        let h = "hidisc_serve_job_phase_seconds";
        let label = format!("{{phase=\"{phase}\"}}");
        let sum = delta(&format!("{h}_sum{label}"));
        let count = delta(&format!("{h}_count{label}"));
        put(
            out,
            format!("serve.{phase}_ms"),
            ratio(sum, count) * 1e3,
            "ms",
        );
    }
    let job_ms: Vec<f64> = [pool(&|r| &r.a.job_ms), pool(&|r| &r.b.job_ms)].concat();
    put(
        out,
        "serve.request_ms.run",
        median(&pool(&|r| &r.a.post_ms)),
        "ms",
    );
    put(out, "serve.request_ms.job", median(&job_ms), "ms");
    put(
        out,
        "serve.request_ms.sweep",
        median(&pool(&|r| &r.b.sweep_ms)),
        "ms",
    );
    let hits = delta("hidisc_serve_cache_hits_total");
    let misses = delta("hidisc_serve_cache_misses_total");
    put(
        out,
        "serve.cache_hit_frac",
        ratio(hits, hits + misses),
        "fraction",
    );
    put(
        out,
        "serve.coalesced",
        delta("hidisc_serve_coalesced_total"),
        "count",
    );
    put(
        out,
        "serve.sim_runs",
        delta("hidisc_serve_sim_runs_total"),
        "count",
    );
    put(
        out,
        "serve.rejected",
        delta("hidisc_serve_rejected_total"),
        "count",
    );
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    put(
        out,
        "serve.polls_per_run",
        ratio(sum(&|r| r.a.polls), sum(&|r| r.a.polled_runs)),
        "polls/run",
    );
    put(
        out,
        "serve.reactor_wakeups_per_req",
        ratio(
            delta("hidisc_serve_reactor_wakeups_total"),
            delta("hidisc_serve_requests_total"),
        ),
        "wakeups/req",
    );
    put(out, "serve.ttfb_ms", median(&pool(&|r| &r.b.ttfb_ms)), "ms");
    put(
        out,
        "sweep.line_gap_ms",
        median(&pool(&|r| &r.b.gap_ms)),
        "ms",
    );
    put(
        out,
        "sweep.cached_frac",
        ratio(sum(&|r| r.b.cached_points), sum(&|r| r.b.points)),
        "fraction",
    );
}

/// Runs the `serve-mix` workload.
pub fn run(a: &Args, traced: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut meter = Meter::new();
    let mut setups = Vec::new();
    for _ in 0..if a.trace { 1 } else { SETUP_REPS } {
        let (ready, ns) = meter.time(|| {
            let svc = start_service()?;
            let r = Conn::open(svc.addr(), REQUEST_TIMEOUT)
                .and_then(|mut conn| conn.request("GET", "/healthz", ""));
            Ok::<_, String>((svc, r?))
        });
        out.attempted += 1;
        match ready {
            Ok((svc, r)) => {
                svc.shutdown();
                match r.status {
                    200 => setups.push(ns * 1e-9),
                    s => out.fail(format!("GET /healthz: status {s}")),
                }
            }
            Err(e) => out.fail(e),
        }
    }
    let mut rounds = match measure(a.seed, a.seconds, &off, &mut meter) {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let rss = peak_rss_mb();
    let n_base = rounds.len();
    let host_speed = meter.host_speed();
    if a.trace {
        match measure(a.seed, a.seconds, traced, &mut meter) {
            Ok(r) => rounds.extend(r),
            Err(e) => out.fail(e),
        }
    }
    let direct = direct_runs(&served_keys(&rounds, a.seed), traced);
    verify(&mut rounds, &direct, a.inject_fault, &mut out);
    let fixed = fixed_keys(a.seed);
    if fixed.iter().all(|k| direct.stats.contains_key(k)) {
        out.digest = Some(crate::oracle::digest(
            fixed.iter().map(|k| &direct.stats[k]),
        ));
    }

    let (base, spanned) = rounds.split_at(n_base);
    let m = &mut out.metrics;
    let round_s = |rs: &[Round]| rs.iter().map(|r| r.ns * 1e-9).collect::<Vec<f64>>();
    if !a.trace {
        put(m, "setup_s", median(&setups), "s");
        put(m, "cpu_s", median(&round_s(base)), "s");
        // Each round's fresh service simulates every distinct key once;
        // repeats are answered from its cache or coalesced.
        let committed: u64 = base
            .iter()
            .flat_map(|r| {
                let keys: BTreeSet<Key> =
                    r.a.served
                        .iter()
                        .chain(&r.b.served)
                        .map(|(k, _)| *k)
                        .collect();
                keys.into_iter()
            })
            .filter_map(|k| direct.stats.get(&k))
            .map(MachineStats::total_committed)
            .sum();
        let total_s: f64 = round_s(base).iter().sum();
        put(m, "msips", ratio(committed as f64, total_s * 1e6), "MSIPS");
        put(m, "peak_rss_mb", rss, "MiB");
        let err = fig10_err(&|bench, lat, model| {
            let key = fixed
                .iter()
                .skip(DIGEST_PREFIX)
                .find(|k| k.workload == bench && k.lat == lat && k.model() == model)?;
            Some(direct.stats.get(key)?.ipc())
        });
        put(m, "paper_err_pp", err.unwrap_or(0.0), "pp");
        let runs: usize = base.iter().map(|r| r.a.run_ms.len()).sum();
        let polled: u64 = base.iter().map(|r| r.a.polled_runs).sum();
        let sweeps: usize = base.iter().map(|r| r.b.sweep_ms.len()).sum();
        let points: u64 = base.iter().map(|r| r.b.points).sum();
        out.notes.push(format!(
            "samples: {n_base} rounds; {runs} /v1/run ({polled} polled), {sweeps} sweeps, {points} sweep points"
        ));
        out.notes.push(format!(
            "host speed: {host_speed:.3} of nominal (calibrated times are scaled by it)"
        ));
        return out;
    }

    let inst = direct.instances.max(1) as f64;
    put(m, "workloads.gen_s", direct.gen_s / inst, "s");
    put(m, "slicer.compile_s", direct.compile_s / inst, "s");
    direct.layers.metrics(m);
    let (tele_ratio, events, dropped) = telemetry_sample(&direct);
    put(m, "telemetry.overhead_frac", tele_ratio - 1.0, "fraction");
    put(m, "telemetry.events", events as f64, "count");
    put(m, "telemetry.dropped", dropped as f64, "count");
    put(
        m,
        "trace.overhead_frac",
        ratio(median(&round_s(spanned)), median(&round_s(base))) - 1.0,
        "fraction",
    );
    let runs: usize = spanned.iter().map(|r| r.a.run_ms.len()).sum();
    out.notes.push(format!(
        "samples: {} traced rounds, {runs} /v1/run",
        spanned.len()
    ));
    serve_layers(spanned, &mut out.metrics);
    out
}

/// Re-runs the first directly simulated keys with telemetry off and then
/// with every category on, back to back, so host drift and cold caches
/// hit both alike: (host time on ÷ host time off, events, dropped).
fn telemetry_sample(direct: &Direct) -> (f64, u64, u64) {
    let keys: Vec<Key> = direct
        .stats
        .keys()
        .take(TELEMETRY_SAMPLE)
        .copied()
        .collect();
    let (mut on_ns, mut off_ns, mut events, mut dropped) = (0u64, 0u64, 0u64, 0u64);
    let off = Tracer::new(false);
    let mut last: Option<((&str, u64), _, _)> = None;
    for k in keys {
        if last.as_ref().map(|l| l.0) != Some((k.workload, k.seed)) {
            let Some(w) = by_name(k.workload, Scale::Test, k.seed) else {
                continue;
            };
            let env = env_of(&w);
            let Ok(compiled) = compile(&w.prog, &env, &CompilerConfig::default()) else {
                continue;
            };
            last = Some(((k.workload, k.seed), compiled, env));
        }
        let (_, compiled, env) = last.as_ref().expect("set above");
        let (res_off, _, new_off, run_off) =
            simulate(&off, 0, 0, k.model(), compiled, env, k.cfg());
        let mut cfg = k.cfg();
        cfg.trace = TraceConfig::ALL_EVENTS;
        let (res, machine, new_ns, run_ns) = simulate(&off, 0, 0, k.model(), compiled, env, cfg);
        if res.is_ok() && res_off.is_ok() {
            on_ns += new_ns + run_ns;
            off_ns += new_off + run_off;
            events += machine.telemetry().events().len() as u64;
            dropped += machine.telemetry().dropped();
        }
    }
    (ratio(on_ns as f64, off_ns as f64), events, dropped)
}

/// One service round made by a batch workload's traced run, so the
/// `serve.*` and `sweep.*` layer metrics exist on every workload.
pub fn probe(seed: u64, traced: &Tracer, out: &mut Outcome) {
    let mut rounds = match round(seed, traced) {
        Ok(r) => vec![r],
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    let direct = direct_runs(&served_keys(&rounds, seed), &Tracer::new(false));
    verify(&mut rounds, &direct, false, out);
    serve_layers(&rounds, &mut out.metrics);
}
