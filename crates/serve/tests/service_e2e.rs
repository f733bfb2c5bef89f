//! End-to-end exercises of the simulation service over real sockets:
//! duplicate coalescing (N identical POSTs → one simulation, results
//! byte-identical to a direct `Machine::run`), bounded-queue
//! backpressure (429 + Retry-After), wall-clock timeout mapping,
//! typed 400s for bad requests, and disk-cache persistence across a
//! service restart.

mod common;

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use common::{json_num, json_str, metric, poll_job, poll_sweep, request, Response};
use hidisc_serve::{JobSpec, ServeConfig, Service};
use hidisc_slicer::{compile, CompilerConfig};

/// The raw `"stats"` object of a job body (it is always the last field).
fn stats_of(body: &str) -> &str {
    let idx = body.find(",\"stats\":").expect("body has stats") + ",\"stats\":".len();
    let end = body.trim_end().len() - 1; // strip the closing `}` of the envelope
    &body[idx..end]
}

/// Polls job `id` until a worker has picked it up.
fn wait_until_running(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(r.status, 200, "poll failed: {}", r.body);
        match json_str(&r.body, "status").expect("status field").as_str() {
            "running" => return,
            "queued" => {}
            other => panic!("job {id} went {other} before it was seen running"),
        }
        assert!(Instant::now() < deadline, "job {id} never started");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn start(workers: usize, queue_depth: usize, cache_dir: Option<std::path::PathBuf>) -> Service {
    let mut b = ServeConfig::builder()
        .workers(workers)
        .queue_depth(queue_depth);
    if let Some(dir) = cache_dir {
        b = b.cache_dir(dir);
    }
    Service::start(b.build().expect("valid serve config")).expect("service start")
}

/// Runs the same job the service would, directly, and returns the stats
/// JSON the service caches.
fn direct_stats(body: &str) -> String {
    let spec = JobSpec::from_json(body.as_bytes()).expect("spec");
    let cfg = spec.config().expect("config");
    let w = hidisc_workloads::by_name(&spec.workload, spec.scale, spec.seed).expect("workload");
    let env = hidisc_bench::env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).expect("compile");
    let mut m = hidisc::Machine::new(spec.model, &compiled, &env, cfg);
    m.run(compiled.profile.dyn_instrs).expect("run").to_json()
}

#[test]
fn concurrent_duplicates_run_once_and_match_a_direct_run() {
    let svc = start(2, 8, None);
    let addr = svc.addr();
    let body = r#"{"workload":"dm","scale":"test","seed":2003,"model":"hidisc"}"#;

    let posts: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| s.spawn(move || request(addr, "POST", "/v1/run", body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let id = posts
        .iter()
        .find_map(|r| json_str(&r.body, "job"))
        .expect("a job id");
    for r in &posts {
        assert!(
            r.status == 200 || r.status == 202,
            "unexpected status {}: {}",
            r.status,
            r.body
        );
        assert_eq!(json_str(&r.body, "job").as_deref(), Some(id.as_str()));
    }

    let done = poll_job(addr, &id);
    assert_eq!(json_str(&done.body, "status").as_deref(), Some("done"));
    assert_eq!(json_str(&done.body, "workload").as_deref(), Some("dm"));

    // Exactly one simulation ran, no matter how many submissions raced.
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 1);

    // The cached stats are byte-identical to a direct Machine::run.
    assert_eq!(stats_of(&done.body), direct_stats(body));

    // A repeat submission is a cache hit and carries the same bytes.
    let again = request(addr, "POST", "/v1/run", body);
    assert_eq!(again.status, 200, "{}", again.body);
    assert!(again.body.contains("\"cached\":true"), "{}", again.body);
    assert_eq!(stats_of(&again.body), direct_stats(body));
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 1);
    assert!(metric(addr, "hidisc_serve_cache_hits_total") >= 1);

    svc.shutdown();
}

#[test]
fn full_queue_answers_429_and_deadlines_map_to_timeouts() {
    // One worker, queue depth one: the first (long) job occupies the
    // worker, the second fills the queue, the third must bounce.
    let svc = start(1, 1, None);
    let addr = svc.addr();

    let long = r#"{"workload":"dm","scale":"large","seed":1}"#;
    let r1 = request(addr, "POST", "/v1/run", long);
    assert_eq!(r1.status, 202, "{}", r1.body);
    let id1 = json_str(&r1.body, "job").unwrap();
    // Only once the worker has dequeued job 1 is the queue empty again,
    // so the next submission is the one that fills it.
    wait_until_running(addr, &id1);

    let r2 = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scale":"test","seed":11}"#,
    );
    assert_eq!(r2.status, 202, "{}", r2.body);
    let id2 = json_str(&r2.body, "job").unwrap();

    let r3 = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scale":"test","seed":12}"#,
    );
    assert_eq!(r3.status, 429, "{}", r3.body);
    assert!(r3.header("retry-after").is_some(), "Retry-After missing");
    assert!(metric(addr, "hidisc_serve_rejected_total") >= 1);

    // The long job and the queued one both complete once the worker
    // frees up.
    let done1 = poll_job(addr, &id1);
    assert_eq!(json_str(&done1.body, "status").as_deref(), Some("done"));
    let done2 = poll_job(addr, &id2);
    assert_eq!(json_str(&done2.body, "status").as_deref(), Some("done"));

    // A job that blows its wall-clock budget reports it as such. The
    // deadline is polled every few thousand simulated cycles and a large
    // run lasts millions, so a 1 ms budget expires whatever the host or
    // simulator speed.
    let short = r#"{"workload":"dm","scale":"large","seed":2,"timeout_ms":1}"#;
    let r4 = request(addr, "POST", "/v1/run", short);
    assert_eq!(r4.status, 202, "{}", r4.body);
    let done4 = poll_job(addr, &json_str(&r4.body, "job").unwrap());
    assert_eq!(json_str(&done4.body, "status").as_deref(), Some("error"));
    let err = json_str(&done4.body, "error").unwrap();
    assert!(err.contains("wall-clock timeout"), "error was: {err}");

    svc.shutdown();
}

/// A warm-start checkpoint left on disk by an older wire format (a
/// v1-tagged HDCK blob under `<cache-dir>/warm/<key>.ck`) is refused by
/// the loader: the job runs cold and succeeds with the same stats as a
/// direct run instead of failing, and the stale file is replaced by a
/// current checkpoint that a budget variant then restores.
#[test]
fn stale_warm_checkpoint_falls_back_to_a_cold_run() {
    const WARM_AT: u64 = 2_000;
    let dir = std::env::temp_dir().join(format!("hidisc-serve-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let a = r#"{"workload":"dm","scale":"test","seed":9,"model":"hidisc","max_cycles":500000}"#;
    let b = r#"{"workload":"dm","scale":"test","seed":9,"model":"hidisc","max_cycles":600000}"#;

    // Plant a real prefix checkpoint for `a`'s warm key, re-tagged as
    // format version 1.
    let spec = JobSpec::from_json(a.as_bytes()).expect("spec");
    let cfg = spec.config().expect("config");
    let wkey = spec.warm_key(&cfg);
    let w = hidisc_workloads::by_name(&spec.workload, spec.scale, spec.seed).expect("workload");
    let env = hidisc_bench::env_of(&w);
    let compiled = compile(&w.prog, &env, &CompilerConfig::default()).expect("compile");
    let mut m = hidisc::Machine::new(spec.model, &compiled, &env, cfg);
    assert!(!m.run_to_cycle(WARM_AT).expect("prefix run"));
    let mut stale = m.save_warm_checkpoint(wkey);
    stale[4..8].copy_from_slice(&1u32.to_le_bytes());
    let ck = dir.join("warm").join(format!("{wkey:016x}.ck"));
    std::fs::create_dir_all(ck.parent().unwrap()).unwrap();
    std::fs::write(&ck, &stale).unwrap();

    let svc = Service::start(
        ServeConfig::builder()
            .workers(1)
            .cache_dir(dir.clone())
            .warm_checkpoint_cycle(WARM_AT)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();

    let r = request(addr, "POST", "/v1/run", a);
    assert_eq!(r.status, 202, "{}", r.body);
    let done_a = poll_job(addr, &json_str(&r.body, "job").unwrap());
    assert_eq!(
        json_str(&done_a.body, "status").as_deref(),
        Some("done"),
        "{}",
        done_a.body
    );
    assert_eq!(stats_of(&done_a.body), direct_stats(a));
    assert_eq!(metric(addr, "hidisc_serve_warm_restores_total"), 0);
    assert_ne!(std::fs::read(&ck).unwrap(), stale, "stale checkpoint kept");

    // The rewritten checkpoint is current: the budget variant restores it.
    let r = request(addr, "POST", "/v1/run", b);
    assert_eq!(r.status, 202, "{}", r.body);
    let done_b = poll_job(addr, &json_str(&r.body, "job").unwrap());
    assert_eq!(json_str(&done_b.body, "status").as_deref(), Some("done"));
    assert_eq!(metric(addr, "hidisc_serve_warm_restores_total"), 1);
    assert_eq!(stats_of(&done_b.body), direct_stats(b));

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_get_typed_400s() {
    let svc = start(1, 4, None);
    let addr = svc.addr();

    let r = request(addr, "POST", "/v1/run", "this is not json");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("malformed request body"), "{}", r.body);

    let r = request(addr, "POST", "/v1/run", r#"{"workload":"no-such-kernel"}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown workload"), "{}", r.body);

    let r = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","typo_field":1}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown field"), "{}", r.body);

    // The issue scheduler is not part of the API: Scan is a Rust-only
    // test oracle.
    let r = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scheduler":"scan"}"#,
    );
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("unknown field `scheduler`"), "{}", r.body);
    let r = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm"],"schedulers":["scan"]}"#,
    );
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("unknown field `schedulers`"), "{}", r.body);

    // Config validation surfaces the same typed ConfigError message the
    // CLI prints before exiting with code 2, with its stable code as the
    // envelope code.
    let r = request(
        addr,
        "POST",
        "/v1/run",
        r#"{"workload":"dm","scq_depth":0}"#,
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"code\":\"CFG001\""), "{}", r.body);
    assert!(
        r.body
            .contains("invalid machine config: queues.scq must be at least 1"),
        "{}",
        r.body
    );

    let r = request(addr, "GET", "/no-such-endpoint", "");
    assert_eq!(r.status, 404);
    let r = request(addr, "DELETE", "/v1/run", "");
    assert_eq!(r.status, 405);
    let r = request(addr, "GET", "/v1/jobs/ffffffffffffffff", "");
    assert_eq!(r.status, 404);

    assert!(metric(addr, "hidisc_serve_bad_requests_total") >= 4);

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));

    svc.shutdown();
}

/// Past `max_connections`, accepts are answered `503` inline instead of
/// spawning handler threads without bound; slots free once a handler
/// finishes.
#[test]
fn connection_cap_answers_503_inline() {
    let svc = Service::start(
        ServeConfig::builder()
            .max_connections(1)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();

    // Occupy the single reactor slot with an idle keep-alive connection.
    let held = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200)); // let the reactor register it

    let r = request(addr, "GET", "/healthz", "");
    assert_eq!(r.status, 503, "{}", r.body);
    assert!(r.header("retry-after").is_some(), "Retry-After missing");
    assert!(r.body.contains("too many connections"), "{}", r.body);

    // Freeing the slot lets requests through again.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = request(addr, "GET", "/healthz", "");
        if r.status == 200 {
            assert!(metric(addr, "hidisc_serve_connections_rejected_total") >= 1);
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    svc.shutdown();
}

/// Terminal (done/failed) job entries are evicted oldest-first past the
/// cache capacity, so a long-lived service does not leak one entry per
/// distinct submission.
#[test]
fn terminal_job_entries_are_bounded() {
    let svc = Service::start(
        ServeConfig::builder()
            .max_jobs(2)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();

    for seed in 0..5 {
        let body = format!(r#"{{"workload":"dm","scale":"test","seed":{seed}}}"#);
        let r = request(addr, "POST", "/v1/run", &body);
        assert!(r.status == 200 || r.status == 202, "{}", r.body);
        let id = json_str(&r.body, "job").expect("job id");
        let done = poll_job(addr, &id);
        assert_eq!(json_str(&done.body, "status").as_deref(), Some("done"));
    }

    // Five distinct jobs ran, but only max_jobs terminal entries
    // remain registered.
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 5);
    assert!(metric(addr, "hidisc_serve_job_entries") <= 2);
    svc.shutdown();
}

#[test]
fn disk_cache_survives_a_service_restart() {
    let dir = std::env::temp_dir().join(format!("hidisc-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body = r#"{"workload":"tc","scale":"test","seed":5}"#;

    let first_stats;
    {
        let svc = start(1, 4, Some(dir.clone()));
        let addr = svc.addr();
        let r = request(addr, "POST", "/v1/run", body);
        assert_eq!(r.status, 202, "{}", r.body);
        let id = json_str(&r.body, "job").unwrap();
        let done = poll_job(addr, &id);
        first_stats = stats_of(&done.body).to_string();

        // Graceful shutdown over HTTP; wait() returns once torn down.
        let r = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(r.status, 200);
        svc.wait();
    }

    // A fresh instance sees the persisted result: cache hit, no run.
    let svc = start(1, 4, Some(dir.clone()));
    let addr = svc.addr();
    let r = request(addr, "POST", "/v1/run", body);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cached\":true"), "{}", r.body);
    assert_eq!(stats_of(&r.body), first_stats);
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 0);
    svc.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A second job that differs from the first only in its cycle budget
/// shares the simulated prefix: the service restores the warm checkpoint
/// instead of re-simulating from cycle zero, and still produces
/// byte-identical simulated results.
#[test]
fn warm_start_restores_shared_prefix_for_budget_variants() {
    let dir = std::env::temp_dir().join(format!("hidisc-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::start(
        ServeConfig::builder()
            .workers(1)
            .cache_dir(dir.clone())
            .warm_checkpoint_cycle(2_000)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();

    // dm/test runs ~20k cycles: both budgets are ample, so both jobs
    // complete identically — but the budget is part of the job key, so
    // the second submission is neither a coalesce nor a result-cache hit.
    let a = r#"{"workload":"dm","scale":"test","seed":7,"model":"hidisc","max_cycles":500000}"#;
    let b = r#"{"workload":"dm","scale":"test","seed":7,"model":"hidisc","max_cycles":600000}"#;

    let r = request(addr, "POST", "/v1/run", a);
    assert_eq!(r.status, 202, "{}", r.body);
    let id_a = json_str(&r.body, "job").unwrap();
    let done_a = poll_job(addr, &id_a);
    assert_eq!(json_str(&done_a.body, "status").as_deref(), Some("done"));
    // The first run was cold: it simulated (and checkpointed) the prefix.
    assert_eq!(metric(addr, "hidisc_serve_warm_restores_total"), 0);

    let r = request(addr, "POST", "/v1/run", b);
    assert_eq!(r.status, 202, "{}", r.body);
    let id_b = json_str(&r.body, "job").unwrap();
    assert_ne!(id_a, id_b, "budget variants must be distinct jobs");
    let done_b = poll_job(addr, &id_b);
    assert_eq!(json_str(&done_b.body, "status").as_deref(), Some("done"));

    // The second run simulated, but started from the restored checkpoint
    // — with simulated results identical to a cold direct run.
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 2);
    assert_eq!(metric(addr, "hidisc_serve_warm_restores_total"), 1);
    assert_eq!(stats_of(&done_a.body), stats_of(&done_b.body));
    assert_eq!(stats_of(&done_b.body), direct_stats(b));

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A custom program that fails static verification answers 400 with the
/// verifier's located diagnostic; a clean one slices, runs and caches
/// like any named workload.
#[test]
fn verifier_rejected_program_answers_400_with_the_diagnostic() {
    let svc = start(1, 4, None);
    let addr = svc.addr();

    // `send LDQ, r1` operates on an architectural queue from the
    // sequential source program: QB004 at orig@1.
    let bad = r#"{"program":"li r1, 1\nsend LDQ, r1\nhalt"}"#;
    let r = request(addr, "POST", "/v1/run", bad);
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("\"code\":\"QB004\""), "{}", r.body);
    assert!(r.body.contains("orig@1"), "{}", r.body);
    assert!(metric(addr, "hidisc_serve_bad_requests_total") >= 1);

    // The clean variant is admitted, simulated and content-addressed.
    let good = r#"{"program":"li r1, 64\nsd r1, 0(r1)\nld r2, 0(r1)\nhalt"}"#;
    let r = request(addr, "POST", "/v1/run", good);
    assert!(r.status == 200 || r.status == 202, "{}", r.body);
    let id = json_str(&r.body, "job").expect("job id");
    let done = poll_job(addr, &id);
    assert_eq!(
        json_str(&done.body, "status").as_deref(),
        Some("done"),
        "{}",
        done.body
    );
    assert_eq!(json_str(&done.body, "workload").as_deref(), Some("custom"));

    // Resubmission is a cache hit (the program text is in the job key).
    let r = request(addr, "POST", "/v1/run", good);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cached\":true"), "{}", r.body);
    svc.shutdown();
}

/// The `/v1/run` body for one test-scale `dm` job.
fn dm_body(seed: u64, model: &str, lat: Option<(u32, u32)>) -> String {
    let lat = lat
        .map(|(l2, mem)| format!(",\"l2_lat\":{l2},\"mem_lat\":{mem}"))
        .unwrap_or_default();
    format!(r#"{{"workload":"dm","scale":"test","seed":{seed},"model":"{model}"{lat}}}"#)
}

/// Every model of one workload instance, submitted at once, and a sweep
/// over the same instance at another latency point generate and slice
/// it once; every result is byte-identical to a direct run. A second
/// seed is a second instance.
#[test]
fn one_workload_instance_is_built_once_for_every_model_and_sweep_point() {
    const MODELS: [&str; 4] = ["superscalar", "cp+ap", "cp+cmp", "hidisc"];
    let svc = start(2, 16, None);
    let addr = svc.addr();

    let bodies: Vec<String> = MODELS.iter().map(|m| dm_body(11, m, None)).collect();
    let ids: Vec<String> = bodies
        .iter()
        .map(|body| {
            let r = request(addr, "POST", "/v1/run", body);
            assert_eq!(r.status, 202, "{}", r.body);
            json_str(&r.body, "job").expect("job id")
        })
        .collect();
    for (id, body) in ids.iter().zip(&bodies) {
        let done = poll_job(addr, id);
        assert_eq!(
            json_str(&done.body, "status").as_deref(),
            Some("done"),
            "{}",
            done.body
        );
        assert_eq!(stats_of(&done.body), direct_stats(body), "{body}");
    }

    let r = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workloads":["dm"],"scales":["test"],"seeds":[11],
            "latencies":[[16,160]],"stream":false}"#,
    );
    assert_eq!(r.status, 202, "{}", r.body);
    let done = poll_sweep(addr, &json_str(&r.body, "sweep").expect("sweep id"));
    assert_eq!(json_num(&done, "simulated"), Some(4), "{done}");
    assert_eq!(json_num(&done, "failed"), Some(0), "{done}");
    for model in MODELS {
        // A sweep point's id is the job id of the equivalent run request.
        let body = dm_body(11, model, Some((16, 160)));
        let spec = JobSpec::from_json(body.as_bytes()).expect("spec");
        let id = format!("{:016x}", spec.key(&spec.config().expect("config")));
        let r = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(stats_of(&r.body), direct_stats(&body), "{body}");
    }
    assert_eq!(metric(addr, "hidisc_serve_sim_runs_total"), 8);
    assert_eq!(metric(addr, "hidisc_serve_workload_builds_total"), 1);

    let body = dm_body(12, "hidisc", None);
    let r = request(addr, "POST", "/v1/run", &body);
    assert_eq!(r.status, 202, "{}", r.body);
    let done = poll_job(addr, &json_str(&r.body, "job").unwrap());
    assert_eq!(stats_of(&done.body), direct_stats(&body));
    assert_eq!(metric(addr, "hidisc_serve_workload_builds_total"), 2);

    svc.shutdown();
}

/// A job without `max_cycles` or `timeout_ms` cannot have a budget
/// sibling to share its prefix with, so it writes no warm checkpoint —
/// even when it runs well past the checkpoint cycle. A budgeted variant
/// of the same experiment does write one.
#[test]
fn unbudgeted_jobs_write_no_warm_checkpoint() {
    let dir = std::env::temp_dir().join(format!("hidisc-serve-nowarm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = Service::start(
        ServeConfig::builder()
            .workers(1)
            .cache_dir(dir.clone())
            .warm_checkpoint_cycle(2_000)
            .build()
            .expect("valid serve config"),
    )
    .expect("service start");
    let addr = svc.addr();
    let checkpoints = || {
        std::fs::read_dir(dir.join("warm"))
            .map(|d| d.count())
            .unwrap_or(0)
    };

    let plain = dm_body(13, "hidisc", None);
    let r = request(addr, "POST", "/v1/run", &plain);
    assert_eq!(r.status, 202, "{}", r.body);
    let done = poll_job(addr, &json_str(&r.body, "job").unwrap());
    assert_eq!(json_str(&done.body, "status").as_deref(), Some("done"));
    assert_eq!(stats_of(&done.body), direct_stats(&plain));
    assert_eq!(checkpoints(), 0, "an unbudgeted job wrote a checkpoint");

    let budgeted =
        r#"{"workload":"dm","scale":"test","seed":13,"model":"hidisc","max_cycles":500000}"#;
    let r = request(addr, "POST", "/v1/run", budgeted);
    assert_eq!(r.status, 202, "{}", r.body);
    let done = poll_job(addr, &json_str(&r.body, "job").unwrap());
    assert_eq!(json_str(&done.body, "status").as_deref(), Some("done"));
    assert_eq!(checkpoints(), 1);

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
