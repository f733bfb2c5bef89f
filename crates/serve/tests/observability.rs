//! The request-observability contract of the serve stack: every response
//! carries an `X-Request-Id` that also appears in the access log, the
//! error envelope and the job record; `/healthz` reports build identity
//! and uptime; and the full `/metrics` page is well-formed Prometheus
//! text exposition (HELP/TYPE per family, cumulative monotone histogram
//! buckets, `le="+Inf"` equal to `_count`).

mod common;

use std::collections::{BTreeMap, HashMap};

use common::{json_str, poll_job, request, request_with};
use hidisc::telemetry::log::{Level, LogFormat};
use hidisc_serve::{ServeConfig, Service};

/// The request id is minted once per request and travels everywhere: the
/// response header, the job body, the job record, the error envelope and
/// every structured log line the request produced.
#[test]
fn request_ids_thread_through_responses_jobs_and_logs() {
    let dir = std::env::temp_dir().join(format!("hidisc-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("log dir");
    let log_path = dir.join("access.log");

    let svc = Service::start(
        ServeConfig::builder()
            .workers(1)
            .log_level(Some(Level::Info))
            .log_format(LogFormat::Json)
            .log_file(log_path.clone())
            .build()
            .expect("config"),
    )
    .expect("service start");
    let addr = svc.addr();

    // A generated id is echoed in the header and the job body, and the
    // job record keeps the creating request's id for later polls.
    let body = r#"{"workload":"dm","scale":"test","seed":6101}"#;
    let r = request(addr, "POST", "/v1/run", body);
    assert!(r.status == 200 || r.status == 202, "{}", r.body);
    let rid = r.request_id().to_string();
    assert_eq!(rid.len(), 16, "generated ids are 16 hex digits: {rid}");
    assert!(rid.bytes().all(|b| b.is_ascii_hexdigit()), "{rid}");
    assert_eq!(
        json_str(&r.body, "requestId").as_deref(),
        Some(rid.as_str())
    );
    let job = json_str(&r.body, "job").expect("job id");
    let done = poll_job(addr, &job);
    assert_eq!(
        json_str(&done.body, "requestId").as_deref(),
        Some(rid.as_str()),
        "job record should keep the creating request's id: {}",
        done.body
    );

    // An acceptable inbound id is honored end to end.
    let r = request_with(
        addr,
        "GET",
        "/healthz",
        &["X-Request-Id: client-id.42_A-Z"],
        "",
    );
    assert_eq!(r.request_id(), "client-id.42_A-Z");

    // An unacceptable inbound id (forbidden characters) is replaced.
    let r = request_with(addr, "GET", "/healthz", &["X-Request-Id: bad id!"], "");
    assert_ne!(r.request_id(), "bad id!");
    assert_eq!(r.request_id().len(), 16);

    // Error envelopes carry the same id as the response header.
    let r = request(addr, "POST", "/v1/run", "not json");
    assert_eq!(r.status, 400, "{}", r.body);
    let err_rid = r.request_id().to_string();
    assert!(
        r.body.contains(&format!("\"request_id\":\"{err_rid}\"")),
        "{}",
        r.body
    );

    // /healthz reports build identity and uptime.
    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(
        json_str(&health.body, "version").as_deref(),
        Some(hidisc_serve::VERSION)
    );
    assert_eq!(
        json_str(&health.body, "gitSha").as_deref(),
        Some(hidisc_serve::GIT_SHA)
    );
    assert!(health.body.contains("\"uptimeMs\":"), "{}", health.body);

    svc.shutdown();

    // Every JSON log line the submission produced carries the same id:
    // the access-log line and the job lifecycle events.
    let log = std::fs::read_to_string(&log_path).expect("read access log");
    let lines: Vec<&str> = log.lines().collect();
    assert!(!lines.is_empty(), "empty access log");
    for l in &lines {
        assert!(
            l.starts_with("{\"ts\":") && l.ends_with('}'),
            "not a JSON line: {l}"
        );
    }
    let with_rid = |event: &str| -> Vec<&str> {
        lines
            .iter()
            .copied()
            .filter(|l| {
                l.contains(&format!("\"event\":\"{event}\""))
                    && l.contains(&format!("\"request_id\":\"{rid}\""))
            })
            .collect()
    };
    assert_eq!(with_rid("request").len(), 1, "access log line: {log}");
    assert_eq!(with_rid("job_queued").len(), 1, "job_queued line: {log}");
    let done_lines = with_rid("job_done");
    assert_eq!(done_lines.len(), 1, "job_done line: {log}");
    for field in ["queue_wait_ms", "sim_ms", "serialize_ms"] {
        assert!(
            done_lines[0].contains(&format!("\"{field}\":")),
            "phase field {field} missing: {}",
            done_lines[0]
        );
    }
    let access = with_rid("request")[0];
    for field in [
        "method",
        "path",
        "route",
        "status",
        "bytes",
        "dur_us",
        "disposition",
    ] {
        assert!(
            access.contains(&format!("\"{field}\":")),
            "access-log field {field} missing: {access}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"event\":\"serve_start\"")),
        "{log}"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"serve_stop\"")),
        "{log}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// One parsed sample of a Prometheus exposition line.
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

fn parse_sample(line: &str) -> Sample {
    let (head, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("bad value: {line}"));
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), BTreeMap::new()),
        Some((n, rest)) => {
            let rest = rest.strip_suffix('}').expect("closing brace");
            let mut labels = BTreeMap::new();
            for pair in rest.split("\",") {
                let pair = pair.trim_end_matches('"');
                let (k, v) = pair.split_once("=\"").unwrap_or_else(|| {
                    panic!("bad label pair {pair:?} in {line}");
                });
                labels.insert(k.to_string(), v.to_string());
            }
            (n.to_string(), labels)
        }
    };
    Sample {
        name,
        labels,
        value,
    }
}

/// The family a sample belongs to: histogram series drop their
/// `_bucket`/`_sum`/`_count` suffix.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Serves one request of every disposition (submitted, cache_hit,
/// coalesced, and a parse error) so all the RED families have samples,
/// then validates the whole `/metrics` page against the text exposition
/// rules.
#[test]
fn metrics_page_is_valid_prometheus_exposition() {
    let svc = Service::start(ServeConfig::builder().workers(1).build().expect("config"))
        .expect("service start");
    let addr = svc.addr();

    // submitted → done
    let body = r#"{"workload":"dm","scale":"test","seed":6201}"#;
    let r = request(addr, "POST", "/v1/run", body);
    assert!(r.status == 200 || r.status == 202, "{}", r.body);
    let id = json_str(&r.body, "job").expect("job id");
    poll_job(addr, &id);
    // cache_hit
    let r = request(addr, "POST", "/v1/run", body);
    assert_eq!(r.status, 200, "{}", r.body);
    // coalesced: a slow job occupies the single worker, its duplicate
    // coalesces onto the running entry.
    let slow = r#"{"workload":"dm","scale":"large","seed":6202,"timeout_ms":300}"#;
    let r1 = request(addr, "POST", "/v1/run", slow);
    assert_eq!(r1.status, 202, "{}", r1.body);
    let r2 = request(addr, "POST", "/v1/run", slow);
    assert!(r2.status == 200 || r2.status == 202, "{}", r2.body);
    poll_job(addr, &json_str(&r1.body, "job").unwrap());
    // parse error (4xx on the "other" route)
    let r = request(addr, "POST", "/v1/run", "not json");
    assert_eq!(r.status, 400);

    let page = request(addr, "GET", "/metrics", "");
    assert_eq!(page.status, 200);
    let text = &page.body;

    let mut helps: HashMap<String, String> = HashMap::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP name and text");
            assert!(
                helps.insert(name.to_string(), help.to_string()).is_none(),
                "duplicate HELP for {name}"
            );
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ').expect("TYPE name and kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&ty),
                "unknown TYPE {ty} for {name}"
            );
            assert!(
                types.insert(name.to_string(), ty.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
        } else {
            assert!(!line.starts_with('#'), "unknown comment line: {line}");
            samples.push(parse_sample(line));
        }
    }

    // Every sample belongs to a family with both HELP and TYPE.
    for s in &samples {
        let family = family_of(&s.name, &types);
        assert!(types.contains_key(family), "no TYPE for {}", s.name);
        assert!(helps.contains_key(family), "no HELP for {}", s.name);
    }

    // Histogram series: buckets cumulative and monotone in le, with
    // `le="+Inf"` equal to the series' `_count`, and `_sum` present.
    let mut series: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for s in &samples {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            if types.get(base).map(String::as_str) != Some("histogram") {
                continue;
            }
            let le = s.labels.get("le").expect("bucket has le");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or_else(|_| panic!("bad le {le:?}"))
            };
            let mut key_labels: Vec<String> = s
                .labels
                .iter()
                .filter(|(k, _)| *k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            key_labels.sort();
            series
                .entry((base.to_string(), key_labels.join(",")))
                .or_default()
                .push((le, s.value));
        }
    }
    assert!(!series.is_empty(), "no histogram series in:\n{text}");
    let flat_value = |name: &str, labels: &str| -> f64 {
        samples
            .iter()
            .find(|s| {
                let mut ls: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                ls.sort();
                s.name == name && ls.join(",") == labels
            })
            .unwrap_or_else(|| panic!("missing sample {name}{{{labels}}}"))
            .value
    };
    for ((base, labels), buckets) in &series {
        let les: Vec<f64> = buckets.iter().map(|(le, _)| *le).collect();
        assert!(
            les.windows(2).all(|w| w[0] < w[1]),
            "{base}{{{labels}}}: le edges not ascending: {les:?}"
        );
        assert_eq!(
            *les.last().unwrap(),
            f64::INFINITY,
            "{base}{{{labels}}}: no +Inf bucket"
        );
        let counts: Vec<f64> = buckets.iter().map(|(_, c)| *c).collect();
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "{base}{{{labels}}}: buckets not cumulative: {counts:?}"
        );
        let count = flat_value(&format!("{base}_count"), labels);
        assert_eq!(
            *counts.last().unwrap(),
            count,
            "{base}{{{labels}}}: +Inf bucket != _count"
        );
        flat_value(&format!("{base}_sum"), labels); // must exist
    }

    // The tentpole families are present and populated.
    let series_count = |base: &str| series.keys().filter(|(b, _)| b == base).count();
    assert!(
        series_count("hidisc_serve_request_duration_seconds") >= 2,
        "request-duration histogram missing routes:\n{text}"
    );
    assert!(
        series_count("hidisc_serve_job_phase_seconds") >= 3,
        "job-phase histogram missing phases:\n{text}"
    );
    assert!(series_count("hidisc_serve_time_to_first_byte_seconds") >= 1);
    assert!(
        text.contains("hidisc_build_info{version=\""),
        "build info gauge missing:\n{text}"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "hidisc_serve_requests_by_route_total"
                && s.labels.get("route").map(String::as_str) == Some("run")
                && s.labels.get("class").map(String::as_str) == Some("2xx")),
        "run/2xx counter missing:\n{text}"
    );
    // The old twin gauge is gone; the canonical one remains.
    assert!(
        !text.contains("hidisc_serve_connections_active"),
        "deprecated twin gauge resurfaced:\n{text}"
    );
    assert!(text.contains("hidisc_serve_open_connections "), "{text}");
    assert!(text.contains("hidisc_serve_uptime_seconds "), "{text}");

    svc.shutdown();
}
