//! Integration tests for `lcda serve`: the HTTP job API, shared
//! cross-run caching, byte-identity with offline runs, and per-job
//! journal isolation.

use lcda::core::serve::JobStatus;
use lcda::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends one HTTP/1.1 request and returns `(status, body)`. Chunked
/// responses are decoded transparently.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: lcda\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    stream.flush().expect("flush");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        decode_chunked(payload)
    } else {
        payload.to_string()
    };
    (status, body)
}

/// Minimal chunked-transfer decoder for test responses.
fn decode_chunked(mut payload: &str) -> String {
    let mut out = String::new();
    while let Some((size_line, rest)) = payload.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&rest[..size]);
        payload = &rest[size + 2..]; // skip the chunk's trailing CRLF
    }
    out
}

/// Like [`http`] but also returns the raw response head, so tests can
/// assert on response headers (`Retry-After`, …).
fn http_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: lcda\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    stream.flush().expect("flush");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, head.to_string(), payload.to_string())
}

/// Writes raw bytes over a fresh connection, half-closes, and returns
/// `(status, full response text)`. The malformed-request tests need
/// byte-level control the well-formed [`http`] helper cannot offer.
fn raw_http(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send raw request");
    stream.flush().expect("flush");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, text)
}

fn wait_terminal(server: &JobServer, id: JobId) -> JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = server.status(id).expect("known job");
        if status.state.is_terminal() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "{id} never reached a terminal state"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn served_job_is_byte_identical_to_the_offline_search() {
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let (status, body) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes": 3, "seed": 9}"#,
    );
    assert_eq!(status, 202, "{body}");
    let accepted: lcda_base::json::Value = lcda_base::json::from_str(&body).unwrap();
    assert_eq!(accepted["job"], "job-1");
    assert_eq!(accepted["state"], "queued");

    let done = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(
        done.state,
        lcda::core::serve::JobState::Done,
        "{:?}",
        done.error
    );

    let (status, served) = http(server.addr(), "GET", "/jobs/job-1/result", "");
    assert_eq!(status, 200);

    // The same search, run offline exactly as `lcda search --json` does.
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(3)
        .seed(9)
        .build();
    let outcome = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let offline = format!("{}\n", lcda_base::json::to_string_pretty(&outcome));
    assert_eq!(served, offline, "served result must be byte-identical");
    server.shutdown().expect("shutdown");
}

#[test]
fn second_identical_job_reuses_the_shared_store() {
    // One worker: jobs run strictly in admission order, so the second
    // job deterministically finds every evaluation already memoized.
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let spec = r#"{"episodes": 3, "seed": 4}"#;
    let (s1, _) = http(server.addr(), "POST", "/jobs", spec);
    let (s2, _) = http(server.addr(), "POST", "/jobs", spec);
    assert_eq!((s1, s2), (202, 202));
    let first = wait_terminal(&server, "job-1".parse().unwrap());
    let second = wait_terminal(&server, "job-2".parse().unwrap());
    assert_eq!(first.state, lcda::core::serve::JobState::Done);
    assert_eq!(second.state, lcda::core::serve::JobState::Done);

    let stats1 = first.cache.expect("terminal jobs publish stats");
    let stats2 = second.cache.expect("terminal jobs publish stats");
    assert_eq!(
        stats1.cross_run_hits, 0,
        "first tenant has nothing to reuse"
    );
    assert!(stats1.inserts > 0, "first tenant must seed the store");
    assert!(
        stats2.cross_run_hits > 0,
        "second tenant must hit the first tenant's entries: {stats2:?}"
    );
    assert_eq!(stats2.misses, 0, "an identical rerun misses nothing");
    assert_eq!(stats2.inserts, 0, "an identical rerun admits nothing new");

    let (_, r1) = http(server.addr(), "GET", "/jobs/job-1/result", "");
    let (_, r2) = http(server.addr(), "GET", "/jobs/job-2/result", "");
    assert_eq!(r1, r2, "shared caching must not change results");

    let (status, body) = http(server.addr(), "GET", "/stats", "");
    assert_eq!(status, 200);
    let stats: lcda_base::json::Value = lcda_base::json::from_str(&body).unwrap();
    assert_eq!(stats["jobs"]["done"], 2, "{body}");
    assert!(stats["store"]["cross_run_hits"].as_u64().unwrap() > 0);
    assert!(stats["store_entries"].as_u64().unwrap() > 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn admission_is_validated_over_http() {
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let (status, body) = http(server.addr(), "POST", "/jobs", r#"{"backend": "fpga"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown hardware backend"), "{body}");

    let (status, body) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"backend": "cim+bogus"}"#,
    );
    assert_eq!(status, 400);
    assert!(
        body.contains("unknown hardware backend `cim+bogus`"),
        "{body}"
    );

    let (status, body) = http(server.addr(), "POST", "/jobs", r#"{"epsodes": 3}"#);
    assert_eq!(status, 400, "unknown fields must be rejected: {body}");

    let (status, _) = http(server.addr(), "POST", "/jobs", "not json");
    assert_eq!(status, 400);

    let (status, _) = http(server.addr(), "GET", "/jobs/job-99", "");
    assert_eq!(status, 404);
    let (status, _) = http(server.addr(), "GET", "/jobs/banana", "");
    assert_eq!(status, 400);
    let (status, _) = http(server.addr(), "GET", "/nope", "");
    assert_eq!(status, 404);

    // Nothing was admitted.
    assert!(server.stats().jobs.is_empty());
    server.shutdown().expect("shutdown");
}

#[test]
fn malformed_hw_configs_are_rejected_at_admission_over_http() {
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");

    let mut hw = lcda_base::json::to_value(&lcda::core::HwHierarchy::isaac());
    hw["chip"]["noc"]["cost"] = lcda_base::json!([[0.0, 1.0]]);
    let spec = lcda_base::json!({ "hw": hw }).to_string();
    let (status, body) = http(server.addr(), "POST", "/jobs", &spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("chip.noc.cost"), "{body}");

    let mut hw = lcda_base::json::to_value(&lcda::core::HwHierarchy::isaac());
    hw["crossbar"]["rows"] = lcda_base::json!(0);
    let spec = lcda_base::json!({ "hw": hw }).to_string();
    let (status, body) = http(server.addr(), "POST", "/jobs", &spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("crossbar.rows"), "{body}");

    let mut hw = lcda_base::json::to_value(&lcda::core::HwHierarchy::isaac());
    hw["core"]["bus_gb_s"] = lcda_base::json!(-1.0);
    let spec = lcda_base::json!({ "hw": hw }).to_string();
    let (status, body) = http(server.addr(), "POST", "/jobs", &spec);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("core.bus_gb_s"), "{body}");

    let mut hw = lcda_base::json::to_value(&lcda::core::HwHierarchy::isaac());
    hw["crossbar"]["rws"] = lcda_base::json!(64);
    let spec = lcda_base::json!({ "hw": hw }).to_string();
    let (status, body) = http(server.addr(), "POST", "/jobs", &spec);
    assert_eq!(status, 400, "unknown hw fields must be rejected: {body}");

    // The retired `cim@<config>` spelling is refused by name, with or
    // without `hw`, pointing at the `hw` object.
    let hw = lcda_base::json::to_value(&lcda::core::HwHierarchy::isaac());
    for spec in [
        lcda_base::json!({ "backend": "cim@configs/hw/isaac.json" }),
        lcda_base::json!({ "backend": "cim@configs/hw/isaac.json", "hw": hw }),
    ] {
        let (status, body) = http(server.addr(), "POST", "/jobs", &spec.to_string());
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("`cim@configs/hw/isaac.json`"), "{body}");
        assert!(body.contains("`hw` object"), "{body}");
    }

    // None of the rejected specs was queued.
    assert!(server.stats().jobs.is_empty());
    server.shutdown().expect("shutdown");
}

#[test]
fn distinct_hierarchies_partition_the_shared_store() {
    use lcda::core::HwHierarchy;
    // One worker: strictly sequential jobs make the cross-run counters
    // deterministic.
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");

    // Job 1: the default backend (builtin isaac hierarchy).
    let (s1, _) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes": 3, "seed": 4}"#,
    );
    // Job 2: same search on different hardware — bigger global buffer.
    let mut custom = HwHierarchy::isaac();
    custom.chip.global_buffer_kb = 128;
    let spec2 = lcda_base::json!({
        "episodes": 3, "seed": 4,
        "hw": lcda_base::json::to_value(&custom),
    })
    .to_string();
    let (s2, _) = http(server.addr(), "POST", "/jobs", &spec2);
    // Job 3: an explicit hw object equal to the builtin — the golden
    // equivalence: it must share job 1's cache entries bit-for-bit.
    let spec3 = lcda_base::json!({
        "episodes": 3, "seed": 4,
        "hw": lcda_base::json::to_value(&HwHierarchy::isaac()),
    })
    .to_string();
    let (s3, _) = http(server.addr(), "POST", "/jobs", &spec3);
    assert_eq!((s1, s2, s3), (202, 202, 202));

    let first = wait_terminal(&server, "job-1".parse().unwrap());
    let second = wait_terminal(&server, "job-2".parse().unwrap());
    let third = wait_terminal(&server, "job-3".parse().unwrap());
    for status in [&first, &second, &third] {
        assert_eq!(
            status.state,
            lcda::core::serve::JobState::Done,
            "{:?}",
            status.error
        );
    }

    // An identical rerun misses nothing (see
    // `second_identical_job_reuses_the_shared_store`), so job 2's misses
    // prove the custom hierarchy's fingerprints are disjoint from job
    // 1's: its hardware lookups could not be served by the default run.
    let stats2 = second.cache.expect("terminal jobs publish stats");
    assert!(
        stats2.misses > 0,
        "a different hierarchy must namespace its own hardware entries: {stats2:?}"
    );
    assert!(
        stats2.inserts > 0,
        "the custom hierarchy seeds its own entries: {stats2:?}"
    );

    // Golden equivalence end-to-end: an explicit hw object equal to the
    // builtin produces the very same fingerprints, so job 3 is a pure
    // cross-run replay of job 1.
    let stats3 = third.cache.expect("terminal jobs publish stats");
    assert_eq!(
        stats3.misses, 0,
        "builtin-equal hw misses nothing: {stats3:?}"
    );
    assert_eq!(
        stats3.inserts, 0,
        "builtin-equal hw admits nothing: {stats3:?}"
    );
    assert!(
        stats3.cross_run_hits > 0,
        "an hw object equal to the builtin must reuse the default run's \
         entries: {stats3:?}"
    );

    // Different hardware, different results; identical hardware,
    // identical bytes.
    let (_, r1) = http(server.addr(), "GET", "/jobs/job-1/result", "");
    let (_, r2) = http(server.addr(), "GET", "/jobs/job-2/result", "");
    let (_, r3) = http(server.addr(), "GET", "/jobs/job-3/result", "");
    assert_eq!(r1, r3, "builtin-equal hw must reproduce the default run");
    assert_ne!(r1, r2, "a bigger buffer changes area, so results differ");
    server.shutdown().expect("shutdown");
}

#[test]
fn cancel_over_http_and_result_conflict() {
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    // Saturate the single worker, then cancel the queued second job. The
    // first job asks for more episodes than it could run before the test
    // cancels it (its prompt grows with every episode), so the second
    // job is still queued when its cancel arrives, and the first is
    // still running when its own does.
    let (s1, _) = http(server.addr(), "POST", "/jobs", r#"{"episodes": 100000}"#);
    let (s2, _) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes": 40, "seed": 1}"#,
    );
    assert_eq!((s1, s2), (202, 202));
    let (status, body) = http(server.addr(), "POST", "/jobs/job-2/cancel", "");
    assert_eq!(status, 200);
    let cancelled: lcda_base::json::Value = lcda_base::json::from_str(&body).unwrap();
    assert_eq!(cancelled["state"], "cancelled", "{body}");

    let (status, body) = http(server.addr(), "GET", "/jobs/job-2/result", "");
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("cancelled"), "{body}");

    // Cancel the running job too; it lands cancelled at an episode
    // boundary without blocking shutdown for its 100,000 episodes.
    let (status, _) = http(server.addr(), "POST", "/jobs/job-1/cancel", "");
    assert_eq!(status, 200);
    let first = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(
        first.state,
        lcda::core::serve::JobState::Cancelled,
        "cancel must land on the running job"
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn per_job_journals_never_interleave() {
    let dir = std::env::temp_dir().join(format!("lcda-serve-journals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::bind(ServeConfig {
        workers: 2,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    // Two overlapping jobs on two workers: with a shared sink their
    // records would interleave; with per-job files they cannot.
    let (s1, _) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes": 3, "seed": 5}"#,
    );
    let (s2, _) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes": 3, "seed": 6}"#,
    );
    assert_eq!((s1, s2), (202, 202));
    wait_terminal(&server, "job-1".parse().unwrap());
    wait_terminal(&server, "job-2".parse().unwrap());

    for (file, job, seed) in [
        ("job-1.jsonl", "job-1", 5u64),
        ("job-2.jsonl", "job-2", 6u64),
    ] {
        let text = std::fs::read_to_string(dir.join(file)).expect("journal file");
        let mut kinds = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record: lcda_base::json::Value =
                lcda_base::json::from_str(line).expect("journal line");
            // Every job-tagged record in this file belongs to this job —
            // the no-interleaving assertion.
            if let Some(tag) = record.get("job").and_then(|j| j.as_str()) {
                assert_eq!(tag, job, "foreign record in {file}: {line}");
            }
            if record["event"] == "run_start" {
                assert_eq!(record["seed"].as_u64(), Some(seed), "{file}: {line}");
            }
            kinds.push(record["event"].as_str().unwrap_or_default().to_string());
        }
        for required in ["job_admitted", "job_started", "shared_cache", "job_ended"] {
            assert!(
                kinds.iter().any(|k| k == required),
                "{file} missing {required}"
            );
        }
        // The lifecycle closes the file: job_ended is the final record.
        assert_eq!(
            kinds.last().map(String::as_str),
            Some("job_ended"),
            "{file}"
        );

        // The streaming endpoint serves exactly the file's bytes.
        let (status, streamed) = http(server.addr(), "GET", &format!("/jobs/{job}/journal"), "");
        assert_eq!(status, 200);
        assert_eq!(streamed, text, "journal stream must match the file");

        // And `lcda report` understands the job events.
        let report = RunReport::from_jsonl(&text).expect("report");
        assert_eq!(report.jobs_admitted, 1);
        assert_eq!(report.jobs_ended, 1);
    }
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_result_file_of_a_done_job_is_a_500_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("lcda-serve-lost-result-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let (status, body) = http(server.addr(), "POST", "/jobs", r#"{"episodes": 2}"#);
    assert_eq!(status, 202, "{body}");
    let done = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(done.state, JobState::Done, "{:?}", done.error);
    let (status, body) = http(server.addr(), "GET", "/jobs/job-1/result", "");
    assert_eq!(status, 200, "{body}");

    // A done job's body lives only in its result file.
    let path = dir.join("job-1.result.json");
    std::fs::remove_file(&path).expect("remove result file");
    let io_error = std::fs::read(&path).unwrap_err().to_string();
    let (status, body) = http(server.addr(), "GET", "/jobs/job-1/result", "");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("job-1.result.json"), "{body}");
    assert!(body.contains(&io_error), "{body}");
    let (status, body) = http(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_errors_and_never_wedge_the_server() {
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let oversized_request_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    let oversized_headers = {
        let mut request = String::from("GET /stats HTTP/1.1\r\n");
        for i in 0..2000 {
            request.push_str(&format!("X-Pad-{i}: {}\r\n", "b".repeat(16)));
        }
        request.push_str("\r\n");
        request
    };
    let cases: Vec<(&str, Vec<u8>, u16, &str)> = vec![
        ("empty request", Vec::new(), 400, "empty request"),
        (
            "garbage request line",
            b"BLAH\r\n\r\n".to_vec(),
            400,
            "malformed request",
        ),
        (
            "oversized request line",
            oversized_request_line.into_bytes(),
            400,
            "request line too long",
        ),
        (
            "oversized headers",
            oversized_headers.into_bytes(),
            400,
            "headers too large",
        ),
        (
            "truncated headers",
            b"GET /stats HTTP/1.1\r\nHost: lcda\r\n".to_vec(),
            400,
            "truncated headers",
        ),
        (
            "non-numeric content-length",
            b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
            "invalid content-length",
        ),
        (
            "oversized content-length",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".to_vec(),
            413,
            "request body too large",
        ),
        (
            "truncated body",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"epi".to_vec(),
            400,
            "truncated request body",
        ),
    ];
    for (name, bytes, want_status, want_text) in cases {
        let (status, text) = raw_http(addr, &bytes);
        assert_eq!(status, want_status, "{name}: {text}");
        assert!(text.contains(want_text), "{name}: {text}");
        // The request died alone: the server still answers the next
        // well-formed connection.
        let (ok, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(ok, 200, "server wedged after {name}: {body}");
    }
    assert!(
        server.stats().jobs.is_empty(),
        "no malformed request may be admitted"
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn health_and_readiness_endpoints_report_server_state() {
    let server = JobServer::bind(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    })
    .expect("bind");
    let (status, body) = http(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let health: lcda_base::json::Value = lcda_base::json::from_str(&body).unwrap();
    assert_eq!(health["status"], "ok", "{body}");
    assert_eq!(health["workers"], 3, "{body}");
    assert_eq!(health["queue_depth"], 0, "{body}");
    assert!(health["uptime_secs"].is_u64(), "{body}");

    let (status, body) = http(server.addr(), "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");
    let ready: lcda_base::json::Value = lcda_base::json::from_str(&body).unwrap();
    assert_eq!(ready["ready"], true, "{body}");
    assert_eq!(ready["shutting_down"], false, "{body}");
    assert_eq!(ready["queue_capacity"], 1024, "{body}");
    server.shutdown().expect("shutdown");
}

#[test]
fn full_queue_rejects_submissions_with_429_and_retry_after() {
    // One worker and a one-slot queue: a burst of long jobs must
    // overflow, and overflow is a typed, retryable rejection — not a
    // hang, not a dropped connection.
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut admitted = Vec::new();
    let mut rejected = 0u32;
    for seed in 0..8u64 {
        let spec = format!(r#"{{"episodes": 40, "seed": {seed}}}"#);
        let (status, head, body) = http_full(server.addr(), "POST", "/jobs", &spec);
        match status {
            202 => {
                let accepted: lcda_base::json::Value = lcda_base::json::from_str(&body).unwrap();
                admitted.push(accepted["job"].as_str().expect("job id").to_string());
            }
            429 => {
                rejected += 1;
                assert!(
                    head.to_ascii_lowercase().contains("retry-after: 1"),
                    "429 must carry Retry-After: {head}"
                );
                assert!(body.contains("server overloaded"), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(
        rejected > 0,
        "eight instant submissions must overflow a one-slot queue"
    );
    assert!(!admitted.is_empty(), "the first submission always fits");

    // Drain the backlog so shutdown does not wait out 40 episodes.
    for job in &admitted {
        let (status, body) = http(server.addr(), "POST", &format!("/jobs/{job}/cancel"), "");
        assert_eq!(status, 200, "cancel {job}: {body}");
    }
    for job in &admitted {
        wait_terminal(&server, job.parse().unwrap());
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn deadline_expiry_fails_the_job_with_a_typed_error_over_http() {
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    // A zero deadline expires at the first episode boundary.
    let (status, body) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes": 40, "deadline_secs": 0}"#,
    );
    assert_eq!(status, 202, "{body}");
    let done = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(done.state, JobState::Failed, "{:?}", done.error);
    assert!(
        done.error
            .as_deref()
            .unwrap_or("")
            .contains("deadline_exceeded"),
        "deadline expiry must be a typed failure: {:?}",
        done.error
    );
    // Deadline expiry is terminal, and the status carries no retry count.
    let (status, body) = http(server.addr(), "GET", "/jobs/job-1", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"state\":\"failed\""), "{body}");
    assert!(!body.contains("attempts"), "{body}");
    server.shutdown().expect("shutdown");
}

#[test]
fn the_largest_episode_budget_fails_by_deadline_and_the_server_lives_on() {
    // A job sized its history by the budget up front once: u32::MAX
    // records is hundreds of GB, and a failed allocation aborts the
    // whole process, which no job-panic guard can catch.
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let (status, body) = http(
        server.addr(),
        "POST",
        "/jobs",
        r#"{"episodes":4294967295,"deadline_secs":0}"#,
    );
    assert_eq!(status, 202, "{body}");
    let done = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(done.state, JobState::Failed, "{:?}", done.error);
    let error = done.error.as_deref().unwrap_or_default();
    assert!(error.contains("deadline_exceeded"), "{error}");
    let (status, body) = http(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    server.shutdown().expect("shutdown");
}

#[test]
fn kill_points_recover_byte_identically_from_the_wal_and_checkpoints() {
    use lcda::core::wal::{encode_line, WalEntry, WalRecord, WAL_FILE};

    // The uninterrupted reference run, with every per-episode checkpoint
    // captured — exactly what a server checkpointing at cadence 1 writes.
    let spec = JobSpec {
        episodes: 3,
        seed: 11,
        ..JobSpec::default()
    };
    let config = CoDesignConfig::builder(Objective::AccuracyEnergy)
        .episodes(3)
        .seed(11)
        .build();
    let mut run = CoDesign::builder(DesignSpace::nacim_cifar10(), config)
        .optimizer(OptimizerSpec::ExpertLlm)
        .build()
        .unwrap();
    let mut checkpoints = Vec::new();
    let outcome = run
        .run_resumable(None, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .unwrap();
    let offline = format!("{}\n", lcda_base::json::to_string_pretty(&outcome));
    assert_eq!(checkpoints.len(), 3);

    // Kill points: 0 = killed while the job was still queued (WAL has
    // only the admission); k > 0 = killed mid-run after the k-th
    // episode's checkpoint hit disk. Each case synthesizes the exact
    // on-disk state `kill -9` leaves at that instant, then restarts on
    // it and demands the uninterrupted bytes.
    for kill_after in 0..=3usize {
        let dir = std::env::temp_dir().join(format!(
            "lcda-serve-killpoint-{}-{kill_after}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("journal dir");
        let mut wal = encode_line(&WalRecord {
            seq: 0,
            entry: WalEntry::Admitted {
                job: 1,
                spec: Box::new(spec.clone()),
            },
        })
        .expect("encode admission");
        wal.push('\n');
        if kill_after > 0 {
            let running = encode_line(&WalRecord {
                seq: 1,
                entry: WalEntry::Transition {
                    job: 1,
                    state: JobState::Running,
                    error: None,
                },
            })
            .expect("encode transition");
            wal.push_str(&running);
            wal.push('\n');
            CheckpointStore::new(dir.join("job-1.ckpt.json"), 2)
                .unwrap()
                .save(&checkpoints[kill_after - 1])
                .expect("save checkpoint");
        }
        std::fs::write(dir.join(WAL_FILE), wal).expect("write wal");

        let server = JobServer::bind(ServeConfig {
            workers: 1,
            journal_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("bind on the crashed ledger");
        let status = wait_terminal(&server, "job-1".parse().unwrap());
        assert_eq!(
            status.state,
            JobState::Done,
            "kill point {kill_after}: {:?}",
            status.error
        );
        assert!(
            status.recovered,
            "kill point {kill_after}: a WAL-readmitted job must be flagged"
        );
        let (code, served) = http(server.addr(), "GET", "/jobs/job-1/result", "");
        assert_eq!(code, 200, "kill point {kill_after}");
        assert_eq!(
            served, offline,
            "kill point {kill_after}: recovery must be byte-identical"
        );
        server.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mid_file_damage_in_an_interrupted_jobs_journal_fails_bind_loudly() {
    use lcda::core::wal::{encode_line, WalEntry, WalRecord, WAL_FILE};

    let dir = std::env::temp_dir().join(format!("lcda-serve-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    // A job killed while running: admitted + running in the WAL, and a
    // 5-line journal whose second line is damaged.
    let mut wal = String::new();
    for (seq, entry) in [
        WalEntry::Admitted {
            job: 1,
            spec: Box::default(),
        },
        WalEntry::Transition {
            job: 1,
            state: JobState::Running,
            error: None,
        },
    ]
    .into_iter()
    .enumerate()
    {
        wal.push_str(
            &encode_line(&WalRecord {
                seq: seq as u64,
                entry,
            })
            .expect("encode"),
        );
        wal.push('\n');
    }
    std::fs::write(dir.join(WAL_FILE), wal).expect("write wal");
    let journal_path = dir.join("job-1.jsonl");
    let journal = Journal::to_file(&journal_path).expect("journal");
    for _ in 0..5 {
        journal.record(JournalEvent::CheckpointSaved { episodes_done: 1 });
    }
    journal.finish().expect("flush journal");
    let text = std::fs::read_to_string(&journal_path).expect("read journal");
    let damaged = text.replacen("\n{", "\n#", 1);
    std::fs::write(&journal_path, &damaged).expect("damage journal");

    let Err(err) = JobServer::bind(ServeConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    }) else {
        panic!("bind must refuse a journal damaged before its final line");
    };
    assert!(err.to_string().contains("line 2"), "{err}");
    let after = std::fs::read(&journal_path).expect("read journal");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        after,
        damaged.as_bytes(),
        "the damaged journal must not be cut"
    );
}

/// A ledger from a build that still accepted the `resilient` optimizer
/// and `+`-decorated backends (`tests/fixtures/parent_era/`) holds
/// three queued jobs: one of each retired name and one clean job. The
/// server must still bind on it, fail exactly the two retired jobs with
/// errors naming what they asked for, run the clean job to `done`, and
/// refuse the retired names at admission.
#[test]
fn queued_jobs_naming_retired_optimizers_or_backends_fail_by_name() {
    let dir = std::env::temp_dir().join(format!("lcda-serve-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parent_era")
        .join(lcda::core::wal::WAL_FILE);
    std::fs::copy(&fixture, dir.join(lcda::core::wal::WAL_FILE)).expect("copy ledger");

    let server = JobServer::bind(ServeConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind on a ledger naming retired specs");
    let [optimizer, backend, systolic, digital, clean] =
        ["job-1", "job-2", "job-3", "job-4", "job-5"]
            .map(|id| wait_terminal(&server, id.parse().unwrap()));

    assert_eq!(optimizer.spec.optimizer, "resilient");
    assert_eq!(optimizer.state, JobState::Failed);
    let error = optimizer.error.as_deref().unwrap_or_default();
    assert!(error.contains("unknown optimizer `resilient`"), "{error}");

    assert_ne!(backend.spec.backend, DEFAULT_BACKEND);
    assert_eq!(backend.state, JobState::Failed);
    let error = backend.error.as_deref().unwrap_or_default();
    let named = format!("unknown hardware backend `{}`", backend.spec.backend);
    assert!(error.contains(&named), "{error}");

    // Specs carrying the retired digital hierarchy section no longer
    // decode: the jobs fail naming the field, whatever their backend,
    // and the jobs admitted after them still run.
    assert_eq!(systolic.spec.backend, "systolic");
    assert_eq!(digital.spec.backend, DEFAULT_BACKEND);
    for status in [&systolic, &digital] {
        assert_eq!(status.state, JobState::Failed);
        let error = status.error.as_deref().unwrap_or_default();
        assert!(error.contains("unknown field `digital`"), "{error}");
    }

    assert_eq!(clean.state, JobState::Done, "{:?}", clean.error);

    // The retired names are refused at admission, naming them.
    for status in [&optimizer, &backend, &systolic] {
        let body = lcda_base::json::to_string(&status.spec);
        let (code, reply) = http(server.addr(), "POST", "/jobs", &body);
        assert_eq!(code, 400, "{body}: {reply}");
        let name = if status.spec.optimizer == "resilient" {
            "`resilient`".to_string()
        } else {
            format!("`{}`", status.spec.backend)
        };
        assert!(reply.contains(&name), "{reply}");
    }
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server that is never shut down (a `kill -9`, a Ctrl-C) must still
/// leave its shared store on disk: the store is saved when a job that
/// admitted entries ends, so a restart on the same `cache_path` serves
/// the same spec from the loaded entries.
#[test]
fn the_store_survives_a_server_that_never_shuts_down() {
    let dir = std::env::temp_dir().join(format!("lcda-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("store.json");
    let config = || ServeConfig {
        workers: 1,
        cache_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let spec = r#"{"episodes": 3, "seed": 13}"#;

    let server = JobServer::bind(config()).expect("bind");
    let (code, body) = http(server.addr(), "POST", "/jobs", spec);
    assert_eq!(code, 202, "{body}");
    let first = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(first.state, JobState::Done, "{:?}", first.error);
    let inserts = first.cache.expect("terminal jobs publish stats").inserts;
    assert!(inserts > 0, "the job must admit entries");
    // Dropping the handle joins the threads but saves nothing itself.
    drop(server);

    let loaded = CacheStore::load(&path, None).expect("the job's end saved the store");
    assert_eq!(loaded.len() as u64, inserts, "every entry the job admitted");

    let server = JobServer::bind(config()).expect("rebind on the saved store");
    let (code, body) = http(server.addr(), "POST", "/jobs", spec);
    assert_eq!(code, 202, "{body}");
    let second = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(second.state, JobState::Done, "{:?}", second.error);
    let stats = second.cache.expect("terminal jobs publish stats");
    assert!(
        stats.cross_run_hits > 0,
        "the restarted server must serve the saved entries: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "an identical rerun misses nothing");
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `checkpoint_every: 4` on a 10-episode job checkpoints after episodes
/// 4 and 8 only, and a restart from that log (the WAL of a job killed
/// while running) finishes the job to the offline run's exact bytes.
#[test]
fn a_sparse_checkpoint_cadence_resumes_byte_identically() {
    use lcda::core::wal::{encode_line, WalEntry, WalRecord, WAL_FILE};

    let root = std::env::temp_dir().join(format!("lcda-serve-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = |dir: &std::path::Path| ServeConfig {
        workers: 1,
        journal_dir: Some(dir.to_path_buf()),
        checkpoint_every: 4,
        ..ServeConfig::default()
    };
    let spec = JobSpec {
        episodes: 10,
        seed: 17,
        ..JobSpec::default()
    };

    let first_dir = root.join("first");
    let server = JobServer::bind(config(&first_dir)).expect("bind");
    let id = server.submit(spec.clone()).expect("admit");
    let status = wait_terminal(&server, id);
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    server.shutdown().expect("shutdown");

    // A header line plus one line per save: episodes 4 and 8, not 10.
    let log = first_dir.join("job-1.ckpt.json");
    let text = std::fs::read_to_string(&log).expect("read checkpoint log");
    assert_eq!(text.lines().count(), 3, "{text}");
    let (checkpoint, generation) = CheckpointStore::new(&log, 2)
        .unwrap()
        .load_latest()
        .expect("load checkpoint log")
        .expect("a checkpoint log exists");
    assert_eq!((checkpoint.episodes_done(), generation), (8, 0));

    // The state `kill -9` leaves after episode 8: admitted + running in
    // the WAL, and that checkpoint log.
    let crash_dir = root.join("crash");
    std::fs::create_dir_all(&crash_dir).expect("crash dir");
    std::fs::copy(&log, crash_dir.join("job-1.ckpt.json")).expect("copy log");
    let mut wal = String::new();
    let entries = [
        WalEntry::Admitted {
            job: 1,
            spec: Box::new(spec),
        },
        WalEntry::Transition {
            job: 1,
            state: JobState::Running,
            error: None,
        },
    ];
    for (seq, entry) in entries.into_iter().enumerate() {
        let record = WalRecord {
            seq: seq as u64,
            entry,
        };
        wal.push_str(&encode_line(&record).expect("encode"));
        wal.push('\n');
    }
    std::fs::write(crash_dir.join(WAL_FILE), wal).expect("write wal");

    let server = JobServer::bind(config(&crash_dir)).expect("bind on the crashed ledger");
    let status = wait_terminal(&server, "job-1".parse().unwrap());
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert!(status.recovered);
    let journal = std::fs::read_to_string(crash_dir.join("job-1.jsonl")).expect("job journal");
    assert!(
        journal
            .lines()
            .any(|l| l.contains("\"job_recovered\"") && l.contains("\"episodes_done\":8")),
        "the restart must resume from episode 8:\n{journal}"
    );
    let (code, served) = http(server.addr(), "GET", "/jobs/job-1/result", "");
    assert_eq!(code, 200);
    server.shutdown().expect("shutdown");

    let offline = std::process::Command::new(env!("CARGO_BIN_EXE_lcda"))
        .args(["search", "--episodes", "10", "--seed", "17", "--json"])
        .output()
        .expect("run lcda search");
    assert!(offline.status.success());
    assert_eq!(
        served.as_bytes(),
        offline.stdout.as_slice(),
        "the resumed job must equal `lcda search --json`"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The WAL states a journal directory's ledger recorded for `job`.
fn wal_states(dir: &std::path::Path, job: u64) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join(lcda::core::wal::WAL_FILE)).expect("read WAL");
    text.lines()
        .map(|line| lcda_base::json::Value::parse(line).expect("WAL line"))
        .filter(|record| record["job"].as_u64() == Some(job) && record["entry"] == "transition")
        .map(|record| record["state"].as_str().unwrap_or_default().to_string())
        .collect()
}

/// Waits until the job has been claimed by a worker.
fn wait_running(server: &JobServer, id: JobId) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.status(id).expect("known job").state == JobState::Queued {
        assert!(Instant::now() < deadline, "{id} was never claimed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn shutdown_leaves_queued_jobs_queued_for_the_next_bind() {
    let dir = std::env::temp_dir().join(format!("lcda-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = JobServer::bind(config()).expect("bind");
    // A job that runs until its deadline, whatever the build: long
    // enough to still be running when the queued jobs are admitted.
    let long = server
        .submit(JobSpec {
            optimizer: "rl".into(),
            episodes: 1_000_000,
            deadline_secs: Some(2),
            ..JobSpec::default()
        })
        .expect("admit the long job");
    wait_running(&server, long);
    let queued: Vec<(JobId, u32, u64)> = [(3, 31), (4, 32), (2, 33)]
        .into_iter()
        .map(|(episodes, seed)| {
            let spec = JobSpec {
                episodes,
                seed,
                ..JobSpec::default()
            };
            (server.submit(spec).expect("admit"), episodes, seed)
        })
        .collect();
    server.shutdown().expect("shutdown");

    // The running job finished; the queued ones were never claimed.
    assert_eq!(wal_states(&dir, long.index()), ["running", "failed"]);
    for (id, _, _) in &queued {
        assert!(wal_states(&dir, id.index()).is_empty(), "{id} was claimed");
    }

    let server = JobServer::bind(config()).expect("rebind");
    for (id, episodes, seed) in &queued {
        let status = wait_terminal(&server, *id);
        assert_eq!(status.state, JobState::Done, "{id}: {:?}", status.error);
        let (code, served) = http(server.addr(), "GET", &format!("/jobs/{id}/result"), "");
        assert_eq!(code, 200, "{served}");
        let offline = std::process::Command::new(env!("CARGO_BIN_EXE_lcda"))
            .args(["search", "--episodes", &episodes.to_string()])
            .args(["--seed", &seed.to_string(), "--json"])
            .output()
            .expect("run lcda search");
        assert!(offline.status.success());
        assert_eq!(
            served.as_bytes(),
            offline.stdout.as_slice(),
            "{id} must equal `lcda search --json`"
        );
    }
    assert_eq!(server.status(long).unwrap().state, JobState::Failed);
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn following_a_running_jobs_journal_streams_the_finished_file() {
    let dir = std::env::temp_dir().join(format!("lcda-serve-follow-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::bind(ServeConfig {
        workers: 1,
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let id = server
        .submit(JobSpec {
            optimizer: "rl".into(),
            episodes: 1_000_000,
            deadline_secs: Some(1),
            ..JobSpec::default()
        })
        .expect("admit");
    wait_running(&server, id);
    let (status, streamed) = http(server.addr(), "GET", &format!("/jobs/{id}/journal"), "");
    assert_eq!(status, 200);
    assert!(server.status(id).unwrap().state.is_terminal());
    let file = std::fs::read_to_string(dir.join(format!("{id}.jsonl"))).expect("journal file");
    assert!(file.ends_with('\n') && file.contains("\"job_ended\""));
    // Larger than one 64 KiB read of the stream.
    assert!(file.len() > 64 * 1024, "{} bytes", file.len());
    assert_eq!(
        streamed, file,
        "the stream must be the finished file's bytes"
    );
    server.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
