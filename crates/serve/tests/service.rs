//! End-to-end service tests: a real TCP server, a real client, a real store.

use qaprox_serve::{
    AdmissionConfig, Client, ClientError, JobSpec, RetryPolicy, RunSpec, SchedulerConfig, Server,
    ServerConfig, SynthSpec,
};
use qaprox_store::Store;
use std::sync::Arc;
use std::time::Duration;

fn tmp_store(tag: &str) -> Arc<Store> {
    let dir = std::env::temp_dir().join(format!("qaprox-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(Store::open(dir).unwrap())
}

fn tiny(seed: u64) -> SynthSpec {
    SynthSpec {
        workload: "tfim".into(),
        qubits: 2,
        steps: 2,
        max_cnots: 3,
        max_nodes: 25,
        max_hs: 0.4,
        seed,
        deadline_ms: None,
    }
}

const WAIT: Duration = Duration::from_secs(120);

/// A wide trajectory run that holds a worker for seconds in a release
/// build (about 5 s on a 2-core host; minutes in a debug one): 128 000
/// shots of two 10-qubit circuits. A cancel stops it at the next shot.
fn long_run() -> RunSpec {
    RunSpec {
        synth: SynthSpec {
            qubits: 10,
            steps: 2,
            ..tiny(1)
        },
        device: "toronto".into(),
        backend: Some("trajectory".into()),
        shots: Some(128_000),
        ..Default::default()
    }
}

/// Polls `id` until it reaches `state`.
fn await_state(client: &mut Client, id: u64, state: &str) {
    let start = std::time::Instant::now();
    while client.status(id).unwrap() != state {
        assert!(start.elapsed() < WAIT, "job {id} never reached {state}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn synth_and_run_round_trip_with_cache_hits() {
    let server = Server::start(ServerConfig::default(), Some(tmp_store("roundtrip"))).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // synth: first submission computes
    let spec = JobSpec::Synth(tiny(0));
    let (id, key, deduped) = client.submit(&spec).unwrap();
    assert!(!deduped);
    assert_eq!(key.len(), 32);
    let payload = client.wait_for_result(id, WAIT).unwrap();
    assert_eq!(payload.get_str("kind"), Some("synth"));
    assert_eq!(payload.get_bool("cached"), Some(false));
    assert_eq!(payload.get_str("key"), Some(key.as_str()));
    let explored = payload.get_u64("explored").unwrap();
    assert!(explored > 0);

    // identical resubmit: hits the store, no new synthesis nodes
    let (id2, key2, _) = client.submit(&spec).unwrap();
    assert_ne!(id2, id, "a finished job is re-submittable");
    assert_eq!(key2, key, "content address is stable");
    let payload2 = client.wait_for_result(id2, WAIT).unwrap();
    assert_eq!(payload2.get_bool("cached"), Some(true));
    assert_eq!(payload2.get_u64("explored"), Some(explored));

    // run: reuses the cached population, then caches its own result
    let run = JobSpec::Run(RunSpec {
        synth: tiny(0),
        device: "ourense".into(),
        cx_error: Some(0.1),
        hardware: false,
        job_seed: 0,
        epsilon: None,
        ..Default::default()
    });
    let (rid, _, _) = client.submit(&run).unwrap();
    let rpayload = client.wait_for_result(rid, WAIT).unwrap();
    assert_eq!(rpayload.get_str("kind"), Some("run"));
    assert_eq!(rpayload.get_bool("cached"), Some(false));
    assert_eq!(rpayload.get_bool("population_cached"), Some(true));
    assert!(rpayload.get_f64("ref_score").unwrap() > 0.0);

    let (rid2, _, _) = client.submit(&run).unwrap();
    let rpayload2 = client.wait_for_result(rid2, WAIT).unwrap();
    assert_eq!(rpayload2.get_bool("cached"), Some(true));

    // stats reflect the cache traffic
    let stats = client.stats().unwrap();
    assert!(stats.get_u64("completed").unwrap() >= 4);
    let store_stats = stats.get("store").unwrap();
    assert!(store_stats.get_u64("hits").unwrap() >= 2, "{stats:?}");
    assert!(store_stats.get_u64("populations").unwrap() >= 1);
    assert!(store_stats.get_u64("results").unwrap() >= 1);

    server.shutdown();
}

#[test]
fn protocol_rejects_malformed_requests_without_dying() {
    let server = Server::start(ServerConfig::default(), None).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    use qaprox_store::json::Json;
    let bad_op = client
        .request(&Json::obj(vec![("op", Json::Str("frobnicate".into()))]))
        .unwrap();
    assert_eq!(bad_op.get_bool("ok"), Some(false));

    let bad_spec = client
        .request(&Json::obj(vec![
            ("op", Json::Str("synth".into())),
            ("workload", Json::Str("nope".into())),
        ]))
        .unwrap();
    assert_eq!(bad_spec.get_bool("ok"), Some(false));

    let unknown_id = client.status(123456).unwrap_err();
    assert!(unknown_id.contains("unknown"), "{unknown_id}");

    // the connection is still usable afterwards
    let (id, _, _) = client.submit(&JobSpec::Synth(tiny(1))).unwrap();
    assert!(client.wait_for_result(id, WAIT).is_ok());

    server.shutdown();
}

#[test]
fn backpressure_and_cancel_over_the_wire() {
    let server = Server::start(
        ServerConfig {
            scheduler: SchedulerConfig {
                workers: 1,
                queue_capacity: 1,
                ..Default::default()
            },
            ..Default::default()
        },
        None,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    // fast retries so the worker is still busy when they exhaust
    let mut client = Client::connect(&addr).unwrap().with_retry(RetryPolicy {
        max_attempts: 2,
        base_ms: 1,
        cap_ms: 2,
        ..Default::default()
    });

    // hold the single worker with a long job, fill the queue of one, then
    // overflow
    let (busy, _, _) = client.submit(&JobSpec::Run(long_run())).unwrap();
    await_state(&mut client, busy, "running");
    let (queued, _, _) = client.submit(&JobSpec::Synth(tiny(11))).unwrap();
    let mut saw_backpressure = false;
    for seed in 12..24 {
        match client.submit(&JobSpec::Synth(tiny(seed))) {
            Err(qaprox_serve::ClientError::Backpressure { attempts }) => {
                assert!(attempts >= 2, "the client retried before giving up");
                saw_backpressure = true;
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(saw_backpressure, "a 1-deep queue must reject overflow");

    // cancel the queued job before the worker reaches it
    assert!(client.cancel(queued).unwrap());
    let state = client.status(queued).unwrap();
    assert_eq!(state, "cancelled");

    // the hold was still in place throughout, and lets go when cancelled
    assert_eq!(client.status(busy).unwrap(), "running");
    assert!(client.cancel(busy).unwrap());
    await_state(&mut client, busy, "cancelled");
    server.shutdown();
}

#[test]
fn recover_op_reports_the_replayed_journal() {
    let journal_dir =
        std::env::temp_dir().join(format!("qaprox-serve-e2e-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journaled = ServerConfig {
        scheduler: SchedulerConfig {
            journal_dir: Some(journal_dir.clone()),
            ..Default::default()
        },
        ..Default::default()
    };

    // first life: run one job to completion, shut down
    {
        let server = Server::start(journaled.clone(), Some(tmp_store("recover-a"))).unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        let (id, _, _) = client.submit(&JobSpec::Synth(tiny(0))).unwrap();
        client.wait_for_result(id, WAIT).unwrap();
        server.shutdown();
    }

    // second life: the recover op reports what the journal replayed
    let server = Server::start(journaled, Some(tmp_store("recover-b"))).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let report = client.recover().unwrap();
    assert_eq!(report.get_bool("ok"), Some(true));
    assert_eq!(report.get_u64("jobs_seen"), Some(1));
    assert_eq!(report.get_u64("restored_terminal"), Some(1));
    server.shutdown();

    // a journal-less server rejects the op
    let plain = Server::start(ServerConfig::default(), None).unwrap();
    let mut client = Client::connect(&plain.local_addr().to_string()).unwrap();
    let err = client.recover().unwrap();
    assert_eq!(err.get_bool("ok"), Some(false));
    plain.shutdown();
}

#[test]
fn read_deadline_surfaces_as_typed_timeout() {
    // a listener that accepts nothing: the connect succeeds (kernel
    // backlog), the request is written, and the reply never comes
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let mut client =
        Client::connect_timeout(&addr, Duration::from_secs(5), Duration::from_millis(100)).unwrap();
    use qaprox_store::json::Json;
    let err = client
        .request_typed(&Json::obj(vec![("op", Json::Str("stats".into()))]))
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Timeout(_)),
        "a silent server must surface as the typed timeout, got {err:?}"
    );
    drop(listener);

    // against a live server the same deadlines are generous, so the client
    // behaves exactly like the untimed one
    let server = Server::start(ServerConfig::default(), None).unwrap();
    let mut client = Client::connect_timeout(
        &server.local_addr().to_string(),
        Duration::from_secs(5),
        Duration::from_secs(30),
    )
    .unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_bool("ok"), Some(true));
    server.shutdown();
}

#[test]
fn admission_control_rejections_reach_the_client_typed() {
    // a synth cost budget of zero turns every synthesis job away
    let server = Server::start(
        ServerConfig {
            scheduler: SchedulerConfig {
                admission: AdmissionConfig {
                    max_synth_cost: Some(0),
                    retry_after_ms: 13,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        },
        None,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap().with_retry(RetryPolicy {
        max_attempts: 2,
        base_ms: 1,
        cap_ms: 2,
        ..Default::default()
    });

    match client.submit(&JobSpec::Synth(tiny(0))) {
        Err(ClientError::Overloaded { retry_after_ms }) => {
            assert_eq!(retry_after_ms, 13, "the server's backoff hint rides along");
        }
        other => panic!("over-budget submission must be typed Overloaded: {other:?}"),
    }

    // the stats op surfaces the overload counters and breaker states
    let stats = client.stats().unwrap();
    assert!(stats.get_u64("overloaded").unwrap() >= 2, "{stats:?}");
    assert_eq!(stats.get_u64("submitted"), Some(0), "nothing was admitted");
    assert_eq!(stats.get_u64("queued_cost"), Some(0));
    assert_eq!(stats.get_u64("shed"), Some(0));
    assert_eq!(stats.get_u64("quarantined"), Some(0));
    assert!(stats.get("breakers").is_some(), "{stats:?}");

    server.shutdown();
}

#[test]
fn shutdown_op_stops_the_accept_loop() {
    let server = Server::start(ServerConfig::default(), None).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    // joins promptly because the handler wakes the accept loop
    server.wait_for_shutdown();
}

#[test]
fn oversized_and_deeply_nested_lines_get_errors_and_the_server_lives_on() {
    use qaprox_serve::server::MAX_REQUEST_LINE_BYTES;
    use qaprox_store::json::{parse, Json};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let server = Server::start(ServerConfig::default(), None).unwrap();
    let addr = server.local_addr();
    // one raw request line on a fresh connection: the parsed reply, plus
    // the connection to read on from
    let send = |line: &[u8]| -> (Json, BufReader<TcpStream>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(line).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        (parse(&reply).unwrap(), reader)
    };

    // one byte over the cap: a typed error, then the connection closes
    let (reply, mut rest) = send(&vec![b' '; MAX_REQUEST_LINE_BYTES + 1]);
    assert_eq!(reply.get_bool("ok"), Some(false));
    assert_eq!(reply.get_bool("too_long"), Some(true), "{reply:?}");
    assert_eq!(rest.read_line(&mut String::new()).unwrap(), 0, "not closed");

    // 100k nested arrays: a parse error, not a stack overflow
    let (reply, _) = send("[".repeat(100_000).as_bytes());
    assert_eq!(reply.get_bool("ok"), Some(false));
    let error = reply.get_str("error").unwrap();
    assert!(error.contains("nesting deeper"), "{error}");

    // the server still answers the next client
    let mut client = Client::connect(&addr.to_string()).unwrap();
    assert_eq!(client.stats().unwrap().get_bool("ok"), Some(true));
    server.shutdown();
}
