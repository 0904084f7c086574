//! End-to-end tests of the `tus-serve` daemon over a real TCP socket.
//!
//! Each test binds an ephemeral loopback port, runs the daemon on a
//! background thread, and speaks the real frame protocol through
//! `TcpStream` — the same bytes a remote client would send. The unix
//! socket path shares every line of code above the listener, so TCP
//! coverage is transport coverage.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use tus_harness::protocol::{decode_error, read_frame, write_frame, Frame, FrameKind, ReadOutcome};
use tus_harness::serve::{bind, ServeOptions};

/// A daemon running on a background thread, plus the address to dial.
struct TestServer {
    addr: std::net::SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    out: PathBuf,
}

fn start(configure: impl FnOnce(&mut ServeOptions)) -> TestServer {
    let out = std::env::temp_dir().join(format!(
        "tus-serve-test-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
    ));
    let mut opt = ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        jobs: 2,
        handlers: 2,
        out: out.clone(),
        ..ServeOptions::default()
    };
    configure(&mut opt);
    let bound = bind(opt).expect("bind ephemeral port");
    let addr = bound.tcp_addr().expect("tcp listener");
    let handle = std::thread::spawn(move || bound.run());
    TestServer { addr, handle, out }
}

impl TestServer {
    fn dial(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
        s
    }

    /// Sends one request and collects frames until a terminal reply.
    fn request(&self, kind: FrameKind, body: &str) -> Vec<Frame> {
        let mut s = self.dial();
        request_on(&mut s, kind, body)
    }

    /// Asks the daemon to shut down and joins it.
    fn shutdown(self) {
        let frames = self.request(FrameKind::Shutdown, "");
        assert_eq!(frames.last().expect("reply").kind, FrameKind::ShutdownOk);
        self.handle
            .join()
            .expect("server thread did not panic")
            .expect("clean shutdown");
        let _ = std::fs::remove_dir_all(&self.out);
    }
}

/// Sends one request on an existing connection, collecting the reply
/// stream (progress frames included) up to and including the terminal
/// frame.
fn request_on(s: &mut TcpStream, kind: FrameKind, body: &str) -> Vec<Frame> {
    write_frame(s, kind, body).expect("send");
    let mut frames = Vec::new();
    loop {
        match read_frame(s).expect("read reply") {
            ReadOutcome::Frame(f) => {
                let terminal = f.kind.is_terminal_reply();
                frames.push(f);
                if terminal {
                    return frames;
                }
            }
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }
}

fn terminal(frames: &[Frame]) -> &Frame {
    frames.last().expect("at least one frame")
}

/// A reply's `key=value` header lines, up to the first blank line.
fn headers(body: &str) -> std::collections::HashMap<&str, &str> {
    body.lines()
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_once('=').expect("key=value header line"))
        .collect()
}

const POINT: &str = "workload=502.gcc1-like\npolicy=tus\nsb=114\nscale=quick\n";

#[test]
fn ping_echoes_and_daemon_shuts_down_cleanly() {
    let server = start(|_| {});
    let frames = server.request(FrameKind::Ping, "hello daemon");
    assert_eq!(frames.len(), 1);
    assert_eq!(terminal(&frames).kind, FrameKind::Pong);
    assert_eq!(terminal(&frames).body, "hello daemon");
    server.shutdown();
}

/// The tentpole claim: a warm daemon serves a repeated experiment point
/// with **zero** new simulations, and the result is bit-identical to a
/// direct in-process run.
#[test]
fn warm_point_requests_execute_zero_simulations() {
    let server = start(|_| {});

    let cold = server.request(FrameKind::RunPoint, POINT);
    let done = terminal(&cold);
    assert_eq!(done.kind, FrameKind::RunDone);
    assert!(cold.iter().any(|f| f.kind == FrameKind::Progress), "progress streamed");
    let (_, payload) = done.body.split_once("\n\n").expect("header + result");
    let h = headers(&done.body);
    assert_eq!(h["executed"], "1", "cold request simulates");

    // Bit-exact vs the direct (non-daemon) path.
    let spec = tus_harness::RunSpec::new(
        tus_workloads::by_name("502.gcc1-like").expect("exists"),
        tus_sim::PolicyKind::Tus,
        114,
        tus_harness::Scale::Quick,
    );
    let direct = tus_harness::run(&spec);
    assert_eq!(
        payload,
        tus_harness::executor::encode_result(&direct, &spec.memo_key()),
        "daemon result must be bit-identical to a direct run"
    );

    // Warm repeat: same point, zero executions, served from memo.
    let warm = server.request(FrameKind::RunPoint, POINT);
    let done = terminal(&warm);
    assert_eq!(done.kind, FrameKind::RunDone);
    let (_, warm_payload) = done.body.split_once("\n\n").expect("header + result");
    let h = headers(&done.body);
    assert_eq!(h["executed"], "0", "warm request must not simulate");
    assert_eq!(h["memo_hits"], "1");
    assert_eq!(warm_payload, payload, "warm bytes identical to cold bytes");

    server.shutdown();
}

/// Satellite: an unknown workload comes back as a structured error frame
/// with the `unknown_workload` kind token — and the daemon (same
/// connection!) keeps serving.
#[test]
fn unknown_workload_is_a_structured_error_and_daemon_survives() {
    let server = start(|_| {});
    let mut s = server.dial();

    let frames = request_on(
        &mut s,
        FrameKind::RunPoint,
        "workload=no-such-workload\npolicy=tus\nsb=114\nscale=quick\n",
    );
    let err = terminal(&frames);
    assert_eq!(err.kind, FrameKind::Error);
    let (token, message) = decode_error(&err.body);
    assert_eq!(token, "unknown_workload");
    assert!(message.contains("no-such-workload"));
    assert!(message.contains("505.mcf-like"), "lists valid names");

    // Same connection still works.
    let frames = request_on(&mut s, FrameKind::Ping, "still alive?");
    assert_eq!(terminal(&frames).body, "still alive?");

    // Unknown experiment takes the same path.
    let frames = request_on(&mut s, FrameKind::Experiment, "name=fig99\n");
    let (token, _) = decode_error(&terminal(&frames).body);
    assert_eq!(token, "unknown_experiment");

    server.shutdown();
}

/// An unknown coherence backend or kernel in the request headers is a
/// structured protocol-error frame (never a panic) listing the valid
/// names, a valid `coherence=tardis` point runs under the timestamp
/// backend, and the two backends memoize under distinct keys — all on
/// one surviving connection.
#[test]
fn coherence_backend_header_is_validated_and_routed() {
    let server = start(|_| {});
    let mut s = server.dial();

    let frames = request_on(&mut s, FrameKind::RunPoint, &format!("{POINT}coherence=moesi\n"));
    let err = terminal(&frames);
    assert_eq!(err.kind, FrameKind::Error);
    let (token, message) = decode_error(&err.body);
    assert_eq!(token, "protocol");
    assert!(message.contains("moesi") && message.contains("tardis"), "lists valid backends");

    let frames = request_on(&mut s, FrameKind::RunPoint, &format!("{POINT}kernel=skip\n"));
    let err = terminal(&frames);
    assert_eq!(err.kind, FrameKind::Error);
    let (token, message) = decode_error(&err.body);
    assert_eq!(token, "protocol");
    assert!(message.contains("\"skip\""), "names the bad kernel: {message}");
    assert!(message.ends_with("known: lockstep event"), "lists valid kernels: {message}");

    // Same connection: the tardis leg of the same point simulates fine.
    let frames = request_on(&mut s, FrameKind::RunPoint, &format!("{POINT}coherence=tardis\n"));
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::RunDone);
    let tardis_key = done
        .body
        .lines()
        .find_map(|l| l.strip_prefix("key="))
        .expect("key header")
        .to_owned();
    assert!(tardis_key.contains("cotardis"), "memo key records the backend: {tardis_key}");

    // The mesi leg of the same point is a different memo entry: it must
    // execute a fresh simulation, not recall the tardis result.
    let frames = request_on(&mut s, FrameKind::RunPoint, &format!("{POINT}coherence=mesi\n"));
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::RunDone);
    let h = headers(&done.body);
    assert_eq!(h["executed"], "1", "backends must not share memo entries");

    server.shutdown();
}

/// A header the request kind does not take is refused, not ignored: a
/// `RunPoint` carrying `insts=` (a trace setting) or a misspelt
/// `kernal=` gets a `protocol` error naming the key instead of running
/// the default spec, and the connection keeps serving.
#[test]
fn unknown_request_headers_are_refused() {
    let server = start(|_| {});
    let mut s = server.dial();
    for key in ["insts=100", "kernal=lockstep"] {
        let frames = request_on(&mut s, FrameKind::RunPoint, &format!("{POINT}{key}\n"));
        let err = terminal(&frames);
        assert_eq!(err.kind, FrameKind::Error, "{key} must be refused");
        let (token, message) = decode_error(&err.body);
        assert_eq!(token, "protocol");
        let name = key.split_once('=').expect("key=value").0;
        assert!(message.contains(&format!("{name:?}")), "names the key: {message}");
    }
    let frames = request_on(&mut s, FrameKind::Ping, "still here");
    assert_eq!(terminal(&frames).body, "still here");
    server.shutdown();
}

/// Satellite 4: a budget-starved request comes back over the socket as a
/// structured `deadlock` error frame carrying the simulator's
/// `BudgetExhausted` report — and the daemon still serves the next
/// request afterwards.
#[test]
fn budget_expiry_is_a_structured_deadlock_reply() {
    let server = start(|_| {});

    let starved = format!("{POINT}budget=100\n");
    let frames = server.request(FrameKind::RunPoint, &starved);
    let err = terminal(&frames);
    assert_eq!(err.kind, FrameKind::Error);
    let (token, message) = decode_error(&err.body);
    assert_eq!(token, "deadlock");
    assert!(
        message.contains("budget") && message.contains("100"),
        "reply must carry the BudgetExhausted report, got: {message}"
    );

    // The failed attempt was not cached; the daemon happily runs the same
    // point to completion next.
    let frames = server.request(FrameKind::RunPoint, POINT);
    assert_eq!(terminal(&frames).kind, FrameKind::RunDone);

    server.shutdown();
}

/// A `wall_ms=` request header bounds the run in host wall-clock time:
/// an impossible deadline comes back as a structured `deadlock` error
/// frame carrying the `WallClockExpired` report, the failed attempt is
/// not cached, and the daemon keeps serving.
#[test]
fn wall_clock_expiry_is_a_structured_deadlock_reply() {
    let server = start(|_| {});

    let strangled = format!("{POINT}wall_ms=0\n");
    let frames = server.request(FrameKind::RunPoint, &strangled);
    let err = terminal(&frames);
    assert_eq!(err.kind, FrameKind::Error);
    let (token, message) = decode_error(&err.body);
    assert_eq!(token, "deadlock");
    assert!(
        message.contains("wall-clock") && message.contains("0 ms"),
        "reply must carry the WallClockExpired report, got: {message}"
    );

    // A generous deadline on the same point completes — proving the
    // expired attempt was not cached — and its result is bit-identical
    // to the wall-free path (the deadline only bounds, never perturbs).
    let roomy = format!("{POINT}wall_ms=600000\n");
    let frames = server.request(FrameKind::RunPoint, &roomy);
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::RunDone);
    let (_, payload) = done.body.split_once("\n\n").expect("header + result");

    let spec = tus_harness::RunSpec::new(
        tus_workloads::by_name("502.gcc1-like").expect("exists"),
        tus_sim::PolicyKind::Tus,
        114,
        tus_harness::Scale::Quick,
    );
    let direct = tus_harness::run(&spec);
    assert_eq!(
        payload,
        tus_harness::executor::encode_result(&direct, &spec.memo_key()),
        "wall-bounded result must be bit-identical to an unbounded run"
    );

    server.shutdown();
}

/// A server-wide `--max-budget` ceiling clamps every request, including
/// ones that ask for no budget at all.
#[test]
fn server_budget_ceiling_applies_to_all_requests() {
    let server = start(|opt| opt.max_budget = Some(100));
    let frames = server.request(FrameKind::RunPoint, POINT);
    let (token, _) = decode_error(&terminal(&frames).body);
    assert_eq!(token, "deadlock", "ceiling must starve the unbudgeted request");
    server.shutdown();
}

/// Malformed bytes — a bogus frame kind, a huge length prefix — get a
/// structured protocol error, and only that connection dies.
#[test]
fn malformed_frames_get_protocol_errors_not_a_dead_daemon() {
    let server = start(|_| {});

    // Unknown frame kind.
    let mut s = server.dial();
    s.write_all(&[5u8, 0, 0, 0, 0x7f, b'x', b'x', b'x', b'x']).expect("send");
    match read_frame(&mut s).expect("reply") {
        ReadOutcome::Frame(f) => {
            assert_eq!(f.kind, FrameKind::Error);
            assert_eq!(decode_error(&f.body).0, "protocol");
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // Oversized length prefix: rejected before any allocation.
    let mut s = server.dial();
    s.write_all(&u32::MAX.to_le_bytes()).expect("send");
    s.write_all(&[0x01]).expect("send");
    match read_frame(&mut s).expect("reply") {
        ReadOutcome::Frame(f) => assert_eq!(f.kind, FrameKind::Error),
        other => panic!("expected error frame, got {other:?}"),
    }

    // A reply-kind frame sent as a request is also a protocol error.
    let frames = server.request(FrameKind::Pong, "");
    assert_eq!(decode_error(&terminal(&frames).body).0, "protocol");

    // The daemon outlived all three abusive connections.
    let frames = server.request(FrameKind::Ping, "ok");
    assert_eq!(terminal(&frames).kind, FrameKind::Pong);
    server.shutdown();
}

/// A request frame that arrives in two parts, further apart than the
/// daemon's 500 ms read poll, is still one request: split inside the
/// length prefix (after byte 2) or inside the body (after byte 5), it is
/// answered with a `Pong`, and the connection and the daemon keep
/// serving.
#[test]
fn a_frame_paused_mid_way_is_still_one_request() {
    let server = start(|_| {});
    let mut wire = Vec::new();
    write_frame(&mut wire, FrameKind::Ping, "hello").expect("encode");
    let mut s = server.dial();
    for split in [2, 5] {
        s.write_all(&wire[..split]).expect("send head");
        s.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(800));
        s.write_all(&wire[split..]).expect("send rest");
        match read_frame(&mut s).expect("reply") {
            ReadOutcome::Frame(f) => assert_eq!(
                (f.kind, f.body.as_str()),
                (FrameKind::Pong, "hello"),
                "split after byte {split}"
            ),
            other => panic!("split after byte {split}: expected pong, got {other:?}"),
        }
    }
    let frames = request_on(&mut s, FrameKind::Ping, "still here");
    assert_eq!(terminal(&frames).body, "still here");
    let frames = server.request(FrameKind::Ping, "new connection");
    assert_eq!(terminal(&frames).kind, FrameKind::Pong);
    server.shutdown();
}

/// The counters endpoint aggregates executor state across clients.
#[test]
fn counters_reflect_shared_executor_state() {
    let server = start(|_| {});
    let _ = server.request(FrameKind::RunPoint, POINT);
    let _ = server.request(FrameKind::RunPoint, POINT);
    let frames = server.request(FrameKind::Counters, "");
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::CountersReply);
    let h = headers(&done.body);
    assert_eq!(h["executed"], "1", "one simulation across both requests");
    assert_eq!(h["memo_hits"], "1");
    assert!(h["requests"].parse::<u64>().expect("requests") >= 3);
    server.shutdown();
}

/// A tiny fuzz sweep runs over the wire, streams progress, and reports a
/// clean verdict.
#[test]
fn fuzz_sweep_over_the_wire() {
    let server = start(|_| {});
    let frames = server.request(FrameKind::FuzzSweep, "programs=3\nseeds=2\nseed=1\n");
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::FuzzDone);
    let h = headers(&done.body);
    assert_eq!(h["programs"], "3");
    assert_eq!(h["violations"], "0");
    assert!(frames.iter().any(|f| f.kind == FrameKind::Progress));
    server.shutdown();
}

/// An experiment's reply carries its rendered tables: `table1`'s is
/// Table I, which the daemon used to print on its own stdout. Each
/// experiment's cost comes as a progress line.
#[test]
fn experiment_reply_holds_its_tables() {
    let server = start(|_| {});
    let frames = server.request(FrameKind::Experiment, "name=table1\n");
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::ExperimentDone);
    let h = headers(&done.body);
    assert_eq!((h["name"], h["executed"]), ("table1", "0"));
    let (_, tables) = done.body.split_once("\n\n").expect("headers, then tables");
    let table1 = tus_sim::SimConfig::default().render_table1();
    assert_eq!(tables, format!("{table1}\n"));
    assert!(
        frames
            .iter()
            .any(|f| f.kind == FrameKind::Progress && f.body.starts_with("table1: ")),
        "a per-experiment progress line"
    );
    server.shutdown();
}

/// A fuzz finding's reply carries its shrunk program and the corpus
/// paths the daemon wrote under its `out`, which the daemon used to print
/// on its own stderr. Program 20 of stream 4 is the open TUS violation
/// whose repro is `results/fuzz-open/mesi/seed4-case20.txt` (ROADMAP.md,
/// item 1): a fix of it moves this test, as it moves
/// `crates/tso/tests/fuzz_verdicts.rs`.
#[test]
fn fuzz_findings_carry_their_repro_and_paths() {
    let server = start(|_| {});
    let frames = server.request(FrameKind::FuzzSweep, "programs=21\nseeds=16\nseed=4\n");
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::FuzzDone);
    assert_eq!(headers(&done.body)["violations"], "1");
    assert!(
        done.body.contains("--- VIOLATION (program 20) ---\n"),
        "{}",
        done.body
    );
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let repro = std::fs::read_to_string(format!("{root}results/fuzz-open/mesi/seed4-case20.txt"))
        .expect("the committed repro");
    let shrunk = tus_tso::fuzz::decode_case(&repro).expect("parses").case;
    assert!(
        done.body.contains(&format!("\n{shrunk}")),
        "shrunk program: {}",
        done.body
    );
    let corpus = server.out.join("fuzz-corpus");
    for file in ["seed4-case20.orig.txt", "seed4-case20.txt"] {
        let path = corpus.join(file);
        let line = format!("persisted: {}\n", path.display());
        assert!(done.body.contains(&line), "{line}: {}", done.body);
    }
    let persisted = std::fs::read_to_string(corpus.join("seed4-case20.txt")).expect("persisted");
    assert_eq!(persisted, repro);
    server.shutdown();
}

/// A bounded model check runs over the wire: the default litmus sweep
/// verifies every program, streams progress, and reports per-policy
/// exploration stats; a named-selection check and a generated-program
/// check ride the same request kind; an unknown litmus name is a
/// structured protocol error that leaves the connection serving.
#[test]
fn model_check_over_the_wire() {
    let server = start(|_| {});
    let mut s = server.dial();

    // Full litmus library (the header-free default), sim cross-check on.
    let frames = request_on(&mut s, FrameKind::Check, "seeds=2\n");
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::CheckDone);
    let (_, rendered) = done.body.split_once("\n\n").expect("header + body");
    let h = headers(&done.body);
    assert_eq!(h["programs"], "18");
    assert_eq!(h["verified"], "18");
    assert_eq!(h["violations"], "0");
    assert_eq!(h["bound_exceeded"], "0");
    assert!(h["explored"].parse::<u64>().expect("explored") > 0);
    assert!(rendered.contains("TUS"), "per-policy stats table: {rendered}");
    assert!(frames.iter().any(|f| f.kind == FrameKind::Progress));

    // Named selection plus generated programs on the same connection.
    let frames = request_on(&mut s, FrameKind::Check, "litmus=SB,MP\nprograms=2\nseeds=0\n");
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::CheckDone);
    let h = headers(&done.body);
    assert_eq!(h["programs"], "4");
    assert_eq!(h["violations"], "0");

    // Unknown litmus name: structured error, connection survives.
    let frames = request_on(&mut s, FrameKind::Check, "litmus=no-such-test\n");
    let err = terminal(&frames);
    assert_eq!(err.kind, FrameKind::Error);
    let (token, message) = decode_error(&err.body);
    assert_eq!(token, "protocol");
    assert!(message.contains("no-such-test"));
    let frames = request_on(&mut s, FrameKind::Ping, "still here");
    assert_eq!(terminal(&frames).body, "still here");

    server.shutdown();
}

/// A trace capture returns the Chrome-trace JSON document in the reply
/// frame; a budget-starved capture returns a structured deadlock error.
#[test]
fn trace_capture_over_the_wire() {
    let server = start(|_| {});
    let frames = server.request(
        FrameKind::TraceCapture,
        "workload=502.gcc1-like\npolicy=tus\nsb=32\ninsts=3000\n",
    );
    let done = terminal(&frames);
    assert_eq!(done.kind, FrameKind::TraceDone);
    assert!(done.body.starts_with("{\"traceEvents\": ["));
    assert!(done.body.trim_end().ends_with("]}"));

    let frames = server.request(
        FrameKind::TraceCapture,
        "workload=502.gcc1-like\npolicy=tus\nsb=32\ninsts=3000\nbudget=10\n",
    );
    assert_eq!(decode_error(&terminal(&frames).body).0, "deadlock");
    server.shutdown();
}

/// The unix-socket transport serves the same protocol (and cleans up its
/// socket file on shutdown).
#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("tus-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let out = std::env::temp_dir().join(format!("tus-serve-unix-out-{}", std::process::id()));
    let bound = bind(ServeOptions {
        socket: Some(path.clone()),
        jobs: 1,
        handlers: 1,
        out: out.clone(),
        ..ServeOptions::default()
    })
    .expect("bind unix socket");
    let handle = std::thread::spawn(move || bound.run());

    let mut s = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    write_frame(&mut s, FrameKind::Ping, "over unix").expect("send");
    match read_frame(&mut s).expect("reply") {
        ReadOutcome::Frame(f) => {
            assert_eq!(f.kind, FrameKind::Pong);
            assert_eq!(f.body, "over unix");
        }
        other => panic!("expected pong, got {other:?}"),
    }
    write_frame(&mut s, FrameKind::Shutdown, "").expect("send");
    match read_frame(&mut s).expect("reply") {
        ReadOutcome::Frame(f) => assert_eq!(f.kind, FrameKind::ShutdownOk),
        other => panic!("expected shutdown-ok, got {other:?}"),
    }
    handle.join().expect("no panic").expect("clean shutdown");
    assert!(!path.exists(), "socket file removed on shutdown");
    let _ = std::fs::remove_dir_all(&out);
}

/// Out-of-band shutdown (`Server::request_shutdown`) also drains the
/// daemon — even with an idle client connection held open.
#[test]
fn out_of_band_shutdown_drains_with_idle_connection_open() {
    let server = start(|_| {});
    let bound_handle = server.dial(); // idle connection, never speaks
    let started = Instant::now();

    // Reach in via a normal request first so the daemon is demonstrably
    // busy-capable, then flip the flag from outside.
    let frames = server.request(FrameKind::Ping, "x");
    assert_eq!(terminal(&frames).kind, FrameKind::Pong);
    server.shutdown();
    drop(bound_handle);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "shutdown must not hang on the idle connection"
    );
}
