//! `tus-serve` — a long-lived simulation daemon.
//!
//! The harness used to pay full cache/page-pool construction — and a
//! cold memo map — on every CLI invocation. This module turns it into a
//! service: one warm process owning a single [`Executor`] (in-process
//! memo + on-disk `.runcache`) serves many clients over a unix socket
//! and/or TCP, so the thousandth request for a popular experiment point
//! costs a memo lookup instead of a simulation.
//!
//! The shape is deliberately std-only and hand-rolled, like the
//! executor's worker pool: per-listener accept threads feed accepted
//! connections into an mpsc channel drained by a fixed pool of handler
//! threads. Each connection speaks the length-prefixed frame protocol of
//! [`crate::protocol`] and may issue any number of requests
//! back-to-back.
//!
//! **Nothing a client sends can kill the daemon.** Malformed frames
//! become structured error replies; unknown workload/experiment names
//! come back as [`HarnessError`] replies; per-request cycle budgets are
//! enforced by the simulator's own watchdog machinery and returned as
//! rendered [`tus::DeadlockReport`]s; and every handler runs under
//! `catch_unwind`, so even a panicking simulation job is a single error
//! reply — the executor's locks recover from poisoning and the next
//! request proceeds.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::args::{
    cli_usage, missing, usage_error, Args, Command, Flag, BUDGET, COHERENCE, FULL, JOBS, KERNEL,
    NORMAL, NO_CACHE, OUT, POLICY, QUICK, SB, SEED,
};
use crate::errors::{panic_message, workload, HarnessError};
use crate::executor::{encode_result, Executor};
use crate::protocol::{encode_error, read_frame, write_frame, Frame, FrameKind, ReadOutcome};
use crate::request::{by_kind, Progress, Reply, Side};
use crate::runner::{RunSpec, Scale};

/// How long a handler blocks waiting for the next request frame before
/// re-checking the shutdown flag. Keeps persistent idle connections from
/// pinning the daemon open across a shutdown.
const READ_POLL: Duration = Duration::from_millis(500);

/// How long an accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// After a malformed frame, how long the handler reads and discards
/// what the client sent before it drops the connection.
const DRAIN_WAIT: Duration = Duration::from_millis(100);

/// Daemon configuration (the `serve` subcommand's flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (e.g. `127.0.0.1:9118`); `None` = no TCP.
    pub tcp: Option<String>,
    /// Unix-socket path; `None` = no unix socket.
    pub socket: Option<PathBuf>,
    /// Simulation worker threads inside the shared executor.
    pub jobs: usize,
    /// Concurrent connection-handler threads.
    pub handlers: usize,
    /// Output directory: experiment CSVs, fuzz corpus and the shared
    /// `.runcache` all land here.
    pub out: PathBuf,
    /// Whether the shared on-disk run cache is enabled.
    pub cache: bool,
    /// Server-side ceiling on per-request cycle budgets; a client budget
    /// is clamped to this, and requests without a budget get it as their
    /// ceiling. `None` = the runner's default budget only.
    pub max_budget: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tcp: None,
            socket: None,
            jobs: Executor::default_jobs(),
            handlers: 4,
            out: PathBuf::from("results"),
            cache: true,
            max_budget: None,
        }
    }
}

/// A bidirectional client connection (TCP or unix socket).
trait Conn: std::io::Read + std::io::Write + Send {
    /// Sets the read timeout (both stream types support it).
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;
    /// Shuts down the write half: the peer reads what was sent, then EOF.
    fn shutdown_write(&self) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }
    fn shutdown_write(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

impl Conn for UnixStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, d)
    }
    fn shutdown_write(&self) -> std::io::Result<()> {
        self.shutdown(std::net::Shutdown::Write)
    }
}

/// Shared daemon state: the warm executor plus lifetime counters.
pub struct Server {
    pub(crate) opt: ServeOptions,
    pub(crate) ex: Executor,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Serializes experiment requests: they write CSV files into the
    /// shared output directory, and interleaved writers would tear them.
    /// Point/fuzz/check/trace requests run fully concurrently.
    experiment_gate: Mutex<()>,
    started: Instant,
}

/// A server that has bound its listeners but not yet entered the serve
/// loop — the point where an ephemeral TCP port is knowable (tests, and
/// the `[tus-serve: listening ...]` banner).
pub struct BoundServer {
    server: Arc<Server>,
    tcp: Option<TcpListener>,
    unix: Option<(UnixListener, PathBuf)>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Builds the shared state (does not bind anything yet).
    pub fn new(opt: ServeOptions) -> Arc<Server> {
        let cache_dir = opt.cache.then(|| opt.out.join(".runcache"));
        Arc::new(Server {
            ex: Executor::new(opt.jobs, cache_dir),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            experiment_gate: Mutex::new(()),
            started: Instant::now(),
            opt,
        })
    }

    /// Requests shutdown: accept loops drain, handlers finish their
    /// in-flight request, `BoundServer::run` returns.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Holds off every other experiment request while it lives.
    pub(crate) fn experiment_gate(&self) -> MutexGuard<'_, ()> {
        self.experiment_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The effective cycle budget for a request: the client's ask,
    /// clamped by the server-wide ceiling.
    pub(crate) fn effective_budget(&self, client: Option<u64>) -> Option<u64> {
        match (client, self.opt.max_budget) {
            (Some(c), Some(m)) => Some(c.min(m)),
            (Some(c), None) => Some(c),
            (None, m) => m,
        }
    }
}

/// Binds the configured listeners. Fails fast (before daemonizing into
/// the serve loop) on unusable addresses; a stale unix-socket file from
/// a dead daemon is removed and rebound.
pub fn bind(opt: ServeOptions) -> std::io::Result<BoundServer> {
    if opt.tcp.is_none() && opt.socket.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "tus-serve needs at least one of --listen / --socket",
        ));
    }
    let tcp = opt.tcp.as_deref().map(TcpListener::bind).transpose()?;
    let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
    let unix = match &opt.socket {
        Some(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            Some((UnixListener::bind(path)?, path.clone()))
        }
        None => None,
    };
    Ok(BoundServer {
        server: Server::new(opt),
        tcp,
        unix,
        tcp_addr,
    })
}

impl BoundServer {
    /// The bound TCP address (resolves `:0` ephemeral ports).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A handle to the shared server state (tests use it to inspect and
    /// to request shutdown out-of-band).
    pub fn server(&self) -> Arc<Server> {
        Arc::clone(&self.server)
    }

    /// Serves until a `Shutdown` request (or [`Server::request_shutdown`]).
    ///
    /// Accept loops and the handler pool are scoped threads, so this
    /// returns only after every in-flight request has completed — a
    /// clean shutdown, never a torn reply.
    pub fn run(self) -> std::io::Result<()> {
        let BoundServer { server, tcp, unix, tcp_addr } = self;
        if let Some(addr) = tcp_addr {
            eprintln!("[tus-serve: listening on tcp {addr}]");
        }
        let unix_path = unix.as_ref().map(|(_, p)| p.clone());
        if let Some(p) = &unix_path {
            eprintln!("[tus-serve: listening on unix {}]", p.display());
        }
        eprintln!(
            "[tus-serve: {} sim jobs, {} handlers, cache {}, out {}]",
            server.opt.jobs,
            server.opt.handlers,
            if server.opt.cache { "on" } else { "off" },
            server.opt.out.display(),
        );

        let (tx, rx) = mpsc::channel::<Box<dyn Conn>>();
        let rx = Mutex::new(rx);
        std::thread::scope(|s| {
            if let Some(listener) = &tcp {
                let tx = tx.clone();
                let server = &server;
                s.spawn(move || accept_loop(server, listener, &tx, |c| Box::new(c)));
            }
            if let Some((listener, _)) = &unix {
                let tx = tx.clone();
                let server = &server;
                s.spawn(move || accept_loop(server, listener, &tx, |c| Box::new(c)));
            }
            // The accept loops hold the only remaining senders: when they
            // exit on shutdown, the channel closes and handlers drain out.
            drop(tx);
            for _ in 0..server.opt.handlers.max(1) {
                let server = &server;
                let rx = &rx;
                s.spawn(move || loop {
                    let conn = {
                        let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.recv()
                    };
                    match conn {
                        Ok(conn) => handle_conn(server, conn),
                        Err(_) => break,
                    }
                });
            }
        });
        if let Some(p) = unix_path {
            let _ = std::fs::remove_file(p);
        }
        eprintln!(
            "[tus-serve: clean shutdown after {} request(s), {} error repl(ies), {:.1}s up]",
            server.requests.load(Ordering::Relaxed),
            server.errors.load(Ordering::Relaxed),
            server.started.elapsed().as_secs_f64(),
        );
        Ok(())
    }
}

/// Generic nonblocking accept loop: polls `listener` until shutdown,
/// handing accepted streams (switched back to blocking mode with a read
/// poll timeout) to the handler channel.
fn accept_loop<L, C>(
    server: &Server,
    listener: &L,
    tx: &mpsc::Sender<Box<dyn Conn>>,
    boxer: impl Fn(C) -> Box<dyn Conn>,
) where
    L: Acceptor<C>,
    C: Conn + 'static,
{
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("tus-serve: cannot set listener nonblocking: {e}");
        return;
    }
    while !server.shutting_down() {
        match listener.accept_conn() {
            Ok(conn) => {
                let _ = conn.set_read_timeout(Some(READ_POLL));
                if tx.send(boxer(conn)).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                eprintln!("tus-serve: accept error: {e}");
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// The two listener types, unified for [`accept_loop`].
trait Acceptor<C> {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()>;
    fn accept_conn(&self) -> std::io::Result<C>;
}

impl Acceptor<TcpStream> for TcpListener {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        TcpListener::set_nonblocking(self, on)
    }
    fn accept_conn(&self) -> std::io::Result<TcpStream> {
        let (s, _) = self.accept()?;
        s.set_nonblocking(false)?;
        Ok(s)
    }
}

impl Acceptor<UnixStream> for UnixListener {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        UnixListener::set_nonblocking(self, on)
    }
    fn accept_conn(&self) -> std::io::Result<UnixStream> {
        let (s, _) = self.accept()?;
        s.set_nonblocking(false)?;
        Ok(s)
    }
}

/// Reads and discards input until EOF, an error or [`DRAIN_WAIT`] has
/// passed. Closing a TCP socket with unread input sends a reset, which
/// can destroy a reply the client has not read yet.
fn drain(conn: &mut dyn Conn) {
    let deadline = Instant::now() + DRAIN_WAIT;
    let mut buf = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Serves one connection until EOF, a malformed frame, or shutdown.
fn handle_conn(server: &Server, mut conn: Box<dyn Conn>) {
    loop {
        let frame = match read_frame(&mut conn) {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::Eof) => return,
            Ok(ReadOutcome::Malformed(what)) => {
                // The stream is no longer frame-aligned: answer once,
                // structurally, and drop the connection — but never the
                // process.
                server.errors.fetch_add(1, Ordering::Relaxed);
                let e = HarnessError::Protocol { what };
                let _ = write_frame(&mut conn, FrameKind::Error, &encode_error(&e));
                let _ = conn.shutdown_write();
                drain(conn.as_mut());
                return;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick (no byte of a next frame yet; one that
                // has started is read whole): keep waiting unless the
                // daemon is shutting down.
                if server.shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        server.requests.fetch_add(1, Ordering::Relaxed);

        // A panic anywhere in a handler is one error reply, not a dead
        // daemon: the executor's poison-recovering locks make its shared
        // state safe to keep using afterwards.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch(server, &mut conn, &frame)
        }));
        let done = match outcome {
            Ok(Ok(done)) => done,
            Ok(Err(DispatchError::Reply(e))) => {
                server.errors.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut conn, FrameKind::Error, &encode_error(&e)).is_err() {
                    return;
                }
                false
            }
            Ok(Err(DispatchError::Io(e))) => {
                eprintln!("tus-serve: connection write failed: {e}");
                return;
            }
            Err(payload) => {
                server.errors.fetch_add(1, Ordering::Relaxed);
                let e = HarnessError::JobPanicked {
                    what: panic_message(&*payload),
                };
                let _ = write_frame(&mut conn, FrameKind::Error, &encode_error(&e));
                false
            }
        };
        if done {
            return;
        }
    }
}

/// Why a dispatch did not produce a success reply.
enum DispatchError {
    /// Structured error to send back; the connection stays up.
    Reply(HarnessError),
    /// The connection itself failed; nothing more to send.
    Io(std::io::Error),
}

impl From<HarnessError> for DispatchError {
    fn from(e: HarnessError) -> Self {
        DispatchError::Reply(e)
    }
}

impl From<std::io::Error> for DispatchError {
    fn from(e: std::io::Error) -> Self {
        DispatchError::Io(e)
    }
}

/// Handles one request frame. `Ok(true)` closes the connection (only
/// `Shutdown` does). A command runs its row of [`crate::request::REQUESTS`],
/// each progress line sent as a `Progress` frame.
fn dispatch(
    server: &Server,
    conn: &mut Box<dyn Conn>,
    frame: &Frame,
) -> Result<bool, DispatchError> {
    let body = &frame.body;
    match frame.kind {
        FrameKind::Ping => write_frame(conn, FrameKind::Pong, body)?,
        FrameKind::Counters => {
            let c = server.ex.counters();
            let body = format!(
                "uptime_seconds={:.3}\nrequests={}\nerrors={}\nexecuted={}\nmemo_hits={}\ndisk_hits={}\n",
                server.started.elapsed().as_secs_f64(),
                server.requests.load(Ordering::Relaxed),
                server.errors.load(Ordering::Relaxed),
                c.executed,
                c.memo_hits,
                c.disk_hits,
            );
            write_frame(conn, FrameKind::CountersReply, &body)?;
        }
        FrameKind::Shutdown => {
            write_frame(conn, FrameKind::ShutdownOk, "")?;
            server.request_shutdown();
            return Ok(true);
        }
        kind => {
            let Some(req) = by_kind(kind) else {
                let what = format!("{kind:?} is not a request frame");
                return Err(HarnessError::Protocol { what }.into());
            };
            let args = Args::from_headers(req.cmd, body)?;
            let shared = Mutex::new(&mut *conn);
            let progress = |line: &str| {
                let mut conn = shared.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = write_frame(&mut **conn, FrameKind::Progress, &format!("{line}\n"));
            };
            let reply = (req.run)(Side::Daemon(server), args, &progress)?;
            let conn = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
            write_frame(conn, req.reply, &reply.body)?;
        }
    }
    Ok(false)
}

/// The `RunPoint` request (`client point`).
pub static POINT: Command = Command {
    name: "point",
    positional: Some("workload"),
    flags: &[
        POLICY,
        SB,
        QUICK,
        NORMAL,
        FULL,
        SEED,
        KERNEL,
        COHERENCE,
        BUDGET,
        Flag::value("--wall-ms", "wall_ms", "MS"),
        OUT,
    ],
    about: "runs (or recalls) one experiment point on the daemon",
};

/// The [`RunSpec`] a `RunPoint` request describes, plus its optional
/// cycle budget (`budget=`) and wall-clock budget in milliseconds
/// (`wall_ms=`).
pub fn point_spec(mut args: Args<'_>) -> Result<(RunSpec, Option<u64>, Option<u64>), HarnessError> {
    let w = workload(args.require("workload")?)?;
    let policy = args.policy()?.ok_or_else(|| missing("policy"))?;
    let sb = args.sb()?.unwrap_or(114);
    let scale = args.scale()?.unwrap_or(Scale::Normal);
    let mut spec = RunSpec::new(w, policy, sb, scale);
    spec.seed = args.num("seed")?.unwrap_or(spec.seed);
    spec.kernel = args.kernel()?.unwrap_or(spec.kernel);
    spec.coherence = args.coherence()?.unwrap_or(spec.coherence);
    let budget = args.num("budget")?;
    let wall_ms = args.num("wall_ms")?;
    args.finish()?;
    Ok((spec, budget, wall_ms))
}

/// The `RunPoint` request: one point on the daemon's shared executor,
/// under the request's budgets clamped by the server's ceiling.
pub(crate) fn run_point(
    side: Side<'_>,
    args: Args<'_>,
    progress: &Progress<'_>,
) -> Result<Reply, HarnessError> {
    let Side::Daemon(server) = side else {
        let what = "point runs on the daemon only".to_owned();
        return Err(HarnessError::Protocol { what });
    };
    let (spec, budget, wall_ms) = point_spec(args)?;
    let budget = server.effective_budget(budget);
    let key = spec.memo_key();
    progress(&format!("running {key}"));
    let before = server.ex.counters();
    let started = Instant::now();
    let result = server.ex.try_run_one_wall(&spec, budget, wall_ms)?;
    let since = server.ex.counters().since(before);
    let reply = format!(
        "executed={}\nmemo_hits={}\ndisk_hits={}\nseconds={:.6}\nkey={}\n\n{}",
        since.executed,
        since.memo_hits,
        since.disk_hits,
        started.elapsed().as_secs_f64(),
        key,
        encode_result(&result, &key),
    );
    Ok(reply.into())
}

/// `tus-harness serve`.
pub static SERVE: Command = Command {
    name: "serve",
    positional: None,
    flags: &[
        Flag::value("--listen", "listen", "ADDR:PORT").cli(),
        Flag::value("--socket", "socket", "PATH").cli(),
        JOBS,
        Flag::value("--handlers", "handlers", "N").cli(),
        OUT,
        NO_CACHE,
        Flag::value("--max-budget", "max_budget", "CYCLES").cli(),
    ],
    about: "a long-lived simulation daemon: shares one memo map and one on-disk\n\
            run cache across every client; speaks the length-prefixed frame\n\
            protocol (see EXPERIMENTS.md); never panics on a bad request",
};

impl ServeOptions {
    /// The options a `serve` command line gives.
    pub fn from_args(mut args: Args<'_>) -> Result<ServeOptions, HarnessError> {
        let mut opt = ServeOptions::default();
        opt.tcp = args.str("listen").map(str::to_owned);
        opt.socket = args.str("socket").map(PathBuf::from);
        opt.jobs = args.count("jobs")?.unwrap_or(opt.jobs);
        opt.handlers = args.count("handlers")?.unwrap_or(opt.handlers);
        opt.out = args.str("out").map_or(opt.out, PathBuf::from);
        opt.cache = args.switch("cache")?.unwrap_or(opt.cache);
        opt.max_budget = args.num("max_budget")?;
        args.finish()?;
        Ok(opt)
    }
}

/// Entry point for `tus-harness serve ...`.
pub fn main_serve(argv: &[String]) -> ! {
    let head = "tus-harness serve";
    let opt = Args::from_argv(&SERVE, argv)
        .and_then(ServeOptions::from_args)
        .unwrap_or_else(|e| std::process::exit(usage_error(head, &e, &cli_usage(&SERVE, head))));
    match bind(opt) {
        Ok(bound) => match bound.run() {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("tus-serve: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("tus-serve: cannot bind: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_flags_cover_options() {
        let args: Vec<String> = [
            "--listen", "127.0.0.1:0", "--socket", "/tmp/x.sock", "--jobs", "3", "--handlers",
            "2", "--out", "/tmp/o", "--no-cache", "--max-budget", "5000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = ServeOptions::from_args(Args::from_argv(&SERVE, &args).unwrap()).unwrap();
        assert_eq!(o.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.socket, Some(PathBuf::from("/tmp/x.sock")));
        assert_eq!(o.jobs, 3);
        assert_eq!(o.handlers, 2);
        assert_eq!(o.out, PathBuf::from("/tmp/o"));
        assert!(!o.cache);
        assert_eq!(o.max_budget, Some(5000));
    }

    #[test]
    fn effective_budget_clamps_to_server_ceiling() {
        let mut opt = ServeOptions::default();
        opt.max_budget = Some(1_000);
        let s = Server::new(opt);
        assert_eq!(s.effective_budget(None), Some(1_000));
        assert_eq!(s.effective_budget(Some(500)), Some(500));
        assert_eq!(s.effective_budget(Some(9_999)), Some(1_000));
        let s = Server::new(ServeOptions::default());
        assert_eq!(s.effective_budget(None), None);
        assert_eq!(s.effective_budget(Some(7)), Some(7));
    }

    #[test]
    fn bind_requires_an_address() {
        assert!(bind(ServeOptions::default()).is_err());
    }
}
