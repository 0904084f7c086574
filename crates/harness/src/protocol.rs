//! The `tus-serve` wire protocol: length-prefixed binary frames.
//!
//! One warm simulator process serves many clients over a unix socket or
//! TCP; this module defines what travels on the wire. The format is
//! deliberately tiny and std-only:
//!
//! ```text
//! frame := u32-LE body-length | u8 kind | body
//! ```
//!
//! `kind` is a [`FrameKind`] discriminant (requests `0x01..=0x7f`,
//! replies `0x81..=0xff`). Bodies are UTF-8 text — `key=value` header
//! lines for requests (read by [`crate::args::Args::from_headers`]),
//! and the harness's existing text formats
//! for payloads (run results travel as
//! [`crate::executor::encode_result`] text, deadlocks as the rendered
//! [`tus::DeadlockReport`]), so the protocol inherits the bit-exactness
//! guarantees those formats already have and every frame is debuggable
//! with `xxd`.
//!
//! A request is answered by zero or more [`FrameKind::Progress`] frames
//! followed by exactly one terminal frame: the request's success reply
//! or [`FrameKind::Error`]. Malformed input — unknown kind, oversized
//! body, bad header lines — becomes a structured error reply, never a
//! server panic: the daemon treats every byte off the wire as hostile.
//!
//! Error bodies put a stable machine-readable token on the first line
//! ([`crate::errors::HarnessError::kind_token`]) and the rendered,
//! human-readable error — including a full deadlock report, when there
//! is one — after it.

use std::io::{Read, Write};

use crate::errors::HarnessError;

/// Upper bound on a frame body (64 MiB). A length prefix beyond this is
/// treated as a protocol error rather than an allocation request —
/// garbage on the wire must not OOM the daemon.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// How many read timeouts one frame may meet after its first byte before
/// [`read_frame`] gives up on it. With the daemon's 500 ms read poll that
/// is 10 s of stalling. A timeout *before* a frame's first byte is not
/// counted: it surfaces as an error, the daemon's idle tick.
pub const MAX_FRAME_STALLS: u32 = 20;

/// Frame discriminants. Requests have the high bit clear; replies set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    // Requests.
    /// Liveness check; body is echoed back in the `Pong`.
    Ping = 0x01,
    /// Run (or recall) one experiment point; body is a header block
    /// (`workload=`, `policy=`, optional `sb=`, `scale=`, `seed=`,
    /// `kernel=`, `coherence=`, `budget=`, `wall_ms=`). An unknown key
    /// or label is a structured protocol-error reply, like every other
    /// malformed header.
    RunPoint = 0x02,
    /// Run a named experiment (`name=fig10`, or `name=all` for every
    /// one; optional `scale=`, `seed=`, `kernel=`, `coherence=`,
    /// `parallel_cap=`); CSVs land in the server's output directory.
    Experiment = 0x03,
    /// Run a differential fuzz sweep (optional `programs=`, `seeds=`,
    /// `seed=`, `policy=`, `kernel=`, `coherence=`).
    FuzzSweep = 0x04,
    /// Capture one traced run (`workload=`, optional `policy=`, `sb=`,
    /// `insts=`, `seed=`, `kernel=`, `coherence=`, `budget=`); the reply
    /// body is Chrome-trace JSON.
    TraceCapture = 0x05,
    /// Ask for the daemon's lifetime counters.
    Counters = 0x06,
    /// Ask the daemon to shut down cleanly.
    Shutdown = 0x07,
    /// Run a bounded exhaustive model check (optional `litmus=`,
    /// `programs=`, `corpus=`, `seed=`, `max_threads=`, `max_ops=`,
    /// `max_states=`, `seeds=`, `reduction=`, `lazy=`, `policy=`,
    /// `kernel=`, `coherence=`).
    Check = 0x08,

    // Replies.
    /// Echo reply to `Ping`.
    Pong = 0x81,
    /// Intermediate human-readable progress line(s).
    Progress = 0x82,
    /// Terminal reply to `RunPoint`: header lines (`executed=`,
    /// `memo_hits=`, `disk_hits=`, `seconds=`), a blank line, then
    /// [`crate::executor::encode_result`] text.
    RunDone = 0x83,
    /// Terminal reply to `Experiment`: counter header lines, a blank
    /// line, then the rendered tables.
    ExperimentDone = 0x84,
    /// Terminal reply to `FuzzSweep`: `programs=`, `seeds=`, `sims=`,
    /// `violations=`, `seconds=` headers, a blank line, then each finding
    /// with its shrunk repro and the corpus paths written.
    FuzzDone = 0x85,
    /// Terminal reply to `TraceCapture`: Chrome-trace JSON body.
    TraceDone = 0x86,
    /// Terminal reply to `Counters`.
    CountersReply = 0x87,
    /// Terminal structured error reply (any request).
    Error = 0x88,
    /// Terminal reply to `Shutdown`, sent before the daemon exits.
    ShutdownOk = 0x89,
    /// Terminal reply to `Check`: `programs=`, `verified=`,
    /// `violations=`, `bound_exceeded=`, `explored=`, `memoized=`,
    /// `pruned=`, `seconds=` headers, a blank line, then rendered
    /// findings (a violation with its shrunk repro and path) and the
    /// per-policy stats table.
    CheckDone = 0x8a,
}

impl FrameKind {
    /// Decodes a wire discriminant.
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        use FrameKind::*;
        Some(match b {
            0x01 => Ping,
            0x02 => RunPoint,
            0x03 => Experiment,
            0x04 => FuzzSweep,
            0x05 => TraceCapture,
            0x06 => Counters,
            0x07 => Shutdown,
            0x08 => Check,
            0x81 => Pong,
            0x82 => Progress,
            0x83 => RunDone,
            0x84 => ExperimentDone,
            0x85 => FuzzDone,
            0x86 => TraceDone,
            0x87 => CountersReply,
            0x88 => Error,
            0x89 => ShutdownOk,
            0x8a => CheckDone,
            _ => return None,
        })
    }

    /// Whether this is a terminal reply (ends a request's reply stream).
    pub fn is_terminal_reply(self) -> bool {
        (self as u8) >= 0x80 && self != FrameKind::Progress
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// UTF-8 body (may be empty).
    pub body: String,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, body: impl Into<String>) -> Frame {
        Frame { kind, body: body.into() }
    }
}

/// Writes one frame: `u32-LE (body+1) | u8 kind | body`.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, body: &str) -> std::io::Result<()> {
    let len = (body.len() as u32).checked_add(1).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame body too long")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[kind as u8])?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// What came off the wire when a frame was requested.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A well-formed frame.
    Frame(Frame),
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Eof,
    /// The bytes were not a well-formed frame (bad length, unknown kind,
    /// non-UTF-8 body). The connection should be dropped after an error
    /// reply; the stream is no longer frame-aligned.
    Malformed(String),
}

/// Reads one frame. I/O errors (including EOF mid-frame) surface as
/// `Err`; garbage that arrived intact surfaces as
/// [`ReadOutcome::Malformed`] so the server can answer it with a
/// structured error instead of dying.
///
/// A read timeout (`WouldBlock` or `TimedOut`) before the frame's first
/// byte is returned as that error, and nothing has been consumed. Once
/// the first byte is in, timeouts are ridden out, so a frame that
/// arrives in parts is read whole; one that meets [`MAX_FRAME_STALLS`]
/// of them is [`ReadOutcome::Malformed`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<ReadOutcome> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a torn frame.
    let n = r.read(&mut len_buf)?;
    if n == 0 {
        return Ok(ReadOutcome::Eof);
    }
    let mut stalls = 0;
    if !read_rest(r, &mut len_buf[n..], &mut stalls)? {
        return Ok(stalled());
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Ok(ReadOutcome::Malformed("zero-length frame".into()));
    }
    if len > MAX_FRAME_LEN {
        return Ok(ReadOutcome::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut kind_buf = [0u8; 1];
    let mut body = vec![0u8; len as usize - 1];
    if !(read_rest(r, &mut kind_buf, &mut stalls)? && read_rest(r, &mut body, &mut stalls)?) {
        return Ok(stalled());
    }
    let Some(kind) = FrameKind::from_u8(kind_buf[0]) else {
        return Ok(ReadOutcome::Malformed(format!(
            "unknown frame kind 0x{:02x}",
            kind_buf[0]
        )));
    };
    match String::from_utf8(body) {
        Ok(body) => Ok(ReadOutcome::Frame(Frame { kind, body })),
        Err(_) => Ok(ReadOutcome::Malformed("non-UTF-8 frame body".into())),
    }
}

/// Fills `buf` like `read_exact`, but counts read timeouts in `stalls`
/// instead of failing on them. `Ok(false)` once `stalls` reaches
/// [`MAX_FRAME_STALLS`].
fn read_rest(r: &mut impl Read, mut buf: &mut [u8], stalls: &mut u32) -> std::io::Result<bool> {
    use std::io::ErrorKind;
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                *stalls += 1;
                if *stalls >= MAX_FRAME_STALLS {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn stalled() -> ReadOutcome {
    ReadOutcome::Malformed(format!(
        "frame stalled: {MAX_FRAME_STALLS} read timeouts after its first byte"
    ))
}

/// Renders a [`HarnessError`] as an error-frame body: the stable kind
/// token on line one, the rendered error after it.
pub fn encode_error(e: &HarnessError) -> String {
    format!("{}\n{e}", e.kind_token())
}

/// Splits an error-frame body back into `(kind token, rendered message)`.
pub fn decode_error(body: &str) -> (&str, &str) {
    match body.split_once('\n') {
        Some((token, rest)) => (token, rest),
        None => (body, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::RunPoint, "workload=x\npolicy=tus\n").unwrap();
        write_frame(&mut buf, FrameKind::Ping, "").unwrap();
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r).unwrap() {
            ReadOutcome::Frame(f) => {
                assert_eq!(f.kind, FrameKind::RunPoint);
                assert_eq!(f.body, "workload=x\npolicy=tus\n");
            }
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            ReadOutcome::Frame(f) => {
                assert_eq!(f.kind, FrameKind::Ping);
                assert!(f.body.is_empty());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut r).unwrap(), ReadOutcome::Eof));
    }

    #[test]
    fn every_kind_survives_the_wire() {
        use FrameKind::*;
        for kind in [
            Ping, RunPoint, Experiment, FuzzSweep, TraceCapture, Counters, Shutdown, Check, Pong,
            Progress, RunDone, ExperimentDone, FuzzDone, TraceDone, CountersReply, Error,
            ShutdownOk, CheckDone,
        ] {
            assert_eq!(FrameKind::from_u8(kind as u8), Some(kind));
            let mut buf = Vec::new();
            write_frame(&mut buf, kind, "x").unwrap();
            match read_frame(&mut std::io::Cursor::new(buf)).unwrap() {
                ReadOutcome::Frame(f) => assert_eq!(f.kind, kind),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn garbage_is_malformed_not_fatal() {
        // Unknown kind byte.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0x7e, b'x']);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)).unwrap(),
            ReadOutcome::Malformed(_)
        ));
        // Absurd length prefix must not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(0x01);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)).unwrap(),
            ReadOutcome::Malformed(_)
        ));
        // Zero-length frame.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)).unwrap(),
            ReadOutcome::Malformed(_)
        ));
        // Non-UTF-8 body.
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0x01, 0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)).unwrap(),
            ReadOutcome::Malformed(_)
        ));
        // A frame torn mid-body is an I/O error (peer vanished).
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0x01, b'h', b'i']);
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
    }

    /// Replays a script of reads: `Some(bytes)` delivers them (split
    /// across calls if the caller's buffer is smaller), `None` is one
    /// read timeout, and the end of the script is EOF.
    struct Scripted(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// A frame that arrives in two parts with read timeouts between them
    /// is read whole, whether it splits inside the length prefix (after
    /// byte 2) or inside the body (after byte 5); a timeout before the
    /// first byte is an error that consumes nothing.
    #[test]
    fn a_frame_split_by_read_timeouts_is_read_whole() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ping, "hello").unwrap();
        for split in [2, 5] {
            let mut r = Scripted(
                [
                    None,
                    Some(wire[..split].to_vec()),
                    None,
                    None,
                    Some(wire[split..].to_vec()),
                ]
                .into(),
            );
            let idle = read_frame(&mut r).unwrap_err();
            assert_eq!(idle.kind(), std::io::ErrorKind::WouldBlock);
            match read_frame(&mut r).unwrap() {
                ReadOutcome::Frame(f) => {
                    assert_eq!(f.kind, FrameKind::Ping, "split after byte {split}");
                    assert_eq!(f.body, "hello", "split after byte {split}");
                }
                other => panic!("split after byte {split}: {other:?}"),
            }
            assert!(matches!(read_frame(&mut r).unwrap(), ReadOutcome::Eof));
        }
    }

    /// A frame whose rest never comes is malformed after
    /// `MAX_FRAME_STALLS` timeouts, however many more would follow.
    #[test]
    fn a_stalled_frame_is_malformed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::Ping, "hello").unwrap();
        for split in [2, 5] {
            let mut script = vec![Some(wire[..split].to_vec())];
            script.extend((0..MAX_FRAME_STALLS).map(|_| None));
            script.push(Some(wire[split..].to_vec()));
            let mut r = Scripted(script.into());
            match read_frame(&mut r).unwrap() {
                ReadOutcome::Malformed(what) => assert!(what.contains("stalled"), "{what}"),
                other => panic!("split after byte {split}: {other:?}"),
            }
        }
    }

    #[test]
    fn error_bodies_round_trip_the_kind_token() {
        let e = HarnessError::UnknownWorkload { name: "zzz".into() };
        let body = encode_error(&e);
        let (token, msg) = decode_error(&body);
        assert_eq!(token, "unknown_workload");
        assert!(msg.contains("zzz"));
    }
}
