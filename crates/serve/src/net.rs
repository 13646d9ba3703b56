//! The TCP veneer: frames over loopback, one reader thread per
//! connection, one forwarder thread per streaming job.
//!
//! All scheduling behavior lives in [`Server`]; this module only
//! translates frames to the in-process API:
//!
//! ```text
//! client: HELLO fuel=10000         server: OK session s1
//! client: QUERY select ...         server: OK job=1 dispatched
//!                                  server: JOB 1 CHUNK\n{...}
//!                                  server: JOB 1 DONE results=3 fuel=42
//! client: STATS                    server: STATS\nadmitted 1\n...
//! client: BYE                      server: OK bye        (connection closes)
//! ```
//!
//! A dropped connection closes its session, which cancels its queued
//! and running jobs — the disconnect-teardown path shares all its code
//! with `SessionHandle::close`.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ssd_diag::{Code, Diagnostic};
use ssd_store::Txn;

use crate::protocol::{decode_frame, encode_frame, parse_command_with, Command, MAX_FRAME};
use crate::quota::SessionQuota;
use crate::sched::{JobId, JobKind};
use crate::server::{JobEvent, Server, SessionHandle, SubmitError};

fn send_frame(writer: &Mutex<TcpStream>, payload: &str) -> std::io::Result<()> {
    let bytes = encode_frame(payload);
    writer.lock().expect("writer lock").write_all(&bytes)
}

/// Accept connections until [`Server::request_shutdown`] fires, then
/// return so the caller can run the graceful drain. `default_quota`
/// seeds every `HELLO`; its fields are what the client's
/// `fuel=`/`jobs=`/... overrides apply to. The `SHUTDOWN` verb only
/// works when `allow_shutdown` is set (the CLI flag
/// `--allow-remote-shutdown`): the loopback bind is shared by every
/// local process, and an unauthenticated client should not be able to
/// stop the server for everyone else. Connection threads are detached;
/// they die with their sockets.
pub fn serve_tcp(
    server: Arc<Server>,
    listener: TcpListener,
    default_quota: SessionQuota,
    allow_shutdown: bool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if server.shutdown_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                let quota = default_quota.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(server, stream, quota, allow_shutdown);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(
    server: Arc<Server>,
    stream: TcpStream,
    default_quota: SessionQuota,
    allow_shutdown: bool,
) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));
    let mut session: Option<Arc<SessionHandle>> = None;
    // Mutations staged by INSERT/DELETE, owned by the connection until
    // COMMIT submits them as one transaction (or the connection dies,
    // discarding them — staging is not durable by design).
    let mut staged = Txn::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut read_chunk = [0u8; 4096];
    loop {
        // Drain every complete frame already buffered.
        loop {
            match decode_frame(&buf) {
                Ok(None) => break,
                Ok(Some((payload, consumed))) => {
                    buf.drain(..consumed);
                    match dispatch_command(
                        &server,
                        &writer,
                        &mut session,
                        &mut staged,
                        &default_quota,
                        allow_shutdown,
                        &payload,
                    )? {
                        Flow::Continue => {}
                        Flow::Close => return Ok(()),
                    }
                }
                Err(e) => {
                    // Framing is unrecoverable: report and drop the
                    // connection (closing the session via Drop).
                    let _ = send_frame(&writer, &format!("ERR {}", e.diagnostic().headline()));
                    return Ok(());
                }
            }
        }
        if buf.len() > MAX_FRAME + 64 {
            let _ = send_frame(&writer, "ERR error[SSD210]: frame buffer overflow");
            return Ok(());
        }
        match reader.read(&mut read_chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => buf.extend_from_slice(&read_chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
}

enum Flow {
    Continue,
    Close,
}

/// Total staged body bytes a connection may hold; one frame's worth, so
/// a client cannot park unbounded memory on the server between commits.
const MAX_STAGED_BYTES: u64 = MAX_FRAME as u64;

fn dispatch_command(
    server: &Arc<Server>,
    writer: &Arc<Mutex<TcpStream>>,
    session: &mut Option<Arc<SessionHandle>>,
    staged: &mut Txn,
    default_quota: &SessionQuota,
    allow_shutdown: bool,
    payload: &str,
) -> std::io::Result<Flow> {
    let cmd = match parse_command_with(payload, default_quota) {
        Ok(c) => c,
        Err(d) => {
            send_frame(writer, &format!("ERR {}", d.headline()))?;
            return Ok(Flow::Continue);
        }
    };
    match cmd {
        Command::Hello(quota) => {
            if session.is_some() {
                send_frame(writer, "ERR error[SSD210]: session already open")?;
            } else {
                let handle = server.open_session(quota);
                send_frame(writer, &format!("OK session {}", handle.id))?;
                *session = Some(Arc::new(handle));
            }
        }
        Command::Query(text) => {
            submit(writer, session, JobKind::Query, &text)?;
        }
        Command::Datalog(text) => {
            submit(writer, session, JobKind::Datalog, &text)?;
        }
        Command::Rpe(text) => {
            submit(writer, session, JobKind::Rpe, &text)?;
        }
        Command::Insert(literal) => {
            stage(server, writer, staged, ssd_store::Op::Insert(literal))?;
        }
        Command::Delete(label) => {
            stage(server, writer, staged, ssd_store::Op::Delete(label))?;
        }
        Command::Commit => {
            if !server.writable() {
                send_frame(writer, &format!("ERR {}", read_only_diag().headline()))?;
            } else if staged.is_empty() {
                send_frame(
                    writer,
                    "ERR error[SSD210]: COMMIT with no staged operations",
                )?;
            } else {
                let script = staged.to_script();
                if submit(writer, session, JobKind::Commit, &script)? {
                    *staged = Txn::new();
                }
            }
        }
        Command::Cancel(id) => {
            let Some(sess) = session else {
                send_frame(writer, "ERR error[SSD210]: HELLO first")?;
                return Ok(Flow::Continue);
            };
            match sess.cancel(JobId(id)) {
                Ok(running) => send_frame(
                    writer,
                    &format!(
                        "OK cancelled job={id} ({})",
                        if running { "was running" } else { "was queued" }
                    ),
                )?,
                Err(d) => send_frame(writer, &format!("ERR {}", d.headline()))?,
            }
        }
        Command::Stats => {
            let text = server.stats_text(session.as_ref().map(|s| s.id));
            send_frame(writer, &format!("STATS\n{text}"))?;
        }
        Command::Bye => {
            if let Some(sess) = session.take() {
                sess.close();
            }
            send_frame(writer, "OK bye")?;
            return Ok(Flow::Close);
        }
        Command::Shutdown => {
            if !allow_shutdown {
                send_frame(
                    writer,
                    "ERR error[SSD210]: SHUTDOWN is disabled \
                     (start the server with --allow-remote-shutdown)",
                )?;
                return Ok(Flow::Continue);
            }
            server.request_shutdown();
            send_frame(writer, "OK shutting down")?;
            return Ok(Flow::Close);
        }
    }
    Ok(Flow::Continue)
}

/// Reject a mutation verb on a store-less server before admission.
fn read_only_diag() -> Diagnostic {
    Diagnostic::new(
        Code::ReadOnlyStore,
        "server is read-only: started without --data-dir",
    )
}

/// Stage one INSERT/DELETE on the connection, validating it eagerly so
/// the client learns about a bad literal at the verb, not at COMMIT.
fn stage(
    server: &Arc<Server>,
    writer: &Arc<Mutex<TcpStream>>,
    staged: &mut Txn,
    op: ssd_store::Op,
) -> std::io::Result<()> {
    if !server.writable() {
        return send_frame(writer, &format!("ERR {}", read_only_diag().headline()));
    }
    let check = match &op {
        ssd_store::Op::Insert(lit) => ssd_store::validate_insert(lit)
            .map_err(|e| format!("INSERT literal does not parse: {e}")),
        ssd_store::Op::Delete(label) => ssd_store::validate_delete(label),
    };
    if let Err(e) = check {
        return send_frame(writer, &format!("ERR error[SSD210]: {e}"));
    }
    if staged.body_bytes() + op.body().len() as u64 > MAX_STAGED_BYTES {
        return send_frame(
            writer,
            &format!(
                "ERR error[SSD210]: staged mutations exceed {MAX_STAGED_BYTES} byte(s); \
                 COMMIT first"
            ),
        );
    }
    staged.push(op);
    send_frame(writer, &format!("OK staged ops={}", staged.len()))
}

/// Submit a job; `Ok(true)` means it was accepted (dispatched or queued).
fn submit(
    writer: &Arc<Mutex<TcpStream>>,
    session: &mut Option<Arc<SessionHandle>>,
    kind: JobKind,
    text: &str,
) -> std::io::Result<bool> {
    let Some(sess) = session else {
        send_frame(writer, "ERR error[SSD210]: HELLO first")?;
        return Ok(false);
    };
    match sess.submit(kind, text) {
        Ok(handle) => {
            let job = handle.job;
            send_frame(
                writer,
                &format!(
                    "OK job={job} {}",
                    if handle.queued {
                        "queued"
                    } else {
                        "dispatched"
                    }
                ),
            )?;
            // Forward the job's event stream without blocking the reader.
            let writer = Arc::clone(writer);
            std::thread::spawn(move || {
                for ev in handle.events().iter() {
                    let done = !matches!(ev, JobEvent::Chunk(_));
                    let frame = match ev {
                        JobEvent::Chunk(c) => format!("JOB {job} CHUNK\n{c}"),
                        JobEvent::Done { summary } => format!("JOB {job} DONE {summary}"),
                        JobEvent::Failed(e) => format!("JOB {job} ERR {e}"),
                    };
                    if send_frame(&writer, &frame).is_err() || done {
                        break;
                    }
                }
            });
            Ok(true)
        }
        Err(SubmitError::Rejected(d)) => {
            send_frame(writer, &format!("ERR {}", d.headline()))?;
            Ok(false)
        }
        Err(SubmitError::Invalid(m)) => {
            send_frame(writer, &format!("ERR {m}"))?;
            Ok(false)
        }
    }
}
