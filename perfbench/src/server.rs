//! A `densest serve` child process, and lockstep exchanges with a
//! server over its Unix socket through the program's own client.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dsg_engine::frame;
use dsg_engine::minijson::Value;
use dsg_engine::serve::{client_unix_opts, ClientOptions};

/// One request, encoded once for both wire formats.
#[derive(Clone, Debug)]
pub struct Req {
    /// Request kind, used to label latency samples.
    pub kind: &'static str,
    /// The JSONL line, newline included.
    pub jsonl: Vec<u8>,
    /// The equivalent binary request frame.
    pub frame: Vec<u8>,
}

impl Req {
    /// The JSONL request text, without its newline.
    pub fn line(&self) -> &str {
        std::str::from_utf8(&self.jsonl[..self.jsonl.len() - 1]).expect("requests are UTF-8")
    }

    /// The binary request payload, without its frame header.
    pub fn payload(&self) -> &[u8] {
        &self.frame[frame::HEADER_LEN..]
    }

    /// Encodes `op` with `fields` (the `id` goes first, like any client).
    pub fn new(kind: &'static str, op: &str, fields: Vec<(&str, Value)>) -> Req {
        let fields: Vec<(String, Value)> = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let mut line = format!("{{\"op\":\"{op}\"");
        for (k, v) in &fields {
            line.push_str(&format!(",\"{k}\":{}", v.to_json()));
        }
        line.push_str("}\n");
        let mut frame = Vec::new();
        frame::encode_request(op, &fields, &mut frame).expect("benchmark requests are encodable");
        Req {
            kind,
            jsonl: line.into_bytes(),
            frame,
        }
    }
}

/// A running `densest serve --socket` process. Dropping it kills the
/// process if it has not exited yet, and always reaps it.
pub struct Server {
    child: Child,
    /// The server's process id (for `/proc` readings).
    pub pid: u32,
    pub socket: PathBuf,
    spawned: Instant,
}

impl Server {
    /// Spawns `bin serve --socket <socket> <flags>` and waits until it
    /// accepts connections.
    pub fn spawn(bin: &Path, socket: &Path, flags: &[String]) -> io::Result<Server> {
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut server = Server {
            pid: child.id(),
            child,
            socket: socket.to_path_buf(),
            spawned,
        };
        let child = &mut server.child;
        wait_ready(&server.socket, || match child.try_wait()? {
            Some(status) => Err(io::Error::other(format!("server exited early: {status}"))),
            None => Ok(()),
        })?;
        Ok(server)
    }

    /// When the process was spawned.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        shutdown(&self.socket)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            // A client-side wait for a child process, not a serve worker.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Waits until `socket` accepts a connection, retrying every 200 µs for
/// up to 30 s while `alive` reports the server still starting. Readiness
/// is the first successful connect, not a fixed sleep.
pub fn wait_ready(socket: &Path, mut alive: impl FnMut() -> io::Result<()>) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match UnixStream::connect(socket) {
            Ok(_) => return Ok(()),
            Err(e) => {
                alive()?;
                if Instant::now() > deadline {
                    return Err(e);
                }
                // A client-side connect retry, not a serve worker.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// The request lines, newline-terminated, in send order: what the client
/// reads. Built before a timed phase so that only the exchange is timed.
pub fn script<'a>(reqs: impl IntoIterator<Item = &'a Req>) -> Vec<u8> {
    reqs.into_iter()
        .flat_map(|r| r.jsonl.iter().copied())
        .collect()
}

/// One connection's replies, in send order, and each request's client
/// round trip.
pub struct Exchange {
    pub replies: Vec<String>,
    pub latencies_ms: Vec<f64>,
}

/// Sends a [`script`] over one fresh connection through the program's own
/// client, `client_unix_opts` with a window of one: strict lockstep, in
/// JSONL or (`binary`) request frames.
pub fn exchange(socket: &Path, script: &[u8], binary: bool) -> io::Result<Exchange> {
    let mut out = Vec::new();
    let stats = client_unix_opts(
        socket,
        script,
        &mut out,
        &ClientOptions {
            binary,
            pipeline: 1,
        },
    )?;
    let text = String::from_utf8(out).map_err(io::Error::other)?;
    Ok(Exchange {
        replies: text.lines().map(str::to_string).collect(),
        latencies_ms: stats.latencies_ms,
    })
}

/// Sends a `shutdown` request to the server at `socket`.
pub fn shutdown(socket: &Path) -> io::Result<()> {
    let bye = Req::new("shutdown", "shutdown", vec![]);
    exchange(socket, &script([&bye]), false).map(drop)
}
