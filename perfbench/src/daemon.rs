//! The query daemon under test, run as a child process of the benchmark,
//! so its memory and threads are measured apart from the load generator's.
//!
//! The child is this same executable started with `--serve MODEL`: it
//! serves the compiled model file with `ServerOptions::default()` on an
//! ephemeral loopback port, prints the address, and shuts down cleanly
//! when its standard input closes (including when the parent dies).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use xpdl_serve::{Engine, EngineOptions, ModelSource, Server, ServerOptions};

/// Child side: serve `model` until standard input closes.
pub fn serve(model: &Path) -> Result<(), String> {
    let engine = Engine::new(
        ModelSource::File(model.to_path_buf()),
        EngineOptions {
            allow_debug: false,
            allow_shutdown: false,
        },
    )
    .map_err(|e| format!("engine over {}: {e:?}", model.display()))?;
    let server = Server::start(Arc::new(engine), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("server: {e}"))?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.local_addr())
        .and_then(|_| out.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    server.join();
    Ok(())
}

/// Parent side: a running daemon child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Daemon {
    /// Start `exe --serve model` and wait until it listens.
    pub fn spawn(exe: &Path, model: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .arg("--serve")
            .arg(model)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|s| BufReader::new(s).read_line(&mut line))
            .transpose()
            .map_err(|e| format!("daemon stdout: {e}"));
        // From here on, dropping `daemon` stops the child.
        let mut daemon = Daemon {
            child,
            stdin,
            addr: line.trim().to_string(),
        };
        match read {
            Ok(Some(n)) if n > 0 => Ok(daemon),
            Ok(_) => {
                daemon.kill();
                Err("daemon exited before listening".into())
            }
            Err(e) => {
                daemon.kill();
                Err(e)
            }
        }
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's peak resident set size so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Close the daemon's input and wait for its clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    fn kill(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// Peak resident set size (`VmHWM`) from a `/proc/<pid>/status` file, MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("VmHWM missing from {status_path}"))
}
