//! The `hyperqd` child process: spawn on a snapshot, wait for readiness,
//! read its peak memory, shut it down.

use crate::client::Conn;
use crate::workloads::DB_NAME;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The line prefix `hyperqd` prints once it accepts connections.
const READY_PREFIX: &str = "hyperqd listening on ";

/// A running `hyperqd`.  Dropping it kills and reaps the child, so no
/// error path leaves a server behind.
pub struct ServerProc {
    child: Child,
    // Held so the server's later status lines have somewhere to go.
    _stdout: BufReader<ChildStdout>,
    /// The address the server listens on.
    pub addr: String,
}

impl ServerProc {
    /// Starts `bin` on `snapshot` at an ephemeral port and blocks until it
    /// prints its `listening` line.  Returns the server and the time from
    /// spawn to that line.  The slow-query log stays unarmed, so the
    /// server runs its untraced path.
    pub fn spawn(bin: &Path, snapshot: &Path) -> Result<(ServerProc, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--db"])
            .arg(format!("{DB_NAME}={}", snapshot.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready = started.elapsed();
        let addr = match read {
            Ok(_) => line.trim_end().strip_prefix(READY_PREFIX).unwrap_or(""),
            Err(_) => "",
        };
        // Built before the check so that a server that came up wrong is
        // killed and reaped by the drop.
        let server = ServerProc {
            child,
            _stdout: stdout,
            addr: addr.to_owned(),
        };
        if server.addr.is_empty() {
            return Err(format!("hyperqd did not report readiness (got {line:?})"));
        }
        Ok((server, ready))
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Sends `shutdown` over `conn` and waits for the server to drain and
    /// exit cleanly.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.roundtrip(b"{\"op\":\"shutdown\"}\n")?;
        if reply != b"{\"ok\":true,\"op\":\"bye\"}" {
            return Err(format!(
                "unexpected shutdown reply: {}",
                String::from_utf8_lossy(reply)
            ));
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for hyperqd: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("hyperqd exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // After a clean shutdown the child is already reaped and both calls
        // are no-ops; errors here have nowhere to go.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
