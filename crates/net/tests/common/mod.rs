//! The process-level harness the net tests share: a real `digamma-netd`
//! child per [`Daemon`], killed and reaped on drop when a test ends
//! without shutting it down, a panicking test included. Left running,
//! the daemon would hold the test's stderr, and a caller capturing the
//! test's output would wait on it. A [`TempDir`] likewise removes its
//! directory on drop, so a failing test leaves no checkpoint directory
//! behind.

// Each test binary compiles this module and uses its own subset of it.
#![allow(dead_code)]

use digamma_net::client;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Whether a process with this id exists (signal 0 checks without
/// signalling).
pub fn process_exists(pid: u32) -> bool {
    let pid = i32::try_from(pid).expect("pids fit in an i32");
    // SAFETY: `kill` takes two integers and touches no memory of ours;
    // signal 0 only checks whether the process exists.
    unsafe { kill(pid, 0) == 0 }
}

/// A fresh, empty directory under the system temp dir, removed on drop.
/// Declare it before the [`Daemon`] that uses it: locals drop in
/// reverse order, so the daemon is killed before its directory goes.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp>/<prefix>-<pid>`, emptying any leftover first.
    pub fn new(prefix: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("{prefix}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the test's temp dir");
        TempDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `digamma-netd` child and the address it listens on.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns a netd with `workers` workers on `checkpoint_dir`, with
    /// `extra` flags appended (failpoints, drain deadline, ...), and
    /// waits for the handshake line.
    pub fn start(workers: usize, checkpoint_dir: &Path, extra: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_digamma-netd"))
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .arg("--checkpoint-dir")
            .arg(checkpoint_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn digamma-netd");
        // Owned from here on, so a failed handshake still kills it.
        let mut daemon = Daemon { child, addr: String::new() };
        let stdout = daemon.child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let first = lines.next().expect("a handshake line").expect("readable stdout");
        daemon.addr = first
            .strip_prefix("digamma-netd listening on ")
            .unwrap_or_else(|| panic!("unexpected handshake {first:?}"))
            .to_owned();
        // Keep draining stdout so the pipe never closes under the
        // daemon (println! to a closed pipe would abort it).
        std::thread::spawn(move || for _ in lines.by_ref() {});
        daemon
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends SIGTERM, which starts a graceful drain.
    pub fn term(&self) {
        let pid = i32::try_from(self.pid()).expect("pids fit in an i32");
        // SAFETY: `kill` takes two integers and touches no memory of
        // ours; the child is unreaped, so its pid still names it.
        let rc = unsafe { kill(pid, SIGTERM) };
        assert_eq!(rc, 0, "kill(SIGTERM) failed");
    }

    /// SIGKILL — no cooperative anything; only the snapshot, journal
    /// and memo file survive.
    pub fn kill(mut self) {
        self.child.kill().expect("kill netd");
        self.child.wait().expect("reap netd");
    }

    /// Waits for the process to exit on its own, asserting it did so
    /// cleanly within `timeout`.
    pub fn wait_clean_exit(mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait().expect("try_wait netd") {
                Some(status) => {
                    assert!(status.success(), "netd exited {status}");
                    return;
                }
                None if Instant::now() >= deadline => {
                    panic!("netd did not exit within {timeout:?}");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// `POST /shutdown`, then reaps the process and asserts a clean
    /// exit.
    pub fn shutdown(mut self) {
        let _ = client::post(&self.addr, "/shutdown", None);
        let status = self.child.wait().expect("reap netd");
        assert!(status.success(), "netd exited {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
