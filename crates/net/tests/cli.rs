//! `digamma-netd` refuses flags it does not take, the ones earlier
//! versions took included: each must end startup with a non-zero exit
//! and `unknown flag` on stderr, not start a daemon that ignores it.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn removed_flags_fail_startup_as_unknown() {
    let removed: [&[&str]; 4] = [
        &["--no-metrics"],
        &["--no-trace"],
        &["--eviction", "lru"],
        &["--event-log-capacity", "8"],
    ];
    for flag in removed {
        let mut child = Command::new(env!("CARGO_BIN_EXE_digamma-netd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(flag)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn digamma-netd");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait netd") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("digamma-netd {flag:?} was still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
        assert!(!status.success(), "digamma-netd {flag:?} exited {status}");
        assert!(stderr.contains("unknown flag"), "digamma-netd {flag:?} said: {stderr}");
    }
}
