//! The benchmark's dealings with the operating system: its pool
//! directories, memory high-water marks, and the `mod_server` child.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// The `benchmark/` directory: `$MODBENCH_DIR` (set by `run.sh`), else
/// where this crate was built.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("MODBENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `benchmark/out/`, where result files and raw traces go.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A pool directory `benchmark/.pools/<pid>-<label>/`, emptied when made
/// and removed when dropped — shard journals (`.s0`…), `.init` and
/// `.tmp` leftovers go with it, whatever the product left behind.
pub struct PoolDir(PathBuf);

impl PoolDir {
    pub fn new(label: &str) -> PoolDir {
        let dir = bench_dir()
            .join(".pools")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("cannot create pool directory");
        PoolDir(dir)
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Removes every file in the directory (a fresh pool for the next
    /// set-up round).
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).expect("cannot recreate pool directory");
    }
}

impl Drop for PoolDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last run's directory is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> io::Result<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path)?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Where the `mod_server` binary was built: `$MODBENCH_SERVER_BIN` (set
/// by `run.sh`), else the root workspace's release directory.
pub fn server_bin() -> PathBuf {
    std::env::var_os("MODBENCH_SERVER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| bench_dir().join("../target/release/mod_server"))
}

/// A running `mod_server serve` child. Killed and reaped on drop, so a
/// panicking benchmark leaves no server behind.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    /// Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    /// Starts the server on `pool` in the workload's fixed shape and
    /// waits for its `LISTENING <addr>` line (the port is the child's
    /// choice, never the benchmark's).
    pub fn spawn(pool: &Path, durability: &str) -> io::Result<ServerChild> {
        let mut child = Command::new(server_bin())
            .arg("serve")
            .arg(pool)
            .args(["--workers", "2", "--journal-shards", "2"])
            .args(["--durability", durability, "--window", "16"])
            .args(["--timeout-ms", "2", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("LISTENING ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(ServerChild {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "mod_server did not announce its address (got {line:?})"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL`, then reap. The page cache survives this: what the
    /// restarted server sees is kill-grade, not power-loss-grade.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib(None).unwrap() > 0.0);
    }

    #[test]
    fn pool_dir_is_removed_with_its_leftovers() {
        let dir = PoolDir::new("unit-pooldir");
        let base = dir.file("p.pool");
        for suffix in ["", ".s0", ".s1", ".init", ".tmp"] {
            std::fs::write(format!("{}{suffix}", base.display()), b"x").unwrap();
        }
        let path = dir.file("");
        dir.clear();
        assert_eq!(std::fs::read_dir(&path).unwrap().count(), 0);
        drop(dir);
        assert!(!path.exists());
    }
}
