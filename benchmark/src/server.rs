//! The system under test as a child process: builds the root
//! workspace's `dna` binary, spawns `dna serve … --listen 127.0.0.1:0
//! --quiet`, and always kills and reaps it.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Where this checkout keeps the benchmark's scratch files (the
/// snapshot handed to the server) and its results.
pub const RESULTS_DIR: &str = "benchmark/results";

/// Builds `dna` from the checkout in the working directory and returns
/// the path of the executable. A no-op after the first call.
pub fn build_dna() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").exists() {
        return Err("run from the root of a checkout (crates/cli/Cargo.toml not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "dna"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin dna failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let exe = target.join("release").join("dna");
    if !exe.exists() {
        return Err(format!("built binary not found at {}", exe.display()));
    }
    Ok(exe)
}

/// One running `dna serve`; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns the server on `snapshot` (session name `bench`) and blocks
    /// until it announces its TCP port, i.e. until engine bring-up is done.
    pub fn spawn(exe: &Path, snapshot: &Path, obs_disabled: bool) -> Result<Server, String> {
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg(format!("{}={}", crate::SESSION, snapshot.display()))
            .args(["--listen", "127.0.0.1:0", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if obs_disabled {
            cmd.env("DNA_OBS_DISABLED", "1");
        } else {
            cmd.env_remove("DNA_OBS_DISABLED");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {exe:?}: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let announced = stderr.read_line(&mut line).map_err(|e| e.to_string());
        let addr = announced.and_then(|_| {
            line.trim()
                .strip_prefix("dna serve: listening on tcp ")
                .map(str::to_string)
                .ok_or_else(|| format!("server did not announce a port: {line:?}"))
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stderr_drain: None,
        };
        server.addr = addr?;
        // Keep draining stderr so a chatty server can never block on it;
        // the pipe closes, and the thread ends, when the child is killed.
        server.stderr_drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        }));
        Ok(server)
    }

    /// Peak resident set of the server process so far, in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

/// Cumulative CPU and fault counters of the server process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcUsage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl Server {
    /// `/proc/<pid>/stat`: utime and stime (in 100 Hz ticks) and minflt.
    pub fn usage(&self) -> Result<ProcUsage, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; the first is field 3.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let field = |n: usize| -> Result<f64, String> {
            rest.split_whitespace()
                .nth(n - 3)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{path}: no field {n}"))
        };
        Ok(ProcUsage {
            minor_faults: field(10)?,
            user_s: field(14)? / 100.0,
            sys_s: field(15)? / 100.0,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}
