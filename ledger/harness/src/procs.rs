//! The served topology: `pegcli serve` (plus `pegcli shard-worker`
//! processes on the sharded workload), bound to ephemeral loopback ports
//! and killed when dropped — on success, on error and on unwind.

use crate::client::Conn;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a process may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// One `pegcli` process. Dropping it kills the process and waits for it.
pub struct Proc {
    child: Child,
    pub addr: String,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    fn spawn(pegcli: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(pegcli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pegcli.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Read the banner on a helper thread so a silent child cannot
        // hang the benchmark past START_TIMEOUT.
        let (tx, rx) = mpsc::channel();
        let banner = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return Err(line),
                    Ok(_) => {
                        if let Some((_, addr)) = line.trim().split_once(" listening on ") {
                            let _ = tx.send(());
                            return Ok((addr.to_string(), reader));
                        }
                    }
                }
            }
        });
        let started = rx.recv_timeout(START_TIMEOUT).is_ok();
        if !started {
            // Unblocks the banner thread: its read ends at EOF.
            let _ = child.kill();
        }
        match banner.join().expect("banner thread does not panic") {
            Ok((addr, reader)) if started => Ok(Proc { child, addr, _stdout: reader }),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                let detail = other.err().unwrap_or_default();
                Err(format!("pegcli {} did not start: {detail}", args.join(" ")))
            }
        }
    }

    /// Peak resident set (VmHWM) in KiB, read from `/proc`.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A coordinator and its workers (none when unsharded).
pub struct Topology {
    pub server: Proc,
    pub workers: Vec<Proc>,
}

impl Topology {
    /// Starts the topology with the servers' shipped defaults plus the
    /// graph spec, and returns it with its set-up time: first spawn to
    /// the first answered `ping`.
    pub fn start(
        pegcli: &Path,
        graph_flags: &[String],
        workers: usize,
    ) -> Result<(Topology, Duration), String> {
        let t0 = Instant::now();
        let loopback = || vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        let workers: Vec<Proc> = (0..workers)
            .map(|_| {
                let mut args = vec!["shard-worker".to_string()];
                args.extend(loopback());
                Proc::spawn(pegcli, &args)
            })
            .collect::<Result<_, _>>()?;
        let mut args = vec!["serve".to_string()];
        args.extend(loopback());
        args.extend(graph_flags.iter().cloned());
        if !workers.is_empty() {
            let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
            args.push("--workers".to_string());
            args.push(addrs.join(","));
        }
        let server = Proc::spawn(pegcli, &args)?;
        let mut conn = Conn::open(&server.addr)?;
        let (reply, _) = conn.call(r#"{"op":"ping"}"#).map_err(|e| format!("ping: {e}"))?;
        if !reply.starts_with(br#"{"ok":true"#) {
            return Err(format!("ping: {}", String::from_utf8_lossy(&reply)));
        }
        let setup = t0.elapsed();
        Ok((Topology { server, workers }, setup))
    }

    /// VmHWM summed over the coordinator and its workers, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut kib = self.server.peak_rss_kib()?;
        for w in &self.workers {
            kib += w.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }
}
