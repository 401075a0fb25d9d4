//! Launching, watching and stopping the program's processes.

use crate::Res;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `binary args` with no input and its standard error piped.
fn command(binary: &Path, args: &[String]) -> Command {
    let mut command = Command::new(binary);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    command
}

/// How long a process may take to print its listening address.
const BIND_TIMEOUT: Duration = Duration::from_secs(30);

/// A long-running `sls-serve serve` or `route` process. Dropping it kills
/// the process and waits for it, so no exit path leaves one behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    /// Spawns `sls-serve <args>` and waits for the line announcing its
    /// address (`... on http://HOST:PORT ...`).
    pub fn spawn(binary: &Path, args: &[String]) -> Res<Server> {
        let mut child = command(binary, args).spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr until the process exits, so a chatty process never
        // blocks on a full pipe; keeps the tail for error messages.
        let reader = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = announced_addr(&line) {
                    tx.send(addr).ok();
                }
                tail.push(line);
                if tail.len() > 20 {
                    tail.remove(0);
                }
            }
            tail
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        match rx.recv_timeout(BIND_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(_) => {
                let tail = server.stop().join("\n");
                Err(format!(
                    "`sls-serve {}` never announced an address:\n{tail}",
                    args.join(" ")
                )
                .into())
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process, waits for it and returns its last stderr lines.
    pub fn stop(&mut self) -> Vec<String> {
        self.child.kill().ok();
        self.child.wait().ok();
        self.stderr
            .take()
            .and_then(|reader| reader.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn announced_addr(line: &str) -> Option<SocketAddr> {
    let rest = &line[line.find(" on http://")? + " on http://".len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Owned copies of command-line arguments.
pub fn args(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// [`run_job`] for a set-up step: a failure ends the run.
pub fn run_ok(binary: &Path, args: &[String]) -> Res<JobRun> {
    let run = run_job(binary, args)?;
    if !run.success {
        return Err(format!(
            "`{} {}` failed:\n{}",
            binary.display(),
            args.join(" "),
            run.stderr
        )
        .into());
    }
    Ok(run)
}

/// Launches `binary args`, waits for its first line on standard error and
/// kills it; returns the seconds from launch to that line, the job's
/// start-up before its main stage.
pub fn startup_s(binary: &Path, args: &[String]) -> Res<f64> {
    let start = Instant::now();
    let mut child = command(binary, args).spawn()?;
    let mut line = String::new();
    let read = BufReader::new(child.stderr.take().expect("stderr is piped")).read_line(&mut line);
    let startup_s = start.elapsed().as_secs_f64();
    child.kill().ok();
    child.wait()?;
    match read {
        Ok(n) if n > 0 => Ok(startup_s),
        _ => Err(format!(
            "`{} {}` ended without output",
            binary.display(),
            args.join(" ")
        )
        .into()),
    }
}

/// A one-shot job that ran to exit.
pub struct JobRun {
    pub wall_s: f64,
    /// Peak resident set size of the job process, in MiB.
    pub peak_rss_mb: f64,
    pub stderr: String,
    pub success: bool,
}

/// The leading fields of Linux's `struct rusage` (x86-64 and aarch64 share
/// this layout): two `timeval`s, then `ru_maxrss` in KiB, then 13 more
/// longs.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `binary args` to exit, timing launch to exit and reading the
/// process's own peak RSS from the kernel when it is reaped.
pub fn run_job(binary: &Path, args: &[String]) -> Res<JobRun> {
    let start = Instant::now();
    let mut child = command(binary, args).spawn()?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            text.push_str(&line);
            text.push('\n');
        }
        text
    });
    let pid = i32::try_from(child.id())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child, `status` and `usage` are
    // live, writable and laid out as the kernel's `int` and `struct rusage`.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        child.kill().ok();
        child.wait().ok();
        return Err(format!("wait4 failed for job pid {pid}").into());
    }
    let stderr = reader.join().unwrap_or_default();
    // Exit code 0: WIFEXITED with status 0 is a zero status word.
    Ok(JobRun {
        wall_s,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        stderr,
        success: status == 0,
    })
}
