//! The machine record printed with every report, so a verdict that does not
//! resolve can be told apart from host drift.

use crate::report::json_number;
use std::time::Instant;

/// Milliseconds a fixed single-thread integer loop takes. It depends on no
/// program code, so a change in it is the host, not the program.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Steal ticks summed over all CPUs (the eighth field of `/proc/stat`'s
/// `cpu` line); 0 where the file is unavailable.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host state at the start of a run, completed by [`MachineRecord::finish`].
pub struct MachineRecord {
    calib_before_ms: f64,
    steal_before: u64,
}

/// The completed record.
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub steal_ticks: u64,
    pub calib_before_ms: f64,
    pub calib_after_ms: f64,
}

impl MachineRecord {
    pub fn start() -> Self {
        Self {
            calib_before_ms: calib_ms(),
            steal_before: steal_ticks(),
        }
    }

    pub fn finish(self) -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            steal_ticks: steal_ticks().saturating_sub(self.steal_before),
            calib_before_ms: self.calib_before_ms,
            calib_after_ms: calib_ms(),
        }
    }
}

impl Machine {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {:?}, \"steal_ticks\": {}, \"calib_before_ms\": {}, \
             \"calib_after_ms\": {}, \"load\": \"closed loop, one client thread, one connection; \
             fixed-rate open-loop sweeps wait for a quieter box\"}}",
            self.nproc,
            self.cpu_model,
            self.steal_ticks,
            json_number(self.calib_before_ms),
            json_number(self.calib_after_ms)
        )
    }
}
