//! Host and build metadata, printed with every result so two runs can be
//! compared only when they ran on comparable machines and builds.

use std::process::Command;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release from `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the tree, when it is a git checkout.
    pub commit: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Whether the program's `trace` feature is compiled in (and its
    /// runtime switch on).
    pub trace_compiled: bool,
}

fn first_line(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .next()
        .unwrap_or("")
        .trim()
        .to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => first_line(&out.stdout),
        _ => "unknown".to_string(),
    }
}

/// Number of CPUs the workloads size their pools by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time of the whole machine from `/proc/stat`, in clock ticks:
/// (all states, stolen by the hypervisor). Zeros where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Samples [`cpu_ticks`] at every whole `window` from a background
/// thread, so the request loops pay nothing for it: the share of machine
/// time the hypervisor stole in each window of a timed phase.
pub struct StealSampler {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<Vec<f64>>,
}

impl StealSampler {
    /// Starts sampling; window `k` ends `k · window` from now.
    pub fn start(window: Duration) -> StealSampler {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let start = Instant::now();
            let mut shares = Vec::new();
            let mut prev = cpu_ticks();
            loop {
                let end = start + window * (shares.len() as u32 + 1);
                let wait = end.saturating_duration_since(Instant::now());
                if stopped.recv_timeout(wait) != Err(mpsc::RecvTimeoutError::Timeout) {
                    return shares;
                }
                let now = cpu_ticks();
                let total = now.0.saturating_sub(prev.0);
                let steal = now.1.saturating_sub(prev.1);
                shares.push(if total == 0 {
                    0.0
                } else {
                    steal as f64 / total as f64
                });
                prev = now;
            }
        });
        StealSampler { stop, thread }
    }

    /// Stops the thread and returns each whole window's stolen share.
    pub fn stop(self) -> Vec<f64> {
        drop(self.stop);
        self.thread.join().expect("steal sampler panicked")
    }
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or("unknown".to_string(), |k| k.trim().to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["-V"]),
            commit: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            trace_compiled: openapi_trace::enabled(),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \"profile\": {}, \"trace_feature\": {}}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.kernel),
            json_string(&self.rustc),
            json_string(&self.commit),
            json_string(self.profile),
            self.trace_compiled
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
