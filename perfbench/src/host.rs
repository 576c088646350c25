//! Host facts read from `/proc`: run identity, memory high-water mark,
//! CPU time, and per-thread run-queue wait (a noisy-host flag).

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Who and where a result came from.
pub struct Identity {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
}

impl Identity {
    /// Runs `git rev-parse HEAD` (confined to `root`: a checkout without
    /// `.git` reports `unknown` instead of finding an enclosing
    /// repository) and `rustc -V`.
    pub fn collect(root: &Path) -> Identity {
        let ceiling = root
            .canonicalize()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        let mut git = Command::new("git");
        git.args(["rev-parse", "HEAD"])
            .current_dir(root)
            .env("GIT_CEILING_DIRECTORIES", ceiling);
        Identity {
            commit: first_line(&mut git).unwrap_or_else(|| "unknown".into()),
            rustc: first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// `VmHWM`: the process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of the process, exited threads
/// included, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Run-queue wait in ns of every live thread, by thread id.
fn task_waits() -> HashMap<u64, u64> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(s) = std::fs::read_to_string(e.path().join("schedstat")) else {
            continue;
        };
        // Fields: on-cpu ns, run-queue wait ns, timeslices.
        if let Some(wait) = s.split_whitespace().nth(1).and_then(|x| x.parse().ok()) {
            out.insert(tid, wait);
        }
    }
    out
}

/// A live thread as last polled.
struct Seen {
    wait_ns: u64,
    first: Instant,
    last: Instant,
}

/// Exited threads whose lifetimes are kept, most recent last.
const EXITED_KEPT: usize = 256;

#[derive(Default)]
struct SamplerState {
    live: HashMap<u64, Seen>,
    /// Run-queue wait of threads that have exited, as last polled.
    exited_wait_ns: u64,
    /// `(first, last)` instants at which recently exited threads were
    /// seen alive.
    exited: VecDeque<(Instant, Instant)>,
}

/// Polls `/proc/self/task/*/schedstat` on a background thread so the
/// run-queue wait of short-lived threads (sweep workers, connection
/// handlers) is counted after they exit, up to one polling period.
pub struct Sampler {
    state: Arc<Mutex<SamplerState>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    pub fn start(period: Duration) -> Sampler {
        let state = Arc::new(Mutex::new(SamplerState::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let (st, sp) = (Arc::clone(&state), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            while !sp.load(Ordering::Relaxed) {
                poll(&st);
                std::thread::sleep(period);
            }
        });
        poll(&state);
        Sampler {
            state,
            stop,
            thread: Some(thread),
        }
    }

    /// Run-queue wait summed over every thread seen so far, in ms.
    pub fn runq_wait_ms(&self) -> f64 {
        poll(&self.state);
        let st = lock(&self.state);
        let live: u64 = st.live.values().map(|t| t.wait_ns).sum();
        (st.exited_wait_ns + live) as f64 / 1e6
    }

    /// The last instant each thread first seen after `since` was seen
    /// alive.
    pub fn threads_born_after(&self, since: Instant) -> Vec<Instant> {
        poll(&self.state);
        let st = lock(&self.state);
        st.live
            .values()
            .map(|t| (t.first, t.last))
            .chain(st.exited.iter().copied())
            .filter(|&(first, _)| first > since)
            .map(|(_, last)| last)
            .collect()
    }

    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.halt();
    }
}

fn lock(m: &Mutex<SamplerState>) -> std::sync::MutexGuard<'_, SamplerState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn poll(state: &Mutex<SamplerState>) {
    let now = Instant::now();
    let waits = task_waits();
    let mut st = lock(state);
    let gone: Vec<u64> = st
        .live
        .keys()
        .filter(|t| !waits.contains_key(t))
        .copied()
        .collect();
    for tid in gone {
        if let Some(t) = st.live.remove(&tid) {
            st.exited_wait_ns += t.wait_ns;
            if st.exited.len() == EXITED_KEPT {
                st.exited.pop_front();
            }
            st.exited.push_back((t.first, t.last));
        }
    }
    for (tid, wait_ns) in waits {
        let t = st.live.entry(tid).or_insert(Seen {
            wait_ns,
            first: now,
            last: now,
        });
        t.wait_ns = wait_ns;
        t.last = now;
    }
}
