//! In-memory spans: one per call the benchmark makes into a layer.
//!
//! A span has a name, a start and end on one process-wide monotonic
//! clock, the id of the span that caused it, and the id of the cell it
//! belongs to. Spans are buffered per thread and merged into the
//! [`Recorder`] once per cell, then written out as JSON lines when the
//! run ends; per-layer self times are computed from the file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time the calling thread has consumed, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // the thread CPU-time clock every Linux libc supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A fresh span id (ids start at 1; 0 means "no parent").
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub cell: u64,
    pub name: &'static str,
    /// Free-form qualifier: the machine of a sim span, the figure of a
    /// render span. Empty when unused.
    pub tag: String,
    /// 0 for the run the CLI would make, 1 for the paired obs run.
    pub pass: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time of the recording thread during the span, where measured
    /// (the SUT sims); 0 elsewhere.
    pub cpu_ns: u64,
}

/// A span's identity before it ends: call [`Open::close`] to record it.
pub struct Open {
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl Open {
    pub fn start(parent: u64) -> Open {
        Open {
            id: next_id(),
            parent,
            start_ns: now_ns(),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn close(self, name: &'static str, cell: u64, tag: &str, pass: u8) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            cell,
            name,
            tag: tag.to_string(),
            pass,
            start_ns: self.start_ns,
            end_ns: now_ns(),
            cpu_ns: 0,
        }
    }
}

/// Every span of the run, merged from per-cell buffers.
#[derive(Default)]
pub struct Recorder {
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking cell")
            .extend(spans);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span recorder poisoned by a panicking cell"),
        )
    }
}

/// One span as a JSON line (names and tags are plain identifiers, but
/// quotes and backslashes are escaped anyway).
pub fn to_json_line(s: &Span) -> String {
    let tag: String = s
        .tag
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!(
        "{{\"id\":{},\"parent\":{},\"cell\":{},\"name\":\"{}\",\"tag\":\"{}\",\"pass\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
        s.id, s.parent, s.cell, s.name, tag, s.pass, s.start_ns, s.end_ns, s.cpu_ns
    )
}

/// A span whose start and end the caller measured.
pub fn span_between(name: &'static str, tag: &str, start_ns: u64, pass: u8) -> Span {
    Span {
        id: next_id(),
        parent: 0,
        cell: 0,
        name,
        tag: tag.to_string(),
        pass,
        start_ns,
        end_ns: now_ns(),
        cpu_ns: 0,
    }
}
