//! `crash_recover`: reopen and recover a large journal in a closed loop.
//!
//! Set-up journals 10⁶ scattered `MList<u64>` inserts in 1000 commits
//! (`FsyncPolicy::EveryN(256)`, 1 MiB segments) and reads it once so
//! the page cache is warm. Each timed operation is `Store::open` plus
//! `Store::recover` of the whole journal: the store's read side
//! (segment decode fanned out on a pool, then the prepared replay).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sm_mergeable::MList;
use sm_obs::{MetricsSnapshot, Phase, TaskPath};
use sm_store::{FsyncPolicy, Store, StoreOptions};

use crate::{digest_u64s, per, phase, Block, Layers, Rng, Workload};

const OPS: usize = 1_000_000;
const COMMITS: usize = 1_000;
/// Inserts land within this many elements of the list's tail.
const WINDOW: usize = 4096;
const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(256);
const SEGMENT_BYTES: u64 = 1 << 20;

fn options() -> StoreOptions {
    StoreOptions {
        fsync: FSYNC,
        segment_bytes: SEGMENT_BYTES,
        ..StoreOptions::default()
    }
}

/// Benchmark spans of the traced recoveries, ns.
#[derive(Default)]
struct Spans {
    recoveries: u64,
    open: u64,
    recover: u64,
}

pub struct CrashRecover {
    dir: PathBuf,
    expected_digest: u64,
    expected_replayed: u64,
    spans: Spans,
    failures: Vec<String>,
}

impl CrashRecover {
    /// One timed open + recover, checked. Returns (replayed ops, ns).
    fn recover_once(&mut self, traced: bool) -> (u64, u64) {
        let t0 = Instant::now();
        let store = Store::open(self.dir.clone(), options());
        let t1 = Instant::now();
        let recovered = store.and_then(|s| s.recover::<MList<u64>>());
        let t2 = Instant::now();
        if traced {
            self.spans.recoveries += 1;
            self.spans.open += (t1 - t0).as_nanos() as u64;
            self.spans.recover += (t2 - t1).as_nanos() as u64;
        }
        let latency = (t2 - t0).as_nanos() as u64;
        let failure = match recovered {
            Ok(Some(r)) => {
                let digest = digest_u64s(r.data.iter().copied());
                if digest != self.expected_digest {
                    Some(format!(
                        "recovered digest {digest:#x}, journaled state {:#x}",
                        self.expected_digest
                    ))
                } else if r.replayed_ops != self.expected_replayed {
                    Some(format!(
                        "replayed {} ops, the warm read replayed {}",
                        r.replayed_ops, self.expected_replayed
                    ))
                } else {
                    return (r.replayed_ops, latency);
                }
            }
            Ok(None) => Some("the journal vanished".into()),
            Err(e) => Some(format!("recovery failed: {e}")),
        };
        if let (Some(f), true) = (failure, self.failures.len() < 8) {
            self.failures.push(f);
        }
        (0, latency)
    }
}

impl Workload for CrashRecover {
    /// A 25-s run makes about 250 recoveries; p90 still leaves 10
    /// samples above it at 100.
    const TAIL_PERCENTILE: f64 = 90.0;

    fn setup(seed: u64, work: &Path, rep: usize) -> Self {
        let dir = work.join(format!("journal-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(dir.clone(), options()).expect("open the journal");
        let mut data = MList::<u64>::new();
        store.begin(&data).expect("begin the journal");
        let mut rng = Rng::new(seed, 3);
        for _ in 0..COMMITS {
            for _ in 0..OPS / COMMITS {
                let window = (data.len() + 1).min(WINDOW);
                let at = data.len() + 1 - window + rng.below(window);
                data.insert(at, rng.next_u64());
            }
            store
                .commit(&data, &TaskPath::root())
                .expect("journal a commit");
        }
        store.sync().expect("sync the journal");
        drop(store);
        let mut w = CrashRecover {
            dir,
            expected_digest: digest_u64s(data.iter().copied()),
            expected_replayed: 0,
            spans: Spans::default(),
            failures: Vec::new(),
        };
        // The warm read: page cache, the tail segment recovery opens,
        // and the replayed-op count every later recovery must repeat.
        match Store::open(w.dir.clone(), options()).and_then(|s| s.recover::<MList<u64>>()) {
            Ok(Some(r)) if r.data.len() == OPS => w.expected_replayed = r.replayed_ops,
            Ok(Some(r)) => w.failures.push(format!(
                "warm read recovered {} of {OPS} elements",
                r.data.len()
            )),
            Ok(None) => w.failures.push("warm read found no journal".into()),
            Err(e) => w.failures.push(format!("warm read failed: {e}")),
        }
        w
    }

    fn block(&mut self, dur: Duration, traced: bool) -> Block {
        let mut b = Block::default();
        let t = Instant::now();
        while t.elapsed() < dur {
            let (replayed, latency) = self.recover_once(traced);
            b.ops += replayed;
            b.attempted += self.expected_replayed.max(1);
            b.samples_ns.push(latency);
        }
        b
    }

    fn layers(&mut self, m: &MetricsSnapshot) -> Layers {
        let s = &self.spans;
        let n = s.recoveries as f64;
        let (decode_ns, _) = phase(m, Phase::RecoveryDecode);
        let (apply_ns, _) = phase(m, Phase::RecoveryApply);
        let segments = std::fs::read_dir(&self.dir)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                    .count()
            })
            .unwrap_or(0);
        Layers {
            values: vec![
                ("store.open_ms", per(s.open as f64, n) / 1e6),
                ("store.recover_ms", per(s.recover as f64, n) / 1e6),
                ("store.recovery_decode_ms", per(decode_ns, n) / 1e6),
                ("store.recovery_apply_ms", per(apply_ns, n) / 1e6),
                ("store.segments", segments as f64),
                (
                    "store.replayed_ops",
                    per(m.recovery_replayed_ops as f64, m.recoveries as f64),
                ),
                (
                    "core.pool_threads_created",
                    per(m.workers_started as f64, n),
                ),
                ("core.pool_threads_peak", m.workers_peak as f64),
            ],
            attributed: vec![
                ("store.open", s.open as f64),
                ("store.recovery_decode", decode_ns),
                ("store.recovery_apply", apply_ns),
            ],
        }
    }

    fn finish(self) -> Vec<String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        self.failures
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fsync_policy", format!("{FSYNC:?} (journal build)")),
            ("segment_bytes", SEGMENT_BYTES.to_string()),
            ("journal", format!("{OPS} ops in {COMMITS} commits")),
        ]
    }
}
