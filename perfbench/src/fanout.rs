//! `fanout_merge`: the paper's Spawn/MergeAll primitive as a closed loop.
//!
//! Each round is one `run_with_pool` program over a fixed 8192-element
//! `MList<u64>`. The root spawns 128 children; child `i` makes 6 inserts
//! and 2 deletes inside its own 64-element segment. The root pushes one
//! element, waits until every child has signalled completion and the
//! pool is idle again, then calls `merge_all`. Waiting pins the
//! readiness of the batch: `merge_all` stages only the prefix of
//! children whose completions have already arrived, so calling it
//! straight away lets the scheduler choose between the staged and the
//! sequential path.

use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sm_core::{run_with_pool, Pool, PoolStats};
use sm_mergeable::{MList, Mergeable};
use sm_obs::{MetricsSnapshot, Phase};

use crate::{digest_u64s, per, phase, Block, Layers, Rng, Workload};

const BASE_LEN: usize = 8192;
const CHILDREN: usize = 128;
const SEGMENT: usize = BASE_LEN / CHILDREN;
const INSERTS: usize = 6;
const DELETES: usize = 2;
/// Distinct round inputs; rounds cycle through them so every expected
/// result is computed during set-up, outside the measured window.
const INPUTS: usize = 4;
/// Rounds run (and checked) during set-up.
const WARMUP_ROUNDS: usize = 16;
/// Poll interval of the pool-idle wait.
const POLL: Duration = Duration::from_micros(20);

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert at this offset into the child's segment.
    Insert(usize, u64),
    /// Delete at this offset into the child's segment.
    Delete(usize),
}

/// One round's inputs and the digest its result must have.
struct Input {
    children: Vec<Vec<Op>>,
    push: u64,
    expected: u64,
}

/// Completion gate: children arrive, the root waits for all of them.
#[derive(Default)]
struct Gate {
    arrived: Mutex<usize>,
    all: Condvar,
}

impl Gate {
    fn arrive(&self) {
        let mut n = self.arrived.lock().expect("gate lock");
        *n += 1;
        if *n == CHILDREN {
            self.all.notify_one();
        }
    }

    fn wait_all(&self) {
        let mut n = self.arrived.lock().expect("gate lock");
        while *n < CHILDREN {
            n = self.all.wait(n).expect("gate lock");
        }
    }
}

/// Benchmark spans of the traced rounds, ns.
#[derive(Debug, Default)]
struct Spans {
    rounds: u64,
    spawn: u64,
    wait: u64,
    ready: u64,
    merge_all: u64,
    pool_created: u64,
    pool_jobs: u64,
    pool_wait: u64,
}

pub struct FanoutMerge {
    base: MList<u64>,
    inputs: Vec<Arc<Input>>,
    pool: Pool,
    next: usize,
    spans: Spans,
    failures: Vec<String>,
}

/// The segment-local result: each child's segment edited on its own,
/// the segments concatenated, the root's element last.
fn model(base: &[u64], children: &[Vec<Op>], push: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(base.len() + CHILDREN * INSERTS + 1);
    for (i, ops) in children.iter().enumerate() {
        let mut seg = base[i * SEGMENT..(i + 1) * SEGMENT].to_vec();
        for op in ops {
            match *op {
                Op::Insert(at, v) => seg.insert(at, v),
                Op::Delete(at) => {
                    seg.remove(at);
                }
            }
        }
        out.extend(seg);
    }
    out.push(push);
    out
}

/// The sequential creation-order fold: fork every child before the
/// root's push, then merge them one by one.
fn fold(base: &MList<u64>, children: &[Vec<Op>], push: u64) -> MList<u64> {
    let mut root = base.clone();
    let kids: Vec<MList<u64>> = children
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            let mut kid = root.fork();
            apply(&mut kid, i, ops);
            kid
        })
        .collect();
    root.push(push);
    for kid in &kids {
        root.merge(kid).expect("sequential fold merges every child");
    }
    root
}

fn apply(list: &mut MList<u64>, child: usize, ops: &[Op]) {
    let start = child * SEGMENT;
    for op in ops {
        match *op {
            Op::Insert(at, v) => list.insert(start + at, v),
            Op::Delete(at) => {
                list.remove(start + at);
            }
        }
    }
}

/// Child scripts for one round. Inserts land strictly inside the
/// segment (never at either end), so no two children's inserts share a
/// position and the segment model is the exact expected result.
fn child_ops(rng: &mut Rng) -> Vec<Op> {
    let mut kinds = [true; INSERTS + DELETES];
    for k in kinds.iter_mut().take(DELETES) {
        *k = false;
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let mut len = SEGMENT;
    kinds
        .iter()
        .map(|&insert| {
            if insert {
                let op = Op::Insert(1 + rng.below(len - 1), rng.next_u64());
                len += 1;
                op
            } else {
                let op = Op::Delete(rng.below(len));
                len -= 1;
                op
            }
        })
        .collect()
}

/// Wait until every worker of `pool` is idle. A child's completion event
/// is sent after its function returns and before its worker goes idle,
/// so once the pool is idle every completion is queued at the root. Live
/// is read on both sides of idle so a worker retiring in between cannot
/// fake the match.
fn wait_idle(pool: &Pool) {
    loop {
        let live = pool.live_workers();
        let idle = pool.idle_workers();
        if idle == live && pool.live_workers() == live {
            return;
        }
        std::thread::sleep(POLL);
    }
}

impl FanoutMerge {
    /// One timed round on the next input, checked; returns (children
    /// merged into a correct result, latency ns).
    fn round(&mut self, traced: bool) -> (u64, u64) {
        let input = Arc::clone(&self.inputs[self.next % INPUTS]);
        self.next += 1;
        let gate = Arc::new(Gate::default());
        let pool_before = self.pool.stats();
        let t0 = Instant::now();
        let pool = self.pool.clone();
        let (list, (spawn_ns, wait_ns, ready_ns, merge_ns, merged)) =
            run_with_pool(self.base.clone(), pool.clone(), |ctx| {
                let mut spawn_ns = 0u64;
                for i in 0..CHILDREN {
                    let input = Arc::clone(&input);
                    let gate = Arc::clone(&gate);
                    let t = Instant::now();
                    ctx.spawn(move |child| {
                        apply(child.data_mut(), i, &input.children[i]);
                        gate.arrive();
                        Ok(())
                    });
                    spawn_ns += t.elapsed().as_nanos() as u64;
                }
                let t_spawned = Instant::now();
                ctx.data_mut().push(input.push);
                gate.wait_all();
                let t_done = Instant::now();
                wait_idle(&pool);
                let t_merge = Instant::now();
                let report = ctx.merge_all();
                let merge_ns = t_merge.elapsed().as_nanos() as u64;
                (
                    spawn_ns,
                    (t_done - t_spawned).as_nanos() as u64,
                    (t_merge - t_done).as_nanos() as u64,
                    merge_ns,
                    report.merged_count() as u64,
                )
            });
        let latency = t0.elapsed().as_nanos() as u64;
        if traced {
            let s = &mut self.spans;
            let after: PoolStats = self.pool.stats();
            s.rounds += 1;
            s.spawn += spawn_ns;
            s.wait += wait_ns;
            s.ready += ready_ns;
            s.merge_all += merge_ns;
            s.pool_created += after.threads_created - pool_before.threads_created;
            s.pool_jobs += after.jobs_executed - pool_before.jobs_executed;
            s.pool_wait += after.queue_wait_nanos - pool_before.queue_wait_nanos;
        }
        let digest = digest_u64s(list.iter().copied());
        if digest != input.expected && self.failures.len() < 8 {
            self.failures.push(format!(
                "round {}: state digest {digest:#x} differs from the sequential fold's {:#x}",
                self.next - 1,
                input.expected
            ));
        }
        let ok = if digest == input.expected { merged } else { 0 };
        (ok, latency)
    }
}

impl Workload for FanoutMerge {
    /// A 25-s run makes 1300–1900 rounds; p98 still leaves 10 samples
    /// above it at 500.
    const TAIL_PERCENTILE: f64 = 98.0;

    fn setup(seed: u64, _work: &Path, _rep: usize) -> Self {
        let mut rng = Rng::new(seed, 1);
        let values: Vec<u64> = (0..BASE_LEN).map(|_| rng.next_u64()).collect();
        let base = MList::from_vec(values.clone());
        let mut failures = Vec::new();
        let inputs = (0..INPUTS)
            .map(|k| {
                let children: Vec<Vec<Op>> = (0..CHILDREN).map(|_| child_ops(&mut rng)).collect();
                let push = rng.next_u64();
                let expected = digest_u64s(model(&values, &children, push));
                let folded = digest_u64s(fold(&base, &children, push).iter().copied());
                if folded != expected {
                    failures.push(format!(
                        "input {k}: sequential fold {folded:#x} differs from the segment model {expected:#x}"
                    ));
                }
                Arc::new(Input {
                    children,
                    push,
                    expected,
                })
            })
            .collect();
        let mut w = FanoutMerge {
            base,
            inputs,
            pool: Pool::new(),
            next: 0,
            spans: Spans::default(),
            failures,
        };
        for _ in 0..WARMUP_ROUNDS {
            w.round(false);
        }
        w
    }

    fn block(&mut self, dur: Duration, traced: bool) -> Block {
        let mut b = Block::default();
        let t = Instant::now();
        while t.elapsed() < dur {
            let (merged, latency) = self.round(traced);
            b.ops += merged;
            b.attempted += CHILDREN as u64;
            b.samples_ns.push(latency);
        }
        b
    }

    fn layers(&mut self, m: &MetricsSnapshot) -> Layers {
        let s = &self.spans;
        let rounds = s.rounds as f64;
        let children = rounds * CHILDREN as f64;
        let us_per_round = |p: Phase| per(phase(m, p).0, rounds) / 1e3;
        Layers {
            values: vec![
                ("core.spawn_us", per(s.spawn as f64, children) / 1e3),
                ("core.children_wait_ms", per(s.wait as f64, rounds) / 1e6),
                ("core.merge_all_ms", per(s.merge_all as f64, rounds) / 1e6),
                (
                    "core.pool_threads_peak",
                    self.pool.stats().peak_workers as f64,
                ),
                (
                    "core.pool_threads_created",
                    per(s.pool_created as f64, rounds),
                ),
                (
                    "core.pool_queue_wait_us",
                    per(s.pool_wait as f64, s.pool_jobs as f64) / 1e3,
                ),
                (
                    "mergeable.staged_share",
                    per(m.merge_staged_children as f64, children),
                ),
                (
                    "mergeable.merge_parallel_ms",
                    us_per_round(Phase::MergeParallel) / 1e3,
                ),
                ("mergeable.state_apply_us", us_per_round(Phase::StateApply)),
                ("ot.rebase_delta_us", us_per_round(Phase::RebaseDelta)),
                ("ot.rebase_grid_us", us_per_round(Phase::RebaseGrid)),
                (
                    "ot.grid_cells_per_child",
                    per(m.grid_cells_total as f64, m.merges_finished as f64),
                ),
                (
                    "ot.screen_rejects",
                    per(m.rebase_screen_rejects_total as f64, rounds),
                ),
            ],
            attributed: vec![
                ("core.spawn", s.spawn as f64),
                ("children.run", s.wait as f64),
                ("core.completion_handoff", s.ready as f64),
                ("core.merge_all", s.merge_all as f64),
            ],
        }
    }

    fn finish(self) -> Vec<String> {
        self.failures
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        vec![
            ("shape", format!("{CHILDREN} children x {INSERTS} inserts + {DELETES} deletes over {BASE_LEN} elements")),
            ("readiness", "completion signals, then pool idle".into()),
        ]
    }
}
