//! `session_commit`: editors committing to the session server, each
//! waiting for its ack, at a fixed offered load.
//!
//! `SessionServer` runs with 2 shards over the in-memory `sm-net`, its
//! session journals on group commit ([`FSYNC`]). Two client threads hold
//! one connection each; each client owns 16 sessions and both share 2.
//! One commit in four goes to a shared session, so the server rebases
//! concurrent commits and broadcasts to two subscribers. Every commit
//! replaces 4 characters, so documents keep their size.
//!
//! Each editor has a commit due every [`PACE`]: after an ack it waits
//! until its next commit is due, or commits at once when it is behind.
//! The clients' schedules are offset by `PACE / CLIENTS`, so their
//! commits interleave rather than collide on the same instant by chance.
//!
//! The process runs on one CPU ([`procstat::pin_to_one_cpu`]): a commit
//! crosses four threads (client → reader → shard → client), and on two
//! CPUs each hand-off may wake an idle virtual CPU, which makes the
//! latency follow the host's scheduling more than the program.
//!
//! Sessions keep their whole op history (nothing truncates it, and
//! cloning a session copies it), so each commit costs more than the one
//! before; the fixed load gives every run the same commits and so the
//! same history. `NOTES.md` gives the measurements behind these choices.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use sm_codec::session::{ClientMsg, ServerMsg};
use sm_codec::{Decode, Encode};
use sm_mergeable::{MText, Mergeable, Persist};
use sm_net::Network;
use sm_obs::{MetricsSnapshot, Phase};
use sm_server::{CommitOutcome, ServerConfig, SessionClient, SessionServer};
use sm_store::{FsyncPolicy, Store, StoreOptions};

use crate::{per, phase, procstat, Block, Layers, Rng, Workload};

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const OWNED: usize = 16;
const SHARED: [u64; 2] = [1, 2];
const DOC_CHARS: usize = 512;
const REPLACE: usize = 4;
const PORT: u16 = 4700;
/// Session journal flush policy: group commit, one fsync per 1024
/// commits to a session (the policy of the repository's `bench_server`).
/// Per-commit fsyncs make the tail follow the shared disk; see `NOTES.md`.
const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(1024);
/// Paced commits per client during set-up (half a second).
const WARMUP_COMMITS: usize = 150;
/// Interval between one editor's due commits: 300 commits/s per client.
const PACE: Duration = Duration::from_micros(3333);
/// A traced client times one ping every this many commits.
const PING_EVERY: u64 = 64;
/// Owned-session edits kept per client for the commit-path replay.
const RECORD_CAP: usize = 2048;

struct Client {
    client: SessionClient<MText>,
    rng: Rng,
    owned: Vec<u64>,
    /// Edits `(session, pos, text)` of traced owned-session commits.
    recorded: Vec<(u64, usize, String)>,
    error: Option<String>,
}

/// What one client did in one block.
#[derive(Default)]
struct ClientBlock {
    block: Block,
    rebased: u64,
    ping_ns: u64,
    pings: u64,
}

/// Benchmark spans of the traced blocks.
#[derive(Default)]
struct Spans {
    commits: u64,
    rtt_ns: u64,
    rebased: u64,
    ping_ns: u64,
    pings: u64,
}

pub struct SessionCommit {
    /// The CPU the process is confined to, if confining it worked.
    cpu: Option<usize>,
    dir: PathBuf,
    genesis: String,
    server: Option<SessionServer>,
    clients: Vec<Client>,
    spans: Spans,
}

fn letters(rng: &mut Rng, n: usize) -> String {
    (0..n)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

enum Until {
    Deadline(Instant),
    Commits(usize),
}

impl Client {
    fn session(&mut self) -> u64 {
        let r = self.rng.below(4 * OWNED * SHARED.len());
        if r.is_multiple_of(4) {
            SHARED[(r / 4) % SHARED.len()]
        } else {
            self.owned[(r / 4) % OWNED]
        }
    }

    /// From `first_due` on: commit, wait for the ack, wait until the
    /// next commit is due.
    fn drive(&mut self, first_due: Instant, until: Until, traced: bool) -> ClientBlock {
        let mut out = ClientBlock::default();
        let mut n = 0usize;
        let mut due = first_due;
        while self.error.is_none()
            && match until {
                Until::Deadline(d) => due < d,
                Until::Commits(c) => n < c,
            }
        {
            n += 1;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            due += PACE;
            let session = self.session();
            let Some(len) = self.client.mirror(session).map(MText::char_len) else {
                self.error = Some(format!("session {session} has no mirror"));
                break;
            };
            let pos = self.rng.below(len - REPLACE + 1);
            let text = letters(&mut self.rng, REPLACE);
            let base = self.client.seq(session).unwrap_or(0);
            out.block.attempted += 1;
            let edit = text.clone();
            let t = Instant::now();
            let outcome = self.client.commit_with(session, |doc| {
                doc.delete_range(pos, REPLACE);
                doc.insert_str(pos, edit);
            });
            let rtt = t.elapsed().as_nanos() as u64;
            match outcome {
                Ok(CommitOutcome::Committed { seq }) => {
                    out.block.ops += 1;
                    out.block.samples_ns.push(rtt);
                    out.rebased += u64::from(seq > base + 1);
                    if traced && !SHARED.contains(&session) && self.recorded.len() < RECORD_CAP {
                        self.recorded.push((session, pos, text));
                    }
                }
                Ok(CommitOutcome::Rejected(reason)) => {
                    self.error = Some(format!("commit on session {session} rejected: {reason:?}"));
                }
                Err(e) => self.error = Some(format!("commit on session {session}: {e}")),
            }
            if traced && out.block.ops % PING_EVERY == 0 {
                let t = Instant::now();
                if let Err(e) = self.client.ping() {
                    self.error = Some(format!("ping: {e}"));
                }
                out.ping_ns += t.elapsed().as_nanos() as u64;
                out.pings += 1;
            }
        }
        out
    }
}

/// Run every client's loop on its own thread until `until`, client `i`
/// first due `i * PACE / CLIENTS` after a common start.
fn drive_all(clients: &mut [Client], until: impl Fn() -> Until, traced: bool) -> Vec<ClientBlock> {
    let start = Instant::now() + PACE;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let until = until();
                let first_due = start + PACE * i as u32 / CLIENTS as u32;
                s.spawn(move || c.drive(first_due, until, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn session_dir(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session:016x}"))
}

fn state_digest(doc: &MText) -> u64 {
    let mut buf = BytesMut::new();
    doc.encode_state(&mut buf);
    sm_obs::fnv1a(&buf)
}

/// Replay recorded edits through the shard's commit steps (clone →
/// apply_log → merge → seal_history → encode_committed_since → fork),
/// on one private replica per session starting from genesis, timing
/// those steps; then time the codec on the `Commit` and `Committed`
/// messages they produce. Returns mean ns per commit: (commit path,
/// encode, decode).
fn replay_commit_path(genesis: &str, edits: &[(u64, usize, String)]) -> (f64, f64, f64) {
    let mut by_session: BTreeMap<u64, Vec<(usize, &str)>> = BTreeMap::new();
    for (session, pos, text) in edits {
        by_session.entry(*session).or_default().push((*pos, text));
    }
    let mut path_ns = 0u64;
    let mut msgs: Vec<(ClientMsg, ServerMsg)> = Vec::with_capacity(edits.len());
    for (session, edits) in by_session {
        path_ns += replay_session(genesis, session, &edits, &mut msgs);
    }
    const PASSES: usize = 4;
    let t = Instant::now();
    let mut encoded = Vec::with_capacity(msgs.len());
    for _ in 0..PASSES {
        encoded.clear();
        for (c, s) in &msgs {
            encoded.push((c.to_bytes(), s.to_bytes()));
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for _ in 0..PASSES {
        for (c, s) in &encoded {
            let c = ClientMsg::from_bytes(c).expect("Commit round-trips");
            let s = ServerMsg::from_bytes(s).expect("Committed round-trips");
            std::hint::black_box((c, s));
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64;
    let n = (msgs.len() * PASSES) as f64;
    (
        per(path_ns as f64, edits.len() as f64),
        per(encode_ns, n),
        per(decode_ns, n),
    )
}

/// Replay one session's edits for [`replay_commit_path`], appending the
/// wire messages; returns the ns spent in the commit steps.
fn replay_session(
    genesis: &str,
    session: u64,
    edits: &[(usize, &str)],
    msgs: &mut Vec<(ClientMsg, ServerMsg)>,
) -> u64 {
    let mut data = MText::new();
    data.push_str(genesis);
    data.seal_history();
    let mut marks = Vec::new();
    data.history_marks(&mut marks);
    let mut base = data.fork();
    let mut path_ns = 0u64;
    for (seq, &(pos, text)) in edits.iter().enumerate() {
        let mut work = data.clone();
        work.delete_range(pos, REPLACE);
        work.insert_str(pos, text);
        work.seal_history();
        let mut ops = BytesMut::new();
        work.encode_committed_since(&marks, &mut 0, &mut ops);
        let ops = ops.to_vec();

        let t = Instant::now();
        let mut staged = base.clone();
        staged
            .apply_log(&mut Bytes::from(ops.clone()))
            .expect("recorded ops apply to their base");
        let mut next = data.clone();
        next.merge(&staged).expect("commit merges into the replica");
        next.seal_history();
        let mut slice = BytesMut::new();
        next.encode_committed_since(&marks, &mut 0, &mut slice);
        data = next;
        data.seal_history();
        marks.clear();
        data.history_marks(&mut marks);
        base = data.fork();
        path_ns += t.elapsed().as_nanos() as u64;

        let seq = seq as u64;
        msgs.push((
            ClientMsg::Commit {
                session,
                base_seq: seq,
                ops,
            },
            ServerMsg::Committed {
                session,
                seq: seq + 1,
                applied: true,
                ops: slice.to_vec(),
            },
        ));
    }
    path_ns
}

impl Workload for SessionCommit {
    /// A 25-s run makes 15 000 commits; p99 still leaves 10 samples
    /// above it at 1000.
    const TAIL_PERCENTILE: f64 = 99.0;

    fn setup(seed: u64, work: &Path, rep: usize) -> Self {
        // Before the server starts its threads, which inherit the pin.
        let cpu = procstat::pin_to_one_cpu();
        let dir = work.join(format!("server-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = Rng::new(seed, 2);
        let genesis = letters(&mut rng, DOC_CHARS);
        let net = Network::new();
        let mut config = ServerConfig::new(&dir);
        config.shards = SHARDS;
        config.idle_after = Duration::from_secs(3600);
        config.store.fsync = FSYNC;
        let factory_text = genesis.clone();
        let server = SessionServer::start(&net, PORT, config, move || {
            let mut doc = MText::new();
            doc.push_str(factory_text.clone());
            doc
        })
        .expect("start the session server");
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|c| {
                let mut client = SessionClient::connect(&net, PORT).expect("connect");
                let owned: Vec<u64> = (0..OWNED as u64)
                    .map(|k| 100 * (c as u64 + 1) + k)
                    .collect();
                for &s in owned.iter().chain(SHARED.iter()) {
                    client.attach(s).expect("attach");
                }
                Client {
                    client,
                    rng: Rng::new(seed, 10 + c as u64),
                    owned,
                    recorded: Vec::new(),
                    error: None,
                }
            })
            .collect();
        drive_all(&mut clients, || Until::Commits(WARMUP_COMMITS), false);
        SessionCommit {
            cpu,
            dir,
            genesis,
            server: Some(server),
            clients,
            spans: Spans::default(),
        }
    }

    fn block(&mut self, dur: Duration, traced: bool) -> Block {
        let deadline = Instant::now() + dur;
        let mut b = Block::default();
        for cb in drive_all(&mut self.clients, || Until::Deadline(deadline), traced) {
            if traced {
                let s = &mut self.spans;
                s.commits += cb.block.ops;
                s.rtt_ns += cb.block.samples_ns.iter().sum::<u64>();
                s.rebased += cb.rebased;
                s.ping_ns += cb.ping_ns;
                s.pings += cb.pings;
            }
            b.absorb(cb.block);
        }
        b
    }

    fn layers(&mut self, m: &MetricsSnapshot) -> Layers {
        let s = &self.spans;
        let commits = s.commits as f64;
        let (dispatch_ns, dispatches) = phase(m, Phase::ServerDispatch);
        let (append_ns, appends) = phase(m, Phase::WalAppend);
        let (fsync_ns, fsyncs) = phase(m, Phase::WalFsync);
        let dispatch_us = per(dispatch_ns, dispatches as f64) / 1e3;
        let rtt_us = per(s.rtt_ns as f64, commits) / 1e3;
        let edits: Vec<(u64, usize, String)> = self
            .clients
            .iter()
            .flat_map(|c| c.recorded.iter().cloned())
            .collect();
        let (path_ns, encode_ns, decode_ns) = replay_commit_path(&self.genesis, &edits);
        Layers {
            values: vec![
                ("server.dispatch_us", dispatch_us),
                ("server.handoff_us", rtt_us - dispatch_us),
                ("store.wal_append_us", per(append_ns, appends as f64) / 1e3),
                ("store.fsync_us", per(fsync_ns, fsyncs as f64) / 1e3),
                (
                    "store.fsyncs_per_commit",
                    per(m.wal_fsyncs as f64, m.wal_appends as f64),
                ),
                (
                    "store.wal_bytes_per_commit",
                    per(m.wal_bytes as f64, m.wal_appends as f64),
                ),
                ("mergeable.commit_path_us", path_ns / 1e3),
                ("codec.encode_ns", encode_ns),
                ("codec.decode_ns", decode_ns),
                (
                    "net.ping_rtt_us",
                    per(s.ping_ns as f64, s.pings as f64) / 1e3,
                ),
                ("ot.rebased_share", per(s.rebased as f64, commits)),
                (
                    "ot.rebase_delta_us",
                    per(phase(m, Phase::RebaseDelta).0, commits) / 1e3,
                ),
                (
                    "ot.rebase_grid_us",
                    per(phase(m, Phase::RebaseGrid).0, commits) / 1e3,
                ),
            ],
            // Only the shard dispatch is timed inside the program; the
            // reader thread, shard queue, delivery and client work stay
            // unattributed.
            attributed: vec![("server.dispatch", dispatch_us * 1e3 * commits)],
        }
    }

    fn finish(mut self) -> Vec<String> {
        let mut failures: Vec<String> = self
            .clients
            .iter()
            .filter_map(|c| c.error.clone())
            .collect();
        // Drain broadcasts until every subscriber of a shared session
        // reports the same sequence.
        let seqs = |clients: &[Client], s: u64| -> Vec<Option<u64>> {
            clients.iter().map(|c| c.client.seq(s)).collect()
        };
        for _ in 0..100 {
            for c in &mut self.clients {
                if let Err(e) = c.client.pump_all(Duration::from_millis(2)) {
                    failures.push(format!("draining broadcasts: {e}"));
                }
            }
            if SHARED
                .iter()
                .all(|&s| seqs(&self.clients, s).windows(2).all(|w| w[0] == w[1]))
            {
                break;
            }
        }
        let mut expected: Vec<(u64, u64, u64)> = Vec::new();
        for &s in &SHARED {
            let views: Vec<(Option<u64>, Option<u64>)> = self
                .clients
                .iter()
                .map(|c| (c.client.seq(s), c.client.state_digest(s)))
                .collect();
            if views.windows(2).any(|w| w[0] != w[1]) {
                failures.push(format!(
                    "shared session {s}: subscribers diverge: {views:?}"
                ));
            }
            if let (Some(seq), Some(digest)) = views[0] {
                expected.push((s, seq, digest));
            }
        }
        for c in &self.clients {
            for &s in &c.owned {
                match (c.client.seq(s), c.client.state_digest(s)) {
                    (Some(seq), Some(digest)) => expected.push((s, seq, digest)),
                    _ => failures.push(format!("session {s}: no mirror")),
                }
            }
        }
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        // Every acked commit must be in the store after the orderly
        // shutdown.
        for (s, seq, digest) in expected {
            let recovered = Store::open(session_dir(&self.dir, s), StoreOptions::default())
                .and_then(|store| store.recover::<MText>());
            match recovered {
                Ok(Some(r)) if r.last_seq == seq && state_digest(&r.data) == digest => {}
                Ok(Some(r)) => failures.push(format!(
                    "session {s}: store recovered seq {} digest {:#x}, client mirror seq {seq} digest {digest:#x}",
                    r.last_seq,
                    state_digest(&r.data)
                )),
                Ok(None) => failures.push(format!("session {s}: store holds no journal")),
                Err(e) => failures.push(format!("session {s}: recovery failed: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        failures
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        vec![
            ("fsync_policy", format!("{FSYNC:?}")),
            (
                "offered_load",
                format!(
                    "{} commits/s",
                    CLIENTS as u128 * 1_000_000 / PACE.as_micros()
                ),
            ),
            (
                "cpus_used",
                self.cpu
                    .map_or("all (pinning failed)".into(), |c| format!("1 (cpu {c})")),
            ),
            ("shards", SHARDS.to_string()),
            ("clients", CLIENTS.to_string()),
            (
                "sessions",
                format!("{OWNED} owned per client + {} shared", SHARED.len()),
            ),
        ]
    }
}

impl Drop for SessionCommit {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
