//! Per-layer micro-drivers: each calls one layer's public API on a stream
//! taken or derived from the workload's own inputs and cells, seeded from
//! `--seed` where it is random, and reports host nanoseconds per operation
//! (median of `REPS`).

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dirext_sim::core::dir::DirCtrl;
use dirext_sim::core::msg::MsgKind;
use dirext_sim::core::{CacheState, DirOrg, ExtStack, Line};
use dirext_sim::experiments::Journal;
use dirext_sim::kernel::{EventQueue, Time};
use dirext_sim::memsys::{FlcArray, Slc, SlcGeometry, Timing};
use dirext_sim::network::{
    Envelope, FaultPlan, FaultyNetwork, HierMeshNetwork, MeshNetwork, Network, RingNetwork,
    TrafficClass, UniformNetwork,
};
use dirext_sim::stats::Metrics;
use dirext_sim::trace::{BlockAddr, MemEvent, NodeId, Workload};

use crate::report::median;
use crate::span::Tracer;

const REPS: usize = 5;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Times `REPS` repetitions of `f`, each returning (elapsed ns, ops), and
/// gives the median ns per op.
fn per_op(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            tracer.span(name, None, |_| {
                let (ns, ops) = f();
                ns / ops.max(1) as f64
            })
        })
        .collect();
    median(&samples)
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Event-queue hold model parameters, derived from the workload's cells.
pub struct QueueMix {
    /// Live events per simulated node.
    pub per_node: f64,
    /// Delay classes: (weight, delay in cycles).
    pub delays: [(u64, u64); 3],
}

impl QueueMix {
    /// The live-event depth of an `nodes`-node machine.
    pub fn depth(&self, nodes: usize) -> usize {
        ((self.per_node * nodes as f64).round() as usize).max(1)
    }

    fn delay(&self, rng: &mut Rng) -> u64 {
        let total: u64 = self.delays.iter().map(|&(w, _)| w).sum();
        let mut r = rng.next() % total.max(1);
        for &(w, d) in &self.delays {
            if r < w {
                return d;
            }
            r -= w;
        }
        self.delays[0].1
    }
}

/// Mean read-miss latency of `metrics`, in cycles.
fn miss_latency(metrics: &[&Metrics]) -> f64 {
    let cycles: u64 = metrics.iter().map(|m| m.read_miss_cycles).sum();
    let count: u64 = metrics.iter().map(|m| m.read_miss_count).sum();
    cycles as f64 / count.max(1) as f64
}

/// The hold model's depth and delay mix. Depth, by Little's law per cell:
/// one pending step per processor plus the messages in flight, each held
/// for at most the mean read-miss latency; the median over cells, per
/// node. Delays: an FLC hit's `Timing::flc_hit`, an SLC hit's
/// `slc_access + flc_fill`, and a message's mean read-miss latency, mixed
/// by the cells' FLC hits, SLC hits and network messages.
pub fn queue_mix(metrics: &[Metrics]) -> QueueMix {
    let per_node: Vec<f64> = metrics
        .iter()
        .map(|m| {
            let in_flight = m.net_msgs as f64 * miss_latency(&[m]) / m.exec_cycles.max(1) as f64;
            (m.procs as f64 + in_flight) / m.procs.max(1) as f64
        })
        .collect();
    let sum = |f: fn(&Metrics) -> u64| metrics.iter().map(f).sum::<u64>();
    let t = Timing::paper_default();
    let all: Vec<&Metrics> = metrics.iter().collect();
    QueueMix {
        per_node: median(&per_node),
        delays: [
            (sum(|m| m.flc_hits), t.flc_hit.cycles()),
            (
                sum(|m| m.shared_refs().saturating_sub(m.flc_hits + m.slc_misses)),
                (t.slc_access + t.flc_fill).cycles(),
            ),
            (
                sum(|m| m.net_msgs),
                (miss_latency(&all).round() as u64).max(1),
            ),
        ],
    }
}

/// Event-queue hold model at a fixed live-event depth: pop the earliest
/// event, push one a delay drawn from `mix` later.
pub fn queue_ns_per_op(tracer: &mut Tracer, mix: &QueueMix, depth: usize, seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    per_op(tracer, "kernel.queue_hold", || {
        let mut rng = Rng::new(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        for _ in 0..depth {
            let d = mix.delay(&mut rng);
            q.push(Time::from_cycles(d), d);
        }
        let t = Instant::now();
        for _ in 0..OPS {
            let (at, v) = q.pop().expect("the hold model keeps the queue non-empty");
            let d = mix.delay(&mut rng);
            q.push(Time::from_cycles(at.cycles() + d), black_box(v ^ d));
        }
        black_box(q.len());
        (elapsed_ns(t), 2 * OPS)
    })
}

/// Processor `p`'s shared reads and writes, in program order.
fn refs_of(w: &Workload, p: usize) -> Vec<(BlockAddr, bool)> {
    w.program(p)
        .events()
        .iter()
        .filter_map(|e| match e {
            MemEvent::Read(a) => Some((a.block(), false)),
            MemEvent::Write(a) => Some((a.block(), true)),
            _ => None,
        })
        .collect()
}

/// Every processor's reference stream, input by input, until `cap`
/// references are collected.
fn streams(inputs: &[&Workload], cap: usize) -> Vec<Vec<Vec<(BlockAddr, bool)>>> {
    let mut out = Vec::new();
    let mut total = 0;
    for w in inputs {
        let mut procs = Vec::new();
        for p in 0..w.procs() {
            let refs = refs_of(w, p);
            total += refs.len();
            procs.push(refs);
            if total >= cap {
                out.push(procs);
                return out;
            }
        }
        out.push(procs);
    }
    out
}

/// FLC and SLC replay of the inputs' own reference streams:
/// `(flc ns/access, slc ns/op)`. Each input gets its own cold caches, so
/// every cache sees exactly one processor's stream. The FLC is
/// write-through without write allocation; the SLC is the paper's
/// infinite one.
pub fn memsys_ns(tracer: &mut Tracer, inputs: &[&Workload]) -> (f64, f64) {
    let streams = streams(inputs, 2_000_000);
    let flc_bytes = Timing::paper_default().flc_bytes;
    let flc = per_op(tracer, "memsys.flc_replay", || {
        let mut flcs: Vec<FlcArray> = streams
            .iter()
            .map(|procs| FlcArray::new(procs.len(), flc_bytes))
            .collect();
        let mut ops = 0u64;
        let t = Instant::now();
        for (flc, procs) in flcs.iter_mut().zip(&streams) {
            for (p, refs) in procs.iter().enumerate() {
                for &(b, write) in refs {
                    if !flc.access(p, b) && !write {
                        black_box(flc.fill(p, b));
                    }
                }
                ops += refs.len() as u64;
            }
        }
        (elapsed_ns(t), ops)
    });
    let slc = per_op(tracer, "memsys.slc_replay", || {
        let mut slcs: Vec<Vec<Slc<Line>>> = streams
            .iter()
            .map(|procs| {
                procs
                    .iter()
                    .map(|_| Slc::new(SlcGeometry::Infinite))
                    .collect()
            })
            .collect();
        let mut ops = 0u64;
        let t = Instant::now();
        for (caches, procs) in slcs.iter_mut().zip(&streams) {
            for (slc, refs) in caches.iter_mut().zip(procs) {
                for &(b, write) in refs {
                    ops += 1;
                    if slc.get(b).is_none() {
                        let state = if write {
                            CacheState::Dirty
                        } else {
                            CacheState::Shared
                        };
                        black_box(slc.insert(b, Line::new(state, 0, 0)));
                        ops += 1;
                    }
                }
            }
        }
        (elapsed_ns(t), ops)
    });
    (flc, slc)
}

/// The interconnects measured by `network_send_ns`, with their node counts.
pub const NETWORKS: [(&str, usize); 7] = [
    ("uniform", 16),
    ("mesh64", 16),
    ("mesh32", 16),
    ("mesh16", 16),
    ("hmesh64", 1024),
    ("ring32", 16),
    ("faulty", 16),
];

fn build_network(name: &str, nodes: usize, seed: u64) -> Box<dyn Network> {
    match name {
        "uniform" => Box::new(UniformNetwork::paper_default()),
        "mesh64" => Box::new(MeshNetwork::new(4, 4, 64)),
        "mesh32" => Box::new(MeshNetwork::new(4, 4, 32)),
        "mesh16" => Box::new(MeshNetwork::new(4, 4, 16)),
        "hmesh64" => Box::new(HierMeshNetwork::new(nodes, 64)),
        "ring32" => Box::new(RingNetwork::new(nodes, 32)),
        "faulty" => {
            let plan = FaultPlan {
                drop_permille: 10,
                dup_permille: 10,
                jitter_cycles: 16,
                ..FaultPlan::seeded(seed)
            };
            Box::new(FaultyNetwork::with_nodes(
                Box::new(UniformNetwork::paper_default()),
                plan,
                nodes,
            ))
        }
        other => unreachable!("unknown network {other}"),
    }
}

/// The network traffic of the workload's cells.
pub struct Traffic {
    /// Share of data-carrying messages (32-byte payload plus header)
    /// among data and control messages.
    pub data_share: f64,
    /// Messages each node sends per simulated cycle.
    pub per_node_rate: f64,
}

pub fn traffic(metrics: &[Metrics]) -> Traffic {
    let data: u64 = metrics.iter().map(|m| m.net_data_bytes / 40).sum();
    let control: u64 = metrics.iter().map(|m| m.net_control_bytes / 8).sum();
    let msgs: u64 = metrics.iter().map(|m| m.net_msgs).sum();
    let node_cycles: f64 = metrics
        .iter()
        .map(|m| m.exec_cycles as f64 * m.procs as f64)
        .sum();
    Traffic {
        data_share: data as f64 / (data + control).max(1) as f64,
        per_node_rate: msgs as f64 / node_cycles.max(1.0),
    }
}

/// `Network::send_all` over a seeded remote source/destination stream,
/// data and control messages mixed and spaced as in `traffic`, scaled to
/// the network's node count.
pub fn network_send_ns(
    tracer: &mut Tracer,
    name: &str,
    nodes: usize,
    traffic: &Traffic,
    seed: u64,
) -> f64 {
    const MSGS: usize = 100_000;
    let gap = 1.0 / (traffic.per_node_rate * nodes as f64).max(1e-9);
    let mut rng = Rng::new(seed);
    let stream: Vec<Envelope> = (0..MSGS)
        .map(|_| {
            let src = rng.below(nodes);
            let dst = (src + 1 + rng.below(nodes - 1)) % nodes;
            let data = (rng.next() % 1000) as f64 / 1000.0 < traffic.data_share;
            let (bytes, class) = if data {
                (40, TrafficClass::Data)
            } else {
                (8, TrafficClass::Control)
            };
            Envelope::new(NodeId(src as u16), NodeId(dst as u16), bytes, class)
        })
        .collect();
    per_op(tracer, "network.send", || {
        let mut net = build_network(name, nodes, seed);
        let mut now = 0.0;
        let t = Instant::now();
        for env in &stream {
            black_box(net.send_all(Time::from_cycles(now as u64), *env));
            now += gap;
        }
        black_box(net.traffic());
        (elapsed_ns(t), MSGS as u64)
    })
}

/// The input a directory organization is measured on: the largest
/// machine among the inputs that the organization supports.
pub fn dir_input<'a>(org: DirOrg, inputs: &[&'a Workload]) -> Option<&'a Workload> {
    inputs
        .iter()
        .filter(|w| org.validate(w.procs()).is_ok())
        .max_by_key(|w| w.procs())
        .copied()
}

/// A block's copies during the directory replay.
struct Copies {
    owner: Option<usize>,
    holders: Vec<u64>,
}

impl Copies {
    fn holds(&self, n: usize) -> bool {
        self.holders[n / 64] & (1 << (n % 64)) != 0
    }

    fn set(&mut self, n: usize, on: bool) {
        if on {
            self.holders[n / 64] |= 1 << (n % 64);
        } else {
            self.holders[n / 64] &= !(1 << (n % 64));
        }
    }
}

/// What the directory replay measured.
pub struct DirReplay {
    pub ns_per_msg: f64,
    /// The holders of every block held at the end of the replay.
    pub sharers: Vec<Vec<NodeId>>,
}

/// Closed-loop directory driver on the workload's own references, the
/// processors' streams interleaved one reference at a time. A read of a
/// block the node holds, or a write to a block it owns, hits in its
/// (infinite) SLC and sends nothing; every other reference is a request
/// to the home. Every third-party message is answered at once, so each
/// transaction completes before the next request. Returns ns per
/// `DirCtrl::handle` call and the sharer sets the replay ends with.
pub fn dir_replay(tracer: &mut Tracer, org: DirOrg, w: &Workload) -> Result<DirReplay, String> {
    const MSG_BUDGET: u64 = 100_000;
    let nodes = w.procs();
    let refs: Vec<Vec<(BlockAddr, bool)>> = (0..nodes).map(|p| refs_of(w, p)).collect();
    let longest = refs.iter().map(Vec::len).max().unwrap_or(0);
    let mut err = None;
    let mut sharers = Vec::new();
    let ns = per_op(tracer, "core.dir_handle", || {
        let mut dir = match DirCtrl::with_org(nodes, org, ExtStack::new()) {
            Ok(d) => d,
            Err(e) => {
                err = Some(e.to_string());
                return (0.0, 1);
            }
        };
        let mut blocks: HashMap<BlockAddr, Copies> = HashMap::new();
        let mut inbox: Vec<(NodeId, MsgKind)> = Vec::new();
        let mut actions = Vec::new();
        let mut msgs = 0u64;
        let mut busy_ns = 0.0;
        'replay: for i in 0..longest {
            for (n, stream) in refs.iter().enumerate() {
                let Some(&(block, write)) = stream.get(i) else {
                    continue;
                };
                let copies = blocks.entry(block).or_insert_with(|| Copies {
                    owner: None,
                    holders: vec![0; nodes.div_ceil(64)],
                });
                let request = match (write, copies.holds(n)) {
                    (false, true) => continue,
                    (false, false) => MsgKind::ReadReq { prefetch: false },
                    (true, held) if copies.owner != Some(n) => MsgKind::OwnReq { need_data: !held },
                    (true, _) => continue,
                };
                inbox.push((NodeId(n as u16), request));
                while let Some((src, kind)) = inbox.pop() {
                    actions.clear();
                    let t = Instant::now();
                    let r = dir.handle_into(src, block, kind, &mut actions);
                    busy_ns += elapsed_ns(t);
                    msgs += 1;
                    if let Err(e) = r {
                        err = Some(format!("{org}: {e}"));
                        break 'replay;
                    }
                    let copies = blocks.get_mut(&block).expect("entry made above");
                    for a in &actions {
                        let d = a.dst.0 as usize;
                        match a.kind {
                            MsgKind::ReadReply { exclusive } => {
                                copies.set(d, true);
                                if exclusive {
                                    copies.owner = Some(d);
                                }
                            }
                            MsgKind::OwnAck { .. } => {
                                copies.set(d, true);
                                copies.owner = Some(d);
                            }
                            MsgKind::Inval => {
                                copies.set(d, false);
                                inbox.push((a.dst, MsgKind::InvalAck));
                            }
                            MsgKind::Fetch => {
                                copies.owner = None;
                                inbox.push((a.dst, MsgKind::FetchReply { written: true }));
                            }
                            MsgKind::FetchInval => {
                                copies.owner = None;
                                copies.set(d, false);
                                inbox.push((a.dst, MsgKind::FetchInvalReply { written: true }));
                            }
                            MsgKind::Nack => inbox.push((src, request)),
                            other => {
                                err = Some(format!("{org}: unexpected {other:?}"));
                                break 'replay;
                            }
                        }
                    }
                }
                if msgs >= MSG_BUDGET {
                    break 'replay;
                }
            }
        }
        sharers = blocks
            .values()
            .map(|c| (0..nodes).filter(|&n| c.holds(n)).map(|n| NodeId(n as u16)).collect())
            .filter(|s: &Vec<NodeId>| !s.is_empty())
            .collect();
        sharers.sort();
        (busy_ns, msgs)
    });
    match err {
        Some(e) => Err(e),
        None => Ok(DirReplay {
            ns_per_msg: ns,
            sharers,
        }),
    }
}

/// `SharerSet::add`, full fan-out iteration and `may_contain` (probed with
/// seeded nodes) on the sharer sets a directory replay ended with:
/// `(add, iter, may_contain)` ns per call.
pub fn sharer_ns(
    tracer: &mut Tracer,
    org: DirOrg,
    nodes: usize,
    groups: &[Vec<NodeId>],
    seed: u64,
) -> (f64, f64, f64) {
    const MIN_OPS: usize = 100_000;
    let members: usize = groups.iter().map(Vec::len).sum();
    let rounds = MIN_OPS.div_ceil(members.max(1));
    let add = per_op(tracer, "core.sharer_add", || {
        let t = Instant::now();
        for _ in 0..rounds {
            for group in groups {
                let mut set = org.empty_set();
                for &n in group {
                    black_box(set.add(n));
                }
                black_box(&set);
            }
        }
        (elapsed_ns(t), (rounds * members) as u64)
    });
    let sets: Vec<_> = groups
        .iter()
        .map(|group| {
            let mut set = org.empty_set();
            for &n in group {
                set.add(n);
            }
            set
        })
        .collect();
    let iter_rounds = MIN_OPS.div_ceil(10 * sets.len().max(1));
    let iter = per_op(tracer, "core.sharer_iter", || {
        let t = Instant::now();
        for _ in 0..iter_rounds {
            for set in &sets {
                set.for_each_target(nodes, None, |n| {
                    black_box(n);
                });
            }
        }
        (elapsed_ns(t), (iter_rounds * sets.len()) as u64)
    });
    let mut rng = Rng::new(seed);
    let probes: Vec<NodeId> = (0..MIN_OPS)
        .map(|_| NodeId(rng.below(nodes) as u16))
        .collect();
    let may = per_op(tracer, "core.sharer_may_contain", || {
        let mut hits = 0u64;
        let t = Instant::now();
        for (set, &probe) in sets.iter().cycle().zip(&probes) {
            hits += u64::from(set.may_contain(probe));
        }
        black_box(hits);
        (elapsed_ns(t), if sets.is_empty() { 0 } else { MIN_OPS as u64 })
    });
    (add, iter, may)
}

/// `Journal::record_ok` (render, CRC, append, flush) of `metrics` into a
/// scratch journal: microseconds per append.
pub fn journal_append_us(
    tracer: &mut Tracer,
    dir: &Path,
    metrics: &Metrics,
) -> Result<f64, String> {
    const APPENDS: u64 = 200;
    let mut err = None;
    let ns = per_op(tracer, "experiments.journal_append", || {
        let path = dir.join("append.jsonl");
        let _ = std::fs::remove_file(&path);
        let journal = match Journal::create(&path) {
            Ok(j) => j,
            Err(e) => {
                err = Some(e.to_string());
                return (0.0, 1);
            }
        };
        let t = Instant::now();
        for i in 0..APPENDS {
            journal.record_ok(&format!("bench/append/{i}"), 1, metrics);
        }
        let ns = elapsed_ns(t);
        if let Some(e) = journal.take_write_error() {
            err = Some(e);
        }
        (ns, APPENDS)
    });
    match err {
        Some(e) => Err(e),
        None => Ok(ns / 1000.0),
    }
}

/// `Journal::resume` of a completed journal: milliseconds per load.
pub fn journal_load_ms(tracer: &mut Tracer, path: &Path) -> Result<f64, String> {
    let mut err = None;
    let ns = per_op(tracer, "experiments.journal_load", || {
        let t = Instant::now();
        match Journal::resume(path) {
            Ok(j) => {
                black_box(j.completed_cells());
            }
            Err(e) => err = Some(e.to_string()),
        }
        (elapsed_ns(t), 1)
    });
    match err {
        Some(e) => Err(e),
        None => Ok(ns / 1e6),
    }
}
