//! Proves the network models are allocation-free in steady state.
//!
//! Every topology (and the fault layer) is driven through thousands of
//! sends under a counting global allocator; after construction, no send may
//! touch the heap. The count is per thread, so allocations made by other
//! test threads in this binary never land in a test's window. This pins the arena/recycling properties the end-to-end
//! perf gate relies on: mesh routes live in a precomputed hop arena, the
//! fault layer's pair clocks are a dense table, and traffic accounting is
//! plain counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dirext_kernel::Time;
use dirext_network::{
    Envelope, FaultPlan, FaultyNetwork, HierMeshNetwork, MeshNetwork, Network, RingNetwork,
    TrafficClass, UniformNetwork,
};
use dirext_trace::NodeId;

struct CountingAlloc;

thread_local! {
    // `const` initialisation: touching the counter never allocates, so the
    // allocator can bump it without recursing into itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Streams a deterministic mix of control/data/update/sync messages across
/// all node pairs and returns how many heap allocations they caused.
fn allocs_during_sends(net: &mut dyn Network, rounds: u64) -> u64 {
    let classes = [
        (8, TrafficClass::Control),
        (40, TrafficClass::Data),
        (20, TrafficClass::Update),
        (8, TrafficClass::Sync),
    ];
    let before = allocs_so_far();
    for r in 0..rounds {
        for src in 0..16u16 {
            for dst in 0..16u16 {
                let (bytes, class) = classes[(src as usize + dst as usize + r as usize) % 4];
                let env = Envelope::new(NodeId(src), NodeId(dst), bytes, class);
                net.send_all(Time::from_cycles(r * 100), env);
            }
        }
    }
    allocs_so_far() - before
}

#[test]
fn uniform_network_sends_never_allocate() {
    let mut net = UniformNetwork::paper_default();
    assert_eq!(allocs_during_sends(&mut net, 20), 0);
}

#[test]
fn mesh_sends_never_allocate() {
    for link_bits in [64, 32, 16] {
        let mut net = MeshNetwork::paper_mesh(link_bits);
        assert_eq!(allocs_during_sends(&mut net, 20), 0, "{link_bits}-bit mesh");
    }
}

#[test]
fn ring_sends_never_allocate() {
    let mut net = RingNetwork::new(16, 32);
    assert_eq!(allocs_during_sends(&mut net, 20), 0);
}

/// Like [`allocs_during_sends`], but with the 16×16 pair grid spread
/// across the whole `nodes`-node id space so hierarchical topologies cross
/// cluster boundaries (gateway ascent, express grid, descent) instead of
/// staying inside cluster 0.
fn allocs_during_spread_sends(net: &mut dyn Network, nodes: u16, rounds: u64) -> u64 {
    let classes = [
        (8, TrafficClass::Control),
        (40, TrafficClass::Data),
        (20, TrafficClass::Update),
        (8, TrafficClass::Sync),
    ];
    let stride = (nodes / 16).max(1);
    let before = allocs_so_far();
    for r in 0..rounds {
        for si in 0..16u16 {
            for di in 0..16u16 {
                // Offset by the round so every pass hits different routers.
                let src = (si * stride + r as u16) % nodes;
                let dst = (di * stride + 7 * r as u16) % nodes;
                let (bytes, class) = classes[(si as usize + di as usize + r as usize) % 4];
                let env = Envelope::new(NodeId(src), NodeId(dst), bytes, class);
                net.send_all(Time::from_cycles(r * 100), env);
            }
        }
    }
    allocs_so_far() - before
}

#[test]
fn hier_mesh_sends_never_allocate() {
    for (nodes, link_bits) in [(64u16, 64), (256, 32), (1024, 16)] {
        let mut net = HierMeshNetwork::new(nodes as usize, link_bits);
        assert_eq!(
            allocs_during_spread_sends(&mut net, nodes, 20),
            0,
            "{nodes}-node {link_bits}-bit hier mesh"
        );
    }
}

#[test]
fn faulty_hier_mesh_sends_never_allocate() {
    // The fault layer sizes its pair-clock table for all 1024 nodes at
    // construction, so fault-perturbed cross-cluster sends stay
    // allocation-free (and in bounds).
    let plan = FaultPlan {
        drop_permille: 100,
        dup_permille: 100,
        jitter_cycles: 40,
        ..FaultPlan::seeded(42)
    };
    let mut net = FaultyNetwork::new(Box::new(HierMeshNetwork::new(1024, 32)), plan, 1024);
    assert_eq!(allocs_during_spread_sends(&mut net, 1024, 20), 0);
}

#[test]
fn fault_layer_sends_never_allocate() {
    let plan = FaultPlan {
        drop_permille: 100,
        dup_permille: 100,
        jitter_cycles: 40,
        ..FaultPlan::seeded(42)
    };
    let mut net = FaultyNetwork::new(Box::new(MeshNetwork::paper_mesh(32)), plan, 16);
    assert_eq!(allocs_during_sends(&mut net, 20), 0);
}
