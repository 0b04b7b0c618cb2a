//! Recoverable breadth-first search — the paper's bfs workload as an
//! application: the frontier queue and level map live in persistent
//! memory, so a crashed traversal resumes from where it died instead of
//! restarting.
//!
//! ```text
//! cargo run --example graph_bfs
//! ```

use mod_core::{DurableMap, DurableQueue, ModHeap};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};
use mod_workloads::graph::{bfs_volatile, generate_scale_free};

fn main() {
    // The graph itself is volatile (rebuilt each run, like the paper's
    // Flickr graph); traversal progress is durable.
    let graph = generate_scale_free(4000, 6, 0x000F_11C4);
    println!(
        "graph: {} nodes, {} edge entries (scale-free)",
        graph.nodes(),
        graph.edge_entries()
    );

    let pool = Pmem::new(PmemConfig {
        capacity: 1 << 27,
        crash_sim: true,
        ..PmemConfig::default()
    });
    let mut heap = ModHeap::create(pool);
    let frontier: DurableQueue<u32> = DurableQueue::create(&mut heap);
    let levels: DurableMap<u64, u32> = DurableMap::create(&mut heap);

    /// One whole BFS step — dequeue the head node, record every
    /// unvisited neighbor's level and extend the frontier — as a single
    /// FASE: a crash anywhere leaves the step entirely done or entirely
    /// undone (the head still queued), so no node's expansion can be
    /// half-lost.
    fn bfs_step(
        heap: &mut ModHeap,
        graph: &mod_workloads::graph::Graph,
        frontier: &DurableQueue<u32>,
        levels: &DurableMap<u64, u32>,
    ) -> Option<u32> {
        let u = frontier.peek(&*heap)?;
        let lvl = levels.get(&*heap, &(u as u64)).unwrap();
        heap.fase(|tx| {
            frontier.dequeue_in(tx);
            for &v in &graph.adj[u as usize] {
                if levels.get(&*tx, &(v as u64)).is_none() {
                    levels.insert_in(tx, &(v as u64), &(lvl + 1));
                    frontier.enqueue_in(tx, &v);
                }
            }
        });
        Some(u)
    }

    // Start BFS from node 0, but "crash" partway through.
    levels.insert(&mut heap, &0, &0);
    frontier.enqueue(&mut heap, &0);
    let mut visited = 0u32;
    while bfs_step(&mut heap, &graph, &frontier, &levels).is_some() {
        visited += 1;
        if visited == 1500 {
            println!("-- simulated power failure after visiting 1500 nodes --");
            break;
        }
    }

    // Crash and recover: the frontier and level map come back; traversal
    // resumes without revisiting the first 1500 nodes.
    heap.quiesce();
    let img = heap.into_pm().crash_image(CrashPolicy::OnlyFenced);
    let (mut heap, report) = ModHeap::open(img);
    let frontier: DurableQueue<u32> = heap.root(0).open().unwrap();
    let levels: DurableMap<u64, u32> = heap.root(1).open().unwrap();
    println!(
        "recovered: frontier holds {} nodes, {} levels recorded, {} live blocks",
        frontier.len(&heap),
        levels.len(&heap),
        report.live_blocks
    );

    while bfs_step(&mut heap, &graph, &frontier, &levels).is_some() {}

    // Cross-check against a volatile BFS oracle.
    let oracle = bfs_volatile(&graph, 0);
    let mut checked = 0;
    for (node, &want) in oracle.iter().enumerate() {
        let got = levels
            .get(&heap, &(node as u64))
            .unwrap_or_else(|| panic!("node {node} unvisited"));
        assert_eq!(got, want, "node {node}");
        checked += 1;
    }
    println!("resumed traversal completed: {checked} node levels match the oracle. QED.");
}
