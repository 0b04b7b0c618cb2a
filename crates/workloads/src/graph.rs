//! Synthetic scale-free graph and the recoverable-BFS workload.
//!
//! The paper runs breadth-first search over the Flickr crawl (0.82 M
//! nodes, 9.84 M edges) using a *recoverable queue* for the frontier,
//! reconstructing the (volatile) graph itself each run. We have no
//! Flickr dataset, so a deterministic preferential-attachment generator
//! produces a graph of the same shape (power-law degrees, ~12 edges per
//! node); BFS behaviour depends only on push/pop volume and order, which
//! the substitution preserves (see DESIGN.md §2).

use crate::report::{MeasuredRun, RunReport};
use crate::spec::{ScaleConfig, System, Workload, WorkloadRng};
use mod_core::{DurableQueue, ModHeap};
use mod_stm::{StmQueue, TxHeap, TxMode};

/// An in-memory (volatile) undirected graph in adjacency-list form.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Adjacency lists; `adj[u]` holds the neighbours of `u`.
    pub adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of (directed) edge entries.
    pub fn edge_entries(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum()
    }
}

/// Generates a scale-free graph by preferential attachment: node `v`
/// attaches `edges_per_node` edges to targets sampled from the endpoint
/// list (rich get richer), yielding the power-law degree shape of social
/// graphs like Flickr. Deterministic in `seed`.
pub fn generate_scale_free(n: usize, edges_per_node: usize, seed: u64) -> Graph {
    assert!(n >= 2, "graph needs at least two nodes");
    let mut rng = WorkloadRng::new(seed);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    // Endpoint pool: each edge contributes both endpoints, so sampling
    // uniformly from it is degree-proportional sampling.
    let mut pool: Vec<u32> = vec![0, 1];
    adj[0].push(1);
    adj[1].push(0);
    for v in 2..n as u32 {
        for _ in 0..edges_per_node.max(1) {
            let t = pool[rng.below(pool.len() as u64) as usize];
            if t == v || adj[v as usize].contains(&t) {
                continue;
            }
            adj[v as usize].push(t);
            adj[t as usize].push(v);
            pool.push(v);
            pool.push(t);
        }
    }
    Graph { adj }
}

/// BFS from `src` using a volatile queue — the oracle for correctness
/// tests. Returns levels (`u32::MAX` = unreachable).
pub fn bfs_volatile(g: &Graph, src: u32) -> Vec<u32> {
    let mut level = vec![u32::MAX; g.nodes()];
    let mut q = std::collections::VecDeque::new();
    level[src as usize] = 0;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for &v in &g.adj[u as usize] {
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    level
}

fn graph_for(scale: &ScaleConfig) -> Graph {
    let n = (scale.ops as usize / 2).max(512);
    // Flickr has ~12 edge entries per node (9.84M/0.82M); attach 6
    // undirected edges per node for the same density.
    generate_scale_free(n, 6, scale.seed)
}

/// Runs the recoverable-BFS workload: frontier node ids flow through a
/// durable queue (one FASE per push/pop), the graph and level array stay
/// volatile (the paper does not store the graph durably either).
pub fn run_bfs(sys: System, scale: &ScaleConfig) -> RunReport {
    let g = graph_for(scale);
    match sys {
        System::Mod => bfs_mod(&g, scale),
        System::Pmdk14 => bfs_stm(&g, scale, TxMode::Undo, sys),
        System::Pmdk15 => bfs_stm(&g, scale, TxMode::Hybrid, sys),
    }
}

fn bfs_mod(g: &Graph, scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(scale.pmem());
    let queue: DurableQueue<u64> = DurableQueue::create(&mut heap);
    let mut run = MeasuredRun::start(heap.nv(), Workload::Bfs, System::Mod, &["bfs-queue-op"]);
    let mut level = vec![u32::MAX; g.nodes()];
    level[0] = 0;
    run.op(0, &mut heap, |h| queue.enqueue(h, &0));
    let mut ops = 1u64;
    while let Some(u) = {
        ops += 1;
        run.op(0, &mut heap, |h| queue.dequeue(h))
    } {
        let u = u as usize;
        for &v in &g.adj[u] {
            // Volatile graph/level accesses: modelled as cheap DRAM work.
            heap.nv_mut().pm_mut().charge_ns(1.0);
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u] + 1;
                run.op(0, &mut heap, |h| queue.enqueue(h, &(v as u64)));
                ops += 1;
            }
        }
    }
    run.finish(heap.nv(), ops)
}

fn bfs_stm(g: &Graph, scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let queue = StmQueue::create(&mut heap);
    let run = MeasuredRun::start(heap.nv(), Workload::Bfs, sys, &[]);
    let mut level = vec![u32::MAX; g.nodes()];
    level[0] = 0;
    queue.enqueue(&mut heap, 0);
    let mut ops = 1u64;
    while let Some(u) = {
        ops += 1;
        queue.dequeue(&mut heap)
    } {
        let u = u as usize;
        for &v in &g.adj[u] {
            heap.nv_mut().pm_mut().charge_ns(1.0);
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u] + 1;
                queue.enqueue(&mut heap, v as u64);
                ops += 1;
            }
        }
    }
    run.finish(heap.nv(), ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_connected_and_deterministic() {
        let g1 = generate_scale_free(500, 6, 7);
        let g2 = generate_scale_free(500, 6, 7);
        assert_eq!(g1.adj, g2.adj);
        let levels = bfs_volatile(&g1, 0);
        // Preferential attachment always links new nodes into the giant
        // component: everything is reachable.
        assert!(levels.iter().all(|&l| l != u32::MAX));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = generate_scale_free(2000, 6, 11);
        let mut degrees: Vec<usize> = g.adj.iter().map(|a| a.len()).collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(
            max > 8 * median,
            "scale-free hub expected: max {max}, median {median}"
        );
    }

    #[test]
    fn edges_per_node_matches_flickr_ratio() {
        let g = generate_scale_free(2000, 6, 3);
        let ratio = g.edge_entries() as f64 / g.nodes() as f64;
        assert!(
            (8.0..=13.0).contains(&ratio),
            "Flickr-like density expected, got {ratio:.1}"
        );
    }

    #[test]
    fn recoverable_bfs_visits_everything() {
        let scale = ScaleConfig::testing();
        for sys in System::all() {
            let r = run_bfs(sys, &scale);
            let g = graph_for(&scale);
            // Every node pushed + popped once, plus the final empty pop.
            assert!(
                r.ops >= 2 * g.nodes() as u64,
                "{sys}: {} ops for {} nodes",
                r.ops,
                g.nodes()
            );
            assert!(r.fences > 0);
        }
    }

    #[test]
    fn mod_bfs_profile_counts_only_the_measured_phase() {
        // Fig 10's bfs point: every enqueue and dequeue, and nothing from
        // before the run started (the pool's format fence, the queue's
        // root publish).
        let r = run_bfs(System::Mod, &ScaleConfig::testing());
        let p = &r.profiles[0];
        assert_eq!(p.count, r.ops);
        assert_eq!(p.flushes, r.flushes);
        assert_eq!(p.fences, r.fences);
    }
}
