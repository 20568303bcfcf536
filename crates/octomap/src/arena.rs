//! Node-pool storage for the occupancy octree.
//!
//! Reference OctoMap stores each node in its own heap box with a pointer
//! array to its children, so every root-to-leaf update is the pointer chase
//! the paper costs out in §3.2. This module keeps the same tree and the same
//! per-update node visits, but stores the nodes the way the related work
//! advocates (OpenVDB-style occupancy mapping, VoxelCache): all nodes live
//! in one `Vec`-backed pool addressed by `u32` indices.
//!
//! Layout rules:
//!
//! * slot 0 is the root; a tree with an empty pool has no root;
//! * the eight children of a node are allocated as one contiguous block of
//!   eight slots, so a child is `block + child_index` — one add, no pointer
//!   dereference — and siblings share cache lines;
//! * pruning pushes the freed child block onto a free-list instead of
//!   returning memory to the allocator; the next expansion or insertion
//!   reuses it (recycled slots are written before they are ever read, so
//!   blocks are recycled without clearing);
//! * update, search and prune are iterative — no recursion on the hot path.
//!
//! The pool is append-only apart from the free-list, so node indices are
//! stable across updates: an in-flight traversal's path array stays valid
//! while ancestors prune below it.

use octocache_geom::VoxelKey;

use crate::occupancy::OccupancyParams;
use crate::stats::TreeStats;
use crate::tree::LeafOp;

/// Sentinel for "no child block".
const NO_BLOCK: u32 = u32::MAX;

/// One pooled node: 12 bytes instead of a heap box plus a 64-byte child
/// array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArenaNode {
    log_odds: f32,
    /// Pool index of the first of this node's eight child slots, or
    /// [`NO_BLOCK`] for a childless node.
    block: u32,
    /// Child-presence bitmask (bit `i` set ⇔ child `i` exists).
    mask: u8,
}

impl ArenaNode {
    #[inline]
    fn leaf(log_odds: f32) -> ArenaNode {
        ArenaNode {
            log_odds,
            block: NO_BLOCK,
            mask: 0,
        }
    }
}

/// A `Vec`-backed occupancy octree: the storage behind
/// [`crate::OccupancyOcTree`].
#[derive(Debug, Clone, Default)]
pub(crate) struct ArenaTree {
    nodes: Vec<ArenaNode>,
    /// Recycled child blocks (base indices), most recently freed last.
    free_blocks: Vec<u32>,
}

impl ArenaTree {
    pub(crate) fn new() -> ArenaTree {
        ArenaTree::default()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    #[inline]
    pub(crate) fn log_odds(&self, idx: u32) -> f32 {
        self.nodes[idx as usize].log_odds
    }

    #[inline]
    pub(crate) fn child_mask(&self, idx: u32) -> u8 {
        self.nodes[idx as usize].mask
    }

    /// Pool index of child `i` of `idx`, if present.
    #[inline]
    pub(crate) fn child_of(&self, idx: u32, i: usize) -> Option<u32> {
        let n = &self.nodes[idx as usize];
        if n.mask & (1 << i) == 0 {
            None
        } else {
            Some(n.block + i as u32)
        }
    }

    /// Drops every node *and* the pool's capacity (so
    /// `memory_usage` reflects the release).
    pub(crate) fn clear(&mut self) {
        *self = ArenaTree::new();
    }

    /// Pool footprint in bytes: allocated capacity of the node pool
    /// (free-list slack included — recycled blocks stay resident) plus the
    /// free-list itself.
    pub(crate) fn memory_usage(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<ArenaNode>()
            + self.free_blocks.capacity() * std::mem::size_of::<u32>()
    }

    /// Grabs a child block: recycles the most recently freed one, else grows
    /// the pool by eight slots.
    fn alloc_block(&mut self) -> u32 {
        if let Some(b) = self.free_blocks.pop() {
            return b;
        }
        let b = self.nodes.len() as u32;
        self.nodes
            .resize(self.nodes.len() + 8, ArenaNode::leaf(0.0));
        b
    }

    /// The iterative root-to-leaf round trip: descend (expanding pruned
    /// aggregates, creating missing children), apply `op` at the leaf, then
    /// unwind the recorded path — prune equal-valued sibling sets, refresh
    /// inner values to the max of their children. Visit counting mirrors
    /// reference OctoMap's recursion exactly: one visit per node on the way
    /// down, one per inner node on the way back, eight per expansion.
    pub(crate) fn apply_at_leaf(
        &mut self,
        key: VoxelKey,
        depth: u8,
        params: &OccupancyParams,
        stats: &TreeStats,
        auto_prune: bool,
        op: LeafOp,
    ) -> f32 {
        let mut fresh = false;
        if self.nodes.is_empty() {
            self.nodes.push(ArenaNode::leaf(params.threshold));
            stats.count_created();
            fresh = true;
        }
        debug_assert!(depth as usize <= 16);
        let mut path = [0u32; 16];
        let mut idx = 0u32;
        let mut level = depth;
        while level > 0 {
            stats.count_visit();
            let child = key.child_index(level - 1).as_usize();
            let bit = 1u8 << child;
            let node = self.nodes[idx as usize];
            if !fresh && node.mask == 0 {
                // Childless non-fresh node: a pruned aggregate. Expand it so
                // the sibling octants keep their value.
                let block = self.alloc_block();
                for s in 0..8u32 {
                    self.nodes[(block + s) as usize] = ArenaNode::leaf(node.log_odds);
                }
                let n = &mut self.nodes[idx as usize];
                n.block = block;
                n.mask = 0xff;
                stats.count_expansion();
                stats.count_visits(8);
            }
            let mut created = false;
            if self.nodes[idx as usize].mask & bit == 0 {
                if self.nodes[idx as usize].block == NO_BLOCK {
                    let b = self.alloc_block();
                    self.nodes[idx as usize].block = b;
                }
                let b = self.nodes[idx as usize].block;
                self.nodes[(b + child as u32) as usize] = ArenaNode::leaf(params.threshold);
                self.nodes[idx as usize].mask |= bit;
                stats.count_created();
                created = true;
            }
            path[(depth - level) as usize] = idx;
            idx = self.nodes[idx as usize].block + child as u32;
            fresh = created;
            level -= 1;
        }

        stats.count_visit();
        let leaf = &mut self.nodes[idx as usize];
        let new = match op {
            LeafOp::Observe { occupied } => params.apply(leaf.log_odds, occupied),
            LeafOp::Add { delta } => params.clamp(leaf.log_odds + delta),
            LeafOp::Set { value } => params.clamp(value),
        };
        leaf.log_odds = new;
        stats.count_leaf_update();

        // Unwind: indices are stable (the pool never compacts), so the path
        // recorded on the way down stays valid while descendants prune.
        for d in (0..depth).rev() {
            let p = path[d as usize];
            stats.count_visit();
            if auto_prune && self.is_prunable(p) {
                self.prune_node(p);
                stats.count_prune();
            } else if let Some(max) = self.max_child(p) {
                self.nodes[p as usize].log_odds = max;
            }
        }
        new
    }

    /// Iterative lookup: one index add per level, no pointer dereference.
    pub(crate) fn search(&self, key: VoxelKey, depth: u8, stats: &TreeStats) -> Option<f32> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut idx = 0u32;
        stats.count_visit();
        let mut level = depth;
        while level > 0 {
            let n = self.nodes[idx as usize];
            if n.mask == 0 {
                // Pruned aggregate covering this voxel.
                return Some(n.log_odds);
            }
            let c = key.child_index(level - 1).as_usize();
            if n.mask & (1 << c) == 0 {
                return None;
            }
            idx = n.block + c as u32;
            stats.count_visit();
            level -= 1;
        }
        Some(self.nodes[idx as usize].log_odds)
    }

    /// Full bottom-up prune (iterative post-order): freed child blocks go to
    /// the free-list for recycling.
    pub(crate) fn prune(&mut self, depth: u8, stats: &TreeStats) {
        if self.nodes.is_empty() {
            return;
        }
        let mut stack: Vec<(u32, u8, bool)> = vec![(0, depth, false)];
        while let Some((idx, level, children_done)) = stack.pop() {
            let n = self.nodes[idx as usize];
            if level == 0 || n.mask == 0 {
                continue;
            }
            if !children_done {
                stack.push((idx, level, true));
                for c in 0..8u32 {
                    if n.mask & (1 << c) != 0 {
                        stack.push((n.block + c, level - 1, false));
                    }
                }
            } else if self.is_prunable(idx) {
                self.prune_node(idx);
                stats.count_prune();
            } else if let Some(max) = self.max_child(idx) {
                self.nodes[idx as usize].log_odds = max;
            }
        }
    }

    /// True when all eight children exist, all are childless and all carry
    /// the same value.
    fn is_prunable(&self, idx: u32) -> bool {
        let n = self.nodes[idx as usize];
        if n.mask != 0xff {
            return false;
        }
        let b = n.block as usize;
        let first = self.nodes[b];
        if first.mask != 0 {
            return false;
        }
        let v = first.log_odds;
        for s in 1..8 {
            let c = self.nodes[b + s];
            if c.mask != 0 || c.log_odds != v {
                return false;
            }
        }
        true
    }

    /// Merges eight equal childless children into their parent, recycling
    /// the child block. Caller must have checked `is_prunable`.
    fn prune_node(&mut self, idx: u32) {
        let block = self.nodes[idx as usize].block;
        let v = self.nodes[block as usize].log_odds;
        self.free_blocks.push(block);
        let n = &mut self.nodes[idx as usize];
        n.log_odds = v;
        n.block = NO_BLOCK;
        n.mask = 0;
    }

    /// The maximum log-odds over `idx`'s children, `None` when childless.
    pub(crate) fn max_child(&self, idx: u32) -> Option<f32> {
        let n = self.nodes[idx as usize];
        if n.mask == 0 {
            return None;
        }
        let mut max = f32::NEG_INFINITY;
        for c in 0..8u32 {
            if n.mask & (1 << c) != 0 {
                max = max.max(self.nodes[(n.block + c) as usize].log_odds);
            }
        }
        Some(max)
    }

    pub(crate) fn count_nodes(&self) -> usize {
        self.walk(|_| ()).0
    }

    pub(crate) fn count_leaves(&self) -> usize {
        self.walk(|_| ()).1
    }

    /// Visits every live node; returns (nodes, leaves).
    fn walk(&self, mut f: impl FnMut(u32)) -> (usize, usize) {
        if self.nodes.is_empty() {
            return (0, 0);
        }
        let (mut nodes, mut leaves) = (0usize, 0usize);
        let mut stack = vec![0u32];
        while let Some(idx) = stack.pop() {
            f(idx);
            nodes += 1;
            let n = self.nodes[idx as usize];
            if n.mask == 0 {
                leaves += 1;
                continue;
            }
            for c in 0..8u32 {
                if n.mask & (1 << c) != 0 {
                    stack.push(n.block + c);
                }
            }
        }
        (nodes, leaves)
    }

    /// Splices `other`'s top-level octant subtrees into `self` by child-block
    /// reindexing: whole eight-child blocks are copied and only their `block`
    /// indices rewritten — no per-voxel re-insertion, no value recomputation.
    ///
    /// Errors when both trees populate the same top octant or either root is
    /// childless while both hold data.
    pub(crate) fn merge_disjoint_top_level(&mut self, other: &ArenaTree) -> Result<(), String> {
        if other.nodes.is_empty() {
            return Ok(());
        }
        if self.nodes.is_empty() {
            self.nodes.push(ArenaNode::leaf(other.nodes[0].log_odds));
            self.splice_children(other, 0, 0);
            return Ok(());
        }
        let o_root = other.nodes[0];
        if o_root.mask == 0 || self.nodes[0].mask == 0 {
            return Err("cannot merge trees pruned to a childless root".into());
        }
        let overlap = self.nodes[0].mask & o_root.mask;
        if overlap != 0 {
            return Err(format!(
                "both trees populate top-level octant {}",
                overlap.trailing_zeros()
            ));
        }
        for c in 0..8u32 {
            if o_root.mask & (1 << c) == 0 {
                continue;
            }
            let dst = self.nodes[0].block + c;
            self.nodes[dst as usize] = ArenaNode::leaf(0.0);
            self.nodes[0].mask |= 1 << c;
            self.splice_children(other, o_root.block + c, dst);
        }
        if let Some(max) = self.max_child(0) {
            self.nodes[0].log_odds = max;
        }
        Ok(())
    }

    /// Copies the subtree rooted at `src[s_idx]` over `self[d_idx]`
    /// block-by-block: each eight-child block is copied in one splice and
    /// the copied nodes' `block` fields are then reindexed into `self`'s
    /// pool as their own blocks are allocated.
    fn splice_children(&mut self, src: &ArenaTree, s_idx: u32, d_idx: u32) {
        let mut stack: Vec<(u32, u32)> = vec![(s_idx, d_idx)];
        while let Some((s, d)) = stack.pop() {
            let sn = src.nodes[s as usize];
            let dn = &mut self.nodes[d as usize];
            dn.log_odds = sn.log_odds;
            if sn.mask == 0 {
                dn.block = NO_BLOCK;
                dn.mask = 0;
                continue;
            }
            let nb = self.alloc_block();
            for c in 0..8usize {
                self.nodes[nb as usize + c] = src.nodes[sn.block as usize + c];
            }
            let dn = &mut self.nodes[d as usize];
            dn.block = nb;
            dn.mask = sn.mask;
            for c in 0..8u32 {
                if sn.mask & (1 << c) != 0 && src.nodes[(sn.block + c) as usize].mask != 0 {
                    stack.push((sn.block + c, nb + c));
                }
            }
        }
    }

    /// A pool holding only a childless root: where the `.ot` / `.bt`
    /// decoders ([`crate::io`], [`crate::io_bt`]) start building top-down.
    pub(crate) fn with_root(log_odds: f32) -> ArenaTree {
        ArenaTree {
            nodes: vec![ArenaNode::leaf(log_odds)],
            free_blocks: Vec::new(),
        }
    }

    /// Overwrites node `idx`'s log-odds without refreshing its ancestors
    /// (decoders set inner values themselves).
    pub(crate) fn set_log_odds(&mut self, idx: u32, log_odds: f32) {
        self.nodes[idx as usize].log_odds = log_odds;
    }

    /// Gives the childless node `idx` the children named in `mask`, each a
    /// childless node holding `log_odds`, and returns the block base: child
    /// `i` lives at `base + i`.
    pub(crate) fn add_children(&mut self, idx: u32, mask: u8, log_odds: f32) -> u32 {
        debug_assert!(mask != 0 && self.nodes[idx as usize].mask == 0);
        let block = self.alloc_block();
        for s in 0..8u32 {
            self.nodes[(block + s) as usize] = ArenaNode::leaf(log_odds);
        }
        let n = &mut self.nodes[idx as usize];
        n.block = block;
        n.mask = mask;
        block
    }

    /// Structural self-check: every reachable childless node holds no block,
    /// every block index is well-formed, and every allocated block is either
    /// reachable or on the free-list — exactly once.
    pub(crate) fn check_structure(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            if !self.free_blocks.is_empty() {
                return Err("free list non-empty in an empty tree".into());
            }
            return Ok(());
        }
        if !(self.nodes.len() - 1).is_multiple_of(8) {
            return Err(format!("pool size {} is not 1 + 8k", self.nodes.len()));
        }
        let total_blocks = (self.nodes.len() - 1) / 8;
        let block_slot = |b: u32| -> Result<usize, String> {
            let b = b as usize;
            if b == 0 || !(b - 1).is_multiple_of(8) || b + 8 > self.nodes.len() {
                Err(format!("bad block index {b}"))
            } else {
                Ok((b - 1) / 8)
            }
        };
        let mut seen = vec![false; total_blocks];
        for &b in &self.free_blocks {
            let s = block_slot(b)?;
            if seen[s] {
                return Err(format!("block {b} freed twice"));
            }
            seen[s] = true;
        }
        let mut live = 0usize;
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let n = self.nodes[i as usize];
            if n.mask == 0 {
                if n.block != NO_BLOCK {
                    return Err(format!("childless node {i} keeps block {}", n.block));
                }
                continue;
            }
            let s = block_slot(n.block)?;
            if seen[s] {
                return Err(format!(
                    "block {} reached twice or also on free list",
                    n.block
                ));
            }
            seen[s] = true;
            live += 1;
            for c in 0..8u32 {
                if n.mask & (1 << c) != 0 {
                    stack.push(n.block + c);
                }
            }
        }
        if live + self.free_blocks.len() != total_blocks {
            return Err(format!(
                "leaked blocks: {live} live + {} free != {total_blocks} allocated",
                self.free_blocks.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OccupancyParams {
        OccupancyParams::default()
    }

    fn observe(t: &mut ArenaTree, key: VoxelKey, occupied: bool, stats: &TreeStats) -> f32 {
        t.apply_at_leaf(key, 4, &params(), stats, true, LeafOp::Observe { occupied })
    }

    #[test]
    fn update_then_search_round_trip() {
        let mut t = ArenaTree::new();
        let stats = TreeStats::new();
        let key = VoxelKey::new(3, 7, 11);
        let v = observe(&mut t, key, true, &stats);
        assert_eq!(t.search(key, 4, &stats), Some(v));
        assert_eq!(t.search(VoxelKey::new(0, 0, 0), 4, &stats), None);
        t.check_structure().unwrap();
    }

    #[test]
    fn prune_recycles_blocks() {
        let mut t = ArenaTree::new();
        let stats = TreeStats::new();
        // Saturate a full octant so its eight leaves prune to one aggregate.
        for x in 0..2u16 {
            for y in 0..2u16 {
                for z in 0..2u16 {
                    for _ in 0..10 {
                        observe(&mut t, VoxelKey::new(x, y, z), true, &stats);
                    }
                }
            }
        }
        assert!(stats.prunes() > 0);
        assert!(!t.free_blocks.is_empty(), "prune must feed the free list");
        t.check_structure().unwrap();
        let len_before = t.nodes.len();
        // The next expansion must reuse a recycled block, not grow the pool.
        observe(&mut t, VoxelKey::new(0, 0, 0), false, &stats);
        assert_eq!(t.nodes.len(), len_before);
        t.check_structure().unwrap();
    }

    #[test]
    fn top_down_build_matches_incremental_structure() {
        // Root with children 0 and 7; child 7 holds one grandchild.
        let mut t = ArenaTree::with_root(0.0);
        let b = t.add_children(0, 0b1000_0001, -1.0);
        let g = t.add_children(b + 7, 0b0000_0100, 2.0);
        t.set_log_odds(b + 7, 2.0);
        t.set_log_odds(0, 2.0);
        t.check_structure().unwrap();
        assert_eq!(t.count_nodes(), 4);
        assert_eq!(t.count_leaves(), 2);
        assert_eq!(t.child_of(0, 7), Some(b + 7));
        assert_eq!(t.child_of(0, 3), None);
        assert_eq!(t.child_of(b + 7, 2), Some(g + 2));
        assert_eq!(t.log_odds(g + 2), 2.0);
    }

    #[test]
    fn clear_releases_capacity() {
        let mut t = ArenaTree::new();
        let stats = TreeStats::new();
        observe(&mut t, VoxelKey::new(1, 2, 3), true, &stats);
        assert!(t.memory_usage() > 0);
        t.clear();
        assert_eq!(t.memory_usage(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn merge_splices_disjoint_octants() {
        let stats = TreeStats::new();
        let mut a = ArenaTree::new();
        observe(&mut a, VoxelKey::new(1, 2, 3), true, &stats);
        let mut b = ArenaTree::new();
        observe(&mut b, VoxelKey::new(12, 13, 14), true, &stats);

        let mut merged = ArenaTree::new();
        merged.merge_disjoint_top_level(&a).unwrap();
        merged.merge_disjoint_top_level(&b).unwrap();
        merged.check_structure().unwrap();
        assert_eq!(
            merged.search(VoxelKey::new(1, 2, 3), 4, &stats),
            a.search(VoxelKey::new(1, 2, 3), 4, &stats)
        );
        assert_eq!(
            merged.search(VoxelKey::new(12, 13, 14), 4, &stats),
            b.search(VoxelKey::new(12, 13, 14), 4, &stats)
        );
        assert_eq!(merged.search(VoxelKey::new(9, 1, 1), 4, &stats), None);

        let mut conflict = ArenaTree::new();
        observe(&mut conflict, VoxelKey::new(2, 2, 2), true, &stats);
        assert!(merged.merge_disjoint_top_level(&conflict).is_err());
    }
}
