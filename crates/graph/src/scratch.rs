//! The working memory of one bisection tree.
//!
//! `rb_partition` / `multilevel_bisect` make one [`Scratch`] and hand it
//! `&mut` down `rb_recurse → multilevel_bisect → greedy_graph_growing →
//! fm_refine`, so a tree of thousands of small bisections allocates its
//! buffers once; the forked half of a `share::join` makes its own. It is
//! a plain value: nothing here outlives the call that made it.

use crate::fm::FmScratch;
use crate::initial::GrowScratch;

/// Buffers reused by every node of a bisection tree.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// FM: gain queue, gains, lock flags, move log.
    pub(crate) fm: FmScratch,
    /// Graph growing: the `−wdeg` table, gains, frontier.
    pub(crate) grow: GrowScratch,
    /// The current 2-way assignment: the best growing try, then each
    /// level's projection, finally the bisection `multilevel_bisect`
    /// leaves for its caller.
    pub(crate) parts: Vec<u32>,
    /// The other half of the ping-pong: the try being grown, the level
    /// being projected into.
    pub(crate) parts_next: Vec<u32>,
    /// Global → local vertex ids for `CsrGraph::subgraph_into`; all
    /// `u32::MAX` between extractions.
    pub(crate) global_to_local: Vec<u32>,
}
