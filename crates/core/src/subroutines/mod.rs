//! Basic subroutines (Section 2.3 and Appendices A–C).
//!
//! * [`tree_to_star`] — `TreeToStar`: any rooted tree becomes a spanning
//!   star centred at the root in `⌈log d⌉` rounds (Proposition 2.1).
//! * [`line_to_tree`] — `LineToCompleteBinaryTree` (Proposition 2.2)
//!   generalised to arbitrary arity `k` (`k = 2` is the paper's binary
//!   variant, `k = ⌈log n⌉` the `LineToCompletePolylogarithmicTree` used
//!   by `GraphToThinWreath`): the jump plan plus one round-based executor
//!   that runs it under any wake-up schedule (Appendix B), all nodes
//!   awake being the synchronous case. The wreath algorithms run it after
//!   merging rings.
//! * [`runtime_line_to_tree`] — the same plan executed by message-driven
//!   actors on the `adn-runtime` schedulers (no round loop at all).
//! * [`runtime_committee`] — the committee algorithms (`GraphToStar`, the
//!   wreath family) as message-driven actors on the same schedulers,
//!   executing the engines' shared phase planners, with armed fault plans.

pub mod line_to_tree;
pub mod runtime_committee;
pub mod runtime_line_to_tree;
pub mod tree_to_star;

pub use line_to_tree::{
    run_async_line_to_tree, run_async_line_to_tree_with_scratch, run_line_to_tree, LineScratch,
    LineToTreeConfig,
};
pub use runtime_committee::{
    run_runtime_star, run_runtime_star_faulted, run_runtime_wreath, run_runtime_wreath_faulted,
};
pub use runtime_line_to_tree::{
    run_runtime_line_to_tree_free, run_runtime_line_to_tree_seeded, TreeActor, TreeMsg,
};
pub use tree_to_star::run_tree_to_star;
