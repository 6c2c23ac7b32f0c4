//! Actions — the edges of the construction graph.
//!
//! Each action is one scheduling-primitive application (paper Table I plus
//! `setVthread`). Inverse actions (`InvTile`, `InvTileReduce`, `InvVthread`,
//! `InvUnroll`) are what make the graph *bidirectional*: they let the walk
//! backtrack out of a poor region, which the paper identifies as the key
//! structural advantage over Roller's unidirectional tree (§II-B) and which
//! makes the Markov chain irreducible within a memory level (§IV-D).

use crate::state::Etir;
use serde::{Deserialize, Serialize};

/// One edge type of the construction graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Double the tile of spatial `dim` at the current memory level.
    Tile { dim: usize },
    /// Halve the tile of spatial `dim` at the current memory level
    /// (the paper's "inverse tiling" backtracking action).
    InvTile { dim: usize },
    /// Double the staged reduction tile of reduce `dim`.
    TileReduce { dim: usize },
    /// Halve the staged reduction tile of reduce `dim`.
    InvTileReduce { dim: usize },
    /// Advance scheduling to the next (closer) memory level; after the last
    /// level the construction is complete. The annealing schedule raises
    /// this action's probability over time so the walk converges.
    Cache,
    /// Double the virtual-thread count of spatial `dim` (paper's
    /// `setVthread` primitive; requires register-level scheduling).
    SetVthread { dim: usize },
    /// Halve the virtual-thread count of spatial `dim`.
    InvVthread { dim: usize },
    /// Double the innermost-reduction unroll factor.
    Unroll,
    /// Halve the unroll factor.
    InvUnroll,
}

impl Action {
    /// Every action of the highest-rank operator (conv and pool: 4 spatial
    /// axes; conv: 3 reduce axes) in Alg. 2's stable order ("for ac from 0
    /// to n, for d from 0 to dims"). An operator of lower ranks has the
    /// entries that are [`Action::in_rank`] for it, in the same order.
    pub const ALL: [Action; 25] = [
        Action::Tile { dim: 0 },
        Action::Tile { dim: 1 },
        Action::Tile { dim: 2 },
        Action::Tile { dim: 3 },
        Action::InvTile { dim: 0 },
        Action::InvTile { dim: 1 },
        Action::InvTile { dim: 2 },
        Action::InvTile { dim: 3 },
        Action::TileReduce { dim: 0 },
        Action::TileReduce { dim: 1 },
        Action::TileReduce { dim: 2 },
        Action::InvTileReduce { dim: 0 },
        Action::InvTileReduce { dim: 1 },
        Action::InvTileReduce { dim: 2 },
        Action::SetVthread { dim: 0 },
        Action::SetVthread { dim: 1 },
        Action::SetVthread { dim: 2 },
        Action::SetVthread { dim: 3 },
        Action::InvVthread { dim: 0 },
        Action::InvVthread { dim: 1 },
        Action::InvVthread { dim: 2 },
        Action::InvVthread { dim: 3 },
        Action::Unroll,
        Action::InvUnroll,
        Action::Cache,
    ];

    /// Whether this action exists for an operator of the given ranks.
    pub fn in_rank(&self, spatial_rank: usize, reduce_rank: usize) -> bool {
        match *self {
            Action::Tile { dim }
            | Action::InvTile { dim }
            | Action::SetVthread { dim }
            | Action::InvVthread { dim } => dim < spatial_rank,
            Action::TileReduce { dim } | Action::InvTileReduce { dim } => dim < reduce_rank,
            Action::Unroll | Action::InvUnroll | Action::Cache => true,
        }
    }

    /// All syntactically possible actions for an operator of the given
    /// ranks, in [`Action::ALL`]'s order.
    pub fn all(spatial_rank: usize, reduce_rank: usize) -> Vec<Action> {
        Self::ALL
            .iter()
            .copied()
            .filter(|a| a.in_rank(spatial_rank, reduce_rank))
            .collect()
    }

    /// The applicable outgoing edges of `state` (graph out-neighbourhood).
    pub fn enumerate(state: &Etir) -> Vec<Action> {
        let (sp, rd) = (state.op.spatial_extents(), state.op.reduce_extents());
        Action::all(state.spatial_rank(), state.reduce_rank())
            .into_iter()
            .filter(|a| state.can_apply_in(a, &sp, &rd))
            .collect()
    }

    /// Whether this action is an inverse (backtracking) move.
    pub fn is_inverse(&self) -> bool {
        matches!(
            self,
            Action::InvTile { .. }
                | Action::InvTileReduce { .. }
                | Action::InvVthread { .. }
                | Action::InvUnroll
        )
    }

    /// The inverse edge, if one exists (`Cache` is one-way).
    pub fn inverse(&self) -> Option<Action> {
        Some(match *self {
            Action::Tile { dim } => Action::InvTile { dim },
            Action::InvTile { dim } => Action::Tile { dim },
            Action::TileReduce { dim } => Action::InvTileReduce { dim },
            Action::InvTileReduce { dim } => Action::TileReduce { dim },
            Action::SetVthread { dim } => Action::InvVthread { dim },
            Action::InvVthread { dim } => Action::SetVthread { dim },
            Action::Unroll => Action::InvUnroll,
            Action::InvUnroll => Action::Unroll,
            Action::Cache => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::GpuSpec;
    use tensor_expr::OpSpec;

    #[test]
    fn action_universe_size() {
        // GEMM: 2 spatial, 1 reduce → 2+2+1+1+2+2+2+1 = 13 actions.
        assert_eq!(Action::all(2, 1).len(), 13);
        // Conv: 4 spatial, 3 reduce → 4*4 + 3*2 + 3 = 25.
        assert_eq!(Action::all(4, 3).len(), 25);
    }

    #[test]
    fn initial_state_edges_are_growth_and_cache_only() {
        let e = Etir::initial(OpSpec::gemm(64, 64, 64), &GpuSpec::rtx4090());
        let acts = Action::enumerate(&e);
        assert!(acts.contains(&Action::Tile { dim: 0 }));
        assert!(acts.contains(&Action::Cache));
        assert!(acts.contains(&Action::Unroll));
        // Nothing to shrink yet, no vthreads at level 0.
        assert!(acts.iter().all(|a| !a.is_inverse()));
        assert!(!acts.contains(&Action::SetVthread { dim: 0 }));
    }

    #[test]
    fn every_forward_edge_has_a_working_inverse() {
        let e0 = Etir::initial(OpSpec::gemm(64, 64, 64), &GpuSpec::rtx4090());
        for a in Action::enumerate(&e0) {
            if a == Action::Cache {
                assert_eq!(a.inverse(), None);
                continue;
            }
            let e1 = e0.apply(&a);
            let inv = a.inverse().unwrap();
            assert!(e1.can_apply(&inv), "{a:?} not invertible");
            assert_eq!(e1.apply(&inv), e0, "{a:?} inverse does not round-trip");
        }
    }

    #[test]
    fn complete_state_has_no_edges() {
        let mut e = Etir::initial(OpSpec::gemv(128, 128), &GpuSpec::rtx4090());
        e = e.apply(&Action::Cache);
        e = e.apply(&Action::Cache);
        assert!(Action::enumerate(&e).is_empty());
    }

    #[test]
    fn stable_enumeration_order() {
        let a = Action::all(2, 1);
        let b = Action::all(2, 1);
        assert_eq!(a, b);
        assert_eq!(*a.last().unwrap(), Action::Cache);
    }
}
