//! Graph generators — the workload side of every experiment.
//!
//! The paper's algorithm targets graphs of **bounded arboricity**: trees,
//! planar graphs, graphs of bounded treewidth/genus, minor-closed families.
//! The generators here cover:
//!
//! * deterministic topologies: [`path`], [`cycle`], [`star`], [`complete`],
//!   [`complete_bipartite`], [`grid`], [`hypercube`],
//!   [`binary_tree`], [`caterpillar`], [`broom`];
//! * random trees and forests: [`random_tree_prufer`] (uniform over
//!   labelled trees) and [`random_forest`];
//! * random sparse families with arboricity ≤ α *by construction*:
//!   [`forest_union`] (union of α random spanning forests),
//!   [`random_ktree`] (k-trees: treewidth k, arboricity ≤ k),
//!   [`apollonian`] (planar 3-trees, arboricity ≤ 3),
//!   [`barabasi_albert`] (each new node adds ≤ m edges, degeneracy ≤ m);
//! * dense/irregular baselines: [`gnp`] (Erdős–Rényi).
//!
//! All random generators take a caller-supplied [`rand::Rng`] so experiment
//! runs are reproducible from a seed.

mod basic;
mod family;
mod geometric;
mod random;
mod sparse;
mod tree;

pub use basic::{
    binary_tree, broom, caterpillar, complete, complete_bipartite, cycle, grid, hypercube, path,
    star,
};
pub use family::{GraphFamily, GraphSpec};
pub use geometric::{powerlaw_cluster, random_geometric, ring_of_cliques, series_parallel};
pub use random::{gnp, gnp_with_expected_degree};
pub use sparse::{apollonian, barabasi_albert, forest_union, random_ktree};
pub use tree::{random_forest, random_tree_prufer};
