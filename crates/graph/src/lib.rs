#![warn(missing_docs)]
//! Graph substrate for the `arbmis` workspace.
//!
//! This crate provides everything the distributed-MIS algorithms and their
//! analysis need from graphs:
//!
//! * [`Graph`] — a compact, immutable CSR (compressed sparse row)
//!   representation of a simple undirected graph, together with
//!   [`GraphBuilder`] for incremental construction.
//! * [`gen`] — workload generators: trees, Erdős–Rényi, grids, unions of
//!   random forests (arboricity ≤ α by construction), random k-trees,
//!   Apollonian (planar) networks, preferential attachment, and more.
//! * [`orientation`] — degeneracy orderings and acyclic low-out-degree
//!   orientations; the Parent/Child structure the paper's analysis fixes on
//!   an arboricity-α graph.
//! * [`arboricity`] — degeneracy and arboricity bounds (Nash–Williams
//!   density lower bound, degeneracy upper bound).
//! * [`forest`] — static forest decompositions derived from acyclic
//!   orientations.
//! * [`traversal`] — BFS, connected components, distance computations.
//! * [`powerband`] — the `G^[a,b]` band-power graphs used in the paper's
//!   Lemma 3.7 (shattering) analysis.
//! * [`subgraph`] — induced subgraphs, one-off or through a reusable
//!   scratch.
//! * [`overlay`] — a mutable adjacency overlay over the CSR (one
//!   arena-backed delta record per node + deterministic compaction) for
//!   edge/node churn streams.
//!
//! # Example
//!
//! ```
//! use arbmis_graph::{Graph, gen, orientation::Orientation};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // A union of 3 random spanning forests has arboricity at most 3.
//! let g = gen::forest_union(1_000, 3, &mut rng);
//! let o = Orientation::by_degeneracy(&g);
//! assert!(o.max_out_degree() <= 2 * 3); // degeneracy ≤ 2α − 1 < 2α
//! ```

pub mod arboricity;
pub mod builder;
pub mod cores;
pub mod digest;
pub mod forest;
pub mod gen;
pub mod graph;
pub mod io;
pub mod orientation;
pub mod overlay;
pub mod powerband;
pub mod props;
pub mod stats;
pub mod subgraph;
pub mod traversal;

pub use builder::{GraphBuilder, NodeOrderBuilder};
pub use graph::{Graph, NeighborIter, Neighbors, NodeId, MAX_NODES};
pub use overlay::OverlayGraph;
pub use subgraph::{InducedSubgraph, ScratchSubgraph, SubgraphScratch};
