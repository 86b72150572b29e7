//! Optical multiport-interferometer substrate.
//!
//! The paper implements its quantum network as an ideal lossless multiport
//! optical interferometer (Sec. III-A, ref \[19\] = Clements et al., Optica
//! 2016): a mesh of two-mode beam splitters `U(k,k+1)`, each coupling
//! adjacent waveguide modes with reflectivity `cos θ`. The paper fixes
//! the beam-splitter phase at `α ≡ 0`, so every gate is a real Givens
//! rotation; the types here carry only θ, and every pass runs on real
//! amplitudes.
//!
//! This crate provides:
//!
//! - [`beamsplitter::BeamSplitter`] — a single placed gate;
//! - [`mesh::MeshLayer`] / [`mesh::Mesh`] — the paper's layered network
//!   (Fig. 3): each layer is a cascade of `N−1` adjacent-mode gates, and a
//!   network is `l` such layers;
//! - [`sequence::GateSequence`] — an arbitrary ordered gate list, the
//!   representation the Clements decomposition produces;
//! - [`clements`] — the exact rectangular decomposition of an orthogonal
//!   matrix into adjacent-mode rotations, used by the
//!   spectral-initialisation extension;
//! - [`tables::MeshTables`] — a mesh's precomputed gate tables, built
//!   on first use and kept by the mesh ([`Mesh::tables`]) for its panel
//!   pass, [`Mesh::forward_panels`]: the production mesh pass of the
//!   codec, identity gates pruned and lanes rotated in explicit blocks,
//!   held to the `ZeroSignOnly` contract against [`Mesh::forward_real`].

pub mod beamsplitter;
pub mod clements;
pub mod mesh;
pub mod sequence;
pub mod tables;

pub use beamsplitter::BeamSplitter;
pub use mesh::{GateOrder, Mesh, MeshLayer};
pub use sequence::GateSequence;
pub use tables::{table_cache_stats, MeshTables, TableCacheStats};
