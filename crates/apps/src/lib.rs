//! # acc-apps — the paper's benchmark applications
//!
//! The evaluation (§V) uses three data-parallel applications chosen for
//! their different inter-GPU communication characteristics (Table II):
//!
//! | App | Source | Pattern | Communication |
//! |---|---|---|---|
//! | MD | SHOC | Lennard-Jones with neighbor lists | none |
//! | KMEANS | Rodinia | clustering, kddcup-shaped input | small (array reduction) |
//! | BFS | SHOC | level-synchronous graph traversal | heavy (irregular writes) |
//!
//! Each module provides the OpenACC mini-C source (with the paper's
//! `localaccess` / `reductiontoarray` extension directives), a seeded
//! synthetic workload generator reproducing the published input *shape*
//! (the original Rodinia/SHOC input files are not available here —
//! substitution documented in DESIGN.md), and a pure-Rust reference
//! implementation used as the correctness oracle.
//!
//! [`runner`] maps the paper's program versions (OpenMP, PGI OpenACC,
//! hand-written CUDA, Proposal on 1–3 GPUs) onto compiler options and
//! runtime configurations.

pub mod bfs;
pub mod bfs_skew;
pub mod explain;
pub mod heat2d;
pub mod heat2d_halo2;
pub mod kmeans;
pub mod md;
pub mod pagerank;
pub mod runner;
pub mod spmv;

pub use runner::{
    app_inputs, compile_app, compile_app_on, run_app, run_app_with_config, run_app_with_engine,
    run_compiled, App, AppResult, Scale, Version,
};
