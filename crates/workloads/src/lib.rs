//! Synthetic workloads for the BMX experiments.
//!
//! The paper motivates the system with "financial or design databases,
//! cooperative work and exploratory tools similar to the World-Wide-Web"
//! (Section 1) — applications with intricate, widely shared object graphs.
//! This crate builds such graphs on a [`bmx::Cluster`]:
//!
//! * [`lists`] — linked lists and detachable list segments (precise garbage
//!   ratios for collector measurements);
//! * [`db`] — a design-database-like hierarchy (modules → assemblies →
//!   parts, in the spirit of the OO7 benchmark);
//! * [`web`] — a random exploratory-tool graph with long-tailed out-degree;
//! * [`trees`] — complete binary trees (trace depth, subtree pruning);
//! * [`cycles`] — inter-bunch reference rings (the group collector's prey);
//! * [`churn`] — mutation traces that create garbage and migrate ownership.

#![forbid(unsafe_code)]

pub mod churn;
pub mod cycles;
pub mod db;
pub mod lists;
pub mod trees;
pub mod web;

pub use db::DbGraph;
pub use lists::ListHandle;
