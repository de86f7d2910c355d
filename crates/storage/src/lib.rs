//! # balsa-storage
//!
//! Columnar in-memory storage for the balsa-rs reproduction of
//! *Balsa: Learning a Query Optimizer Without Expert Demonstrations*
//! (SIGMOD 2022).
//!
//! This crate provides the data substrate the rest of the system runs on:
//!
//! * [`Column`] / [`Table`] — simple dictionary-encoded columnar tables.
//! * [`Catalog`] / [`Database`] — schema metadata (primary keys, foreign
//!   keys, indexes) plus the table data and per-column [`stats`].
//! * [`datagen`] — a deterministic synthetic generator for a **mini-IMDb**
//!   database (the 21-table snowflake schema used by the Join Order
//!   Benchmark). The paper evaluates on the real IMDb dataset; we
//!   reproduce its statistical character (zipfian skew, correlated
//!   columns, skewed foreign-key fan-out) at ~1000x smaller scale so the
//!   whole learning loop runs on one CPU core.
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod datagen;
pub mod stats;
pub mod table;

pub use catalog::{Catalog, ColumnId, ColumnMeta, Database, FkEdge, TableId, TableMeta};
pub use column::{Column, Value, NULL_SENTINEL};
pub use datagen::{mini_imdb, DataGenConfig};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::Table;
