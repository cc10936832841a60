//! **FREE** — a Fast Regular Expression Indexing Engine.
//!
//! This crate implements the primary contribution of Cho & Rajagopalan
//! (ICDE 2002): answering regular-expression queries over a large corpus
//! of *data units* using a prebuilt **multigram index** instead of a full
//! scan.
//!
//! The pipeline, mapped to the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 Algorithm 3.1 — a-priori mining of minimal useful grams | [`select::apriori`] |
//! | §3.2 presuf shell (shortest common suffix rule) | [`select::presuf`] |
//! | complete k-gram baseline index (§5.2 "Complete") | [`select::complete`] |
//! | §4.2 Algorithm 4.1 — logical access plan, Table 2 NULL rules | [`plan::logical`] |
//! | §4.3 physical access plan (key availability, substring cover) | [`plan::physical`] |
//! | pattern → regex, logical plan, required-literal prefilter | [`prepare`] |
//! | runtime execution: postings ops, candidate fetch, confirmation | [`exec`] |
//! | "Scan" baseline (§5.3) | [`baseline`] |
//!
//! # Quick start
//!
//! ```
//! use free_corpus::MemCorpus;
//! use free_engine::{Engine, EngineConfig};
//!
//! let corpus = MemCorpus::from_docs(vec![
//!     b"visit <a href=\"song.mp3\"> now".to_vec(),
//!     b"nothing to see here".to_vec(),
//!     b"a page about clinton".to_vec(),
//! ]);
//! let engine = Engine::build_in_memory(corpus, EngineConfig::default()).unwrap();
//! let mut result = engine.query(r#"<a href=("|')?.*\.mp3("|')?>"#).unwrap();
//! let docs = result.matching_docs().unwrap();
//! assert_eq!(docs, vec![0]);
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod budget;
pub mod config;
pub mod error;
pub mod exec;
pub mod grams;
pub mod metrics;
pub mod plan;
pub mod prepare;
pub mod qlog;
/// Index key selection: the a-priori miner, the presuf shell and the
/// complete baseline live in the `free-select` crate; the engine
/// re-exports it under its old name.
pub use free_select as select;

mod engine;

pub use budget::{CancelToken, RequestBudget};
pub use config::{EngineConfig, IndexKind};
pub use engine::{build_index, generate_postings, select_keys, Engine, InMemoryEngine};
pub use error::{Error, Result};
pub use exec::analyze::{ExplainAnalyze, NodeStats};
pub use exec::partition_threads;
pub use exec::results::{DocMatches, QueryResult};
pub use metrics::{record_build, record_query, BuildStats, QueryStats};
pub use plan::physical::PlanClass;
pub use prepare::{build_prefilter, PreparedQuery};
pub use select::{MiningStats, PassStats};
