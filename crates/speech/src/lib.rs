//! # pdnn-speech — synthetic speech workload and data distribution
//!
//! The paper's evaluation workload is large-vocabulary speech: 50 h /
//! 400 h of audio at 100 frames/s, variable-length utterances from
//! many speakers, frame-level HMM-state targets. This crate generates
//! a statistically matched synthetic corpus ([`Corpus`]) and provides
//! the utterance-to-worker partitioners ([`mod@partition`]) whose
//! load balance Section V.C of the paper identifies as critical at
//! scale.

mod context;
mod corpus;
pub mod partition;
mod stats;

pub use context::stack_context;
pub use corpus::{hours_to_frames, Corpus, CorpusSpec, Shard, Utterance, FRAMES_PER_HOUR};
pub use partition::{assignment_imbalance, loads, partition, Strategy};
