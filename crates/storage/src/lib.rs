//! Storage substrate for the Chaos reproduction.
//!
//! Chaos records three data structures per streaming partition — the vertex
//! set, the edge set and the update set (§6.1) — all maintained and accessed
//! in chunks (§6.2). This crate provides:
//!
//! - [`ChunkSet`]: an append-only set of typed chunks with the paper's
//!   read-once-per-iteration semantics ("a storage engine keeps track of
//!   which chunks have already been consumed during the current iteration",
//!   §6.3), backed either by memory or by a real file;
//! - [`VertexArray`]: a chunk-addressed vertex set (§6.4);
//! - [`Device`]: the SSD/HDD queueing model;
//! - [`PageCache`]: the pagecache-mediated-access model (§7) that produces
//!   the Conductance buffer-cache effect of §9.1;
//! - [`ScratchDir`]: a self-cleaning temporary directory for the file
//!   backend.

pub mod cache;
pub mod chunk;
pub mod device;
pub mod file;
pub mod frame;
pub mod vertex;

pub use cache::PageCache;
pub use chunk::{
    seal_chunk, BlockIndex, ChunkIndex, ChunkSet, ChunkSetStats, Replaced, SealScratch,
    SealedChunk, ServeOutcome, ServedChunk,
};
pub use device::{CorruptionWindow, Device, DeviceError, DeviceProfile, FaultWindow};
pub use file::{FileBacking, ScratchDir};
pub use frame::{crc32, crc32_table, ExtentFrame, FRAME_BYTES, FRAME_MAGIC};
pub use vertex::VertexArray;
