//! Framed TCP transport for the DASC distributed runtime.
//!
//! The paper's DASC runs on Hadoop, whose daemons speak a simple
//! length-prefixed RPC over TCP. This crate is the workspace's
//! equivalent substrate, std-only by design:
//!
//! * [`frame`] — the on-wire unit: a 20-byte header (magic, version,
//!   message type, payload length, FNV-1a checksum) followed by an
//!   opaque payload. The decoder rejects truncation, bad magic, version
//!   skew, oversized frames and checksum mismatches without panicking.
//! * [`wire`] — [`Wire`], a tiny little-endian encode/decode trait for
//!   message bodies, following the binary conventions of
//!   `dasc-serve`'s model-artifact codec (explicit lengths, caps on
//!   every length read, no trailing bytes).
//! * [`client`] — a blocking [`Client`] with connect/read/write
//!   timeouts and bounded exponential-backoff reconnection. This crate
//!   owns RPC tuning: every `dasc-dist` connection (job client, worker
//!   task and heartbeat connections, shard fetches) uses
//!   [`ClientConfig::default`].
//! * [`server`] — an accept-loop [`Server`] that runs a [`Service`]
//!   callback per frame; handlers execute inside the `dasc-pool`
//!   work-stealing pool so compute-heavy RPCs parallelize. It has no
//!   tuning knobs: its per-connection read timeout is a fixed 200 ms.
//!
//! Every frame sent/received bumps `dasc_net_*` counters in the global
//! `dasc-obs` registry; RPC latencies land in the
//! `dasc_net_rpc_duration_us` histogram.

pub mod client;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig};
pub use frame::{read_frame, write_frame, Frame, FrameError, HEADER_LEN, MAX_FRAME_LEN, VERSION};
pub use server::{ConnId, Server, ServerHandle, Service};
pub use wire::{decode_from_slice, encode_to_vec, Wire, WireError, WireReader, WireWriter};
