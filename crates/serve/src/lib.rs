//! `stp-serve`: the `stpd` synthesis daemon.
//!
//! The crate turns the workspace's exact-synthesis engine and
//! persistent NPN store into a long-running network service with an
//! explicit failure model:
//!
//! - [`protocol`] — the line-delimited JSON wire protocol: request
//!   parsing, structured responses (every parsed frame gets one — the
//!   daemon answers with `timeout`/`overloaded`/`malformed` objects,
//!   never a silently dropped connection), and the deadline-aware
//!   [`FrameReader`](protocol::FrameReader) with slow-loris and
//!   frame-size guards.
//! - [`server`] — the daemon itself: bounded admission
//!   ([`ServeConfig::capacity`](server::ServeConfig)), per-request
//!   deadlines plumbed into the engine's cooperative cancellation,
//!   request coalescing through the store's pending slots, graceful
//!   drain with a final journaled save, and `serve.*` failpoints for
//!   kill-window chaos tests.
//!
//! See DESIGN.md, "Service layer & failure model", for the protocol
//! and the admission/drain state machines.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod server;

pub use protocol::{parse_request, Frame, FrameReader, Request};
pub use server::{ServeConfig, ServeError, Server, ShutdownSummary};
