//! # mdj-server
//!
//! `mdjd`: a concurrent, multi-tenant query server over the MD-join engine.
//!
//! The paper positions the MD-join as the core operator of a decision-
//! support system serving many concurrent analysts; this crate supplies the
//! service layer that makes the repro multi-user:
//!
//! * [`service::QueryService`] — sessions, prepared `?`-parameterized
//!   statements, and governed execution over one shared
//!   [`EngineConfig`](mdj_core::EngineConfig);
//! * [`admission::AdmissionController`] — a bounded admission queue over a
//!   global [`MemoryPool`](mdj_core::MemoryPool), shedding overload with
//!   the typed `PoolExhausted` / `QueueFull` errors instead of aborting;
//! * [`server::Server`] — a thread-per-connection TCP front end speaking
//!   line-delimited JSON ([`wire`]), with [`json`] hand-rolled because the
//!   vendored serde is a stub;
//! * [`limits::ConnLimits`] — the connection governor: a concurrency cap
//!   (`server_busy`), a per-frame byte bound (`frame_too_large`), and
//!   per-socket read/idle timeouts (`idle_timeout`), each shed with a
//!   stable wire code;
//! * [`shutdown::ShutdownController`] — graceful drain on SIGTERM or the
//!   `shutdown` op: stop admitting, finish in-flight queries up to a
//!   deadline, cancel stragglers, and verify the memory pool is empty
//!   before exit.
//!
//! The service object is transport-agnostic: the concurrent-session stress
//! tests drive `QueryService` directly, in-process, and exercise exactly the
//! code the TCP path runs.

#![forbid(unsafe_code)]

pub mod admission;
pub mod error;
pub mod json;
pub mod limits;
pub mod server;
pub mod service;
pub mod shutdown;
pub mod wire;

pub use admission::AdmissionController;
pub use error::ServerError;
pub use limits::{BoundedLineReader, ConnLimits, Frame};
pub use server::Server;
pub use service::{ExecOptions, QueryOutcome, QueryService, ServiceConfig};
pub use shutdown::{DrainReport, ShutdownController};
