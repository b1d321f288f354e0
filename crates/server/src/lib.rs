//! # mpp-server
//!
//! The engine as a network service: a length-prefixed binary protocol
//! (see [`protocol`]) spoken over `std::net` sockets by a
//! thread-per-connection [`server::Server`], plus the blocking
//! [`client::Client`] the tests, benches, and the `mpp_cli` example
//! drive it with.
//!
//! Results **stream**: the executor's sink writes its chunks straight
//! onto the socket as `DataBlock` frames, so a large
//! result never materializes server-side and a slow reader
//! back-pressures the executor instead of growing memory. Admission
//! control sheds excess load with `Error{code: "overloaded"}`,
//! cooperative cancellation stops queries at block boundaries, and
//! [`metrics::MetricsSnapshot`] exposes the whole picture over the
//! `Stats` message. The full frame table and design rationale live in
//! `DESIGN.md` ("Network service layer").
//!
//! There is deliberately no async runtime here: the workspace builds
//! offline against vendored API stubs (see `vendor/README.md`), so the
//! server uses `std::net` + threads — which also keeps the streaming
//! path identical to the in-process one (`Session::sql` collects from
//! the same executor sink the socket drains).

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Canceller, Client, ClientError, Reply};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use protocol::{
    read_frame, write_frame, ClientMsg, DecodeError, ServerMsg, CODE_OVERLOADED, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
