//! Cross-domain IPC for the fbufs reproduction.
//!
//! The paper's platform used Mach 3.0 IPC with x-kernel proxy objects
//! forwarding cross-domain invocations. The experiments depend on IPC in
//! exactly two ways, both reproduced here:
//!
//! * **control-transfer latency** — "the throughput rates shown for small
//!   messages ... are strongly influenced by the control transfer latency
//!   of the IPC mechanism" ([`Rpc::call`] charges the calibrated latency per
//!   domain pair);
//! * **deallocation notices** — "when an RPC call from the owning domain
//!   occurs, the reply message is used to carry deallocation notices from
//!   this list. When too many freed references have accumulated, an explicit
//!   message must be sent" (paper §3.3; [`NoticeBoard`]).
//!
//! Two layers share those charging primitives:
//!
//! * [`Rpc::call`] is one **synchronous** hop — the caller charges the
//!   full round trip inline, matching a single-CPU DecStation where
//!   caller and callee cannot overlap. Every bare hop is exactly this;
//! * [`actor::EventLoop`] schedules the legs of multi-hop transfers as
//!   **events** against bounded per-domain inboxes, with [`Rpc::call`]
//!   invoked from the event handler so each leg charges identically —
//!   plus explicit queueing delay, backpressure, and
//!   [`actor::SendOutcome::Overload`] that the synchronous descent
//!   cannot express. See `DESIGN.md` §12.

pub mod actor;
pub mod notice;
pub mod rpc;

pub use actor::{Envelope, EventLoop, SendOutcome, DEFAULT_INBOX_DEPTH};
pub use notice::NoticeBoard;
pub use rpc::{Payload, Rpc};
