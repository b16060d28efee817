//! Sort-as-a-service: the serving layer over the SPMD bitonic sorter.
//!
//! The thesis's whole argument is that bitonic sort's fixed costs —
//! remaps, message startup (`o` and `L` in LogGP), plan construction —
//! amortize as `n/P` grows. A request path serving many small sorts
//! applies that insight one level up: instead of one machine per
//! request, many requests become one machine run.
//!
//! ```text
//!  clients ──submit──▶ [queue] ──coalesce──▶ [tagged batch]
//!                        │                        │
//!                   admission control        warm machine pool
//!                   (bounded queue,          (persistent ranks,
//!                    load shedding,           retained SortContext /
//!                    deadlines)               PlanCache state)
//!                                                 │
//!  clients ◀──scatter── per-request replies ◀── sorted words
//! ```
//!
//! The pieces:
//!
//! * [`RecordBatch`](bitonic_core::tagged::RecordBatch) (in
//!   `bitonic-core`) lifts each request's keys into machine words tagged
//!   with the request index, so one ascending machine sort yields every
//!   request's answer as a contiguous segment. A plain `u32` sort is the
//!   stride-0 record on a `u64` word; records with payload or wider keys
//!   ride `u128` or 192-bit words that also carry each key's row, so
//!   payload follows its key stably. Requests coalesce exactly when they
//!   share a word shape, and `submit` and `submit_record` differ only in
//!   the reply they hand back ([`Ticket`] or [`RecordTicket`]);
//! * [`Coalescer`] decides *when to stop waiting for more requests*,
//!   trading batch growth against deadline slack with `logp::predict` as
//!   the cost model;
//! * [`WarmPool`] owns persistent [`SpmdMachine`](spmd::SpmdMachine)s
//!   whose ranks retain their [`SortContext`](bitonic_core::SortContext)
//!   — steady-state batches hit cached remap plans — and replaces a
//!   machine whose watchdog declared a batch wedged;
//! * [`SortService`] is the front door: `submit` applies admission
//!   control and returns a [`Ticket`]; a dispatcher thread coalesces,
//!   runs, scatters, and records queue/batch/run/scatter spans in an
//!   [`obs::TraceSink`];
//! * [`ShardedService`] scales the same design *out*: a [`Router`]
//!   splits the request-size spectrum into bands, each band owning its
//!   own pool; idle shards steal aged batches from busy neighbors; and
//!   an [`Autoscaler`] resizes each pool from LogP-predicted queue
//!   drain time. [`ShardEngine`] is the identical policy stack under
//!   virtual time, for deterministic steal/scale tests;
//! * [`split`] lifts the shard layer from isolation to aggregate
//!   capacity: a request beyond every band is cut by one oversampled
//!   splitter-selection round into per-shard in-band sub-requests,
//!   each rides the normal admission/coalesce/pool path, and a stable
//!   k-way merge reassembles the ordered reply — payload rows included,
//!   for records at every width — and any sub-request failure fails the
//!   parent with a structured [`BulkFailure`];
//! * [`net`] puts the whole thing behind a real socket: the `SORT_1`
//!   length-prefixed frame codec, a [`WireServer`] with per-connection
//!   reader threads whose stalls become structured [`Disconnect`]s, a
//!   blocking [`WireClient`] for loopback load tests, and deterministic
//!   connection-fault injection in [`net::chaos`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod autoscale;
pub mod coalescer;
pub mod config;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod router;
pub mod server;
pub mod shard;
pub mod split;

pub use admission::Rejection;
pub use autoscale::{AutoscaleConfig, Autoscaler, ScaleVerdict};
pub use coalescer::{BatchCost, Coalescer, Verdict};
pub use config::{BulkConfig, ClassConfig, ServiceConfig, ShardedConfig};
pub use metrics::{ClassMetrics, ServiceMetrics};
pub use net::{
    Disconnect, FrameError, ReplyFrame, RequestFrame, WireClient, WireConfig, WireError,
    WireReport, WireServer, WireStats,
};
pub use pool::{PoolStats, WarmPool};
pub use router::{Router, SizeClass};
pub use server::{
    RecordKeys, RecordReply, RecordRequest, RecordTicket, ServiceReport, ServiceStats, SortError,
    SortRequest, SortService, Ticket,
};
pub use shard::{
    EngineEvent, ShardEngine, ShardStats, ShardedReport, ShardedService, ShardedStats,
};
pub use split::{BulkFailure, BulkReason, SplitPart, SplitPlan};
