#![deny(missing_docs)]
//! Fault-tolerant cluster membership for `xpdl-serve` fleets.
//!
//! `xpdl-registry` turns N serving daemons into one logical service:
//!
//! * **Membership** — nodes hold TTL leases ([`lease`]) renewed by
//!   heartbeats; a node that stops heartbeating (crash, SIGKILL,
//!   partition) drops out of the routing table within one TTL plus a
//!   sweep interval, with no wall-clock dependence.
//! * **Push invalidation** — a model-version [`announce`](protocol::RegistryMethod::Announce)
//!   is pushed to every subscribed node the moment it happens, replacing
//!   the per-process polling interval as the reload trigger.
//! * **Self-healing** — the node-side [`NodeAgent`]
//!   re-registers through registry restarts and lease expiries with
//!   bounded, deterministically jittered backoff.
//!
//! The wire protocol ([`protocol`]) is JSON-lines with stable `S5xx`
//! error codes, framed exactly like the serve protocol; the daemon
//! ([`server`]) is a plain threaded TCP server with a lease sweeper.
//! Everything is dependency-free beyond the workspace's own crates.
//!
//! The grammar, lease state machine, and failover ladder are documented
//! in DESIGN.md §16; `xpdlc registry` runs the daemon from the CLI.

pub mod client;
pub mod lease;
pub mod protocol;
pub mod ring;
pub mod server;

pub use client::{ClientError, HealthFn, InvalidateFn, NodeAgent, NodeConfig, RegistryClient, RingFn};
pub use lease::{HeartbeatOutcome, Lease, LeaseTable, NodeReport};
pub use protocol::{
    parse_event, parse_request, parse_response, ClusterStatus, Event, NodeEntry, RegistryError,
    RegistryMethod, RegistryReply, Request, Response, PROTOCOL_VERSION,
};
pub use ring::{parse_epoch_hex, HashRing, RingInfo, DEFAULT_REPLICATION, DEFAULT_VNODES};
pub use server::{RegistryOptions, RegistryServer, RegistryState, RegistryStats};
