#![deny(missing_docs)]
//! Fault-tolerant cluster membership for `xpdl-serve` fleets.
//!
//! `xpdl-registry` turns N serving daemons into one logical service:
//!
//! * **Membership** — nodes hold TTL leases ([`lease`]) renewed by
//!   heartbeats; a node that stops heartbeating (crash, SIGKILL,
//!   partition) drops out of the routing table when its TTL runs out,
//!   with no wall-clock dependence.
//! * **Push invalidation** — a model-version [`announce`](protocol::RegistryMethod::Announce)
//!   is pushed to every subscribed node the moment it happens, replacing
//!   the per-process polling interval as the reload trigger.
//! * **Self-healing** — the node-side [`NodeAgent`]
//!   re-registers through registry restarts and lease expiries with
//!   bounded, deterministically jittered backoff.
//!
//! The wire protocol ([`protocol`]) is JSON-lines with stable `S5xx`
//! error codes, framed exactly like the serve protocol: both daemons
//! generate their messages' JSON from one table each through the
//! envelope and field kinds in [`wire`]. The membership rules live in
//! [`state`], a state machine that takes the time from its caller and
//! returns the event to push, with no lock, clock or socket, so tests
//! replay it in virtual time from a seed. The daemon ([`server`]) is a
//! plain threaded TCP server with a lease sweeper that wakes when the
//! next lease is due: it reads the clock,
//! holds the state and the push list behind one mutex, and writes the
//! pushes. Everything is dependency-free beyond the workspace's own
//! crates.
//!
//! The grammar, lease state machine, and failover ladder are documented
//! in DESIGN.md §16; `xpdlc registry` runs the daemon from the CLI.

pub mod client;
pub mod lease;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod state;
pub mod wire;

pub use client::{ClientError, HealthFn, InvalidateFn, NodeAgent, NodeConfig, RegistryClient, RingFn};
pub use lease::{HeartbeatOutcome, Lease, LeaseTable, NodeReport};
pub use protocol::{
    parse_event, parse_request, parse_response, ClusterStatus, Event, NodeEntry, RegistryError,
    RegistryMethod, RegistryReply, Request, Response, PROTOCOL_VERSION,
};
pub use ring::{parse_epoch_hex, HashRing, RingInfo, DEFAULT_REPLICATION, DEFAULT_VNODES};
pub use server::{RegistryOptions, RegistryServer, RegistryStats};
pub use state::RegistryState;
