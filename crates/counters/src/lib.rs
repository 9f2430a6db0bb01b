//! # dsbn-counters — distributed counter protocols
//!
//! The communication primitive underneath the paper's trackers: continuously
//! maintain the count of events observed across `k` distributed sites at a
//! coordinator, trading accuracy for communication.
//!
//! Three protocols, all expressed as pure state machines over the message
//! types in [`msg`] (so they run identically under the synchronous simulator
//! and the threaded cluster runtime of `dsbn-monitor`):
//!
//! | protocol | guarantee | messages |
//! |---|---|---|
//! | [`exact::ExactProtocol`] | exact | `O(C)` (Lemma 5 strawman) |
//! | [`deterministic::DeterministicProtocol`] | `(1-eps)C <= A <= C` | `O(k log C / eps)` |
//! | [`hyz::HyzProtocol`] | `E[A] = C`, `Var[A] <= (eps C)^2` (Lemma 4) | `O((sqrt(k)/eps + k) log C)` |
//!
//! Time-decayed tracking (the paper's future work (2)) runs any of them
//! unmodified within epochs of `B` events — Lemma 4 applies per epoch; the
//! epoch roll and the ring of closed epochs live in `dsbn-monitor` (its
//! DESIGN.md §5).

pub mod deterministic;
pub mod exact;
pub mod hyz;
pub mod msg;
pub mod protocol;
pub mod wire;

pub use deterministic::DeterministicProtocol;
pub use exact::ExactProtocol;
pub use hyz::HyzProtocol;
pub use msg::{DownMsg, UpMsg};
pub use protocol::{snapshot_into, CounterProtocol, SingleCounterSim};
pub use wire::{decode_packet, encode, visit_packet, Frame, WireError, WireItem};
