//! The network substrate: a lossy bounded-delay link, plus the paper's
//! x-kernel protocol stack kept as a documented substitution.
//!
//! - [`LossyLink`]: the network model — Bernoulli or bursty loss,
//!   duplication, reordering, corruption, and uniformly distributed
//!   delay bounded by `ℓ`, the communication-delay bound all of the
//!   paper's backup-consistency results assume. The simulator carries
//!   every frame over it; the real-clock runtime reuses its
//!   [`LinkConfig`].
//! - [`Bytes`]: the cheaply cloneable byte buffer a frame travels in.
//!
//! Frames on the simulator's data path are the wire codec's own encoding
//! (`rtpb_core::wire`), sealed by a CRC32C trailer. That trailer is the
//! only framing and checksum: the link hands the frame's bytes to the
//! receiver unchanged, or with the bit flip it reports.
//!
//! # The x-kernel substrate
//!
//! The paper's prototype is "a user-level x-kernel based server": the
//! RTPB protocol is an *anchor protocol* composed above UDP in an
//! explicit protocol graph (paper §4.1, citing Hutchinson & Peterson).
//! This crate keeps that substrate under test, off the data path:
//!
//! - [`Message`]: a payload plus a stack of headers, manipulated with
//!   the x-kernel's push/pop discipline as a message moves down and up
//!   the stack.
//! - [`Protocol`] and [`ProtocolGraph`]: the uniform protocol interface
//!   and a composable linear graph of protocol layers.
//! - [`UdpLike`]: unreliable datagrams with a length/checksum header and
//!   UDP's 64 KiB size limit.
//!
//! Neither driver frames through this stack. A second checksum would only repeat
//! the CRC32C trailer's, and the 64 KiB limit would refuse large batches
//! and catch-up frames that the simulated link carries whole.
//!
//! # Examples
//!
//! ```
//! use rtpb_net::{Message, ProtocolGraph, UdpLike};
//!
//! # fn main() -> Result<(), rtpb_net::ProtocolError> {
//! let mut sender = ProtocolGraph::builder().layer(UdpLike::new()).build();
//! let mut receiver = ProtocolGraph::builder().layer(UdpLike::new()).build();
//!
//! let wire = sender.send(Message::from_payload(b"update v1".to_vec()))?;
//! let delivered = receiver.receive(wire)?.expect("not consumed");
//! assert_eq!(delivered.payload(), b"update v1");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod link;
mod message;
mod protocol;
mod udp;

pub use bytes::Bytes;
pub use link::{FaultKind, FaultWindow, GilbertElliott, LinkConfig, LinkOutcome, LossyLink};
pub use message::Message;
pub use protocol::{Protocol, ProtocolError, ProtocolGraph, ProtocolGraphBuilder};
pub use udp::UdpLike;
