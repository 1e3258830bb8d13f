//! Loopback UDP endpoints for the real-socket protocol driver.
//!
//! This module is deliberately protocol-agnostic: it moves opaque payload
//! bytes between numbered nodes over `std::net::UdpSocket` datagrams and
//! knows nothing about rekeying. The protocol crate layers its own
//! versioned message codec on top (`rekey-proto`'s `runtime::wire`), so
//! the framing here carries only what the socket layer itself needs —
//! a header version and the logical source/destination node numbers:
//!
//! ```text
//! offset  size  field
//! 0       1     FRAME_VERSION
//! 1       4     source node id   (u32, little endian)
//! 5       4     destination node id (u32, little endian)
//! 9       ...   payload (opaque to this layer)
//! ```
//!
//! Destination routing is the caller's job: several logical nodes share
//! one endpoint (a worker thread hosting many members binds a single
//! socket), so the `dst` field demultiplexes datagrams after arrival.
//!
//! Datagram semantics are UDP's: frames can be dropped (kernel receive
//! buffer overflow under load) and the endpoint never retries — loss
//! recovery belongs to the protocol above, which is exactly the property
//! the rekeying protocol's NACK/recover path is built for. Every drop the
//! endpoint *can* observe is counted in [`EndpointStats`].

use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Version byte of the socket-layer frame header.
pub(crate) const FRAME_VERSION: u8 = 1;

/// Bytes of header before the payload.
pub(crate) const HEADER_LEN: usize = 9;

/// Largest payload a single frame may carry. 65 507 is the theoretical
/// UDP-over-IPv4 maximum datagram payload; the header claims its share.
pub const MAX_PAYLOAD: usize = 65_507 - HEADER_LEN;

/// Routing header of a received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Logical node that sent the frame.
    pub src: u32,
    /// Logical node the frame is addressed to (endpoints host many
    /// nodes, so the caller demultiplexes on this).
    pub dst: u32,
}

/// Shared, thread-safe traffic counters of one endpoint. Cheap relaxed
/// atomics: the numbers feed reports, not control flow.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Frames handed to the kernel.
    pub packets_sent: AtomicU64,
    /// Well-formed frames received.
    pub packets_received: AtomicU64,
    /// Payload + header bytes handed to the kernel.
    pub bytes_sent: AtomicU64,
    /// Payload + header bytes received in well-formed frames.
    pub bytes_received: AtomicU64,
    /// Sends refused locally because the payload exceeded [`MAX_PAYLOAD`].
    pub oversize_drops: AtomicU64,
    /// Datagrams discarded on arrival: short header, wrong version.
    pub malformed_frames: AtomicU64,
}

impl EndpointStats {
    fn count(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// One bound loopback UDP socket plus its reusable buffers and counters.
///
/// Not `Clone`: each endpoint belongs to exactly one thread. The stats
/// handle ([`UdpEndpoint::stats`]) is the only shared piece.
pub struct UdpEndpoint {
    socket: UdpSocket,
    addr: SocketAddr,
    stats: Arc<EndpointStats>,
    recv_buf: Box<[u8; 65_536]>,
    send_buf: Vec<u8>,
}

impl UdpEndpoint {
    /// Binds a fresh endpoint on `127.0.0.1` with an OS-assigned port.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address space or descriptor
    /// exhaustion).
    pub fn bind_loopback() -> io::Result<UdpEndpoint> {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = socket.local_addr()?;
        Ok(UdpEndpoint {
            socket,
            addr,
            stats: Arc::new(EndpointStats::default()),
            recv_buf: Box::new([0; 65_536]),
            send_buf: Vec::with_capacity(4_096),
        })
    }

    /// The bound address (`127.0.0.1:port`); give this to peers.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared counter handle, safe to read from any thread.
    pub fn stats(&self) -> Arc<EndpointStats> {
        Arc::clone(&self.stats)
    }

    /// Sets the blocking-receive timeout; `None` blocks forever.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        // A zero Duration is an invalid input to the socket option; the
        // caller means "don't wait", which a 1 µs timeout approximates.
        let timeout = timeout.map(|t| t.max(Duration::from_micros(1)));
        self.socket.set_read_timeout(timeout)
    }

    /// Frames `payload` from `src` to `dst` and sends it to `peer`.
    ///
    /// Returns `false` (after counting an oversize drop) when the
    /// payload cannot fit one datagram — the frame is *not* sent and the
    /// protocol's loss recovery is expected to repair the gap.
    ///
    /// # Errors
    ///
    /// Propagates kernel send failures other than the local oversize
    /// check.
    pub fn send_frame(
        &mut self,
        peer: SocketAddr,
        src: u32,
        dst: u32,
        payload: &[u8],
    ) -> io::Result<bool> {
        if payload.len() > MAX_PAYLOAD {
            EndpointStats::count(&self.stats.oversize_drops, 1);
            return Ok(false);
        }
        self.send_buf.clear();
        self.send_buf.push(FRAME_VERSION);
        self.send_buf.extend_from_slice(&src.to_le_bytes());
        self.send_buf.extend_from_slice(&dst.to_le_bytes());
        self.send_buf.extend_from_slice(payload);
        self.socket.send_to(&self.send_buf, peer)?;
        EndpointStats::count(&self.stats.packets_sent, 1);
        EndpointStats::count(&self.stats.bytes_sent, self.send_buf.len() as u64);
        Ok(true)
    }

    /// Receives one frame, honouring the configured read timeout.
    ///
    /// Returns `None` on timeout and on malformed datagrams (counted),
    /// so a receive loop can treat every `None` as "nothing useful right
    /// now". The payload borrow is valid until the next receive.
    ///
    /// # Errors
    ///
    /// Propagates kernel receive failures that are neither a timeout nor
    /// `WouldBlock`.
    pub fn recv_frame(&mut self) -> io::Result<Option<(FrameHeader, &[u8])>> {
        let len = match self.socket.recv_from(&mut self.recv_buf[..]) {
            Ok((len, _)) => len,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        if len < HEADER_LEN || self.recv_buf[0] != FRAME_VERSION {
            EndpointStats::count(&self.stats.malformed_frames, 1);
            return Ok(None);
        }
        let src = u32::from_le_bytes(self.recv_buf[1..5].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(self.recv_buf[5..9].try_into().expect("4 bytes"));
        EndpointStats::count(&self.stats.packets_received, 1);
        EndpointStats::count(&self.stats.bytes_received, len as u64);
        Ok(Some((
            FrameHeader { src, dst },
            &self.recv_buf[HEADER_LEN..len],
        )))
    }
}

impl std::fmt::Debug for UdpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdpEndpoint")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn frames_round_trip_between_endpoints() {
        let mut a = UdpEndpoint::bind_loopback().unwrap();
        let mut b = UdpEndpoint::bind_loopback().unwrap();
        b.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();

        assert!(a.send_frame(b.local_addr(), 7, 42, b"hello").unwrap());
        let (header, payload) = b.recv_frame().unwrap().expect("frame arrives");
        assert_eq!(header, FrameHeader { src: 7, dst: 42 });
        assert_eq!(payload, b"hello");

        let stats = b.stats();
        assert_eq!(stats.packets_received.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.bytes_received.load(Ordering::Relaxed),
            (HEADER_LEN + 5) as u64
        );
    }

    #[test]
    fn oversize_payload_is_dropped_locally() {
        let mut a = UdpEndpoint::bind_loopback().unwrap();
        let big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(!a.send_frame(a.local_addr(), 0, 1, &big).unwrap());
        assert_eq!(a.stats().oversize_drops.load(Ordering::Relaxed), 1);
        assert_eq!(a.stats().packets_sent.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn short_and_wrong_version_datagrams_are_counted_not_delivered() {
        let mut a = UdpEndpoint::bind_loopback().unwrap();
        let b = UdpEndpoint::bind_loopback().unwrap();
        a.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();

        // Raw socket sends bypassing the framer: a short datagram and a
        // version-skewed header.
        b.socket
            .send_to(&[FRAME_VERSION, 1, 2], a.local_addr())
            .unwrap();
        let mut skewed = vec![FRAME_VERSION + 1];
        skewed.extend_from_slice(&[0; 8]);
        b.socket.send_to(&skewed, a.local_addr()).unwrap();

        assert!(a.recv_frame().unwrap().is_none());
        assert!(a.recv_frame().unwrap().is_none());
        assert_eq!(a.stats().malformed_frames.load(Ordering::Relaxed), 2);
        assert_eq!(a.stats().packets_received.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn timeout_returns_none() {
        let mut a = UdpEndpoint::bind_loopback().unwrap();
        a.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        assert!(a.recv_frame().unwrap().is_none());
    }
}
