//! Versioned wire codec for [`RtMsg`]: what the socket driver puts in
//! UDP datagrams.
//!
//! Built on the primitives of [`rekey_crypto::wire`] (little-endian,
//! length-prefixed, bounds-checked [`Reader`]). Every frame is
//!
//! ```text
//! Frame   := version:u8 (= WIRE_VERSION), tag:u8, body
//! UserId  := IdPrefix                  (full-depth prefix)
//! Member  := id:UserId, host:u64, joined_at:u64
//! Record  := Member, rtt:u64
//! Records := count:u32, Record*        (count ≤ the ID space)
//! Table   := owner:UserId, k:u16, policy:u8, Records
//! Welcome := id:UserId, interval:u64, count:u32, Key*
//! Prefix  := len:u8, digits:[u16; len]
//! IvalMsg := interval:u64, epoch:u64, sent_at:u64, seq:u64, count:u32, Encryption*
//! ```
//!
//! Two deliberate asymmetries keep frames small and the codec total:
//!
//! * an [`IntervalMessage`]'s split index is **not** serialized — the
//!   decoder rebuilds it with [`SplitIndex::build`] over the decoded
//!   encryptions, which addresses the same related sets (the index is a
//!   pure function of the encryption IDs);
//! * a [`NeighborTable`] is serialized as its record list and rebuilt by
//!   re-insertion, which reproduces the RTT-sorted entries exactly.
//!
//! Decoding is a total function over arbitrary bytes: truncated, corrupt,
//! or version-skewed frames return a [`WireError`] — never a panic. The
//! round-trip property (`decode(encode(m)) == m` up to `Arc` identity)
//! is pinned by a proptest in `tests/rtmsg_wire.rs`.

use std::fmt;
use std::sync::Arc;

use rekey_crypto::wire::{
    decode_encryption_from, decode_key_from, decode_prefix, encode_encryption, encode_key,
    encode_prefix, DecodeError, Reader,
};
use rekey_crypto::Encryption;
use rekey_id::{IdSpec, UserId};
use rekey_net::HostId;
use rekey_table::{Member, NeighborRecord, NeighborTable, PrimaryPolicy};

use crate::transport::{PrefixBuf, SplitIndex, MAX_DEPTH};
use crate::WelcomePacket;

use super::core::{IntervalMessage, ReplOp, RtMsg};

/// The codec version stamped on every frame. Decoders reject frames from
/// any other version outright — rolling upgrades run one version per
/// deployment, matching the single-server protocol. Version 2 tags a key
/// wrap under the one-time MAC key of its own keystream block; a version-1
/// node's tags would not verify. Version 3 carries the §3.1 join: the
/// `JoinSeed`, `Query`, `QueryReply` and `JoinDigits` tags, the
/// responder's access RTT in `Pong`, and the admitted ID in a replicated
/// join. Version 4 names the sender in a `Nack`.
pub const WIRE_VERSION: u8 = 4;

/// Errors produced while decoding an [`RtMsg`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame's leading version byte is not [`WIRE_VERSION`].
    Version(u8),
    /// The message tag byte does not name any [`RtMsg`] variant.
    UnknownTag(u8),
    /// A field held a value the protocol cannot represent (the `&str`
    /// names the field).
    BadValue(&'static str),
    /// A nested structure failed to decode.
    Bytes(DecodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Version(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadValue(what) => write!(f, "field out of range: {what}"),
            WireError::Bytes(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError::Bytes(e)
    }
}

// Tags 0x01–0x03, 0x16–0x18 and 0x1D–0x1F once named a node's own timers
// and its driver's commands; 0x07 and 0x0A named the per-member
// `NewMember`/`MemberLeft` broadcast that `Table` pushes replaced. All of
// them decode to `WireError::UnknownTag`, and the numbers are reserved —
// never reuse one.
const TAG_JOIN_REQUEST: u8 = 0x04;
const TAG_JOIN_ACCEPTED: u8 = 0x05;
const TAG_WELCOME: u8 = 0x06;
const TAG_LEAVE_REQUEST: u8 = 0x08;
const TAG_LEAVE_ACK: u8 = 0x09;
const TAG_FAILURE_NOTICE: u8 = 0x0B;
const TAG_FORWARD: u8 = 0x0C;
const TAG_NACK: u8 = 0x0D;
const TAG_RECOVER: u8 = 0x0E;
const TAG_PING: u8 = 0x0F;
const TAG_PONG: u8 = 0x10;
const TAG_SERVER_PING: u8 = 0x11;
const TAG_SERVER_PONG: u8 = 0x12;
const TAG_NOT_MEMBER: u8 = 0x13;
const TAG_RESYNC_REQUEST: u8 = 0x14;
const TAG_RESYNC: u8 = 0x15;
const TAG_REPL_ENTRY: u8 = 0x19;
const TAG_REPL_ACK: u8 = 0x1A;
const TAG_REPL_HEARTBEAT: u8 = 0x1B;
const TAG_CANDIDACY: u8 = 0x1C;
const TAG_TABLE: u8 = 0x20;
const TAG_JOIN_SEED: u8 = 0x21;
const TAG_QUERY: u8 = 0x22;
const TAG_QUERY_REPLY: u8 = 0x23;
const TAG_JOIN_DIGITS: u8 = 0x24;

/// `ReplOp` body: `op:u8` (0 = Join, 1 = Leave, 2 = Interval) + fields.
const OP_JOIN: u8 = 0;
const OP_LEAVE: u8 = 1;
const OP_INTERVAL: u8 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_user_id(out: &mut Vec<u8>, id: &UserId) {
    encode_prefix(out, &id.as_prefix());
}

fn get_user_id(r: &mut Reader<'_>, spec: &IdSpec) -> Result<UserId, WireError> {
    decode_prefix(r, spec)?
        .to_user_id(spec)
        .ok_or(WireError::BadValue("user id depth"))
}

fn put_member(out: &mut Vec<u8>, m: &Member) {
    put_user_id(out, &m.id);
    put_u64(out, m.host.0 as u64);
    put_u64(out, m.joined_at);
}

fn get_member(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Member, WireError> {
    let id = get_user_id(r, spec)?;
    let host = r.u64()?;
    let joined_at = r.u64()?;
    let host = usize::try_from(host).map_err(|_| WireError::BadValue("host id"))?;
    Ok(Member {
        id,
        host: HostId(host),
        joined_at,
    })
}

fn put_record(out: &mut Vec<u8>, rec: &NeighborRecord) {
    put_member(out, &rec.member);
    put_u64(out, rec.rtt);
}

fn get_record(r: &mut Reader<'_>, spec: &IdSpec) -> Result<NeighborRecord, WireError> {
    let member = get_member(r, spec)?;
    let rtt = r.u64()?;
    Ok(NeighborRecord { member, rtt })
}

fn put_records(out: &mut Vec<u8>, records: &[NeighborRecord]) {
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for rec in records {
        put_record(out, rec);
    }
}

/// A record list. It names distinct members, so a count beyond the ID
/// space is out of range.
fn get_records(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Vec<NeighborRecord>, WireError> {
    let count = r.u32()?;
    if u64::from(count) > spec.id_space() {
        return Err(WireError::BadValue("record count"));
    }
    let mut records = Vec::with_capacity((count as usize).min(1 << 12));
    for _ in 0..count {
        records.push(get_record(r, spec)?);
    }
    Ok(records)
}

fn put_table(out: &mut Vec<u8>, t: &NeighborTable) {
    put_user_id(out, t.owner());
    out.extend_from_slice(&(t.k() as u16).to_le_bytes());
    out.push(match t.policy() {
        PrimaryPolicy::SmallestRtt => 0,
        PrimaryPolicy::EarliestJoinAtBottom => 1,
    });
    put_records(out, t.iter_all().as_slice());
}

fn get_table(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Arc<NeighborTable>, WireError> {
    let owner = get_user_id(r, spec)?;
    let k = usize::from(r.u16()?);
    let policy = match r.u8()? {
        0 => PrimaryPolicy::SmallestRtt,
        1 => PrimaryPolicy::EarliestJoinAtBottom,
        _ => return Err(WireError::BadValue("primary policy")),
    };
    if k == 0 {
        return Err(WireError::BadValue("table capacity"));
    }
    let mut table = NeighborTable::new(spec, owner, k, policy);
    // Re-insertion reproduces the sender's table: `iter_all` yields entries
    // in (row, digit, rtt) order and `insert` is stable on RTT ties, so
    // order and primaries survive the round trip.
    for record in get_records(r, spec)? {
        table.insert(record);
    }
    Ok(Arc::new(table))
}

fn put_welcome(out: &mut Vec<u8>, w: &WelcomePacket) {
    put_user_id(out, &w.id);
    put_u64(out, w.interval);
    out.extend_from_slice(&(w.keys.len() as u32).to_le_bytes());
    for k in &w.keys {
        encode_key(k, out);
    }
}

fn get_welcome(r: &mut Reader<'_>, spec: &IdSpec) -> Result<WelcomePacket, WireError> {
    let id = get_user_id(r, spec)?;
    let interval = r.u64()?;
    let count = r.u32()? as usize;
    let mut keys = Vec::with_capacity(count.min(1 << 12));
    for _ in 0..count {
        keys.push(decode_key_from(r, spec)?);
    }
    Ok(WelcomePacket { id, keys, interval })
}

fn put_prefix_buf(out: &mut Vec<u8>, p: &PrefixBuf) {
    let digits = p.as_slice();
    out.push(digits.len() as u8);
    for &d in digits {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

fn get_prefix_buf(r: &mut Reader<'_>) -> Result<PrefixBuf, WireError> {
    let len = usize::from(r.u8()?);
    if len > MAX_DEPTH {
        return Err(WireError::BadValue("prefix depth"));
    }
    let mut digits = [0u16; MAX_DEPTH];
    for d in digits.iter_mut().take(len) {
        *d = r.u16()?;
    }
    Ok(PrefixBuf::new(&digits[..len]))
}

/// A `Forward` frame's tag and body: the level, the prefix, the header of
/// `m`, then `count` encryptions — all of `m`'s, or the subset a split
/// copy carries.
fn put_forward<'a>(
    out: &mut Vec<u8>,
    level: usize,
    prefix: &PrefixBuf,
    m: &IntervalMessage,
    count: usize,
    encryptions: impl Iterator<Item = &'a Encryption>,
) {
    out.push(TAG_FORWARD);
    out.push(level as u8);
    put_prefix_buf(out, prefix);
    put_u64(out, m.interval);
    put_u64(out, m.epoch);
    put_u64(out, m.sent_at);
    put_u64(out, m.seq);
    out.extend_from_slice(&(count as u32).to_le_bytes());
    for e in encryptions {
        encode_encryption(e, out);
    }
}

fn get_interval_message(r: &mut Reader<'_>, spec: &IdSpec) -> Result<IntervalMessage, WireError> {
    let interval = r.u64()?;
    let epoch = r.u64()?;
    let sent_at = r.u64()?;
    let seq = r.u64()?;
    let count = r.u32()? as usize;
    let mut encryptions = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        encryptions.push(decode_encryption_from(r, spec)?);
    }
    let index = SplitIndex::build(&encryptions);
    Ok(IntervalMessage {
        interval,
        epoch,
        sent_at,
        seq,
        encryptions,
        index,
    })
}

fn put_repl_op(out: &mut Vec<u8>, op: &ReplOp) {
    match op {
        ReplOp::Join { host, at, id } => {
            out.push(OP_JOIN);
            put_u64(out, host.0 as u64);
            put_u64(out, *at);
            put_user_id(out, id);
        }
        ReplOp::Leave { id } => {
            out.push(OP_LEAVE);
            put_user_id(out, id);
        }
        ReplOp::Interval { sent_at } => {
            out.push(OP_INTERVAL);
            put_u64(out, *sent_at);
        }
    }
}

fn get_repl_op(r: &mut Reader<'_>, spec: &IdSpec) -> Result<ReplOp, WireError> {
    match r.u8()? {
        OP_JOIN => {
            let host = r.u64()?;
            let host = usize::try_from(host).map_err(|_| WireError::BadValue("host id"))?;
            let at = r.u64()?;
            let id = get_user_id(r, spec)?;
            Ok(ReplOp::Join {
                host: HostId(host),
                at,
                id,
            })
        }
        OP_LEAVE => Ok(ReplOp::Leave {
            id: get_user_id(r, spec)?,
        }),
        OP_INTERVAL => Ok(ReplOp::Interval { sent_at: r.u64()? }),
        _ => Err(WireError::BadValue("replication op")),
    }
}

/// Appends one versioned [`RtMsg`] frame to `out`. Every variant encodes,
/// so drivers and tests can treat the codec as total.
pub fn encode_msg(msg: &RtMsg, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    match msg {
        RtMsg::JoinRequest => out.push(TAG_JOIN_REQUEST),
        RtMsg::JoinSeed { seed } => {
            out.push(TAG_JOIN_SEED);
            put_member(out, seed);
        }
        RtMsg::Query { target } => {
            out.push(TAG_QUERY);
            encode_prefix(out, target);
        }
        RtMsg::QueryReply { target, records } => {
            out.push(TAG_QUERY_REPLY);
            encode_prefix(out, target);
            put_records(out, records);
        }
        RtMsg::JoinDigits { digits } => {
            out.push(TAG_JOIN_DIGITS);
            encode_prefix(out, digits);
        }
        RtMsg::JoinAccepted {
            member,
            table,
            epoch,
            seq,
        } => {
            out.push(TAG_JOIN_ACCEPTED);
            put_member(out, member);
            put_table(out, table);
            put_u64(out, *epoch);
            put_u64(out, *seq);
        }
        RtMsg::Welcome {
            welcome,
            epoch,
            next_interval_at,
        } => {
            out.push(TAG_WELCOME);
            put_welcome(out, welcome);
            put_u64(out, *epoch);
            put_u64(out, *next_interval_at);
        }
        RtMsg::Table { table, epoch, seq } => {
            out.push(TAG_TABLE);
            put_table(out, table);
            put_u64(out, *epoch);
            put_u64(out, *seq);
        }
        RtMsg::LeaveRequest => out.push(TAG_LEAVE_REQUEST),
        RtMsg::LeaveAck => out.push(TAG_LEAVE_ACK),
        RtMsg::FailureNotice { failed } => {
            out.push(TAG_FAILURE_NOTICE);
            put_user_id(out, failed);
        }
        RtMsg::Forward {
            level,
            prefix,
            message,
        } => {
            let all = &message.encryptions;
            put_forward(out, *level, prefix, message, all.len(), all.iter());
        }
        RtMsg::Nack { interval, id } => {
            out.push(TAG_NACK);
            put_u64(out, *interval);
            put_user_id(out, id);
        }
        RtMsg::Recover {
            interval,
            encryptions,
            sent_at,
            seq,
        } => {
            out.push(TAG_RECOVER);
            put_u64(out, *interval);
            put_u64(out, *sent_at);
            put_u64(out, *seq);
            out.extend_from_slice(&(encryptions.len() as u32).to_le_bytes());
            for e in encryptions {
                encode_encryption(e, out);
            }
        }
        RtMsg::Ping { token } => {
            out.push(TAG_PING);
            put_u64(out, *token);
        }
        RtMsg::Pong { token, access_rtt } => {
            out.push(TAG_PONG);
            put_u64(out, *token);
            put_u64(out, *access_rtt);
        }
        RtMsg::ServerPing { id } => {
            out.push(TAG_SERVER_PING);
            put_user_id(out, id);
        }
        RtMsg::ServerPong {
            epoch,
            seq,
            interval,
        } => {
            out.push(TAG_SERVER_PONG);
            put_u64(out, *epoch);
            put_u64(out, *seq);
            put_u64(out, *interval);
        }
        RtMsg::NotMember { id } => {
            out.push(TAG_NOT_MEMBER);
            put_user_id(out, id);
        }
        RtMsg::ResyncRequest { id } => {
            out.push(TAG_RESYNC_REQUEST);
            put_user_id(out, id);
        }
        RtMsg::Resync {
            member,
            table,
            welcome,
            epoch,
            seq,
            next_interval_at,
        } => {
            out.push(TAG_RESYNC);
            put_member(out, member);
            put_table(out, table);
            put_welcome(out, welcome);
            put_u64(out, *epoch);
            put_u64(out, *seq);
            put_u64(out, *next_interval_at);
        }
        RtMsg::ReplEntry { idx, epoch, op } => {
            out.push(TAG_REPL_ENTRY);
            put_u64(out, *idx);
            put_u64(out, *epoch);
            put_repl_op(out, op);
        }
        RtMsg::ReplAck { replica, idx } => {
            out.push(TAG_REPL_ACK);
            put_u64(out, *replica as u64);
            put_u64(out, *idx);
        }
        RtMsg::ReplHeartbeat {
            epoch,
            idx,
            replica,
            floor,
        } => {
            out.push(TAG_REPL_HEARTBEAT);
            put_u64(out, *epoch);
            put_u64(out, *idx);
            put_u64(out, *replica as u64);
            put_u64(out, *floor);
        }
        RtMsg::Candidacy {
            epoch,
            idx,
            replica,
        } => {
            out.push(TAG_CANDIDACY);
            put_u64(out, *epoch);
            put_u64(out, *idx);
            put_u64(out, *replica as u64);
        }
    }
}

/// Decodes one [`RtMsg`] frame, requiring the whole input to be consumed.
///
/// # Errors
///
/// [`WireError`] on any malformed, truncated, version-skewed, or
/// trailing-byte input; never panics.
pub fn decode_msg(buf: &[u8], spec: &IdSpec) -> Result<RtMsg, WireError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version(version));
    }
    let tag = r.u8()?;
    let msg = match tag {
        TAG_JOIN_REQUEST => RtMsg::JoinRequest,
        TAG_JOIN_SEED => RtMsg::JoinSeed {
            seed: get_member(&mut r, spec)?,
        },
        TAG_QUERY => RtMsg::Query {
            target: decode_prefix(&mut r, spec)?,
        },
        TAG_QUERY_REPLY => {
            let target = decode_prefix(&mut r, spec)?;
            let records = get_records(&mut r, spec)?;
            RtMsg::QueryReply { target, records }
        }
        TAG_JOIN_DIGITS => RtMsg::JoinDigits {
            digits: decode_prefix(&mut r, spec)?,
        },
        TAG_JOIN_ACCEPTED => {
            let member = get_member(&mut r, spec)?;
            let table = get_table(&mut r, spec)?;
            let epoch = r.u64()?;
            let seq = r.u64()?;
            RtMsg::JoinAccepted {
                member,
                table,
                epoch,
                seq,
            }
        }
        TAG_WELCOME => {
            let welcome = get_welcome(&mut r, spec)?;
            let epoch = r.u64()?;
            let next_interval_at = r.u64()?;
            RtMsg::Welcome {
                welcome,
                epoch,
                next_interval_at,
            }
        }
        TAG_TABLE => {
            let table = get_table(&mut r, spec)?;
            let epoch = r.u64()?;
            let seq = r.u64()?;
            RtMsg::Table { table, epoch, seq }
        }
        TAG_LEAVE_REQUEST => RtMsg::LeaveRequest,
        TAG_LEAVE_ACK => RtMsg::LeaveAck,
        TAG_FAILURE_NOTICE => RtMsg::FailureNotice {
            failed: get_user_id(&mut r, spec)?,
        },
        TAG_FORWARD => {
            let level = usize::from(r.u8()?);
            let prefix = get_prefix_buf(&mut r)?;
            let message = get_interval_message(&mut r, spec)?;
            RtMsg::Forward {
                level,
                prefix,
                message: Arc::new(message),
            }
        }
        TAG_NACK => RtMsg::Nack {
            interval: r.u64()?,
            id: get_user_id(&mut r, spec)?,
        },
        TAG_RECOVER => {
            let interval = r.u64()?;
            let sent_at = r.u64()?;
            let seq = r.u64()?;
            let count = r.u32()? as usize;
            let mut encryptions = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                encryptions.push(decode_encryption_from(&mut r, spec)?);
            }
            RtMsg::Recover {
                interval,
                encryptions,
                sent_at,
                seq,
            }
        }
        TAG_PING => RtMsg::Ping { token: r.u64()? },
        TAG_PONG => {
            let token = r.u64()?;
            let access_rtt = r.u64()?;
            RtMsg::Pong { token, access_rtt }
        }
        TAG_SERVER_PING => RtMsg::ServerPing {
            id: get_user_id(&mut r, spec)?,
        },
        TAG_SERVER_PONG => {
            let epoch = r.u64()?;
            let seq = r.u64()?;
            let interval = r.u64()?;
            RtMsg::ServerPong {
                epoch,
                seq,
                interval,
            }
        }
        TAG_NOT_MEMBER => RtMsg::NotMember {
            id: get_user_id(&mut r, spec)?,
        },
        TAG_RESYNC_REQUEST => RtMsg::ResyncRequest {
            id: get_user_id(&mut r, spec)?,
        },
        TAG_RESYNC => {
            let member = get_member(&mut r, spec)?;
            let table = get_table(&mut r, spec)?;
            let welcome = get_welcome(&mut r, spec)?;
            let epoch = r.u64()?;
            let seq = r.u64()?;
            let next_interval_at = r.u64()?;
            RtMsg::Resync {
                member,
                table,
                welcome,
                epoch,
                seq,
                next_interval_at,
            }
        }
        TAG_REPL_ENTRY => {
            let idx = r.u64()?;
            let epoch = r.u64()?;
            let op = get_repl_op(&mut r, spec)?;
            RtMsg::ReplEntry { idx, epoch, op }
        }
        TAG_REPL_ACK => {
            let replica = r.u64()?;
            let replica =
                usize::try_from(replica).map_err(|_| WireError::BadValue("replica index"))?;
            let idx = r.u64()?;
            RtMsg::ReplAck { replica, idx }
        }
        TAG_REPL_HEARTBEAT => {
            let epoch = r.u64()?;
            let idx = r.u64()?;
            let replica = r.u64()?;
            let replica =
                usize::try_from(replica).map_err(|_| WireError::BadValue("replica index"))?;
            let floor = r.u64()?;
            RtMsg::ReplHeartbeat {
                epoch,
                idx,
                replica,
                floor,
            }
        }
        TAG_CANDIDACY => {
            let epoch = r.u64()?;
            let idx = r.u64()?;
            let replica = r.u64()?;
            let replica =
                usize::try_from(replica).map_err(|_| WireError::BadValue("replica index"))?;
            RtMsg::Candidacy {
                epoch,
                idx,
                replica,
            }
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Encodes a `Forward` frame trimmed to the receiver's duty: only the
/// encryptions related to `prefix` ride the wire (the paper's
/// REKEY-MESSAGE-SPLIT), since every deeper forwarding duty addresses a
/// subset of them. They are written straight from `message`: no copy of
/// them, and no split index over the copy, which the frame does not carry.
///
/// The simulator shares the full message by `Arc` — free — but a real
/// datagram pays per byte, and a full batch can exceed the 64 KiB UDP
/// ceiling; the related subset stays small (ancestors plus the prefix's
/// subtree).
pub fn encode_forward_split(
    level: usize,
    prefix: &PrefixBuf,
    message: &IntervalMessage,
    out: &mut Vec<u8>,
) {
    let digits = prefix.as_slice();
    let count = message.index.count(digits);
    let related = (message.index.indices(digits)).map(|i| &message.encryptions[i]);
    out.push(WIRE_VERSION);
    put_forward(out, level, prefix, message, count, related);
}
