//! Versioned wire codec for [`RtMsg`]: what the socket driver puts in
//! UDP datagrams, built on the primitives of [`rekey_crypto::wire`]
//! (little-endian, length-prefixed, bounds-checked [`Reader`]).
//!
//! Each layout is stated once. Every type a frame carries has one `Field`
//! impl, which both writes and reads it, and the message table (the
//! `tagged!` invocation for [`RtMsg`] below) lists each message's tag and
//! fields in wire order; `encode_msg` and `decode_msg` are generated from
//! it. The table is authoritative; this grammar restates it:
//!
//! ```text
//! Frame   := version:u8 (= WIRE_VERSION), tag:u8, the fields of the tag's row
//! Prefix  := len:u8, digits:[u16; len]   (len ≤ depth, digits < base)
//! UserId  := Prefix                      (full depth)
//! Vec<T>  := count:u32, T*               (of records: count ≤ the ID space)
//! Member  := id:UserId, host:u64, joined_at:u64
//! Record  := Member, rtt:u64
//! Table   := owner:UserId, k:u16 (> 0), policy:u8, Vec<Record>
//! Welcome := id:UserId, interval:u64, Vec<Key>
//! ReplOp  := op:u8 (0 Join, 1 Leave, 2 Interval), the fields of the op's row
//! Forward := level:u8, prefix:Prefix, interval:u64, epoch:u64, sent_at:u64,
//!            seq:u64, Vec<Encryption>   (written by hand, see below)
//! ```
//!
//! A `usize` or a `HostId` travels as a `u64`. Two deliberate asymmetries
//! keep frames small and the codec total:
//!
//! * an [`IntervalMessage`]'s split index is **not** serialized — the
//!   decoder rebuilds it with [`SplitIndex::build`] over the decoded
//!   encryptions, which addresses the same related sets (the index is a
//!   pure function of the encryption IDs);
//! * a [`NeighborTable`] is serialized as its record list and rebuilt by
//!   re-insertion: `iter_all` yields entries in (row, digit, RTT) order and
//!   `insert` is stable on RTT ties, so order and primaries survive.
//!
//! Decoding is a total function over arbitrary bytes: truncated, corrupt,
//! or version-skewed frames return a [`WireError`] — never a panic. The
//! round trip is pinned by a proptest in `tests/rtmsg_wire.rs`, the bytes
//! of every tag by `tests/golden_layout.rs`.

use std::fmt;
use std::sync::Arc;

use rekey_crypto::wire::{
    decode_encryption_from, decode_key_from, decode_prefix, encode_encryption, encode_key,
    encode_prefix, DecodeError, Reader,
};
use rekey_crypto::{Encryption, Key};
use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_net::HostId;
use rekey_table::PrimaryPolicy::{self, EarliestJoinAtBottom, SmallestRtt};
use rekey_table::{Member, NeighborRecord, NeighborTable};

use crate::transport::{PrefixBuf, SplitIndex};
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

/// A type a frame carries: its one layout, read back by `get` exactly as
/// `put` writes it.
trait Field: Sized {
    /// The most elements a `Vec<Self>` reserves before reading them, so a
    /// forged count cannot make the decoder allocate.
    const PREALLOC: usize = 1 << 12;

    fn put(&self, out: &mut Vec<u8>);

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Self, WireError>;

    /// Rejects a `Vec<Self>` count the protocol cannot produce.
    fn check_count(_count: u32, _spec: &IdSpec) -> Result<(), WireError> {
        Ok(())
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>, _: &IdSpec) -> Result<u64, WireError> {
        Ok(r.u64()?)
    }
}

impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader<'_>, _: &IdSpec) -> Result<usize, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::BadValue("index"))
    }
}

impl Field for HostId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>, _: &IdSpec) -> Result<HostId, WireError> {
        let host = usize::try_from(r.u64()?).map_err(|_| WireError::BadValue("host id"))?;
        Ok(HostId(host))
    }
}

impl Field for IdPrefix {
    fn put(&self, out: &mut Vec<u8>) {
        encode_prefix(out, self);
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<IdPrefix, WireError> {
        Ok(decode_prefix(r, spec)?)
    }
}

impl Field for UserId {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_prefix().put(out);
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<UserId, WireError> {
        IdPrefix::get(r, spec)?
            .to_user_id(spec)
            .ok_or(WireError::BadValue("user id depth"))
    }
}

/// A split key travels as the prefix it is, checked against the ID spec.
impl Field for PrefixBuf {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<PrefixBuf, WireError> {
        IdPrefix::get(r, spec).map(PrefixBuf)
    }
}

impl Field for Encryption {
    const PREALLOC: usize = 1 << 16;

    fn put(&self, out: &mut Vec<u8>) {
        encode_encryption(self, out);
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Encryption, WireError> {
        Ok(decode_encryption_from(r, spec)?)
    }
}

impl Field for Key {
    fn put(&self, out: &mut Vec<u8>) {
        encode_key(self, out);
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Key, WireError> {
        Ok(decode_key_from(r, spec)?)
    }
}

/// Writes a list as a `Vec<T>`: its count, then the items. The list is a
/// whole `Vec`, or the part of one a split copy carries.
fn put_seq<'a, T: Field + 'a>(out: &mut Vec<u8>, items: impl IntoIterator<Item = &'a T>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut count = 0u32;
    for item in items {
        item.put(out);
        count += 1;
    }
    out[at..at + 4].copy_from_slice(&count.to_le_bytes());
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self);
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Vec<T>, WireError> {
        let count = r.u32()?;
        T::check_count(count, spec)?;
        let mut items = Vec::with_capacity((count as usize).min(T::PREALLOC));
        for _ in 0..count {
            items.push(T::get(r, spec)?);
        }
        Ok(items)
    }
}

/// Derives [`Field`] for a struct: its fields, in the order listed.
/// `#[count(check)]` rejects the counts a list of the struct cannot have.
macro_rules! structs {
    ($($(#[count($check:ident)])? $name:ident { $($field:ident: $ty:ty),* $(,)? })*) => {$(
        impl Field for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $(<$ty as Field>::put(&self.$field, out);)*
            }

            fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<$name, WireError> {
                Ok($name {
                    $($field: <$ty as Field>::get(r, spec)?,)*
                })
            }

            $(fn check_count(count: u32, spec: &IdSpec) -> Result<(), WireError> {
                $check(count, spec)
            })?
        }
    )*};
}

structs! {
    Member { id: UserId, host: HostId, joined_at: u64 }
    #[count(distinct_members)]
    NeighborRecord { member: Member, rtt: u64 }
    WelcomePacket { id: UserId, interval: u64, keys: Vec<Key> }
}

/// A record list names distinct members, so a count beyond the ID space
/// is out of range.
fn distinct_members(count: u32, spec: &IdSpec) -> Result<(), WireError> {
    if u64::from(count) > spec.id_space() {
        return Err(WireError::BadValue("record count"));
    }
    Ok(())
}

/// The primary policies by their wire byte.
const POLICIES: [PrimaryPolicy; 2] = [SmallestRtt, EarliestJoinAtBottom];

impl Field for Arc<NeighborTable> {
    fn put(&self, out: &mut Vec<u8>) {
        self.owner().put(out);
        out.extend_from_slice(&(self.k() as u16).to_le_bytes());
        let policy = POLICIES.iter().position(|&p| p == self.policy());
        out.push(policy.expect("every policy has a byte") as u8);
        put_seq(out, self.iter_all());
    }

    fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<Arc<NeighborTable>, WireError> {
        let owner = UserId::get(r, spec)?;
        let k = usize::from(r.u16()?);
        let policy =
            *(POLICIES.get(usize::from(r.u8()?))).ok_or(WireError::BadValue("primary policy"))?;
        if k == 0 {
            return Err(WireError::BadValue("table capacity"));
        }
        let mut table = NeighborTable::new(spec, owner, k, policy);
        for record in Vec::<NeighborRecord>::get(r, spec)? {
            table.insert(record);
        }
        Ok(Arc::new(table))
    }
}

/// Derives [`Field`] for a tagged enum from one table: a tag byte, then
/// the variant's fields in the order listed. A last row marked
/// `#[by_hand(put, get)]` has its body written by `put(out, fields…)` and
/// read by `get(r, spec)`; `$unknown` turns any other tag into the error.
macro_rules! tagged {
    (
        $enum:ident, $unknown:expr;
        $($tag:ident = $value:literal => $variant:ident { $($field:ident: $ty:ty),* $(,)? },)*
        $(#[by_hand($put:ident, $get:ident)]
            $htag:ident = $hvalue:literal => $hvariant:ident { $($hfield:ident),* },)?
    ) => {
        $(const $tag: u8 = $value;)*
        $(const $htag: u8 = $hvalue;)?

        impl Field for $enum {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($enum::$variant { $($field),* } => {
                        out.push($tag);
                        $(<$ty as Field>::put($field, out);)*
                    })*
                    $($enum::$hvariant { $($hfield),* } => {
                        out.push($htag);
                        $put(out, $($hfield),*);
                    })?
                }
            }

            fn get(r: &mut Reader<'_>, spec: &IdSpec) -> Result<$enum, WireError> {
                Ok(match r.u8()? {
                    $($tag => $enum::$variant {
                        $($field: <$ty as Field>::get(r, spec)?,)*
                    },)*
                    $($htag => $get(r, spec)?,)?
                    other => return Err($unknown(other)),
                })
            }
        }
    };
}

tagged! {
    ReplOp, |_| WireError::BadValue("replication op");
    OP_JOIN = 0 => Join { host: HostId, at: u64, id: UserId },
    OP_LEAVE = 1 => Leave { id: UserId },
    OP_INTERVAL = 2 => Interval { sent_at: u64 },
}

// The message table. Tags 0x01–0x03, 0x16–0x18 and 0x1D–0x1F once named a
// node's own timers and its driver's commands; 0x07 and 0x0A named the
// per-member `NewMember`/`MemberLeft` broadcast that `Table` pushes
// replaced. All of them decode to `WireError::UnknownTag`, and the numbers
// are reserved — never reuse one.
tagged! {
    RtMsg, WireError::UnknownTag;
    TAG_JOIN_REQUEST = 0x04 => JoinRequest {},
    TAG_JOIN_ACCEPTED = 0x05 => JoinAccepted {
        member: Member, table: Arc<NeighborTable>, epoch: u64, seq: u64,
    },
    TAG_WELCOME = 0x06 => Welcome { welcome: WelcomePacket, epoch: u64, next_interval_at: u64 },
    TAG_LEAVE_REQUEST = 0x08 => LeaveRequest {},
    TAG_LEAVE_ACK = 0x09 => LeaveAck {},
    TAG_FAILURE_NOTICE = 0x0B => FailureNotice { failed: UserId },
    TAG_NACK = 0x0D => Nack { interval: u64, id: UserId },
    TAG_RECOVER = 0x0E => Recover {
        interval: u64, sent_at: u64, seq: u64, encryptions: Vec<Encryption>,
    },
    TAG_PING = 0x0F => Ping { token: u64 },
    TAG_PONG = 0x10 => Pong { token: u64, access_rtt: u64 },
    TAG_SERVER_PING = 0x11 => ServerPing { id: UserId },
    TAG_SERVER_PONG = 0x12 => ServerPong { epoch: u64, seq: u64, interval: u64 },
    TAG_NOT_MEMBER = 0x13 => NotMember { id: UserId },
    TAG_RESYNC_REQUEST = 0x14 => ResyncRequest { id: UserId },
    TAG_RESYNC = 0x15 => Resync {
        member: Member, table: Arc<NeighborTable>, welcome: WelcomePacket,
        epoch: u64, seq: u64, next_interval_at: u64,
    },
    TAG_REPL_ENTRY = 0x19 => ReplEntry { idx: u64, epoch: u64, op: ReplOp },
    TAG_REPL_ACK = 0x1A => ReplAck { replica: usize, idx: u64 },
    TAG_REPL_HEARTBEAT = 0x1B => ReplHeartbeat {
        epoch: u64, idx: u64, replica: usize, floor: u64,
    },
    TAG_CANDIDACY = 0x1C => Candidacy { epoch: u64, idx: u64, replica: usize },
    TAG_TABLE = 0x20 => Table { table: Arc<NeighborTable>, epoch: u64, seq: u64 },
    TAG_JOIN_SEED = 0x21 => JoinSeed { seed: Member },
    TAG_QUERY = 0x22 => Query { target: IdPrefix },
    TAG_QUERY_REPLY = 0x23 => QueryReply { target: IdPrefix, records: Vec<NeighborRecord> },
    TAG_JOIN_DIGITS = 0x24 => JoinDigits { digits: IdPrefix },
    // A split copy carries only part of its message; see `encode_forward_split`.
    #[by_hand(put_forward, get_forward)]
    TAG_FORWARD = 0x0C => Forward { level, prefix, message },
}

/// A whole `Forward`: every encryption of its message.
fn put_forward(out: &mut Vec<u8>, level: &usize, prefix: &PrefixBuf, m: &Arc<IntervalMessage>) {
    put_forward_body(out, *level, prefix, m, &m.encryptions);
}

/// A `Forward` frame's body: the level, the prefix, the header of `m`,
/// then encryptions — all of `m`'s, or the subset a split copy carries.
fn put_forward_body<'a>(
    out: &mut Vec<u8>,
    level: usize,
    prefix: &PrefixBuf,
    m: &IntervalMessage,
    encryptions: impl IntoIterator<Item = &'a Encryption>,
) {
    out.push(level as u8);
    prefix.put(out);
    for word in [m.interval, m.epoch, m.sent_at, m.seq] {
        word.put(out);
    }
    put_seq(out, encryptions);
}

fn get_forward(r: &mut Reader<'_>, spec: &IdSpec) -> Result<RtMsg, WireError> {
    let level = usize::from(r.u8()?);
    let prefix = PrefixBuf::get(r, spec)?;
    let [interval, epoch, sent_at, seq] = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let encryptions = Vec::<Encryption>::get(r, spec)?;
    let message = Arc::new(IntervalMessage {
        index: SplitIndex::build(&encryptions),
        interval,
        epoch,
        sent_at,
        seq,
        encryptions,
    });
    Ok(RtMsg::Forward {
        level,
        prefix,
        message,
    })
}

/// Appends one versioned [`RtMsg`] frame to `out`. Every variant encodes,
/// so drivers and tests can treat the codec as total.
pub fn encode_msg(msg: &RtMsg, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    msg.put(out);
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
    let msg = RtMsg::get(&mut r, spec)?;
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
    let related = (message.index.indices(prefix.as_slice())).map(|i| &message.encryptions[i]);
    out.push(WIRE_VERSION);
    out.push(TAG_FORWARD);
    put_forward_body(out, level, prefix, message, related);
}
