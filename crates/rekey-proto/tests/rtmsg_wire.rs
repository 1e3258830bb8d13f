//! Property tests for the versioned `RtMsg` wire codec.
//!
//! Round trip: `encode(decode(encode(m))) == encode(m)` for messages over
//! arbitrary (valid) protocol values — encoding is injective on every
//! wire-visible field, so byte-stable re-encoding pins structural
//! identity without requiring `PartialEq` on `RtMsg`. Robustness: the
//! decoder is a total function — truncated frames, corrupt bytes, and
//! version skew return errors, never panic.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::wire::DecodeError;
use rekey_crypto::{Encryption, Key};
use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_net::HostId;
use rekey_proto::runtime::wire::{decode_msg, encode_msg, WireError, WIRE_VERSION};
use rekey_proto::runtime::{IntervalMessage, ReplOp, RtMsg};
use rekey_proto::transport::PrefixBuf;
use rekey_proto::{SplitIndex, WelcomePacket};
use rekey_table::{Member, NeighborRecord, NeighborTable, PrimaryPolicy};

const DEPTH: usize = 3;
const BASE: u16 = 8;

fn spec() -> IdSpec {
    IdSpec::new(DEPTH, BASE).unwrap()
}

fn user_id(digits: &[u16]) -> UserId {
    UserId::new(&spec(), digits.to_vec()).unwrap()
}

fn digit() -> impl Strategy<Value = u16> {
    0..BASE
}

fn arb_user_id() -> impl Strategy<Value = UserId> {
    vec(digit(), DEPTH).prop_map(|d| user_id(&d))
}

fn arb_member() -> impl Strategy<Value = Member> {
    (arb_user_id(), 0usize..10_000, 0u64..1 << 40).prop_map(|(id, host, joined_at)| Member {
        id,
        host: HostId(host),
        joined_at,
    })
}

fn arb_table() -> impl Strategy<Value = Arc<NeighborTable>> {
    (
        arb_user_id(),
        1usize..5,
        proptest::bool::weighted(0.5),
        vec((arb_member(), 1u64..1 << 30), 0..12),
    )
        .prop_map(|(owner, k, bottom, records)| {
            let policy = if bottom {
                PrimaryPolicy::EarliestJoinAtBottom
            } else {
                PrimaryPolicy::SmallestRtt
            };
            let mut table = NeighborTable::new(&spec(), owner, k, policy);
            for (member, rtt) in records {
                table.insert(NeighborRecord { member, rtt });
            }
            Arc::new(table)
        })
}

fn key_for(digits: &[u16], seed: u64) -> Key {
    let mut rng = StdRng::seed_from_u64(seed);
    Key::random(IdPrefix::new(&spec(), digits.to_vec()).unwrap(), &mut rng)
}

fn arb_key() -> impl Strategy<Value = Key> {
    (vec(digit(), 0..=DEPTH), 0u64..1_000).prop_map(|(digits, seed)| key_for(&digits, seed))
}

fn arb_welcome() -> impl Strategy<Value = WelcomePacket> {
    (arb_user_id(), vec(arb_key(), 0..6), 0u64..1 << 30)
        .prop_map(|(id, keys, interval)| WelcomePacket { id, keys, interval })
}

fn arb_encryption() -> impl Strategy<Value = Encryption> {
    (
        vec(digit(), 0..=DEPTH),
        vec(digit(), 0..=DEPTH),
        0u64..1_000,
    )
        .prop_map(|(enc, tgt, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let enc_key = key_for(&enc, seed ^ 1);
            let tgt_key = key_for(&tgt, seed ^ 2);
            Encryption::seal(&enc_key, &tgt_key, &mut rng)
        })
}

fn arb_interval_message() -> impl Strategy<Value = Arc<IntervalMessage>> {
    (
        1u64..1 << 30,
        0u64..16,
        0u64..1 << 40,
        0u64..1 << 20,
        vec(arb_encryption(), 0..10),
    )
        .prop_map(|(interval, epoch, sent_at, seq, encryptions)| {
            Arc::new(IntervalMessage {
                interval,
                epoch,
                sent_at,
                seq,
                index: SplitIndex::build(&encryptions),
                encryptions,
            })
        })
}

fn arb_prefix_buf() -> impl Strategy<Value = PrefixBuf> {
    vec(digit(), 0..=DEPTH).prop_map(|d| PrefixBuf::new(&d))
}

fn arb_prefix() -> impl Strategy<Value = IdPrefix> {
    vec(digit(), 0..=DEPTH).prop_map(|d| IdPrefix::from_digits(&spec(), &d).unwrap())
}

fn arb_repl_op() -> impl Strategy<Value = ReplOp> {
    prop_oneof![
        (0usize..10_000, 0u64..1 << 40, arb_user_id()).prop_map(|(host, at, id)| {
            ReplOp::Join {
                host: HostId(host),
                at,
                id,
            }
        }),
        arb_user_id().prop_map(|id| ReplOp::Leave { id }),
        (0u64..1 << 40).prop_map(|sent_at| ReplOp::Interval { sent_at }),
    ]
}

fn arb_msg() -> impl Strategy<Value = RtMsg> {
    let repl = prop_oneof![
        (1u64..1 << 40, 0u64..16, arb_repl_op()).prop_map(|(idx, epoch, op)| RtMsg::ReplEntry {
            idx,
            epoch,
            op
        }),
        (0usize..64, 0u64..1 << 40).prop_map(|(replica, idx)| RtMsg::ReplAck { replica, idx }),
        (0u64..16, 0u64..1 << 40, 0usize..64, 0u64..1 << 40).prop_map(
            |(epoch, idx, replica, floor)| RtMsg::ReplHeartbeat {
                epoch,
                idx,
                replica,
                floor,
            }
        ),
        (0u64..16, 0u64..1 << 40, 0usize..64).prop_map(|(epoch, idx, replica)| RtMsg::Candidacy {
            epoch,
            idx,
            replica
        }),
    ];
    let small = prop_oneof![
        Just(RtMsg::JoinRequest),
        Just(RtMsg::LeaveRequest),
        Just(RtMsg::LeaveAck),
        (0u64..1 << 40, arb_user_id()).prop_map(|(interval, id)| RtMsg::Nack { interval, id }),
        (0u64..1 << 40).prop_map(|token| RtMsg::Ping { token }),
        (0u64..1 << 40, 0u64..1 << 40)
            .prop_map(|(token, access_rtt)| RtMsg::Pong { token, access_rtt }),
        arb_user_id().prop_map(|id| RtMsg::ServerPing { id }),
        (0u64..16, 0u64..1 << 30, 0u64..1 << 30).prop_map(|(epoch, seq, interval)| {
            RtMsg::ServerPong {
                epoch,
                seq,
                interval,
            }
        }),
        arb_user_id().prop_map(|id| RtMsg::NotMember { id }),
        arb_user_id().prop_map(|id| RtMsg::ResyncRequest { id }),
        arb_user_id().prop_map(|failed| RtMsg::FailureNotice { failed }),
    ];
    let compound = prop_oneof![
        (arb_member(), arb_table(), 0u64..16, 0u64..1 << 30).prop_map(
            |(member, table, epoch, seq)| RtMsg::JoinAccepted {
                member,
                table,
                epoch,
                seq,
            }
        ),
        (arb_welcome(), 0u64..16, 0u64..1 << 40).prop_map(|(welcome, epoch, next_interval_at)| {
            RtMsg::Welcome {
                welcome,
                epoch,
                next_interval_at,
            }
        }),
        (arb_table(), 0u64..16, 0u64..1 << 30).prop_map(|(table, epoch, seq)| RtMsg::Table {
            table,
            epoch,
            seq
        }),
        (0usize..DEPTH, arb_prefix_buf(), arb_interval_message()).prop_map(
            |(level, prefix, message)| RtMsg::Forward {
                level,
                prefix,
                message,
            }
        ),
        (
            0u64..1 << 40,
            vec(arb_encryption(), 0..8),
            0u64..1 << 40,
            0u64..1 << 20,
        )
            .prop_map(|(interval, encryptions, sent_at, seq)| RtMsg::Recover {
                interval,
                encryptions,
                sent_at,
                seq,
            }),
        (
            arb_member(),
            arb_table(),
            arb_welcome(),
            0u64..16,
            0u64..1 << 30,
            0u64..1 << 40
        )
            .prop_map(|(member, table, welcome, epoch, seq, next_interval_at)| {
                RtMsg::Resync {
                    member,
                    table,
                    welcome,
                    epoch,
                    seq,
                    next_interval_at,
                }
            }),
    ];
    let join = prop_oneof![
        arb_member().prop_map(|seed| RtMsg::JoinSeed { seed }),
        arb_prefix().prop_map(|target| RtMsg::Query { target }),
        (arb_prefix(), vec((arb_member(), 1u64..1 << 30), 0..12)).prop_map(|(target, records)| {
            let records = (records.into_iter())
                .map(|(member, rtt)| NeighborRecord { member, rtt })
                .collect();
            RtMsg::QueryReply { target, records }
        }),
        arb_prefix().prop_map(|digits| RtMsg::JoinDigits { digits }),
    ];
    prop_oneof![small, compound, repl, join]
}

fn encode(msg: &RtMsg) -> Vec<u8> {
    let mut out = Vec::new();
    encode_msg(msg, &mut out);
    out
}

/// The tags that once named a node's own timers and its driver's
/// commands (interval/flush/restart, the three member ticks, the three
/// replication ticks). They are not messages, so no bytes may decode to
/// one: a peer that could send `Restart` would roll the key server back.
const RETIRED_LOCAL_TAGS: [u8; 9] = [0x01, 0x02, 0x03, 0x16, 0x17, 0x18, 0x1D, 0x1E, 0x1F];

/// The tags of the per-member `NewMember`/`MemberLeft` broadcast that
/// `Table` pushes replaced. Reserved like the local ones: a frame of the
/// old format must not parse as anything.
const RETIRED_BROADCAST_TAGS: [u8; 2] = [0x07, 0x0A];

/// Each message of the §3.1 join decodes only whole and in range: every
/// strict prefix of its frame is rejected; a prefix with more digits than
/// the depth, or a digit past the base, is a bad ID; and a `QueryReply`
/// listing more records than the ID space holds is out of range.
#[test]
fn join_frames_reject_truncation_and_out_of_range_counts() {
    let target = IdPrefix::from_digits(&spec(), &[3, 1]).unwrap();
    let member = Member {
        id: user_id(&[3, 1, 7]),
        host: HostId(5),
        joined_at: 11,
    };
    let records = vec![NeighborRecord { member, rtt: 9 }; 2];
    let frames = [
        RtMsg::JoinSeed { seed: member },
        RtMsg::Query { target },
        RtMsg::QueryReply { target, records },
        RtMsg::JoinDigits { digits: target },
        RtMsg::Pong {
            token: 4,
            access_rtt: 2_000,
        },
    ];
    for msg in &frames {
        let bytes = encode(msg);
        for cut in 0..bytes.len() {
            assert!(
                decode_msg(&bytes[..cut], &spec()).is_err(),
                "{msg:?} cut at {cut}"
            );
        }
    }
    // Every frame but the pong opens with an ID or a prefix: `len:u8`,
    // then the digits. Four digits of a depth-3 ID, and a digit equal to
    // the base, are both bad IDs.
    let bad_id = |frame: &[u8]| {
        matches!(
            decode_msg(frame, &spec()),
            Err(WireError::Bytes(DecodeError::BadId(_)))
        )
    };
    for msg in &frames[..4] {
        let bytes = encode(msg);
        let len = usize::from(bytes[2]);
        let mut long = bytes[..3].to_vec();
        long[2] = DEPTH as u8 + 1;
        long.extend(std::iter::repeat_n(0, 2 * (DEPTH + 1)));
        long.extend_from_slice(&bytes[3 + 2 * len..]);
        assert!(bad_id(&long), "{msg:?} with {} digits", DEPTH + 1);
        let mut digit = bytes.clone();
        digit[3..5].copy_from_slice(&BASE.to_le_bytes());
        assert!(bad_id(&digit), "{msg:?} with digit {BASE}");
    }
    // The record count follows the reply's two-digit target.
    let bytes = encode(&frames[2]);
    let count_at = 3 + 2 * 2;
    assert_eq!(bytes[count_at..count_at + 4], 2u32.to_le_bytes());
    for count in [spec().id_space() as u32 + 1, u32::MAX] {
        let mut frame = bytes.clone();
        frame[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        assert_eq!(
            decode_msg(&frame, &spec()).unwrap_err(),
            WireError::BadValue("record count")
        );
    }
}

/// A `Forward` copy's prefix is checked against the ID spec like every
/// other ID on the wire: a prefix deeper than the ID tree, or with a digit
/// past the base, is a bad ID, not a split key.
#[test]
fn forward_frames_reject_forged_prefixes() {
    let encryptions: Vec<Encryption> = (0..3)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Encryption::seal(&key_for(&[3], seed), &key_for(&[], seed), &mut rng)
        })
        .collect();
    let msg = RtMsg::Forward {
        level: 1,
        prefix: PrefixBuf::new(&[3]),
        message: Arc::new(IntervalMessage {
            interval: 9,
            epoch: 1,
            sent_at: 5,
            seq: 2,
            index: SplitIndex::build(&encryptions),
            encryptions,
        }),
    };
    // version, tag, level, then the prefix: `len:u8` and its digits.
    let bytes = encode(&msg);
    assert!(decode_msg(&bytes, &spec()).is_ok());
    assert_eq!(bytes[3], 1);
    let bad_id = |frame: &[u8]| {
        matches!(
            decode_msg(frame, &spec()),
            Err(WireError::Bytes(DecodeError::BadId(_)))
        )
    };
    let mut long = bytes[..4].to_vec();
    long[3] = DEPTH as u8 + 1;
    long.extend(std::iter::repeat_n(0, 2 * (DEPTH + 1)));
    long.extend_from_slice(&bytes[6..]);
    assert!(bad_id(&long), "a prefix of {} digits", DEPTH + 1);
    let mut digit = bytes.clone();
    digit[4..6].copy_from_slice(&BASE.to_le_bytes());
    assert!(bad_id(&digit), "a prefix digit {BASE}");
}

/// 192 cases a property by default; `PROPTEST_CASES` sets another count
/// for a long run (a fixed `with_cases` would override the variable).
fn cases() -> u32 {
    let env = std::env::var("PROPTEST_CASES").ok();
    env.and_then(|n| n.parse().ok()).unwrap_or(192)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A retired tag — local event or broadcast — is an unknown tag, alone
    /// or with a body behind it (the seven ticks used to carry a `u64`
    /// generation).
    #[test]
    fn retired_local_and_broadcast_tags_do_not_decode(body in vec(any::<u8>(), 8)) {
        for tag in RETIRED_LOCAL_TAGS.into_iter().chain(RETIRED_BROADCAST_TAGS) {
            let bare = [WIRE_VERSION, tag];
            let mut with_body = bare.to_vec();
            with_body.extend_from_slice(&body);
            for frame in [&bare[..], &with_body[..]] {
                prop_assert!(matches!(
                    decode_msg(frame, &spec()),
                    Err(WireError::UnknownTag(found)) if found == tag
                ));
            }
        }
    }

    /// encode → decode → encode is byte-stable: decoding reconstructs
    /// every wire-visible field exactly.
    #[test]
    fn round_trip_is_byte_stable(msg in arb_msg()) {
        let bytes = encode(&msg);
        prop_assert_eq!(bytes[0], WIRE_VERSION);
        let decoded = decode_msg(&bytes, &spec()).expect("valid frame decodes");
        prop_assert_eq!(encode(&decoded), bytes);
    }

    /// Every strict prefix of a valid frame is rejected — no partial
    /// message ever parses, and no truncation panics.
    #[test]
    fn truncated_frames_error(msg in arb_msg(), cut in 0usize..10_000) {
        let bytes = encode(&msg);
        let cut = cut % bytes.len();
        prop_assert!(decode_msg(&bytes[..cut], &spec()).is_err());
    }

    /// Single-byte corruption either decodes to *some* well-formed
    /// message or errors — it never panics. (A flipped length byte, key
    /// byte, or count is indistinguishable from hostile input.)
    #[test]
    fn corrupt_frames_never_panic(msg in arb_msg(), at in 0usize..10_000, bit in 0u8..8) {
        let mut bytes = encode(&msg);
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let _ = decode_msg(&bytes, &spec());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in vec(any::<u8>(), 0..512)) {
        let _ = decode_msg(&bytes, &spec());
    }

    /// Version skew is detected from the first byte.
    #[test]
    fn version_skew_is_rejected(msg in arb_msg(), v in 0u8..=255) {
        prop_assume!(v != WIRE_VERSION);
        let mut bytes = encode(&msg);
        bytes[0] = v;
        prop_assert!(matches!(
            decode_msg(&bytes, &spec()),
            Err(WireError::Version(found)) if found == v
        ));
    }
}
