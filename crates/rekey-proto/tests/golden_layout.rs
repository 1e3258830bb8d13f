//! Golden values pinning "nothing observable changed" across the ID and
//! neighbor-table representation change (inline `Copy` IDs, flat tables).
//!
//! Every constant below was recorded on the commit *before* that change
//! (heap `Vec<u16>` IDs, dense `D × B` grid of `Vec<NeighborRecord>`); a
//! failing assertion prints the current value.

use std::sync::Arc;

use rekey_crypto::{Encryption, Key, KeyMaterial};
use rekey_id::{IdPrefix, IdSpec, UserId};
use rekey_net::{GridNetwork, HostId, Network};
use rekey_proto::runtime::wire::{encode_forward_split, encode_msg};
use rekey_proto::runtime::{IntervalMessage, ReplOp, RtMsg};
use rekey_proto::transport::PrefixBuf;
use rekey_proto::{AssignParams, Group, SplitIndex, WelcomePacket};
use rekey_table::{Member, NeighborRecord, NeighborTable, PrimaryPolicy};

/// FNV-1a over a stream of `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn id(&mut self, id: &UserId) {
        self.word(id.digits().len() as u64);
        for &d in id.digits() {
            self.word(u64::from(d));
        }
    }

    fn record(&mut self, r: &NeighborRecord) {
        self.id(&r.member.id);
        self.word(r.member.host.0 as u64);
        self.word(r.member.joined_at);
        self.word(r.rtt);
    }
}

/// `owner, (row, col, id, host, joined_at, rtt)…` for every table in member
/// order, then the server table column by column.
fn digest_group(group: &Group) -> u64 {
    let mut d = Digest::new();
    d.word(group.len() as u64);
    for (i, m) in group.members().iter().enumerate() {
        let table = group.table(i);
        assert_eq!(table.owner(), &m.id);
        d.id(&m.id);
        d.word(m.host.0 as u64);
        d.word(m.joined_at);
        for r in table.iter_all() {
            let (row, col) = table.slot_for(&r.member.id).expect("never the owner");
            d.word(row as u64);
            d.word(u64::from(col));
            d.record(r);
        }
        d.word(u64::MAX);
    }
    for j in 0..group.spec().base() {
        for r in group.server_table().entry(j).iter() {
            d.word(u64::from(j));
            d.record(r);
        }
    }
    d.0
}

/// Bootstrap of 1 024 members, then 200 mixed operations starting with the
/// leave of bootstrap member 0; `Group::check()` after every one.
fn scripted_churn(k: usize) -> u64 {
    let spec = IdSpec::new(4, 16).unwrap();
    let net = GridNetwork::new(1_300, 1_000, 100);
    let server = HostId(net.host_count() - 1);
    let hosts: Vec<HostId> = (0..1_024).map(HostId).collect();
    let mut group = Group::bootstrap(
        &spec,
        server,
        k,
        PrimaryPolicy::SmallestRtt,
        AssignParams::for_depth(spec.depth()),
        &hosts,
        &net,
    )
    .unwrap();
    group.check().expect("K-consistent after bootstrap");

    let mut next_host = 1_024usize;
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64;
    let mut d = Digest::new();
    for op in 0..200u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let draw = (state >> 33) as usize;
        if op == 0 || draw.is_multiple_of(2) {
            let victim = if op == 0 { 0 } else { (draw / 2) % group.len() };
            let id = group.members()[victim].id;
            let gone = group.leave(&id, &net).unwrap();
            assert_eq!(gone.id, id);
            d.id(&gone.id);
        } else {
            let out = group.join(HostId(next_host), &net, 1_000 + op).unwrap();
            next_host += 1;
            d.id(&out.id);
        }
        group
            .check()
            .unwrap_or_else(|v| panic!("K={k}: violation after op {op}: {v}"));
        if op % 50 == 49 {
            d.word(digest_group(&group));
        }
    }
    d.word(digest_group(&group));
    d.0
}

#[test]
fn tables_after_scripted_churn_match_recorded_digests() {
    const GOLDEN: [(usize, u64); 3] = [
        (1, 0x1a94_775e_210e_7fab),
        (2, 0x5328_cc1b_f1d8_b504),
        (4, 0xed76_4d0c_0f76_a1c1),
    ];
    for (k, want) in GOLDEN {
        let got = scripted_churn(k);
        assert_eq!(got, want, "K={k}: table contents diverged ({got:#018x})");
    }
}

fn spec() -> IdSpec {
    IdSpec::new(3, 8).unwrap()
}

fn user(digits: [u16; 3]) -> UserId {
    UserId::new(&spec(), digits.to_vec()).unwrap()
}

fn key(digits: &[u16], version: u64, fill: u8) -> Key {
    Key::new(
        IdPrefix::new(&spec(), digits.to_vec()).unwrap(),
        version,
        KeyMaterial::from_bytes([fill; 32]),
    )
}

fn member(digits: [u16; 3], host: usize, joined_at: u64) -> Member {
    Member {
        id: user(digits),
        host: HostId(host),
        joined_at,
    }
}

fn sealed(wrapping: &Key, carried: &Key, nonce: u8) -> Encryption {
    let mut enc = Encryption::placeholder();
    enc.seal_into(wrapping, carried, [nonce; 12]);
    enc
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fixed_forward() -> RtMsg {
    let group_v2 = key(&[], 2, 0x11);
    let aux = key(&[5], 7, 0x22);
    let aux_v8 = key(&[5], 8, 0x33);
    let leaf = key(&[5, 1, 6], 0, 0x44);
    let encryptions = vec![
        sealed(&aux_v8, &group_v2, 0xA1),
        sealed(&leaf, &aux_v8, 0xA2),
        sealed(&aux, &aux_v8, 0xA3),
    ];
    RtMsg::Forward {
        level: 1,
        prefix: PrefixBuf::new(&[5]),
        message: Arc::new(IntervalMessage {
            interval: 9,
            epoch: 2,
            sent_at: 123_456,
            seq: 77,
            index: SplitIndex::build(&encryptions),
            encryptions,
        }),
    }
}

fn fixed_welcome() -> RtMsg {
    RtMsg::Welcome {
        welcome: WelcomePacket {
            id: user([5, 1, 6]),
            keys: vec![
                key(&[5, 1, 6], 0, 0x44),
                key(&[5, 1], 3, 0x55),
                key(&[5], 8, 0x33),
                key(&[], 2, 0x11),
            ],
            interval: 9,
        },
        epoch: 2,
        next_interval_at: 1_000_000,
    }
}

/// A table with a two-record entry (RTT order), an RTT tie inside one
/// entry (insertion order), and records in three rows.
fn fixed_table() -> Arc<NeighborTable> {
    let mut table = NeighborTable::new(&spec(), user([5, 1, 6]), 2, PrimaryPolicy::SmallestRtt);
    for (digits, host, joined_at, rtt) in [
        ([5, 1, 2], 7, 10, 300),
        ([0, 3, 3], 1, 20, 5_000),
        ([0, 0, 1], 2, 30, 4_000),
        ([0, 7, 7], 3, 40, 9_000), // rejected: entry (0,0) is full of closer ones
        ([5, 4, 0], 4, 50, 700),
        ([5, 4, 4], 5, 60, 700), // tie: stays behind the earlier insert
        ([7, 7, 7], 6, 70, 1),
    ] {
        table.insert(NeighborRecord {
            member: member(digits, host, joined_at),
            rtt,
        });
    }
    Arc::new(table)
}

fn fixed_join_accepted() -> RtMsg {
    RtMsg::JoinAccepted {
        member: member([5, 1, 6], 40, 900),
        table: fixed_table(),
        epoch: 2,
        seq: 78,
    }
}

/// The three fixed messages above, one fixed instance of every other tag,
/// a `ReplEntry` of each op, and last the split copy of `fixed_forward()`
/// that a level-2 hop under `[5, 2]` receives: two of the three
/// encryptions, those whose wrapping key `[5]` is an ancestor of the
/// prefix.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let me = user([5, 1, 6]);
    let target = IdPrefix::new(&spec(), vec![5, 1]).unwrap();
    let records = vec![
        NeighborRecord {
            member: member([5, 1, 2], 7, 10),
            rtt: 300,
        },
        NeighborRecord {
            member: member([5, 1, 7], 8, 11),
            rtt: 301,
        },
    ];
    let RtMsg::Forward { message, .. } = fixed_forward() else {
        unreachable!()
    };
    let RtMsg::Welcome { welcome, .. } = fixed_welcome() else {
        unreachable!()
    };
    let msgs = [
        ("forward", fixed_forward()),
        ("welcome", fixed_welcome()),
        ("join_accepted", fixed_join_accepted()),
        ("join_request", RtMsg::JoinRequest),
        (
            "join_seed",
            RtMsg::JoinSeed {
                seed: member([5, 1, 2], 7, 10),
            },
        ),
        ("query", RtMsg::Query { target }),
        ("query_reply", RtMsg::QueryReply { target, records }),
        ("join_digits", RtMsg::JoinDigits { digits: target }),
        (
            "table",
            RtMsg::Table {
                table: fixed_table(),
                epoch: 2,
                seq: 78,
            },
        ),
        ("leave_request", RtMsg::LeaveRequest),
        ("leave_ack", RtMsg::LeaveAck),
        (
            "failure_notice",
            RtMsg::FailureNotice {
                failed: user([0, 3, 3]),
            },
        ),
        (
            "nack",
            RtMsg::Nack {
                interval: 9,
                id: me,
            },
        ),
        (
            "recover",
            RtMsg::Recover {
                interval: 9,
                encryptions: message.encryptions[..2].to_vec(),
                sent_at: 123_456,
                seq: 78,
            },
        ),
        ("ping", RtMsg::Ping { token: 0xDEAD_BEEF }),
        (
            "pong",
            RtMsg::Pong {
                token: 0xDEAD_BEEF,
                access_rtt: 2_000,
            },
        ),
        ("server_ping", RtMsg::ServerPing { id: me }),
        (
            "server_pong",
            RtMsg::ServerPong {
                epoch: 2,
                seq: 78,
                interval: 9,
            },
        ),
        ("not_member", RtMsg::NotMember { id: me }),
        ("resync_request", RtMsg::ResyncRequest { id: me }),
        (
            "resync",
            RtMsg::Resync {
                member: member([5, 1, 6], 40, 900),
                table: fixed_table(),
                welcome,
                epoch: 2,
                seq: 78,
                next_interval_at: 1_000_000,
            },
        ),
        (
            "repl_entry_join",
            RtMsg::ReplEntry {
                idx: 17,
                epoch: 2,
                op: ReplOp::Join {
                    host: HostId(40),
                    at: 900,
                    id: me,
                },
            },
        ),
        (
            "repl_entry_leave",
            RtMsg::ReplEntry {
                idx: 18,
                epoch: 2,
                op: ReplOp::Leave { id: me },
            },
        ),
        (
            "repl_entry_interval",
            RtMsg::ReplEntry {
                idx: 19,
                epoch: 2,
                op: ReplOp::Interval { sent_at: 123_456 },
            },
        ),
        (
            "repl_ack",
            RtMsg::ReplAck {
                replica: 2,
                idx: 17,
            },
        ),
        (
            "repl_heartbeat",
            RtMsg::ReplHeartbeat {
                epoch: 2,
                idx: 17,
                replica: 0,
                floor: 3,
            },
        ),
        (
            "candidacy",
            RtMsg::Candidacy {
                epoch: 2,
                idx: 17,
                replica: 1,
            },
        ),
    ];
    let mut frames: Vec<(&'static str, Vec<u8>)> = msgs
        .into_iter()
        .map(|(name, msg)| {
            let mut out = Vec::new();
            encode_msg(&msg, &mut out);
            (name, out)
        })
        .collect();
    let mut split = Vec::new();
    encode_forward_split(2, &PrefixBuf::new(&[5, 2]), &message, &mut split);
    frames.push(("forward_split", split));
    frames
}

/// Re-recorded twice since: when `WIRE_VERSION` went from 1 to 2 and a key
/// wrap's tag moved to the one-time MAC key of its own keystream block, the
/// leading version byte of all three frames and the FORWARD frame's three
/// 8-byte tags changed; when it went from 2 to 3 for the §3.1 join's
/// messages, and from 3 to 4 for the sender's id in a `Nack`, only the
/// leading version byte changed. Every other byte, ciphertexts included,
/// is as recorded before. The frames of `OTHERS` were recorded later, on
/// the last commit whose codec wrote every layout twice, once to encode
/// and once to decode; the codec derived from one message table must
/// reproduce them byte for byte.
#[test]
fn wire_bytes_match_recorded_frames() {
    const FORWARD: &str = concat!(
        "040c010105000900000000000000020000000000000040e20100000000004d00",
        "00000000000003000000010105000800000000000000000200000000000000a1",
        "a1a1a1a1a1a1a1a1a1a1a1ecab153a8992161cffd75100ca3c790de691d45f47",
        "da631852bda853627a907689b88edb5340108201030500010006000000000000",
        "0000000105000800000000000000a2a2a2a2a2a2a2a2a2a2a2a22bf4f4694f46",
        "11da1a9e991dd31540e4e7e4511494d12e349002f51feb021d5720884e73afae",
        "59bd0101050007000000000000000105000800000000000000a3a3a3a3a3a3a3",
        "a3a3a3a3a3303eff4583be8dd3c81e47ca4af441c40e0814ada7a072dddb4eb3",
        "b92ee32de4d734d3023c7f7c22",
    );
    const WELCOME: &str = concat!(
        "0406030500010006000900000000000000040000000305000100060000000000",
        "0000000044444444444444444444444444444444444444444444444444444444",
        "4444444402050001000300000000000000555555555555555555555555555555",
        "5555555555555555555555555555555555010500080000000000000033333333",
        "3333333333333333333333333333333333333333333333333333333300020000",
        "0000000000111111111111111111111111111111111111111111111111111111",
        "1111111111020000000000000040420f0000000000",
    );
    const JOIN_ACCEPTED: &str = concat!(
        "0405030500010006002800000000000000840300000000000003050001000600",
        "020000060000000300000000010002000000000000001e00000000000000a00f",
        "0000000000000300000300030001000000000000001400000000000000881300",
        "0000000000030700070007000600000000000000460000000000000001000000",
        "000000000305000400000004000000000000003200000000000000bc02000000",
        "0000000305000400040005000000000000003c00000000000000bc0200000000",
        "00000305000100020007000000000000000a000000000000002c010000000000",
        "0002000000000000004e00000000000000",
    );
    const OTHERS: [(&str, &str); 25] = [
        ("join_request", "0404"),
        (
            "join_seed",
            "04210305000100020007000000000000000a00000000000000",
        ),
        ("query", "04220205000100"),
        (
            "query_reply",
            concat!(
                "04230205000100020000000305000100020007000000000000000a0000000000",
                "00002c010000000000000305000100070008000000000000000b000000000000",
                "002d01000000000000",
            ),
        ),
        ("join_digits", "04240205000100"),
        (
            "table",
            concat!(
                "042003050001000600020000060000000300000000010002000000000000001e",
                "00000000000000a00f0000000000000300000300030001000000000000001400",
                "0000000000008813000000000000030700070007000600000000000000460000",
                "0000000000010000000000000003050004000000040000000000000032000000",
                "00000000bc020000000000000305000400040005000000000000003c00000000",
                "000000bc020000000000000305000100020007000000000000000a0000000000",
                "00002c0100000000000002000000000000004e00000000000000",
            ),
        ),
        ("leave_request", "0408"),
        ("leave_ack", "0409"),
        ("failure_notice", "040b03000003000300"),
        ("nack", "040d090000000000000003050001000600"),
        (
            "recover",
            concat!(
                "040e090000000000000040e20100000000004e00000000000000020000000101",
                "05000800000000000000000200000000000000a1a1a1a1a1a1a1a1a1a1a1a1ec",
                "ab153a8992161cffd75100ca3c790de691d45f47da631852bda853627a907689",
                "b88edb5340108201030500010006000000000000000000010500080000000000",
                "0000a2a2a2a2a2a2a2a2a2a2a2a22bf4f4694f4611da1a9e991dd31540e4e7e4",
                "511494d12e349002f51feb021d5720884e73afae59bd",
            ),
        ),
        ("ping", "040fefbeadde00000000"),
        ("pong", "0410efbeadde00000000d007000000000000"),
        ("server_ping", "041103050001000600"),
        (
            "server_pong",
            "041202000000000000004e000000000000000900000000000000",
        ),
        ("not_member", "041303050001000600"),
        ("resync_request", "041403050001000600"),
        (
            "resync",
            concat!(
                "0415030500010006002800000000000000840300000000000003050001000600",
                "020000060000000300000000010002000000000000001e00000000000000a00f",
                "0000000000000300000300030001000000000000001400000000000000881300",
                "0000000000030700070007000600000000000000460000000000000001000000",
                "000000000305000400000004000000000000003200000000000000bc02000000",
                "0000000305000400040005000000000000003c00000000000000bc0200000000",
                "00000305000100020007000000000000000a000000000000002c010000000000",
                "0003050001000600090000000000000004000000030500010006000000000000",
                "0000004444444444444444444444444444444444444444444444444444444444",
                "4444440205000100030000000000000055555555555555555555555555555555",
                "5555555555555555555555555555555501050008000000000000003333333333",
                "3333333333333333333333333333333333333333333333333333330002000000",
                "0000000011111111111111111111111111111111111111111111111111111111",
                "1111111102000000000000004e0000000000000040420f0000000000",
            ),
        ),
        (
            "repl_entry_join",
            concat!(
                "0419110000000000000002000000000000000028000000000000008403000000",
                "00000003050001000600",
            ),
        ),
        (
            "repl_entry_leave",
            "0419120000000000000002000000000000000103050001000600",
        ),
        (
            "repl_entry_interval",
            "0419130000000000000002000000000000000240e2010000000000",
        ),
        ("repl_ack", "041a02000000000000001100000000000000"),
        (
            "repl_heartbeat",
            "041b0200000000000000110000000000000000000000000000000300000000000000",
        ),
        (
            "candidacy",
            "041c020000000000000011000000000000000100000000000000",
        ),
        (
            "forward_split",
            concat!(
                "040c0202050002000900000000000000020000000000000040e2010000000000",
                "4d00000000000000020000000101050008000000000000000002000000000000",
                "00a1a1a1a1a1a1a1a1a1a1a1a1ecab153a8992161cffd75100ca3c790de691d4",
                "5f47da631852bda853627a907689b88edb534010820101050007000000000000",
                "000105000800000000000000a3a3a3a3a3a3a3a3a3a3a3a3303eff4583be8dd3",
                "c81e47ca4af441c40e0814ada7a072dddb4eb3b92ee32de4d734d3023c7f7c22",
            ),
        ),
    ];
    let mut all = vec![
        ("forward", FORWARD),
        ("welcome", WELCOME),
        ("join_accepted", JOIN_ACCEPTED),
    ];
    all.extend(OTHERS);
    let frames = frames();
    assert_eq!(frames.len(), all.len());
    for ((name, bytes), (want_name, want)) in frames.iter().zip(all) {
        assert_eq!(*name, want_name);
        assert_eq!(hex(bytes), want, "{name}: wire image changed");
    }
}
