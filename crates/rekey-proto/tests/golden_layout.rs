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
use rekey_proto::runtime::wire::encode_msg;
use rekey_proto::runtime::{IntervalMessage, RtMsg};
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

/// A `JoinAccepted` whose table has a two-record entry (RTT order), an RTT
/// tie inside one entry (insertion order), and records in three rows.
fn fixed_join_accepted() -> RtMsg {
    let me = member([5, 1, 6], 40, 900);
    let mut table = NeighborTable::new(&spec(), me.id, 2, PrimaryPolicy::SmallestRtt);
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
    RtMsg::JoinAccepted {
        member: me,
        table: Arc::new(table),
        epoch: 2,
        seq: 78,
    }
}

/// Re-recorded twice since: when `WIRE_VERSION` went from 1 to 2 and a key
/// wrap's tag moved to the one-time MAC key of its own keystream block, the
/// leading version byte of all three frames and the FORWARD frame's three
/// 8-byte tags changed; when it went from 2 to 3 for the §3.1 join's
/// messages, and from 3 to 4 for the sender's id in a `Nack`, only the
/// leading version byte changed. Every other byte, ciphertexts included,
/// is as recorded before.
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
    for (name, msg, want) in [
        ("forward", fixed_forward(), FORWARD),
        ("welcome", fixed_welcome(), WELCOME),
        ("join_accepted", fixed_join_accepted(), JOIN_ACCEPTED),
    ] {
        let mut out = Vec::new();
        encode_msg(&msg, &mut out);
        assert_eq!(hex(&out), want, "{name}: wire image changed");
    }
}
