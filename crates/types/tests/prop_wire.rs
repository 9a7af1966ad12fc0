//! Property tests: every wire codec round-trips for arbitrary values, and
//! decoding arbitrary garbage never panics.

use bytes::Bytes;
use demos_types::message::{MAX_CARRIED_LINKS, MAX_PAYLOAD};
use demos_types::proto::{AreaSel, KernelOp, LinkMaintMsg, MigrateMsg, MoveDataMsg, RejectReason};
use demos_types::{
    DataArea, Link, LinkAttrs, MachineId, Message, MsgFlags, MsgHeader, ProcessAddress, ProcessId,
    Wire,
};
use proptest::prelude::*;

fn arb_machine() -> impl Strategy<Value = MachineId> {
    any::<u16>().prop_map(MachineId)
}

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (arb_machine(), any::<u32>()).prop_map(|(creating_machine, local_uid)| ProcessId {
        creating_machine,
        local_uid,
    })
}

fn arb_addr() -> impl Strategy<Value = ProcessAddress> {
    (arb_machine(), arb_pid()).prop_map(|(m, pid)| pid.at(m))
}

fn arb_link() -> impl Strategy<Value = Link> {
    (
        arb_addr(),
        any::<u8>(),
        proptest::option::of((any::<u32>(), any::<u32>())),
    )
        .prop_map(|(addr, attr_bits, area)| {
            // Mask to the defined attribute bits, excluding HAS_AREA which the
            // codec derives from `area`.
            let attrs = LinkAttrs(attr_bits as u16 & 0b1111);
            Link {
                addr,
                attrs,
                area: area.map(|(offset, len)| DataArea { offset, len }),
            }
        })
}

fn arb_header() -> impl Strategy<Value = MsgHeader> {
    (
        arb_addr(),
        arb_pid(),
        arb_machine(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(
            |(dest, src, src_machine, msg_type, flags, hops)| MsgHeader {
                dest,
                src,
                src_machine,
                msg_type,
                flags: MsgFlags(flags),
                hops,
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        arb_header(),
        proptest::collection::vec(arb_link(), 0..MAX_CARRIED_LINKS + 1),
        proptest::collection::vec(any::<u8>(), 0..MAX_PAYLOAD + 1),
        any::<u64>(),
    )
        .prop_map(|(header, links, payload, corr)| Message {
            header,
            links,
            payload: Bytes::from(payload),
            corr: demos_types::CorrId(corr),
        })
}

/// The encoded length, `wire_len` and `wire_size` agree; the E1–E3 byte
/// counts and `to_bytes`' buffer sizing both rest on them.
#[test]
fn message_len_at_the_legal_extremes() {
    let pid = ProcessId {
        creating_machine: MachineId(1),
        local_uid: 2,
    };
    let link = Link::to(pid.at(MachineId(3)));
    for links in [0, MAX_CARRIED_LINKS] {
        for payload in [0, MAX_PAYLOAD] {
            let msg = Message {
                header: MsgHeader {
                    dest: pid.at(MachineId(3)),
                    src: pid,
                    src_machine: MachineId(1),
                    msg_type: 7,
                    flags: MsgFlags::NONE,
                    hops: 0,
                },
                links: vec![link; links],
                payload: Bytes::from(vec![0x5a; payload]),
                corr: demos_types::CorrId::NONE,
            };
            let n = msg.to_bytes().len();
            assert_eq!(n, msg.wire_len(), "{links} links, {payload} B");
            assert_eq!(n, msg.wire_size(), "{links} links, {payload} B");
        }
    }
}

proptest! {
    #[test]
    fn pid_roundtrip(pid in arb_pid()) {
        prop_assert_eq!(demos_types::wire::roundtrip(&pid).unwrap(), pid);
    }

    #[test]
    fn addr_roundtrip_and_len(addr in arb_addr()) {
        prop_assert_eq!(demos_types::wire::roundtrip(&addr).unwrap(), addr);
        prop_assert_eq!(addr.wire_len(), 8);
    }

    #[test]
    fn link_roundtrip(link in arb_link()) {
        let back = demos_types::wire::roundtrip(&link).unwrap();
        prop_assert_eq!(back.addr, link.addr);
        prop_assert_eq!(back.area, link.area);
        // HAS_AREA is normalized by the codec; all other bits survive.
        prop_assert_eq!(
            back.attrs.without(LinkAttrs::HAS_AREA).0,
            link.attrs.without(LinkAttrs::HAS_AREA).0
        );
        prop_assert_eq!(back.wire_len(), Link::WIRE_LEN);
    }

    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let back = demos_types::wire::roundtrip(&msg).unwrap();
        prop_assert_eq!(back.header, msg.header);
        prop_assert_eq!(back.links.len(), msg.links.len());
        prop_assert_eq!(msg.wire_size(), msg.to_bytes().len());
        prop_assert_eq!(msg.wire_len(), msg.to_bytes().len());
        prop_assert_eq!(&back.payload, &msg.payload);
        // The correlation id never crosses the wire: whatever id the
        // original carried, the decoded message is unstamped and the
        // encoding is identical to an unstamped message's.
        prop_assert!(back.corr.is_none());
        let unstamped = Message { corr: demos_types::CorrId::NONE, ..msg.clone() };
        prop_assert_eq!(msg.to_bytes(), unstamped.to_bytes());
    }

    #[test]
    fn decode_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut b = Bytes::from(data);
        let _ = Message::decode(&mut b.clone());
        let _ = MigrateMsg::decode(&mut b.clone());
        let _ = MoveDataMsg::decode(&mut b.clone());
        let _ = LinkMaintMsg::decode(&mut b.clone());
        let _ = KernelOp::decode(&mut b);
    }

    #[test]
    fn migrate_msg_roundtrip(
        ctx in any::<u16>(),
        pid in arb_pid(),
        a in any::<u16>(), b in any::<u16>(), c in any::<u32>(),
    ) {
        let m = MigrateMsg::Offer { ctx, pid, resident_len: a, swappable_len: b, image_len: c };
        prop_assert_eq!(demos_types::wire::roundtrip(&m).unwrap(), m);
        let m = MigrateMsg::Reject { ctx, pid, reason: RejectReason::Capacity };
        prop_assert_eq!(demos_types::wire::roundtrip(&m).unwrap(), m);
    }

    #[test]
    fn move_data_roundtrip(
        op in any::<u16>(),
        pid in arb_pid(),
        off in any::<u32>(),
        len in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..MAX_PAYLOAD + 1),
    ) {
        let mut msgs = vec![
            MoveDataMsg::Data { op, seq: off, bytes: Bytes::from(data) },
            MoveDataMsg::Ack { op, seq: len },
            MoveDataMsg::Done { op, status: op as u8, total: len },
            MoveDataMsg::Abort { op, reason: (op >> 8) as u8 },
        ];
        for sel in [AreaSel::LinkArea, AreaSel::Resident, AreaSel::Swappable, AreaSel::Image] {
            msgs.push(MoveDataMsg::ReadReq { op, target: pid, sel, offset: off, len });
            msgs.push(MoveDataMsg::WriteReq { op, target: pid, sel, offset: off, len });
        }
        for m in msgs {
            prop_assert_eq!(m.to_bytes().len(), m.wire_len());
            prop_assert_eq!(demos_types::wire::roundtrip(&m).unwrap(), m);
        }
    }
}
