//! Property tests for the frame allocator: pressure accounting, and the
//! slot-reusing frame table against a never-reusing reference model.
//!
//! Drives a [`FrameAllocator`] through random interleavings of the op
//! shapes the memory-pressure subsystem performs — alloc, free,
//! evacuate (alloc-elsewhere + copy + free, the reclaim/hot-remove
//! move), offline, online, watermark reconfiguration — and checks after
//! every op that per-node live/capacity/watermark accounting stays
//! consistent: live never exceeds capacity, the per-node live counts sum
//! to `live_total`, `allocated_total - freed_total` equals the number of
//! live frames actually reachable, no allocation ever lands on an
//! offline or full node, and `pressure_of` always matches the level
//! recomputed from first principles.

use numa_topology::NodeId;
use numa_vm::{Frame, FrameAllocator, FrameId, PressureLevel};
use proptest::prelude::*;

const NODES: usize = 4;

/// Op universe: (kind, node, value).
type OpVec = Vec<(u8, u8, u8)>;

fn op_strategy() -> impl Strategy<Value = OpVec> {
    proptest::collection::vec((0u8..6, 0u8..NODES as u8, 0u8..32), 1..200)
}

fn expected_pressure(fa: &FrameAllocator, node: NodeId) -> PressureLevel {
    let free = fa.capacity_of(node) - fa.live_on(node);
    if free <= fa.watermark_min(node) {
        PressureLevel::Min
    } else if free <= fa.watermark_low(node) {
        PressureLevel::Low
    } else {
        PressureLevel::Normal
    }
}

fn check_consistency(fa: &FrameAllocator, live: &[FrameId]) {
    let mut per_node = [0u64; NODES];
    for &id in live {
        per_node[fa.node_of(id).index()] += 1;
    }
    let mut total = 0;
    for (n, &node_live) in per_node.iter().enumerate() {
        let node = NodeId(n as u16);
        assert_eq!(fa.live_on(node), node_live, "live count on node {n}");
        assert!(
            fa.live_on(node) <= fa.capacity_of(node),
            "node {n} over capacity"
        );
        assert_eq!(
            fa.free_on(node),
            fa.capacity_of(node) - fa.live_on(node),
            "free count on node {n}"
        );
        assert_eq!(
            fa.pressure_of(node),
            expected_pressure(fa, node),
            "pressure level on node {n}"
        );
        total += fa.live_on(node);
    }
    assert_eq!(fa.live_total(), total, "global live total");
    assert_eq!(
        fa.allocated_total() - fa.freed_total(),
        live.len() as u64,
        "allocated minus freed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_survives_random_interleavings(ops in op_strategy()) {
        let mut fa = FrameAllocator::new(NODES, 12);
        let mut live: Vec<FrameId> = Vec::new();
        for (kind, node_raw, value) in ops {
            let node = NodeId(u16::from(node_raw));
            match kind {
                // Alloc on a node; must fail iff full or offline.
                0 => {
                    let full = fa.live_on(node) >= fa.capacity_of(node);
                    let offline = fa.is_offline(node);
                    match fa.alloc(node) {
                        Some(id) => {
                            prop_assert!(!full && !offline,
                                "alloc succeeded on a full/offline node");
                            prop_assert_eq!(fa.node_of(id), node);
                            live.push(id);
                        }
                        None => prop_assert!(full || offline,
                            "alloc failed with room on an online node"),
                    }
                }
                // Free a pseudo-random live frame.
                1 => {
                    if !live.is_empty() {
                        let id = live.swap_remove(usize::from(value) % live.len());
                        fa.free(id);
                    }
                }
                // Evacuate one resident page off `node`: alloc on the
                // nearest online node with room, copy, free the original
                // — exactly the reclaim/hot-remove move shape.
                2 => {
                    if let Some(pos) = live.iter().position(|&id| fa.node_of(id) == node) {
                        let dest = (0..NODES)
                            .map(|n| NodeId(n as u16))
                            .find(|&d| d != node && !fa.is_offline(d)
                                && fa.live_on(d) < fa.capacity_of(d));
                        if let Some(dest) = dest {
                            let new = fa.alloc(dest).expect("dest had room");
                            let old = live[pos];
                            fa.copy_contents(old, new);
                            fa.free(old);
                            live[pos] = new;
                        }
                    }
                }
                // Offline / online.
                3 => fa.set_offline(node),
                4 => fa.set_online(node),
                // Reconfigure watermarks (min <= low by construction).
                _ => {
                    let low = u64::from(value) % 8;
                    fa.set_watermarks(node, low, low / 2);
                }
            }
            check_consistency(&fa, &live);
        }
        // Drain everything: global accounting must return to zero live.
        for id in live.drain(..) {
            fa.free(id);
        }
        check_consistency(&fa, &live);
    }
}

/// The frame table before slot reuse, as a reference model: one
/// `Option<Frame>` per id ever issued, ids dense and never reused, so a
/// freed id stays dead forever.
#[derive(Default)]
struct NeverReused {
    frames: Vec<Option<Frame>>,
    next_content: u64,
    live_per_node: [u64; NODES],
    capacity: u64,
    offline: [bool; NODES],
    allocated: u64,
    freed: u64,
}

impl NeverReused {
    fn alloc(&mut self, node: NodeId) -> Option<usize> {
        let n = node.index();
        if self.live_per_node[n] >= self.capacity || self.offline[n] {
            return None;
        }
        self.frames.push(Some(Frame {
            node,
            content_tag: self.next_content,
            write_gen: 0,
        }));
        self.next_content += 1;
        self.live_per_node[n] += 1;
        self.allocated += 1;
        Some(self.frames.len() - 1)
    }

    fn free(&mut self, id: usize) {
        let f = self.frames[id].take().expect("reference double free");
        self.live_per_node[f.node.index()] -= 1;
        self.freed += 1;
    }

    fn frame(&mut self, id: usize) -> &mut Frame {
        self.frames[id].as_mut().expect("reference use after free")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slot-reusing frame table in lockstep with the never-reusing
    /// reference: random alloc / free / copy / write / offline / online
    /// interleavings must agree on every live frame's node, contents and
    /// write generation and on the live/allocated/freed counts, and every
    /// freed id must stay dead even after its slot is reused.
    #[test]
    fn slot_reuse_matches_never_reused_reference(
        ops in proptest::collection::vec((0u8..7, 0u8..NODES as u8, any::<u16>()), 1..300),
    ) {
        const CAPACITY: u64 = 6;
        let mut fa = FrameAllocator::new(NODES, CAPACITY);
        let mut reference = NeverReused { capacity: CAPACITY, ..NeverReused::default() };
        // (table id, reference id) of every live frame, and every freed id.
        let mut live: Vec<(FrameId, usize)> = Vec::new();
        let mut freed: Vec<FrameId> = Vec::new();
        let mut peak_live = 0usize;
        for (kind, node_raw, pick) in ops {
            let node = NodeId(u16::from(node_raw));
            let pick = usize::from(pick);
            match kind {
                0 | 1 => match (fa.alloc(node), reference.alloc(node)) {
                    (Some(id), Some(rid)) => live.push((id, rid)),
                    (None, None) => {}
                    (got, want) => prop_assert!(false, "alloc on {node:?}: {got:?} vs reference {want:?}"),
                },
                2 if !live.is_empty() => {
                    let (id, rid) = live.swap_remove(pick % live.len());
                    fa.free(id);
                    reference.free(rid);
                    freed.push(id);
                }
                3 if !live.is_empty() => {
                    let (src, rsrc) = live[pick % live.len()];
                    let (dst, rdst) = live[(pick / 7) % live.len()];
                    fa.copy_contents(src, dst);
                    let tag = reference.frame(rsrc).content_tag;
                    reference.frame(rdst).content_tag = tag;
                }
                4 if !live.is_empty() => {
                    let (id, rid) = live[pick % live.len()];
                    fa.note_write(id);
                    reference.frame(rid).write_gen += 1;
                }
                5 => {
                    fa.set_offline(node);
                    reference.offline[node.index()] = true;
                }
                6 => {
                    fa.set_online(node);
                    reference.offline[node.index()] = false;
                }
                _ => {}
            }
            peak_live = peak_live.max(live.len());
            for &(id, rid) in &live {
                let want = reference.frames[rid].expect("reference frame live");
                prop_assert_eq!(fa.node_of(id), want.node);
                prop_assert_eq!(fa.get(id).map(|f| f.content_tag), Some(want.content_tag));
                prop_assert_eq!(fa.write_gen(id), want.write_gen);
            }
            for &id in &freed {
                prop_assert!(fa.get(id).is_none(), "freed id {id:?} resolves");
            }
            prop_assert_eq!(fa.live_total(), live.len() as u64);
            prop_assert_eq!(fa.allocated_total(), reference.allocated);
            prop_assert_eq!(fa.freed_total(), reference.freed);
            for n in 0..NODES {
                prop_assert_eq!(fa.live_on(NodeId(n as u16)), reference.live_per_node[n]);
            }
            prop_assert!(fa.table_slots() <= peak_live, "table grew past peak live");
        }
    }
}
