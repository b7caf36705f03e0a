//! The interconnect and memory-controller contention model.
//!
//! Every byte that crosses node boundaries occupies (a) each
//! HyperTransport link along the route and (b) the memory controllers at
//! both ends, for `bytes / bandwidth` of virtual time. A transfer holds all
//! of these *simultaneously* (pipelined cut-through, not store-and-forward),
//! so a copy's own duration is set by the copier (CPU copy loop or DMA
//! rate), while the occupation windows are what make *other* traffic queue.
//!
//! This is the mechanism behind two of the paper's observations:
//! concurrent migrations share link bandwidth (Fig. 7 saturation), and LU's
//! biggest wins come from removing "congestion when multiple threads access
//! each others' NUMA memory across a single HyperTransport link" (§4.5).

use numa_sim::{Resource, SimTime};
use numa_topology::{round_ns, NodeId, Topology};
use numa_vm::PAGE_SIZE;

/// A resource's bandwidth, with its service time for one base page
/// computed once: per-page migrations and page touches occupy links and
/// controllers for exactly `PAGE_SIZE` bytes, so the division and the
/// rounding would otherwise repeat on every page.
#[derive(Debug, Clone, Copy)]
struct Bandwidth {
    bytes_per_ns: f64,
    page_ns: u64,
}

impl Bandwidth {
    fn new(bytes_per_ns: f64) -> Self {
        Bandwidth {
            bytes_per_ns,
            page_ns: round_ns(PAGE_SIZE as f64 / bytes_per_ns),
        }
    }

    /// Occupation window for `bytes`; the same expression either way, so
    /// the cached page value is bit-identical to computing it.
    #[inline]
    fn service_ns(self, bytes: u64) -> u64 {
        if bytes == PAGE_SIZE {
            self.page_ns
        } else {
            round_ns(bytes as f64 / self.bytes_per_ns)
        }
    }
}

/// Link and memory-controller resources for one machine.
#[derive(Debug)]
pub struct Interconnect {
    links: Vec<Resource>,
    /// Per-link bandwidth, indexed like `links`.
    link_bw: Vec<Bandwidth>,
    mem_ctl: Vec<Resource>,
    /// Per-node DRAM bandwidth.
    mem_bw: Vec<Bandwidth>,
}

/// Outcome of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferOutcome {
    /// When the transfer actually started (after queueing behind earlier
    /// traffic on any of the involved resources).
    pub start: SimTime,
    /// When the *initiator* is done (start + initiator-limited duration).
    pub end: SimTime,
    /// Queueing delay before the transfer began.
    pub wait_ns: u64,
}

impl Interconnect {
    /// Build resources matching `topo`.
    pub fn new(topo: &Topology) -> Self {
        let mut links = Vec::with_capacity(topo.link_count());
        let mut link_bw = Vec::with_capacity(topo.link_count());
        for i in 0..topo.link_count() {
            let id = numa_topology::LinkId(i as u16);
            links.push(Resource::new(format!("link{}", i)));
            link_bw.push(Bandwidth::new(topo.link(id).bandwidth_bytes_per_ns));
        }
        let mut mem_ctl = Vec::with_capacity(topo.node_count());
        let mut mem_bw = Vec::with_capacity(topo.node_count());
        for n in topo.node_ids() {
            mem_ctl.push(Resource::new(format!("mc{}", n.0)));
            mem_bw.push(Bandwidth::new(topo.node(n).dram_bw_bytes_per_ns));
        }
        Interconnect {
            links,
            link_bw,
            mem_ctl,
            mem_bw,
        }
    }

    /// Number of link resources.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Move `bytes` from `src` to `dst` starting no earlier than `now`,
    /// with the *initiator* limited to `initiator_bw` bytes/ns (the kernel
    /// copy loop runs at ~1 GB/s, a user-space SSE copy at ~2 GB/s, §4.2).
    ///
    /// The transfer occupies every route link and both memory controllers
    /// for their own `bytes/bandwidth` windows; the initiator finishes
    /// after `bytes/initiator_bw`.
    pub fn transfer(
        &mut self,
        topo: &Topology,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        initiator_bw: f64,
    ) -> TransferOutcome {
        debug_assert!(initiator_bw > 0.0);
        let route = topo.route(src, dst);
        // Find the earliest instant the read side is free. The
        // destination controller is *occupied* but not *waited on*:
        // migration writes are posted through the write buffers, so a
        // busy destination slows later readers there, not this copy.
        let mut start = now;
        for l in route {
            start = start.max(self.links[l.index()].busy_until());
        }
        start = start.max(self.mem_ctl[src.index()].busy_until());
        // Occupy them for their own service windows.
        for l in route {
            let svc = self.link_bw[l.index()].service_ns(bytes);
            self.links[l.index()].occupy(start, svc);
        }
        let src_svc = self.mem_bw[src.index()].service_ns(bytes);
        self.mem_ctl[src.index()].occupy(start, src_svc);
        if dst != src {
            let dst_svc = self.mem_bw[dst.index()].service_ns(bytes);
            self.mem_ctl[dst.index()].occupy(start, dst_svc);
        }
        let duration = round_ns(bytes as f64 / initiator_bw);
        TransferOutcome {
            start,
            end: start + duration,
            wait_ns: start.since(now),
        }
    }

    /// Occupy the route for a latency-bound access of `bytes` (application
    /// reads/writes). Like [`Interconnect::transfer`] but the initiator
    /// duration is supplied by the caller's latency/bandwidth model.
    pub fn access(
        &mut self,
        topo: &Topology,
        now: SimTime,
        from: NodeId,
        mem: NodeId,
        bytes: u64,
        duration_ns: u64,
    ) -> TransferOutcome {
        let route = topo.route(from, mem);
        let mut start = now;
        for l in route {
            start = start.max(self.links[l.index()].busy_until());
        }
        start = start.max(self.mem_ctl[mem.index()].busy_until());
        for l in route {
            let svc = self.link_bw[l.index()].service_ns(bytes);
            self.links[l.index()].occupy(start, svc);
        }
        let svc = self.mem_bw[mem.index()].service_ns(bytes);
        self.mem_ctl[mem.index()].occupy(start, svc);
        TransferOutcome {
            start,
            end: start + duration_ns,
            wait_ns: start.since(now),
        }
    }

    /// Total queueing-visible busy time on one link (diagnostics).
    pub fn link_busy_ns(&self, link: usize) -> u64 {
        self.links[link].total_busy_ns()
    }

    /// The link resources, in link-id order (utilisation reporting).
    pub fn link_resources(&self) -> &[Resource] {
        &self.links
    }

    /// The memory-controller resources, in node-id order (utilisation
    /// reporting).
    pub fn mem_resources(&self) -> &[Resource] {
        &self.mem_ctl
    }

    /// Total busy time on one node's memory controller (diagnostics).
    pub fn mem_busy_ns(&self, node: NodeId) -> u64 {
        self.mem_ctl[node.index()].total_busy_ns()
    }

    /// Reset all resources (between experiment repetitions).
    pub fn reset(&mut self) {
        for l in &mut self.links {
            l.reset();
        }
        for m in &mut self.mem_ctl {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    #[test]
    fn local_transfer_uses_only_local_mc() {
        let topo = presets::opteron_4p();
        let mut ic = Interconnect::new(&topo);
        let t = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(0), 4096, 1.0);
        assert_eq!(t.start, SimTime(0));
        assert_eq!(t.end, SimTime(4096)); // 4 kB at 1 GB/s
        assert!(ic.mem_busy_ns(NodeId(0)) > 0);
        assert_eq!(ic.link_busy_ns(0), 0);
    }

    #[test]
    fn remote_transfer_occupies_route() {
        let topo = presets::opteron_4p();
        let mut ic = Interconnect::new(&topo);
        // 0 -> 3 is two hops on the square.
        ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(3), 4096, 1.0);
        let busy: u64 = (0..topo.link_count()).map(|l| ic.link_busy_ns(l)).sum();
        // Two links each busy 4096/4.0 = 1024 ns.
        assert_eq!(busy, 2048);
        assert!(ic.mem_busy_ns(NodeId(0)) > 0);
        assert!(ic.mem_busy_ns(NodeId(3)) > 0);
        assert_eq!(ic.mem_busy_ns(NodeId(1)), 0);
    }

    #[test]
    fn concurrent_copies_share_link_bandwidth() {
        // Two 1 GB/s kernel copies over one 4 GB/s link: the second queues
        // only behind the first's *link window* (1/4 of its duration), not
        // behind the whole copy.
        let topo = presets::two_node();
        let mut ic = Interconnect::new(&topo);
        let t1 = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        let t2 = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        assert_eq!(t1.end, SimTime(4096));
        // Second starts when the first's link occupation (1024 ns) ends.
        assert_eq!(t2.start, SimTime(1024));
        assert_eq!(t2.end, SimTime(1024 + 4096));
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let topo = presets::opteron_4p();
        let mut ic = Interconnect::new(&topo);
        // 0->1 and 2->3 use different links and different MCs.
        let a = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        let b = ic.transfer(&topo, SimTime(0), NodeId(2), NodeId(3), 4096, 1.0);
        assert_eq!(a.start, SimTime(0));
        assert_eq!(b.start, SimTime(0));
    }

    #[test]
    fn access_charges_supplied_duration() {
        let topo = presets::two_node();
        let mut ic = Interconnect::new(&topo);
        let t = ic.access(&topo, SimTime(10), NodeId(0), NodeId(1), 64, 100);
        assert_eq!(t.start, SimTime(10));
        assert_eq!(t.end, SimTime(110));
    }

    #[test]
    fn cached_page_service_matches_direct_expression() {
        for topo in [
            presets::opteron_4p(),
            presets::two_node(),
            presets::tiered_4p2(),
        ] {
            let ic = Interconnect::new(&topo);
            let direct = |bytes: u64, bw: f64| (bytes as f64 / bw).round() as u64;
            for i in 0..topo.link_count() {
                let bw = topo
                    .link(numa_topology::LinkId(i as u16))
                    .bandwidth_bytes_per_ns;
                for bytes in [1, 64, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 2 << 20] {
                    assert_eq!(
                        ic.link_bw[i].service_ns(bytes),
                        direct(bytes, bw),
                        "link {i}"
                    );
                }
            }
            for n in topo.node_ids() {
                let bw = topo.node(n).dram_bw_bytes_per_ns;
                for bytes in [1, 64, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 2 << 20] {
                    assert_eq!(
                        ic.mem_bw[n.index()].service_ns(bytes),
                        direct(bytes, bw),
                        "{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let topo = presets::two_node();
        let mut ic = Interconnect::new(&topo);
        ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        ic.reset();
        assert_eq!(ic.link_busy_ns(0), 0);
        let t = ic.transfer(&topo, SimTime(0), NodeId(0), NodeId(1), 4096, 1.0);
        assert_eq!(t.start, SimTime(0));
    }
}
