//! The network container: terminals, routers, links, and the per-cycle
//! engine.
//!
//! A [`Network`] is assembled by a [`NetworkBuilder`] (usually through one
//! of the [`crate::topology`] constructors), after which clients interact
//! with it only through terminals: [`Network::inject`] queues a packet at a
//! terminal's network interface and [`Network::poll`] retrieves delivered
//! packets. [`Network::tick`] advances the whole fabric by one cycle.
//!
//! ## Cycle semantics
//!
//! * Flits scheduled to arrive at cycle *t* become visible to arbitration at
//!   *t*.
//! * A flit granted an output at *t* arrives downstream at
//!   *t + pipeline_delay + link_delay*; per-hop zero-load latency is
//!   therefore 3 cycles for the mesh (2-stage router + 1-cycle link) and
//!   1 cycle for reduction/dispersion tree nodes, as in Table 1.
//! * Credits are consumed at grant time and returned `credit_delay` cycles
//!   after the flit departs the downstream buffer.
//!
//! ## Flat storage
//!
//! The per-cycle engine runs on a structure-of-arrays core: `build()`
//! hoists every router's input ports, output ports, and route table into
//! network-level contiguous arrays (`vcs`, `in_occ`, `in_credit`,
//! `out_ports`, `route`), indexed through per-router base offsets kept in a
//! small `RouterMeta` header. A flit-hop then touches a handful of adjacent
//! cache lines instead of chasing per-router heap `Vec`s. Routers with
//! buffered flits are tracked in an `active_routers` bitmap whose
//! ascending-bit scan reproduces the ascending-index full scan it replaced
//! bit for bit, and each hop's arrival and credit return ride a single
//! event wheel — fused into one event when both land on the same cycle.

use crate::flit::Flit;
use crate::packet::{Delivery, Packet, PacketId, PacketSlab};
use crate::router::{
    arbitrate, Feeder, InPort, OutPort, OutTarget, Router, RouterConfig, VcQueue, UNROUTED,
};
use crate::stats::NetStats;
use crate::types::{MessageClass, PortIndex, RouterId, TerminalId, CLASS_COUNT};
use crate::wheel::EventWheel;
use nocout_sim::ring::Ring;
use nocout_sim::Cycle;

/// Maximum supported hop delay (pipeline + link) in cycles. The event wheel
/// is sized to this; topology builders assert their delays fit, so the
/// wheel never takes its growth path here.
pub const MAX_HOP_DELAY: u64 = 32;

#[derive(Debug, Clone, Copy)]
enum ArrivalDest {
    RouterPort { router: RouterId, port: PortIndex },
    Terminal(TerminalId),
}

#[derive(Debug, Clone, Copy)]
enum CreditDest {
    RouterPort { router: RouterId, port: PortIndex },
    Terminal(TerminalId),
}

/// One scheduled consequence of a flit send, all carried by a single event
/// wheel. Within a cycle, credit application (which only touches credit
/// counters) and arrival application (which only touches buffers, terminals
/// and delivery state) commute, so draining them interleaved in push order
/// is indistinguishable from the credits-then-arrivals phase split this
/// replaced.
#[derive(Debug, Clone, Copy)]
enum HopEvent {
    /// A flit reaching its downstream buffer or ejecting at a terminal.
    Arrival { dest: ArrivalDest, flit: Flit },
    /// A credit returning upstream after a downstream buffer slot freed.
    Credit {
        dest: CreditDest,
        class: MessageClass,
    },
    /// Both halves of one hop whose delays land on the same cycle (the
    /// credit class is the flit's class): one wheel push instead of two.
    Fused {
        dest: ArrivalDest,
        flit: Flit,
        credit: CreditDest,
    },
}

/// Precomputed credit-return path of an input port: where the credit goes
/// and how long it takes (already clamped to ≥ 1 at build time).
#[derive(Debug, Clone, Copy)]
struct CreditReturn {
    dest: CreditDest,
    delay: u8,
}

/// Per-router header of the flat network core: the configuration plus the
/// base offsets of this router's slices in the network-level arrays, and
/// the two per-router occupancy summaries the switch allocator consults.
#[derive(Debug)]
struct RouterMeta {
    cfg: RouterConfig,
    /// First input-port index in `in_occ`/`in_credit`; the same port's VC
    /// rings start at `in_base * CLASS_COUNT` in `vcs`.
    in_base: u32,
    /// First output-port index in `out_ports`.
    out_base: u32,
    in_count: u8,
    out_count: u8,
    /// Number of flits currently buffered anywhere in this router.
    buffered: u32,
    /// Occupancy bitmask over input ports (bit `p` set ⇔ some VC at input
    /// port `p` holds flits) — the routers here top out at 16 ports (the
    /// 15×15 flattened-butterfly radix), so a `u64` covers any topology.
    port_occ: u64,
}

#[derive(Debug)]
struct InjectLane {
    queue: Ring<PacketId>,
    /// Flits of the head packet already pushed into the router.
    sent_flits: u16,
}

impl Default for InjectLane {
    fn default() -> Self {
        InjectLane {
            queue: Ring::with_capacity(4),
            sent_flits: 0,
        }
    }
}

#[derive(Debug)]
struct Terminal {
    /// Router and input port this terminal injects into.
    attach_router: RouterId,
    attach_port: PortIndex,
    /// Router holding this terminal's ejection port (differs from
    /// `attach_router` for split terminals such as NOC-Out cores).
    eject_router: RouterId,
    lanes: [InjectLane; CLASS_COUNT],
    /// Credits into the attached input port's VCs.
    inject_credits: [u8; CLASS_COUNT],
    /// Round-robin pointer over classes for the single NI link.
    rr_class: u8,
    /// Per-class reassembly: flits received of the in-flight packet.
    rx_progress: [u16; CLASS_COUNT],
    delivered: Ring<Delivery>,
    queued_packets: u64,
    /// Whether this terminal sits in the network's ready list.
    in_ready: bool,
}

/// Handle returned when attaching a terminal: the terminal id plus the
/// router ports created for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminalAttachment {
    /// The new terminal.
    pub terminal: TerminalId,
    /// Input port allocated on the router (injection side).
    pub in_port: PortIndex,
    /// Output port allocated on the router (ejection side).
    pub out_port: PortIndex,
}

/// Incrementally builds a [`Network`].
///
/// # Examples
///
/// Build a two-router network and send a packet across it:
///
/// ```
/// use nocout_noc::network::NetworkBuilder;
/// use nocout_noc::router::RouterConfig;
/// use nocout_noc::types::MessageClass;
///
/// let mut b = NetworkBuilder::new(128);
/// let r0 = b.add_router(RouterConfig::mesh());
/// let r1 = b.add_router(RouterConfig::mesh());
/// b.add_link(r0, r1, 1, 1.8);
/// b.add_link(r1, r0, 1, 1.8);
/// let t0 = b.add_terminal(r0).terminal;
/// let t1 = b.add_terminal(r1).terminal;
/// b.compute_routes_bfs();
/// let mut net = b.build();
///
/// net.inject(t0, t1, MessageClass::Request, 0, 42);
/// let d = loop {
///     net.tick();
///     if let Some(d) = net.poll(t1) {
///         break d;
///     }
///     assert!(net.now().raw() < 100, "packet must arrive quickly");
/// };
/// assert_eq!(d.packet.token, 42);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    routers: Vec<Router>,
    terminals: Vec<Terminal>,
    link_width_bits: u32,
}

/// Ejection/injection link geometry: delay (cycles) and length (mm).
const TERMINAL_LINK_DELAY: u8 = 1;
const TERMINAL_LINK_MM: f32 = 0.5;

impl NetworkBuilder {
    /// Starts a network whose links are `link_width_bits` wide (one flit per
    /// cycle per link; packets are serialized into
    /// `ceil(bits / link_width_bits)` flits).
    pub fn new(link_width_bits: u32) -> Self {
        assert!(link_width_bits > 0);
        NetworkBuilder {
            routers: Vec::new(),
            terminals: Vec::new(),
            link_width_bits,
        }
    }

    /// Adds a router, returning its id.
    pub fn add_router(&mut self, cfg: RouterConfig) -> RouterId {
        self.routers.push(Router::new(cfg, 0));
        RouterId((self.routers.len() - 1) as u16)
    }

    /// Adds a unidirectional link from `from` to `to`, returning
    /// `(out_port at from, in_port at to)`. The downstream buffer depth
    /// (and thus the sender's credit count) is the downstream router's
    /// configured `vc_depth`.
    ///
    /// # Panics
    ///
    /// Panics if the hop delay (downstream pipeline + link) would exceed
    /// [`MAX_HOP_DELAY`].
    pub fn add_link(
        &mut self,
        from: RouterId,
        to: RouterId,
        link_delay: u8,
        length_mm: f32,
    ) -> (PortIndex, PortIndex) {
        let depth = self.routers[to.index()].cfg.vc_depth;
        self.add_link_with_depth(from, to, link_delay, length_mm, depth)
    }

    /// Like [`add_link`](Self::add_link) but with an explicit downstream
    /// buffer depth for this port, used by the flattened butterfly where VC
    /// depth is sized per link to cover its round-trip credit time
    /// (Table 1: "variable flits/VC").
    pub fn add_link_with_depth(
        &mut self,
        from: RouterId,
        to: RouterId,
        link_delay: u8,
        length_mm: f32,
        depth: u8,
    ) -> (PortIndex, PortIndex) {
        let from_cfg = self.routers[from.index()].cfg;
        assert!(
            (from_cfg.pipeline_delay as u64 + link_delay as u64) < MAX_HOP_DELAY,
            "hop delay exceeds event-wheel capacity"
        );
        let to_depth = depth;
        let in_port = {
            let rt = &mut self.routers[to.index()];
            rt.in_ports.push(InPort::new(
                to_depth,
                Feeder::Router {
                    router: from,
                    port: PortIndex::MAX, // patched below
                },
                1 + link_delay,
            ));
            (rt.in_ports.len() - 1) as PortIndex
        };
        let out_port = {
            let rf = &mut self.routers[from.index()];
            rf.out_ports.push(OutPort {
                target: OutTarget::Router {
                    router: to,
                    port: in_port,
                    link_delay,
                    length_mm,
                },
                credits: [to_depth; CLASS_COUNT],
                max_credits: [to_depth; CLASS_COUNT],
                owner: [None; CLASS_COUNT],
                rr_next: 0,
                flits_sent: 0,
            });
            (rf.out_ports.len() - 1) as PortIndex
        };
        // Patch the feeder back-reference now that the out port exists.
        if let Feeder::Router { port, .. } =
            &mut self.routers[to.index()].in_ports[in_port as usize].feeder
        {
            *port = out_port;
        }
        (out_port, in_port)
    }

    /// Adds two links forming a bidirectional channel; returns the
    /// `(out@a→b, in@b)` and `(out@b→a, in@a)` port pairs.
    pub fn add_bidi_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        link_delay: u8,
        length_mm: f32,
    ) -> ((PortIndex, PortIndex), (PortIndex, PortIndex)) {
        let ab = self.add_link(a, b, link_delay, length_mm);
        let ba = self.add_link(b, a, link_delay, length_mm);
        (ab, ba)
    }

    /// Attaches a terminal (core, LLC tile, or memory controller) to a
    /// router, allocating an injection input port and an ejection output
    /// port on it.
    pub fn add_terminal(&mut self, router: RouterId) -> TerminalAttachment {
        self.add_terminal_split(router, router)
    }

    /// Attaches a terminal whose injection and ejection sides live on
    /// *different* routers. NOC-Out cores use this: they inject into their
    /// reduction-tree node but receive from their dispersion-tree node.
    pub fn add_terminal_split(
        &mut self,
        inject_router: RouterId,
        eject_router: RouterId,
    ) -> TerminalAttachment {
        let router = inject_router;
        let terminal = TerminalId(self.terminals.len() as u16);
        let depth = self.routers[router.index()].cfg.vc_depth;
        let in_port = {
            let r = &mut self.routers[router.index()];
            r.in_ports.push(InPort::new(
                depth,
                Feeder::Terminal(terminal),
                1 + TERMINAL_LINK_DELAY,
            ));
            (r.in_ports.len() - 1) as PortIndex
        };
        let out_port = {
            let r = &mut self.routers[eject_router.index()];
            r.out_ports.push(OutPort {
                target: OutTarget::Terminal {
                    terminal,
                    link_delay: TERMINAL_LINK_DELAY,
                    length_mm: TERMINAL_LINK_MM,
                },
                credits: [u8::MAX; CLASS_COUNT],
                max_credits: [u8::MAX; CLASS_COUNT],
                owner: [None; CLASS_COUNT],
                rr_next: 0,
                flits_sent: 0,
            });
            (r.out_ports.len() - 1) as PortIndex
        };
        self.terminals.push(Terminal {
            attach_router: router,
            attach_port: in_port,
            eject_router,
            lanes: Default::default(),
            inject_credits: [depth; CLASS_COUNT],
            rr_class: 0,
            rx_progress: [0; CLASS_COUNT],
            delivered: Ring::with_capacity(4),
            queued_packets: 0,
            in_ready: false,
        });
        TerminalAttachment {
            terminal,
            in_port,
            out_port,
        }
    }

    /// Sets the routing-table entry at `router` for packets destined to
    /// `terminal`.
    pub fn set_route(&mut self, router: RouterId, terminal: TerminalId, out_port: PortIndex) {
        let r = &mut self.routers[router.index()];
        if r.route.len() <= terminal.index() {
            r.route.resize(terminal.index() + 1, UNROUTED);
        }
        r.route[terminal.index()] = out_port;
    }

    /// Computes shortest-path routing tables for every (router, terminal)
    /// pair by BFS over hop delays, breaking ties by lowest port index.
    ///
    /// Suitable for topologies with unique or symmetric shortest paths
    /// (trees, rings, the 1-D LLC butterfly). The 2-D mesh and flattened
    /// butterfly builders install explicit dimension-order tables instead,
    /// which BFS cannot guarantee.
    pub fn compute_routes_bfs(&mut self) {
        let nr = self.routers.len();
        // adjacency: for each router, (out_port, dest router, hop_delay)
        let mut adj: Vec<Vec<(PortIndex, usize, u64)>> = vec![Vec::new(); nr];
        let mut max_hop = 1u64;
        for (ri, r) in self.routers.iter().enumerate() {
            for (pi, o) in r.out_ports.iter().enumerate() {
                if let OutTarget::Router {
                    router, link_delay, ..
                } = o.target
                {
                    let hop = (r.cfg.pipeline_delay as u64 + link_delay as u64).max(1);
                    max_hop = max_hop.max(hop);
                    adj[ri].push((pi as PortIndex, router.index(), hop));
                }
            }
        }
        // Reversed adjacency, built once for all terminals (it was
        // formerly rebuilt inside the per-terminal loop).
        let mut radj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); nr];
        for (ri, edges) in adj.iter().enumerate() {
            for &(_, to, w) in edges {
                radj[to].push((ri, w));
            }
        }
        // Dial's bucket queue in place of a BinaryHeap Dijkstra: hop
        // delays are small integers, so every finite distance is below
        // (nr - 1) * max_hop and scanning buckets in index order settles
        // nodes in the same nondecreasing-distance order the heap did,
        // producing identical `dist` and therefore identical routes.
        // Buckets drain completely per terminal, so the allocation is
        // reused across the whole loop.
        let bound = (nr as u64).saturating_sub(1) * max_hop + 1;
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); bound as usize];
        let mut dist = vec![u64::MAX; nr];
        for t in 0..self.terminals.len() {
            let term = TerminalId(t as u16);
            // Shortest paths from the terminal's ejection router backwards
            // over reversed edges.
            let target_router = self.terminals[t].eject_router.index();
            dist.iter_mut().for_each(|d| *d = u64::MAX);
            dist[target_router] = 0;
            buckets[0].push(target_router);
            let mut remaining = 1usize;
            let mut d = 0u64;
            while remaining > 0 {
                while let Some(u) = buckets[d as usize].pop() {
                    remaining -= 1;
                    if d > dist[u] {
                        continue; // stale entry superseded by a shorter path
                    }
                    for &(v, w) in &radj[u] {
                        if d + w < dist[v] {
                            dist[v] = d + w;
                            buckets[(d + w) as usize].push(v);
                            remaining += 1;
                        }
                    }
                }
                d += 1;
            }
            // Choose, at each router, the lowest-index out port on a
            // shortest path.
            for ri in 0..nr {
                if ri == target_router {
                    // Route to the terminal's ejection port.
                    let eject = self.routers[ri]
                        .out_ports
                        .iter()
                        .position(|o| {
                            matches!(o.target, OutTarget::Terminal { terminal, .. } if terminal == term)
                        })
                        .expect("terminal must have an ejection port") as PortIndex;
                    self.set_route(RouterId(ri as u16), term, eject);
                    continue;
                }
                if dist[ri] == u64::MAX {
                    continue; // unreachable; leave UNROUTED
                }
                let mut best: Option<PortIndex> = None;
                for &(pi, to, w) in &adj[ri] {
                    if dist[to] != u64::MAX && dist[to] + w == dist[ri] && best.is_none() {
                        best = Some(pi);
                    }
                }
                if let Some(p) = best {
                    self.set_route(RouterId(ri as u16), term, p);
                }
            }
        }
    }

    /// Finalizes the network, flattening every router's ports and route
    /// table into the network-level contiguous arrays (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if a router's radix exceeds the 64-port occupancy word
    /// (routes may still be `UNROUTED` for genuinely unreachable pairs;
    /// using such a route at runtime panics with a diagnostic).
    pub fn build(mut self) -> Network {
        let nt = self.terminals.len();
        for r in &mut self.routers {
            if r.route.len() < nt {
                r.route.resize(nt, UNROUTED);
            }
        }
        let nr = self.routers.len();
        let total_in: usize = self.routers.iter().map(|r| r.in_ports.len()).sum();
        let total_out: usize = self.routers.iter().map(|r| r.out_ports.len()).sum();
        let mut rmeta = Vec::with_capacity(nr);
        let mut vcs = Vec::with_capacity(total_in * CLASS_COUNT);
        let mut in_occ = Vec::with_capacity(total_in);
        let mut in_credit = Vec::with_capacity(total_in);
        let mut out_ports = Vec::with_capacity(total_out);
        let mut route = Vec::with_capacity(nr * nt);
        for r in self.routers {
            assert!(
                r.in_ports.len() <= 64,
                "router radix exceeds the 64-bit port-occupancy word"
            );
            rmeta.push(RouterMeta {
                cfg: r.cfg,
                in_base: in_occ.len() as u32,
                out_base: out_ports.len() as u32,
                in_count: r.in_ports.len() as u8,
                out_count: r.out_ports.len() as u8,
                buffered: 0,
                port_occ: 0,
            });
            for ip in r.in_ports {
                in_occ.push(0u8);
                in_credit.push(CreditReturn {
                    dest: match ip.feeder {
                        Feeder::Router { router, port } => CreditDest::RouterPort { router, port },
                        Feeder::Terminal(t) => CreditDest::Terminal(t),
                    },
                    delay: ip.credit_delay.max(1),
                });
                vcs.extend(ip.vcs);
            }
            out_ports.extend(r.out_ports);
            route.extend_from_slice(&r.route);
        }
        Network {
            rmeta,
            vcs,
            in_occ,
            in_credit,
            out_ports,
            route,
            active_routers: vec![0u64; nr.div_ceil(64)],
            terminals: self.terminals,
            slab: PacketSlab::new(),
            hops: EventWheel::with_slots(MAX_HOP_DELAY as usize * 2),
            stats: NetStats::new(),
            now: Cycle::ZERO,
            link_width_bits: self.link_width_bits,
            active_terms: Vec::new(),
            ready_terms: Ring::with_capacity(16),
            buffered_flits: 0,
            hop_scratch: Vec::new(),
            candidate_scratch: Vec::new(),
            per_out_scratch: Vec::new(),
        }
    }
}

/// A flit-level network-on-chip instance.
///
/// See the [module documentation](crate::network) for cycle semantics, the
/// flat storage layout, and the [`NetworkBuilder`] example for usage.
#[derive(Debug)]
pub struct Network {
    /// Per-router headers: config, slice offsets, buffered count, port mask.
    rmeta: Vec<RouterMeta>,
    /// Every VC ring in the network, laid out `[router][in port][class]`;
    /// a port's rings start at `(in_base + port) * CLASS_COUNT`.
    vcs: Vec<VcQueue>,
    /// Per-input-port VC occupancy bytes (bit `vc` set ⇔ queue non-empty),
    /// indexed `in_base + port`.
    in_occ: Vec<u8>,
    /// Per-input-port credit-return routes, indexed `in_base + port`.
    in_credit: Vec<CreditReturn>,
    /// Every output port in the network, indexed `out_base + port`.
    out_ports: Vec<OutPort>,
    /// Concatenated route tables, indexed `router * num_terminals + dst`
    /// (every router's table is resized to the terminal count at build).
    route: Vec<PortIndex>,
    /// Dirty bitmap over routers (bit `ri` set ⇔ `rmeta[ri].buffered > 0`),
    /// maintained at the flit push sites and in `send_flit`. The switch
    /// allocator scans set bits in ascending order, which reproduces the
    /// ascending full router scan it replaced exactly.
    active_routers: Vec<u64>,
    terminals: Vec<Terminal>,
    slab: PacketSlab,
    /// Single wheel carrying both halves of every hop (arrival downstream,
    /// credit upstream): one drain per tick, one push per hop when the
    /// delays coincide.
    hops: EventWheel<HopEvent>,
    stats: NetStats,
    now: Cycle,
    link_width_bits: u32,
    /// Terminals with non-empty injection lanes (dirty list: only these
    /// are visited by `inject_flits`).
    active_terms: Vec<u16>,
    /// Terminals with undelivered packets, in arrival order (dirty list
    /// consumed by `take_ready_terminal`).
    ready_terms: Ring<u16>,
    /// Flits currently buffered in router input VCs (sum of per-router
    /// `buffered`), maintained for the drained-network fast path.
    buffered_flits: u64,
    /// Reusable per-cycle scratch buffers (hoisted out of the hot path so
    /// steady state allocates nothing).
    hop_scratch: Vec<HopEvent>,
    /// `(desired out port, in port, class)` triples gathered per router.
    candidate_scratch: Vec<(PortIndex, PortIndex, MessageClass)>,
    /// Per-out-port candidate list handed to the arbiter.
    per_out_scratch: Vec<(PortIndex, MessageClass)>,
}

/// Read-only view of one router in the flat network core (topology
/// inspection, tests).
#[derive(Clone, Copy)]
pub struct RouterView<'a> {
    net: &'a Network,
    ri: usize,
}

impl RouterView<'_> {
    fn meta(&self) -> &RouterMeta {
        &self.net.rmeta[self.ri]
    }

    /// The configured microarchitecture of this router.
    pub fn config(&self) -> RouterConfig {
        self.meta().cfg
    }

    /// Number of input ports.
    pub fn num_in_ports(&self) -> usize {
        self.meta().in_count as usize
    }

    /// Number of output ports.
    pub fn num_out_ports(&self) -> usize {
        self.meta().out_count as usize
    }

    /// The routing-table entry for `terminal`, if routed.
    pub fn route_to(&self, terminal: TerminalId) -> Option<PortIndex> {
        let p = self.net.route[self.ri * self.net.terminals.len() + terminal.index()];
        (p != UNROUTED).then_some(p)
    }

    /// Total flits currently buffered in this router's input VCs.
    pub fn buffered_flits(&self) -> u32 {
        self.meta().buffered
    }

    /// Flits sent per output port since construction.
    pub fn flits_sent_per_port(&self) -> Vec<u64> {
        self.net
            .out_slice(self.ri)
            .iter()
            .map(|o| o.flits_sent)
            .collect()
    }
}

impl Network {
    /// Current network cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Link width in bits (flit size).
    pub fn link_width_bits(&self) -> u32 {
        self.link_width_bits
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// Number of routers (including tree nodes).
    pub fn num_routers(&self) -> usize {
        self.rmeta.len()
    }

    /// Read-only access to a router (topology inspection, tests).
    pub fn router(&self, id: RouterId) -> RouterView<'_> {
        assert!(id.index() < self.rmeta.len(), "router id out of range");
        RouterView {
            net: self,
            ri: id.index(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets statistics at the warmup/measurement boundary.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Packets currently anywhere in the network (injection queues,
    /// buffers, links).
    pub fn packets_in_flight(&self) -> usize {
        self.slab.len()
    }

    /// This router's output ports as a slice of the flat array.
    #[inline]
    fn out_slice(&self, ri: usize) -> &[OutPort] {
        let m = &self.rmeta[ri];
        let base = m.out_base as usize;
        &self.out_ports[base..base + m.out_count as usize]
    }

    /// Queues a packet for injection at terminal `src`. The payload is
    /// serialized into flits according to the network's link width.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn inject(
        &mut self,
        src: TerminalId,
        dst: TerminalId,
        class: MessageClass,
        payload_bytes: u32,
        token: u64,
    ) {
        assert!(dst.index() < self.terminals.len(), "dst out of range");
        let packet = Packet::new(
            src,
            dst,
            class,
            payload_bytes,
            self.link_width_bits,
            token,
            self.now,
        );
        let id = self.slab.insert(packet);
        let term = &mut self.terminals[src.index()];
        let was_idle = term.queued_packets == 0;
        term.lanes[class.vc()].queue.push_back(id);
        term.queued_packets += 1;
        if was_idle {
            self.active_terms.push(src.0);
        }
        self.stats.packets_injected.incr();
        // `queued_packets` is maintained as exactly the sum of the lane
        // queue lengths, so the peak-depth stat reads the counter instead
        // of re-summing the lanes.
        if term.queued_packets > self.stats.peak_inject_queue {
            self.stats.peak_inject_queue = term.queued_packets;
        }
    }

    /// Takes the next delivered packet at `terminal`, if any.
    pub fn poll(&mut self, terminal: TerminalId) -> Option<Delivery> {
        self.terminals[terminal.index()].delivered.pop_front()
    }

    /// Pops a terminal that has undelivered packets, in arrival order.
    ///
    /// The caller is expected to drain the terminal with [`Network::poll`]
    /// before the next call; a terminal reappears in the ready list when a
    /// later packet arrives for it. This lets clients visit only busy
    /// terminals instead of scanning every terminal every cycle (on big
    /// chips most terminals are idle in most cycles).
    pub fn take_ready_terminal(&mut self) -> Option<TerminalId> {
        while let Some(t) = self.ready_terms.pop_front() {
            let term = &mut self.terminals[t as usize];
            term.in_ready = false;
            // Skip entries made stale by direct `poll` calls.
            if !term.delivered.is_empty() {
                return Some(TerminalId(t));
            }
        }
        None
    }

    /// Advances the network by one cycle.
    pub fn tick(&mut self) {
        self.deliver_hops();
        self.inject_flits();
        self.switch_flits();
        if cfg!(debug_assertions) && (self.now.0 & 0x3F) == 0 {
            self.check_invariants();
        }
        self.now.0 += 1;
    }

    /// Advances the network by one cycle through the reference switch path:
    /// a full ascending scan over every router, candidates gathered by
    /// probing every (port, VC) queue front, and the general grant loop with
    /// no fast paths. Bit-identical to [`Network::tick`] by construction —
    /// the differential tests drive two networks in lockstep, one per path,
    /// and compare every observable.
    pub fn tick_reference(&mut self) {
        self.deliver_hops();
        self.inject_flits();
        self.switch_flits_reference();
        if cfg!(debug_assertions) && (self.now.0 & 0x3F) == 0 {
            self.check_invariants();
        }
        self.now.0 += 1;
    }

    /// When the network next needs a normal tick: every cycle while flits
    /// are buffered in routers or terminals hold queued injections;
    /// otherwise the earliest event in the hop wheel (the same condition
    /// [`Network::run_until_drained`] fast-forwards on), or idle when the
    /// wheel is empty too.
    pub fn next_event(&self) -> crate::fabric::NextEvent {
        use crate::fabric::NextEvent;
        if self.buffered_flits > 0 || !self.active_terms.is_empty() {
            return NextEvent::EveryCycle;
        }
        match self.hops.next_occupied_delta(self.now) {
            Some(d) => NextEvent::At(self.now + d),
            None => NextEvent::Idle,
        }
    }

    /// Advances the clock by `delta` cycles with no per-cycle work.
    /// Callers must not skip *past* a scheduled wheel event (see
    /// [`Network::next_event`]) — that would both lose it and alias the
    /// wheel's modular slot indexing. Skipping exactly *to* the event
    /// cycle is fine: its tick runs after the skip and drains the slot.
    pub fn skip_idle(&mut self, delta: u64) {
        debug_assert_eq!(self.buffered_flits, 0);
        debug_assert!(self.active_terms.is_empty());
        debug_assert!(
            self.hops
                .next_occupied_delta(self.now)
                .is_none_or(|d| d >= delta),
            "cannot skip past a scheduled event"
        );
        self.now.0 += delta;
    }

    /// Runs until all in-flight packets are delivered or `max_cycles`
    /// elapse; returns `true` if the network drained.
    ///
    /// When nothing is buffered in any router and no terminal has queued
    /// injections, the only pending work lives in the event wheel; the
    /// clock then fast-forwards to the next scheduled event instead of
    /// burning full no-op ticks (the skipped cycles still count against
    /// `max_cycles`).
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        use crate::fabric::NextEvent;
        let mut budget = max_cycles;
        while budget > 0 {
            if self.slab.is_empty() {
                return true;
            }
            match self.next_event() {
                NextEvent::EveryCycle => {}
                // Packets in flight but no buffered flits, queued
                // injections, or scheduled events: nothing can ever
                // progress.
                NextEvent::Idle => return false,
                NextEvent::At(at) => {
                    // Jump to the cycle of the event; its tick runs below
                    // and needs one cycle of budget of its own.
                    let skip = at.raw() - self.now.raw();
                    if skip >= budget {
                        self.now.0 += budget;
                        return self.slab.is_empty();
                    }
                    self.skip_idle(skip);
                    budget -= skip;
                }
            }
            self.tick();
            budget -= 1;
        }
        self.slab.is_empty()
    }

    /// Drains every hop event due this cycle. Credits and arrivals apply in
    /// push order; see [`HopEvent`] for why that interleaving is
    /// indistinguishable from the former credits-then-arrivals phases.
    fn deliver_hops(&mut self) {
        let mut scratch = std::mem::take(&mut self.hop_scratch);
        self.hops.drain_into(self.now, &mut scratch);
        for ev in scratch.drain(..) {
            match ev {
                HopEvent::Credit { dest, class } => self.apply_credit(dest, class),
                HopEvent::Arrival { dest, flit } => self.apply_arrival(dest, flit),
                HopEvent::Fused { dest, flit, credit } => {
                    self.apply_credit(credit, flit.class);
                    self.apply_arrival(dest, flit);
                }
            }
        }
        self.hop_scratch = scratch;
    }

    #[inline]
    fn apply_credit(&mut self, dest: CreditDest, class: MessageClass) {
        match dest {
            CreditDest::RouterPort { router, port } => {
                let base = self.rmeta[router.index()].out_base as usize;
                let o = &mut self.out_ports[base + port as usize];
                let c = &mut o.credits[class.vc()];
                debug_assert!(*c < o.max_credits[class.vc()]);
                *c += 1;
            }
            CreditDest::Terminal(t) => {
                self.terminals[t.index()].inject_credits[class.vc()] += 1;
            }
        }
    }

    #[inline]
    fn apply_arrival(&mut self, dest: ArrivalDest, flit: Flit) {
        match dest {
            ArrivalDest::RouterPort { router, port } => {
                self.push_flit(router, port, flit);
            }
            ArrivalDest::Terminal(t) => {
                let term = &mut self.terminals[t.index()];
                let prog = &mut term.rx_progress[flit.class.vc()];
                debug_assert_eq!(
                    *prog, flit.seq,
                    "per-class wormhole delivery must be in order"
                );
                *prog += 1;
                if flit.is_tail() {
                    *prog = 0;
                    let packet = self.slab.remove(flit.packet);
                    let latency = self.now.saturating_since(packet.injected_at);
                    self.stats
                        .record_delivery(packet.class, latency, packet.size_flits);
                    term.delivered.push_back(Delivery {
                        packet,
                        delivered_at: self.now,
                    });
                    if !term.in_ready {
                        term.in_ready = true;
                        self.ready_terms.push_back(t.0);
                    }
                }
            }
        }
    }

    /// Pushes a flit into a router input VC, maintaining the occupancy
    /// masks, the buffered counters, and the active-router bitmap (one of
    /// the dirty-list push sites; the others are injection below and the
    /// arrival path above, which lands here too).
    #[inline]
    fn push_flit(&mut self, router: RouterId, port: PortIndex, flit: Flit) {
        let ri = router.index();
        let gp = self.rmeta[ri].in_base as usize + port as usize;
        let cv = flit.class.vc();
        self.vcs[gp * CLASS_COUNT + cv].push_back(flit);
        self.in_occ[gp] |= 1 << cv;
        let m = &mut self.rmeta[ri];
        m.port_occ |= 1u64 << port;
        m.buffered += 1;
        self.active_routers[ri >> 6] |= 1u64 << (ri & 63);
        self.buffered_flits += 1;
        self.stats.buffer_writes.incr();
    }

    fn inject_flits(&mut self) {
        // Dirty list: visit only terminals with queued packets. A terminal
        // leaves the list the cycle its last queued packet finishes
        // serializing (order within the list is irrelevant — each terminal
        // feeds its own private router input port).
        let mut i = 0;
        while i < self.active_terms.len() {
            let ti = self.active_terms[i] as usize;
            let term = &mut self.terminals[ti];
            debug_assert!(term.queued_packets > 0, "stale active-terminal entry");
            // One flit per cycle over the NI link; round-robin over classes
            // with queued traffic and available credits.
            for k in 0..CLASS_COUNT {
                let c = (term.rr_class as usize + k) % CLASS_COUNT;
                let lane_has_work = !term.lanes[c].queue.is_empty();
                if !lane_has_work || term.inject_credits[c] == 0 {
                    continue;
                }
                let pid = term.lanes[c].queue.get(0);
                let packet = self.slab.get(pid);
                let flit = Flit {
                    packet: pid,
                    seq: term.lanes[c].sent_flits,
                    size: packet.size_flits,
                    dst: packet.dst,
                    class: packet.class,
                };
                let router = term.attach_router;
                let port = term.attach_port;
                term.inject_credits[c] -= 1;
                term.lanes[c].sent_flits += 1;
                if term.lanes[c].sent_flits == packet.size_flits {
                    term.lanes[c].queue.pop_front();
                    term.lanes[c].sent_flits = 0;
                    term.queued_packets -= 1;
                }
                term.rr_class = ((c + 1) % CLASS_COUNT) as u8;
                // The NI link is modelled as immediate visibility this
                // cycle; the first hop's arbitration applies the usual
                // router + link delay.
                self.push_flit(router, port, flit);
                break;
            }
            if self.terminals[ti].queued_packets == 0 {
                self.active_terms.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Evaluates one (input port, VC) pair as a switch candidate: the
    /// queue-front flit must satisfy routing, wormhole ownership and
    /// credits. Returns the `(desired out, in port, class)` triple, or
    /// `None` (also when the queue is empty, so the reference gather can
    /// probe unconditionally).
    #[inline]
    fn candidate_at(
        &self,
        ri: usize,
        in_base: usize,
        out_base: usize,
        ipi: usize,
        cv: usize,
    ) -> Option<(PortIndex, PortIndex, MessageClass)> {
        let vc = &self.vcs[(in_base + ipi) * CLASS_COUNT + cv];
        let flit = *vc.front()?;
        let desired = match vc.current_out {
            Some(p) => p,
            None => {
                debug_assert!(flit.is_head());
                let p = self.route[ri * self.terminals.len() + flit.dst.index()];
                assert!(p != UNROUTED, "router {ri} has no route to {}", flit.dst);
                p
            }
        };
        let o = &self.out_ports[out_base + desired as usize];
        // Ownership: heads need a free downstream VC, bodies must own it.
        match o.owner[cv] {
            None if !flit.is_head() => return None,
            Some(owner) if owner != ipi as PortIndex => return None,
            _ => {}
        }
        let is_terminal_target = matches!(o.target, OutTarget::Terminal { .. });
        if !is_terminal_target && o.credits[cv] == 0 {
            return None;
        }
        Some((desired, ipi as PortIndex, MessageClass::from_vc(cv)))
    }

    /// One pass over the occupied input VCs of router `ri`: each queue-front
    /// flit that satisfies routing, wormhole ownership and credits becomes a
    /// `(desired out, in port, class)` candidate. (A VC therefore offers at
    /// most one flit per cycle — one crossbar input per input VC.)
    ///
    /// Candidate order — ascending port, then ascending VC within a port —
    /// reproduces the plain nested scan exactly (`MessageClass::ALL` is
    /// ascending-VC order), on both paths below, so arbitration is
    /// bit-identical to probing every queue front.
    fn gather_candidates(
        &self,
        ri: usize,
        candidates: &mut Vec<(PortIndex, PortIndex, MessageClass)>,
    ) {
        let m = &self.rmeta[ri];
        let in_base = m.in_base as usize;
        let out_base = m.out_base as usize;
        if m.in_count <= 2 {
            // Radix-≤2 fast path (NOC-Out tree nodes): probe the one or two
            // per-port occupancy bytes directly instead of walking the
            // port-mask word. Skipping a zero byte is exactly skipping a
            // clear port bit, so the order is unchanged.
            for ipi in 0..m.in_count as usize {
                let mut cm = self.in_occ[in_base + ipi];
                while cm != 0 {
                    let cv = cm.trailing_zeros() as usize;
                    cm &= cm - 1;
                    if let Some(c) = self.candidate_at(ri, in_base, out_base, ipi, cv) {
                        candidates.push(c);
                    }
                }
            }
        } else {
            // Walk only occupied (port, VC) pairs via the occupancy masks.
            let mut pm = m.port_occ;
            while pm != 0 {
                let ipi = pm.trailing_zeros() as usize;
                pm &= pm - 1;
                let mut cm = self.in_occ[in_base + ipi];
                while cm != 0 {
                    let cv = cm.trailing_zeros() as usize;
                    cm &= cm - 1;
                    if let Some(c) = self.candidate_at(ri, in_base, out_base, ipi, cv) {
                        candidates.push(c);
                    }
                }
            }
        }
    }

    /// Reference candidate gather: probe every (port, VC) queue front with
    /// no occupancy masks and no radix fast path. The invariant checker
    /// asserts this agrees with [`Network::gather_candidates`] on every
    /// router.
    fn gather_candidates_reference(
        &self,
        ri: usize,
        candidates: &mut Vec<(PortIndex, PortIndex, MessageClass)>,
    ) {
        let m = &self.rmeta[ri];
        let in_base = m.in_base as usize;
        let out_base = m.out_base as usize;
        for ipi in 0..m.in_count as usize {
            for cv in 0..CLASS_COUNT {
                if let Some(c) = self.candidate_at(ri, in_base, out_base, ipi, cv) {
                    candidates.push(c);
                }
            }
        }
    }

    /// Runs the configured arbiter for output port `out` of router `ri`
    /// over the flat state.
    fn arbitrate_at(
        &mut self,
        ri: usize,
        out: PortIndex,
        candidates: &[(PortIndex, MessageClass)],
    ) -> (PortIndex, MessageClass) {
        let m = &self.rmeta[ri];
        let (arbiter, in_count) = (m.cfg.arbiter, m.in_count as usize);
        let o = &mut self.out_ports[m.out_base as usize + out as usize];
        arbitrate(arbiter, in_count, &mut o.rr_next, candidates)
    }

    fn switch_flits(&mut self) {
        let now = self.now;
        // Reusable scratch buffers (per-cycle allocation here used to
        // dominate the tick's allocator traffic).
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        let mut per_out = std::mem::take(&mut self.per_out_scratch);
        // Scan only routers holding flits, in ascending index order. The
        // word snapshot stays valid while its routers are processed: a send
        // can clear only the *current* router's bit (arrivals to other
        // routers go through the wheel with delay ≥ 1, never directly into
        // a buffer this cycle).
        for wi in 0..self.active_routers.len() {
            let mut word = self.active_routers[wi];
            while word != 0 {
                let ri = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                candidates.clear();
                self.gather_candidates(ri, &mut candidates);
                // Grant one flit per out port among its gathered
                // candidates. Lone candidate — the common case on a lightly
                // contended router — skips the per-out-port grouping
                // machinery; the arbiter still runs so round-robin state
                // advances exactly as the general path would.
                if let [(out, p, c)] = candidates[..] {
                    let (win_port, win_class) = self.arbitrate_at(ri, out, &[(p, c)]);
                    self.send_flit(ri, out, win_port, win_class, now);
                    continue;
                }
                while let Some(&(out, _, _)) = candidates.first() {
                    per_out.clear();
                    candidates.retain(|&(o, p, c)| {
                        if o == out {
                            per_out.push((p, c));
                            false
                        } else {
                            true
                        }
                    });
                    let (win_port, win_class) = self.arbitrate_at(ri, out, &per_out);
                    self.send_flit(ri, out, win_port, win_class, now);
                }
            }
        }
        self.candidate_scratch = candidates;
        self.per_out_scratch = per_out;
    }

    /// Reference switch pass (see [`Network::tick_reference`]): ascending
    /// full scan, reference gather, general grant loop only.
    fn switch_flits_reference(&mut self) {
        let now = self.now;
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        let mut per_out = std::mem::take(&mut self.per_out_scratch);
        for ri in 0..self.rmeta.len() {
            if self.rmeta[ri].buffered == 0 {
                continue;
            }
            candidates.clear();
            self.gather_candidates_reference(ri, &mut candidates);
            while let Some(&(out, _, _)) = candidates.first() {
                per_out.clear();
                candidates.retain(|&(o, p, c)| {
                    if o == out {
                        per_out.push((p, c));
                        false
                    } else {
                        true
                    }
                });
                let (win_port, win_class) = self.arbitrate_at(ri, out, &per_out);
                self.send_flit(ri, out, win_port, win_class, now);
            }
        }
        self.candidate_scratch = candidates;
        self.per_out_scratch = per_out;
    }

    fn send_flit(
        &mut self,
        router: usize,
        out: PortIndex,
        in_port: PortIndex,
        class: MessageClass,
        now: Cycle,
    ) {
        let cv = class.vc();
        let (in_base, out_base, pipeline_delay) = {
            let m = &self.rmeta[router];
            (
                m.in_base as usize,
                m.out_base as usize,
                m.cfg.pipeline_delay,
            )
        };
        let gp = in_base + in_port as usize;
        let vc = &mut self.vcs[gp * CLASS_COUNT + cv];
        let flit = vc.pop_front().expect("winner queue non-empty");
        if flit.is_head() {
            vc.current_out = Some(out);
        }
        if flit.is_tail() {
            vc.current_out = None;
        }
        if vc.len() == 0 {
            let occ = &mut self.in_occ[gp];
            *occ &= !(1 << cv);
            if *occ == 0 {
                self.rmeta[router].port_occ &= !(1u64 << in_port);
            }
        }
        self.rmeta[router].buffered -= 1;
        if self.rmeta[router].buffered == 0 {
            self.active_routers[router >> 6] &= !(1u64 << (router & 63));
        }
        let o = &mut self.out_ports[out_base + out as usize];
        if flit.is_head() {
            o.owner[cv] = Some(in_port);
        }
        if flit.is_tail() {
            o.owner[cv] = None;
        }
        if let OutTarget::Router { .. } = o.target {
            debug_assert!(o.credits[cv] > 0);
            o.credits[cv] -= 1;
        }
        o.flits_sent += 1;
        let target = o.target;
        self.buffered_flits -= 1;
        self.stats.buffer_reads.incr();
        self.stats.xbar_traversals.incr();
        self.stats.flit_hops.incr();
        self.stats.flit_mm += target.length_mm() as f64;
        // Schedule the arrival downstream and the credit return upstream.
        // When both are due the same cycle they fuse into one wheel push;
        // otherwise two events go into the same wheel (still one drain per
        // tick, versus the former separate arrival and credit wheels).
        let hop = (pipeline_delay + target.link_delay()).max(1) as u64;
        let dest = match target {
            OutTarget::Router { router, port, .. } => ArrivalDest::RouterPort { router, port },
            OutTarget::Terminal { terminal, .. } => ArrivalDest::Terminal(terminal),
        };
        let ret = self.in_credit[gp];
        let arrive_at = now + hop;
        let credit_at = now + ret.delay as u64;
        if credit_at == arrive_at {
            self.hops.push(
                now,
                arrive_at,
                HopEvent::Fused {
                    dest,
                    flit,
                    credit: ret.dest,
                },
            );
        } else {
            self.hops.push(now, arrive_at, HopEvent::Arrival { dest, flit });
            self.hops.push(
                now,
                credit_at,
                HopEvent::Credit {
                    dest: ret.dest,
                    class,
                },
            );
        }
    }

    /// Walks the routing tables and verifies that every terminal can reach
    /// every other terminal without loops, returning the hop count matrix
    /// indexed `[src][dst]`.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if any route is missing, leads through a
    /// dangling port, or loops.
    pub fn validate_routes(&self) -> Vec<Vec<u32>> {
        let nt = self.terminals.len();
        let mut hops = vec![vec![0u32; nt]; nt];
        for (s, term) in self.terminals.iter().enumerate() {
            for (d, row) in hops[s].iter_mut().enumerate() {
                let dst = TerminalId(d as u16);
                let mut router = term.attach_router;
                let mut count = 0u32;
                loop {
                    assert!(
                        count as usize <= self.rmeta.len(),
                        "routing loop from t{s} to t{d}"
                    );
                    let ri = router.index();
                    let port = self.route[ri * nt + d];
                    assert!(
                        port != UNROUTED,
                        "router {} has no route from t{s} to t{d}",
                        router
                    );
                    let out_base = self.rmeta[ri].out_base as usize;
                    match self.out_ports[out_base + port as usize].target {
                        OutTarget::Terminal { terminal, .. } => {
                            assert_eq!(terminal, dst, "route from t{s} ejects at wrong terminal");
                            break;
                        }
                        OutTarget::Router { router: next, .. } => {
                            router = next;
                            count += 1;
                        }
                    }
                }
                *row = count;
            }
        }
        hops
    }

    /// Round-robin arbiter pointers of every output port, in flat port
    /// order (observability for the differential layout tests).
    pub fn debug_rr_state(&self) -> Vec<u16> {
        self.out_ports.iter().map(|o| o.rr_next).collect()
    }

    /// Validates internal invariants (used by tests and, sampled, by the
    /// debug-assertion tick path): credit counters never exceed their
    /// maxima; the buffered-flit counters, the occupancy masks, and the
    /// active-router dirty bitmap all match what the queue contents imply;
    /// and the masked candidate gather (with its radix-≤2 fast path) agrees
    /// with a first-principles probe of every queue front.
    pub fn check_invariants(&self) {
        let mut grand_total = 0u64;
        let mut expect_active = vec![0u64; self.active_routers.len()];
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        for ri in 0..self.rmeta.len() {
            let m = &self.rmeta[ri];
            let in_base = m.in_base as usize;
            let mut total = 0u32;
            let mut expect_port_occ = 0u64;
            for ipi in 0..m.in_count as usize {
                let mut expect_occ = 0u8;
                for cv in 0..CLASS_COUNT {
                    let vc = &self.vcs[(in_base + ipi) * CLASS_COUNT + cv];
                    total += vc.len() as u32;
                    if vc.len() > 0 {
                        expect_occ |= 1 << cv;
                    }
                }
                assert_eq!(
                    self.in_occ[in_base + ipi],
                    expect_occ,
                    "router {ri} port {ipi} VC occupancy drifted"
                );
                if expect_occ != 0 {
                    expect_port_occ |= 1u64 << ipi;
                }
            }
            assert_eq!(total, m.buffered, "router {ri} buffered count drifted");
            assert_eq!(
                m.port_occ, expect_port_occ,
                "router {ri} port occupancy drifted"
            );
            if total > 0 {
                expect_active[ri >> 6] |= 1u64 << (ri & 63);
            }
            grand_total += u64::from(m.buffered);
            for o in self.out_slice(ri) {
                for c in 0..CLASS_COUNT {
                    assert!(
                        o.credits[c] <= o.max_credits[c],
                        "router {ri} credit overflow"
                    );
                }
            }
            fast.clear();
            reference.clear();
            self.gather_candidates(ri, &mut fast);
            self.gather_candidates_reference(ri, &mut reference);
            assert_eq!(
                fast, reference,
                "router {ri} masked candidate gather diverged from the reference probe"
            );
        }
        assert_eq!(
            self.active_routers, expect_active,
            "active-router dirty bitmap drifted"
        );
        assert_eq!(
            grand_total, self.buffered_flits,
            "network buffered-flit counter drifted"
        );
        for (ti, term) in self.terminals.iter().enumerate() {
            let queued: u64 = term.lanes.iter().map(|l| l.queue.len() as u64).sum();
            assert_eq!(
                queued, term.queued_packets,
                "terminal {ti} queue count drifted"
            );
            assert_eq!(
                queued > 0,
                self.active_terms.contains(&(ti as u16)),
                "terminal {ti} active-list membership drifted"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ArbiterKind;

    fn two_router_net(link_delay: u8, pipeline: u8) -> (Network, TerminalId, TerminalId) {
        let mut b = NetworkBuilder::new(128);
        let cfg = RouterConfig {
            pipeline_delay: pipeline,
            vc_depth: 5,
            arbiter: ArbiterKind::RoundRobin,
        };
        let r0 = b.add_router(cfg);
        let r1 = b.add_router(cfg);
        b.add_bidi_link(r0, r1, link_delay, 2.0);
        let t0 = b.add_terminal(r0).terminal;
        let t1 = b.add_terminal(r1).terminal;
        b.compute_routes_bfs();
        (b.build(), t0, t1)
    }

    #[test]
    fn single_packet_crosses_one_hop() {
        let (mut net, t0, t1) = two_router_net(1, 2);
        net.inject(t0, t1, MessageClass::Request, 0, 7);
        let mut delivered = None;
        for _ in 0..50 {
            net.tick();
            if let Some(d) = net.poll(t1) {
                delivered = Some(d);
                break;
            }
        }
        let d = delivered.expect("packet must be delivered");
        assert_eq!(d.packet.token, 7);
        assert_eq!(d.packet.src, t0);
        // Zero-load: inject(visible t=0) + hop (2+1) + eject (2+1) = 6.
        assert_eq!(d.latency(), 6);
        net.check_invariants();
    }

    #[test]
    fn multi_flit_packet_serializes() {
        let (mut net, t0, t1) = two_router_net(1, 2);
        // 64B payload on 128-bit links = 5 flits.
        net.inject(t0, t1, MessageClass::Response, 64, 1);
        let mut latency = None;
        for _ in 0..60 {
            net.tick();
            if let Some(d) = net.poll(t1) {
                latency = Some(d.latency());
                break;
            }
        }
        // Head takes 6 cycles; 4 more flits drain at 1/cycle behind it.
        assert_eq!(latency, Some(10));
    }

    #[test]
    fn packets_same_class_do_not_interleave() {
        let (mut net, t0, t1) = two_router_net(1, 0);
        for i in 0..4 {
            net.inject(t0, t1, MessageClass::Response, 64, i);
        }
        let mut tokens = Vec::new();
        for _ in 0..200 {
            net.tick();
            while let Some(d) = net.poll(t1) {
                tokens.push(d.packet.token);
            }
        }
        assert_eq!(tokens, vec![0, 1, 2, 3], "wormhole must deliver in order");
        net.check_invariants();
    }

    #[test]
    fn classes_share_link_fairly() {
        let (mut net, t0, t1) = two_router_net(1, 2);
        net.inject(t0, t1, MessageClass::Request, 0, 10);
        net.inject(t0, t1, MessageClass::Response, 0, 20);
        net.inject(t0, t1, MessageClass::Snoop, 0, 30);
        let mut got = Vec::new();
        for _ in 0..100 {
            net.tick();
            while let Some(d) = net.poll(t1) {
                got.push(d.packet.token);
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn backpressure_does_not_lose_flits() {
        // Tiny buffers, long stream: credits must throttle without loss.
        let mut b = NetworkBuilder::new(128);
        let cfg = RouterConfig {
            pipeline_delay: 2,
            vc_depth: 2,
            arbiter: ArbiterKind::RoundRobin,
        };
        let r0 = b.add_router(cfg);
        let r1 = b.add_router(cfg);
        let r2 = b.add_router(cfg);
        b.add_bidi_link(r0, r1, 1, 2.0);
        b.add_bidi_link(r1, r2, 1, 2.0);
        let t0 = b.add_terminal(r0).terminal;
        let t2 = b.add_terminal(r2).terminal;
        b.compute_routes_bfs();
        let mut net = b.build();
        for i in 0..20 {
            net.inject(t0, t2, MessageClass::Response, 64, i);
        }
        let mut count = 0;
        for _ in 0..2000 {
            net.tick();
            while net.poll(t2).is_some() {
                count += 1;
            }
            net.check_invariants();
        }
        assert_eq!(count, 20);
        assert!(net.packets_in_flight() == 0);
    }

    #[test]
    fn contention_two_sources_one_sink() {
        let mut b = NetworkBuilder::new(128);
        let cfg = RouterConfig::mesh();
        let rs: Vec<_> = (0..3).map(|_| b.add_router(cfg)).collect();
        b.add_bidi_link(rs[0], rs[2], 1, 2.0);
        b.add_bidi_link(rs[1], rs[2], 1, 2.0);
        let ta = b.add_terminal(rs[0]).terminal;
        let tb = b.add_terminal(rs[1]).terminal;
        let tc = b.add_terminal(rs[2]).terminal;
        b.compute_routes_bfs();
        let mut net = b.build();
        for i in 0..10 {
            net.inject(ta, tc, MessageClass::Response, 64, 100 + i);
            net.inject(tb, tc, MessageClass::Response, 64, 200 + i);
        }
        let mut from_a = 0;
        let mut from_b = 0;
        for _ in 0..2000 {
            net.tick();
            while let Some(d) = net.poll(tc) {
                if d.packet.token >= 200 {
                    from_b += 1;
                } else {
                    from_a += 1;
                }
            }
        }
        assert_eq!(from_a, 10);
        assert_eq!(from_b, 10);
        // Throughput shared: the sink saw 20 * 5 = 100 flits over one
        // ejection port, so at least 100 cycles must have elapsed — always
        // true here; the real check is that round-robin served both.
        net.check_invariants();
    }

    #[test]
    fn stats_track_flit_activity() {
        let (mut net, t0, t1) = two_router_net(1, 2);
        net.inject(t0, t1, MessageClass::Request, 0, 1);
        net.run_until_drained(100);
        let s = net.stats();
        assert_eq!(s.packets_injected.value(), 1);
        assert_eq!(s.packets_delivered.value(), 1);
        // 1 flit crosses two out-ports (r0->r1, r1->terminal).
        assert_eq!(s.flit_hops.value(), 2);
        assert_eq!(s.buffer_reads.value(), 2);
        assert!(s.flit_mm > 0.0);
    }

    #[test]
    fn run_until_drained_reports_failure_when_stuck() {
        let (mut net, t0, t1) = two_router_net(1, 2);
        net.inject(t0, t1, MessageClass::Request, 0, 1);
        // 2 cycles is not enough to deliver.
        assert!(!net.run_until_drained(2));
        assert!(net.run_until_drained(100));
    }

    #[test]
    fn route_validation_walks_cleanly() {
        let (net, _t0, _t1) = two_router_net(1, 2);
        let hops = net.validate_routes();
        // Cross-router pairs take one inter-router hop; self pairs zero.
        assert_eq!(hops[0][0], 0);
        assert_eq!(hops[0][1], 1);
        assert_eq!(hops[1][0], 1);
    }

    #[test]
    fn router_view_exposes_topology() {
        let (net, _t0, t1) = two_router_net(1, 2);
        let r0 = net.router(RouterId(0));
        // One link from r1 plus the terminal injection port; one link to r1
        // plus the terminal ejection port.
        assert_eq!(r0.num_in_ports(), 2);
        assert_eq!(r0.num_out_ports(), 2);
        assert_eq!(r0.config().pipeline_delay, 2);
        assert_eq!(r0.buffered_flits(), 0);
        assert!(r0.route_to(t1).is_some());
        assert_eq!(r0.flits_sent_per_port(), vec![0, 0]);
    }

    #[test]
    fn fused_hop_events_round_trip() {
        // pipeline 1 + link 1 makes every hop delay equal its credit delay
        // (1 + link), so all traffic exercises the fused single-push event.
        let (mut net, t0, t1) = two_router_net(1, 1);
        net.inject(t0, t1, MessageClass::Request, 0, 9);
        let mut delivered = None;
        for _ in 0..50 {
            net.tick();
            if let Some(d) = net.poll(t1) {
                delivered = Some(d);
                break;
            }
        }
        // Zero-load: hop (1+1) + eject (1+1) = 4.
        assert_eq!(delivered.expect("delivered").latency(), 4);
        // Enough multi-flit packets to force credit round trips through the
        // fused events.
        for i in 0..12 {
            net.inject(t0, t1, MessageClass::Response, 64, i);
        }
        assert!(net.run_until_drained(2_000));
        let mut count = 0;
        while net.poll(t1).is_some() {
            count += 1;
        }
        assert_eq!(count, 12);
        net.check_invariants();
    }

    #[test]
    fn reference_tick_matches_fast_tick() {
        // Drive two identical contended networks in lockstep — one through
        // the masked/dirty-list switch, one through the reference full
        // scan — and compare every observable each cycle.
        let build = || {
            let mut b = NetworkBuilder::new(128);
            let cfg = RouterConfig::mesh();
            let rs: Vec<_> = (0..3).map(|_| b.add_router(cfg)).collect();
            b.add_bidi_link(rs[0], rs[2], 1, 2.0);
            b.add_bidi_link(rs[1], rs[2], 1, 2.0);
            let ta = b.add_terminal(rs[0]).terminal;
            let tb = b.add_terminal(rs[1]).terminal;
            let tc = b.add_terminal(rs[2]).terminal;
            b.compute_routes_bfs();
            (b.build(), [ta, tb, tc])
        };
        let (mut fast, terms) = build();
        let (mut reference, _) = build();
        for i in 0..6 {
            for &src in &terms[..2] {
                fast.inject(src, terms[2], MessageClass::Response, 64, i);
                reference.inject(src, terms[2], MessageClass::Response, 64, i);
            }
            fast.inject(terms[2], terms[0], MessageClass::Snoop, 0, i);
            reference.inject(terms[2], terms[0], MessageClass::Snoop, 0, i);
        }
        for _ in 0..400 {
            fast.tick();
            reference.tick_reference();
            assert_eq!(fast.packets_in_flight(), reference.packets_in_flight());
            for &t in &terms {
                loop {
                    let (a, b) = (fast.poll(t), reference.poll(t));
                    assert_eq!(a, b, "deliveries diverged at {}", fast.now());
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
        assert_eq!(fast.packets_in_flight(), 0);
        assert_eq!(fast.debug_rr_state(), reference.debug_rr_state());
        for r in 0..fast.num_routers() {
            let id = RouterId(r as u16);
            assert_eq!(
                fast.router(id).flits_sent_per_port(),
                reference.router(id).flits_sent_per_port()
            );
        }
    }

    #[test]
    fn response_class_unimpeded_by_request_congestion() {
        // Saturate the request VC with a long burst, then inject a single
        // response: with per-class VCs it must not wait for the backlog.
        let (mut net, t0, t1) = two_router_net(1, 2);
        for i in 0..50 {
            net.inject(t0, t1, MessageClass::Request, 64, i);
        }
        // Let the request backlog form.
        for _ in 0..10 {
            net.tick();
        }
        let start = net.now();
        net.inject(t0, t1, MessageClass::Response, 0, 999);
        let mut resp_latency = None;
        for _ in 0..2000 {
            net.tick();
            while let Some(d) = net.poll(t1) {
                if d.packet.token == 999 {
                    resp_latency = Some(d.delivered_at.saturating_since(start));
                }
            }
            if resp_latency.is_some() {
                break;
            }
        }
        let lat = resp_latency.expect("response delivered");
        // 50 five-flit requests need 250+ cycles of link time; the
        // response must cut far ahead of that on its own VC.
        assert!(lat < 40, "response waited {lat} cycles behind requests");
    }

    #[test]
    fn wormhole_keeps_packets_atomic_per_class() {
        // Two sources streaming multi-flit responses to one sink: flits of
        // different packets must never interleave at the ejection port
        // (checked internally by the reassembly debug assertion; here we
        // also verify both streams complete).
        let mut b = NetworkBuilder::new(64); // 9-flit responses
        let cfg = RouterConfig::mesh();
        let r0 = b.add_router(cfg);
        let r1 = b.add_router(cfg);
        let r2 = b.add_router(cfg);
        b.add_bidi_link(r0, r2, 1, 2.0);
        b.add_bidi_link(r1, r2, 1, 2.0);
        let ta = b.add_terminal(r0).terminal;
        let tb = b.add_terminal(r1).terminal;
        let tc = b.add_terminal(r2).terminal;
        b.compute_routes_bfs();
        let mut net = b.build();
        for i in 0..8 {
            net.inject(ta, tc, MessageClass::Response, 64, 100 + i);
            net.inject(tb, tc, MessageClass::Response, 64, 200 + i);
        }
        assert!(net.run_until_drained(5_000));
        let mut count = 0;
        while net.poll(tc).is_some() {
            count += 1;
        }
        assert_eq!(count, 16);
    }

    #[test]
    fn self_send_round_trips_through_router() {
        let (mut net, t0, _t1) = two_router_net(1, 2);
        net.inject(t0, t0, MessageClass::Request, 0, 5);
        assert!(net.run_until_drained(50));
        // poll own terminal
        let mut found = false;
        while let Some(d) = net.poll(t0) {
            assert_eq!(d.packet.token, 5);
            found = true;
        }
        assert!(found);
    }
}
