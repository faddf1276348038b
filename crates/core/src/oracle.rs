//! The coherence invariant oracle: a shadow reference model plus invariant
//! checker that runs alongside [`System`] when auditing is enabled.
//!
//! The paper's central claims are *safety* claims: directory-entry eviction
//! never invalidates a private copy (zero DEVs, §III-C), and overwriting a
//! home-memory block with directory segments is only sound because "at least
//! one private copy exists" whenever the block is corrupted (§III-D). The
//! protocol engine encodes those claims across ~2k lines of MESI transitions
//! with no transient states; this module re-derives the machine state from
//! the *observable* transaction stream — the same grants, invalidations,
//! downgrades, and eviction notices the private caches see — and asserts
//! after every uncore transaction that the engine's directory, LLC, and
//! home-memory bookkeeping agree with it.
//!
//! The shadow model is deliberately the dumbest possible structure: a flat
//! `BlockAddr → {per-socket holder set, owning core}` map with no capacity,
//! no banking, and no latency. Anything the real engine gets wrong — a lost
//! sharer, a stale owner, a corrupted block with no live copy — shows up as
//! a divergence from this map.
//!
//! Invariants checked (with their paper anchors):
//!
//! * **SWMR** (§III-A): at most one M/E owner, and no other copy coexists
//!   with an owner.
//! * **Directory precision** (§III-C): every tracking entry — dedicated,
//!   spilled, fused, or memory-housed — covers a superset of the true
//!   holders; under precise formats (full-map segments, non-region
//!   directories) the sharer set and owner are exact.
//! * **Zero DEV** (§III-C): a ZeroDEV configuration never emits an
//!   [`InvalReason::Dev`] invalidation.
//! * **Corrupted-block safety** (§III-D): whenever the home copy is
//!   corrupted, at least one valid copy exists (a private holder or an LLC
//!   data line), and every housed segment matches the per-socket tracking.
//! * **Design-structural** (§III-E/F): inclusive LLCs contain every
//!   privately held block; an EPD LLC holds no data line for an owner-tracked
//!   block.
//! * **Stats conservation**: per-transaction counter deltas and per-class
//!   message-byte totals stay consistent.
//!
//! On violation the oracle panics with the offending block's full state and
//! the last [`EventLog::capacity`] protocol events from a bounded ring
//! buffer, which is also usable standalone for debugging.

use std::fmt;
use std::fmt::Write as _;

use crate::llc::LlcLine;
use crate::system::{Downgrade, EvictKind, InvalReason, Invalidation, Op, System};
use zerodev_common::config::{DirectoryKind, LlcDesign, SegmentFormat, SystemConfig};
use zerodev_common::ids::SharerSet;
use zerodev_common::msg::ALL_CLASSES;
use zerodev_common::FlatMap;
use zerodev_common::{BlockAddr, CoreId, MesiState, SocketId, Stats};

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

/// One observable protocol event, as recorded by the oracle's ring buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditEvent {
    /// An uncore transaction completed with this grant.
    Access {
        /// Requesting socket.
        socket: SocketId,
        /// Requesting core.
        core: CoreId,
        /// The block.
        block: BlockAddr,
        /// The request kind.
        op: Op,
        /// The MESI state granted.
        grant: MesiState,
    },
    /// A private cache notified the uncore of an eviction.
    Evict {
        /// Evicting socket.
        socket: SocketId,
        /// Evicting core.
        core: CoreId,
        /// The block.
        block: BlockAddr,
        /// The notice kind.
        kind: EvictKind,
        /// True when the directory no longer tracked the evictor (the
        /// notice raced an invalidation and was dropped).
        stale: bool,
    },
    /// The uncore asked a private cache to invalidate a copy.
    Invalidate(Invalidation),
    /// The uncore asked a private cache to downgrade M/E → S.
    Downgrade(Downgrade),
    /// The caller reported dirty data for a downgraded copy.
    SharingWriteback {
        /// Socket of the downgraded owner.
        socket: SocketId,
        /// The block.
        block: BlockAddr,
    },
    /// The caller reported dirty data for a DEV-invalidated copy.
    DevRecall {
        /// Socket of the invalidated owner.
        socket: SocketId,
        /// The block.
        block: BlockAddr,
    },
    /// The caller reported dirty data for an inclusion-invalidated copy.
    InclusionWriteback {
        /// Socket of the invalidated owner.
        socket: SocketId,
        /// The block.
        block: BlockAddr,
    },
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::Access {
                socket,
                core,
                block,
                op,
                grant,
            } => write!(
                f,
                "access  s{}/c{} {:?} {:?} -> {:?}",
                socket.0, core.0, block, op, grant
            ),
            AuditEvent::Evict {
                socket,
                core,
                block,
                kind,
                stale,
            } => write!(
                f,
                "evict   s{}/c{} {:?} {:?}{}",
                socket.0,
                core.0,
                block,
                kind,
                if *stale { " (stale, dropped)" } else { "" }
            ),
            AuditEvent::Invalidate(i) => write!(
                f,
                "inval   s{}/c{} {:?} ({:?})",
                i.socket.0, i.core.0, i.block, i.reason
            ),
            AuditEvent::Downgrade(d) => {
                write!(f, "downgr  s{}/c{} {:?}", d.socket.0, d.core.0, d.block)
            }
            AuditEvent::SharingWriteback { socket, block } => {
                write!(f, "sh-wb   s{} {:?}", socket.0, block)
            }
            AuditEvent::DevRecall { socket, block } => {
                write!(f, "dev-wb  s{} {:?}", socket.0, block)
            }
            AuditEvent::InclusionWriteback { socket, block } => {
                write!(f, "inc-wb  s{} {:?}", socket.0, block)
            }
        }
    }
}

/// A bounded ring buffer of the most recent protocol events. The oracle
/// dumps it on every violation; it is also usable standalone as a cheap
/// protocol tracer.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    buf: std::collections::VecDeque<AuditEvent>,
    cap: usize,
}

impl EventLog {
    /// Creates a log keeping the most recent `cap` events.
    pub fn new(cap: usize) -> Self {
        EventLog {
            buf: std::collections::VecDeque::with_capacity(cap.max(1)),
            cap: cap.max(1),
        }
    }

    /// Maximum number of events retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records an event, dropping the oldest once full.
    pub fn push(&mut self, e: AuditEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(e);
    }

    /// Iterates the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &AuditEvent> {
        self.buf.iter()
    }

    /// Renders the retained events, oldest first, one per line.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "last {} protocol events (oldest first):", self.len());
        for e in self.iter() {
            let _ = writeln!(s, "  {e}");
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Shadow model
// ---------------------------------------------------------------------------

/// The shadow view of one block: which cores hold it, per socket, and which
/// single core (if any) was granted E or M. A silent E→M upgrade is
/// invisible on the wire, so the owner slot means "E-or-M"; the eviction
/// notice kind reveals the final state and is cross-checked on the way out.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ShadowBlock {
    holders: Vec<SharerSet>,
    owner: Option<(SocketId, CoreId)>,
}

impl ShadowBlock {
    fn new(sockets: usize) -> Self {
        ShadowBlock {
            holders: vec![SharerSet::default(); sockets],
            owner: None,
        }
    }

    fn total_holders(&self) -> u32 {
        self.holders.iter().map(|h| h.count()).sum()
    }
}

/// Per-transaction counter snapshot, taken at the top of `System::access`
/// so the delta checks survive the post-warmup stats reset.
#[derive(Clone, Copy, Default, Debug)]
struct StatsSnap {
    core_cache_misses: u64,
    upgrades: u64,
    llc_hits: u64,
    llc_misses: u64,
}

impl StatsSnap {
    fn of(stats: &Stats) -> Self {
        StatsSnap {
            core_cache_misses: stats.core_cache_misses,
            upgrades: stats.upgrades,
            llc_hits: stats.llc_hits,
            llc_misses: stats.llc_misses,
        }
    }
}

/// How many transactions pass between the machine-wide checks: the
/// spilled-lines gauge, the stats conservation laws and
/// [`System::check_invariants`], all O(LLC lines). Per-block checks run in
/// every hook over the blocks that hook's flow mutated; the walk over the
/// whole shadow map runs only at the end of a run ([`Oracle::full_sweep`]).
const SWEEP_EVERY: u64 = 4096;

/// Default event-log depth.
const LOG_DEPTH: usize = 64;

/// The invariant checker. One instance lives inside [`System`] when
/// auditing is enabled (see [`System::enable_audit`]); it observes the
/// transaction stream through crate-internal hooks and panics on the first
/// violation. All of its reads go through recency-neutral peek accessors,
/// so an audited run produces byte-identical statistics to an unaudited
/// one.
#[derive(Clone, Debug)]
pub struct Oracle {
    sockets: usize,
    zerodev: bool,
    llc_design: LlcDesign,
    /// Sharer sets are exact: full-map segments and a non-region directory.
    exact: bool,
    /// Per-block directory tracking is checked at all (MgD region entries
    /// are synthesised at a coarser grain and are audited only as
    /// supersets).
    precise_dir: bool,
    shadow: FlatMap<ShadowBlock>,
    log: EventLog,
    txns: u64,
    snap: StatsSnap,
    /// Blocks whose checked state the current flow changed (engine side,
    /// filled through [`System`]'s choke points) or the current hook
    /// changed (shadow side). Every hook checks and drains it, so it is
    /// never live between transactions.
    mutated: Vec<BlockAddr>,
    /// Every block a hook checked, in order (the recorded-set completeness
    /// test reads it).
    #[cfg(test)]
    checked: Vec<BlockAddr>,
}

impl Oracle {
    /// Builds an oracle for the machine in `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let precise_dir = !matches!(cfg.directory, DirectoryKind::MultiGrain { .. });
        let fullmap = cfg
            .zerodev
            .map(|z| z.segment_format == SegmentFormat::FullMap)
            .unwrap_or(true);
        Oracle {
            sockets: cfg.sockets,
            zerodev: cfg.zerodev.is_some(),
            llc_design: cfg.llc_design,
            exact: precise_dir && fullmap,
            precise_dir,
            shadow: FlatMap::new(),
            log: EventLog::new(LOG_DEPTH),
            txns: 0,
            snap: StatsSnap::default(),
            mutated: Vec::new(),
            #[cfg(test)]
            checked: Vec::new(),
        }
    }

    /// Transactions observed so far.
    pub fn transactions(&self) -> u64 {
        self.txns
    }

    /// The event ring buffer (diagnostics).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    /// Serializes the audit state that affects behaviour: the transaction
    /// count (sweep cadence) and the shadow map, in sorted block order so
    /// the image is deterministic. The event ring buffer is diagnostics
    /// only and restores empty; the per-transaction stats snapshot and the
    /// mutated-block list are never live between transactions and restore
    /// to their defaults.
    pub fn snap(&self, w: &mut zerodev_common::snap::SnapWriter) {
        let Oracle {
            sockets: _,     // audit mode flag, config-derived
            zerodev: _,     // audit mode flag, config-derived
            llc_design: _,  // audit mode flag, config-derived
            exact: _,       // audit mode flag, config-derived
            precise_dir: _, // audit mode flag, config-derived
            shadow,
            log: _, // diagnostics only; restores empty
            txns,
            snap: _,    // never live between transactions
            mutated: _, // drained by every hook
            #[cfg(test)]
                checked: _,
        } = self;
        w.u64(*txns);
        let mut blocks: Vec<BlockAddr> = shadow.iter().map(|(k, _)| BlockAddr(k)).collect();
        blocks.sort_unstable();
        w.usize(blocks.len());
        for b in blocks {
            w.u64(b.0);
            let ShadowBlock { holders, owner } = shadow.get(b.0).expect("listed key");
            w.usize(holders.len());
            for h in holders {
                w.u128(h.0);
            }
            match owner {
                Some((s, c)) => {
                    w.bool(true);
                    w.u8(s.0);
                    w.u16(c.0);
                }
                None => w.bool(false),
            }
        }
    }

    /// Restores an [`Oracle::snap`] image into this oracle, which must have
    /// been freshly built for the same configuration ([`Oracle::new`]).
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on
    /// decode error or a holder vector sized for a different socket count.
    pub fn unsnap(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        let Oracle {
            sockets,
            zerodev: _,     // audit mode flag, config-derived
            llc_design: _,  // audit mode flag, config-derived
            exact: _,       // audit mode flag, config-derived
            precise_dir: _, // audit mode flag, config-derived
            shadow,
            log,
            txns,
            snap,
            mutated,
            #[cfg(test)]
                checked: _,
        } = self;
        *txns = r.u64("oracle txns")?;
        let n = r.usize("oracle shadow len")?;
        let mut image = FlatMap::with_capacity(n);
        for _ in 0..n {
            let block = BlockAddr(r.u64("oracle shadow block")?);
            let holders_len = r.usize("oracle holders len")?;
            if holders_len != *sockets {
                return Err(SnapError::Corrupt {
                    context: "oracle holders len",
                });
            }
            let mut holders = Vec::with_capacity(holders_len);
            for _ in 0..holders_len {
                holders.push(SharerSet(r.u128("oracle holder set")?));
            }
            let owner = if r.bool("oracle owner flag")? {
                Some((
                    SocketId(r.u8("oracle owner socket")?),
                    CoreId(r.u16("oracle owner core")?),
                ))
            } else {
                None
            };
            image.insert(block.0, ShadowBlock { holders, owner });
        }
        *shadow = image;
        *log = EventLog::new(LOG_DEPTH);
        *snap = StatsSnap::default();
        mutated.clear();
        Ok(())
    }

    // -- hooks ------------------------------------------------------------

    /// Called at the top of `System::access`, before any counter moves.
    pub(crate) fn begin_access(&mut self, stats: &Stats) {
        self.snap = StatsSnap::of(stats);
    }

    /// Records that the running flow changed `block`'s dedicated entry, LLC
    /// line, housed segment, corruption flag or socket-directory entry.
    #[inline]
    pub(crate) fn record(&mut self, block: BlockAddr) {
        self.mutated.push(block);
    }

    /// Called at the end of `System::access` with the transaction outcome.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn after_access(
        &mut self,
        sys: &System,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        op: Op,
        grant: MesiState,
        invals: &[Invalidation],
        downgrades: &[Downgrade],
    ) {
        self.txns += 1;
        // Apply the transaction to the shadow map in the same order the
        // engine's synchronous directory applied it: downgrades, then
        // invalidations, then the grant.
        for d in downgrades {
            self.log.push(AuditEvent::Downgrade(*d));
            self.mutated.push(d.block);
            let sb = self.entry(d.block);
            if sb.owner == Some((d.socket, d.core)) {
                sb.owner = None;
            }
        }
        for i in invals {
            self.apply_inval(sys, i);
        }
        if op == Op::Upgrade {
            let sb = self.entry(block);
            if !sb.holders[socket.0 as usize].contains(core) {
                self.fail(sys, block, "upgrade issued by a core that holds no S copy");
            }
        }
        let sb = self.entry(block);
        sb.holders[socket.0 as usize].insert(core);
        match grant {
            MesiState::Modified | MesiState::Exclusive => sb.owner = Some((socket, core)),
            MesiState::Shared => {}
            MesiState::Invalid => self.fail(sys, block, "access granted Invalid"),
        }
        self.log.push(AuditEvent::Access {
            socket,
            core,
            block,
            op,
            grant,
        });

        self.check_access_stat_deltas(sys, block, op);
        self.check_mutated(sys, block);
        if self.txns.is_multiple_of(SWEEP_EVERY) {
            self.check_machine(sys);
        }
    }

    /// Called at the end of `System::evict` with the churn it caused.
    pub(crate) fn after_evict(
        &mut self,
        sys: &System,
        socket: SocketId,
        core: CoreId,
        block: BlockAddr,
        kind: EvictKind,
        invals: &[Invalidation],
    ) {
        let sb = self.entry(block);
        let held = sb.holders[socket.0 as usize].contains(core);
        let was_owner = sb.owner == Some((socket, core));
        self.log.push(AuditEvent::Evict {
            socket,
            core,
            block,
            kind,
            stale: !held,
        });
        if held {
            // The notice kind reveals the private state at eviction and
            // must agree with the grant history (silent E→M upgrades stay
            // within the owner slot).
            match kind {
                EvictKind::Dirty | EvictKind::CleanExclusive if !was_owner => {
                    self.fail(sys, block, "M/E eviction notice from a non-owner")
                }
                EvictKind::CleanShared if was_owner => {
                    self.fail(sys, block, "owner sent a shared-clean eviction notice")
                }
                _ => {}
            }
            let sb = self.entry(block);
            sb.holders[socket.0 as usize].remove(core);
            if was_owner {
                sb.owner = None;
            }
        }
        for i in invals {
            self.apply_inval(sys, i);
        }
        self.check_mutated(sys, block);
    }

    /// Called after `System::dev_dirty_recall_into` (baseline
    /// configurations).
    pub(crate) fn after_dev_recall(
        &mut self,
        sys: &System,
        socket: SocketId,
        block: BlockAddr,
        invals: &[Invalidation],
    ) {
        self.log.push(AuditEvent::DevRecall { socket, block });
        for i in invals {
            self.apply_inval(sys, i);
        }
        self.check_mutated(sys, block);
    }

    /// Called after `System::sharing_writeback`.
    pub(crate) fn after_sharing_writeback(
        &mut self,
        sys: &System,
        socket: SocketId,
        block: BlockAddr,
    ) {
        self.log
            .push(AuditEvent::SharingWriteback { socket, block });
        self.check_mutated(sys, block);
    }

    /// Called after `System::inclusion_dirty_writeback`.
    pub(crate) fn after_inclusion_writeback(
        &mut self,
        sys: &System,
        socket: SocketId,
        block: BlockAddr,
    ) {
        self.log
            .push(AuditEvent::InclusionWriteback { socket, block });
        self.check_mutated(sys, block);
    }

    // -- shadow updates ---------------------------------------------------

    fn entry(&mut self, block: BlockAddr) -> &mut ShadowBlock {
        let sockets = self.sockets;
        if !self.shadow.contains_key(block.0) {
            self.shadow.insert(block.0, ShadowBlock::new(sockets));
        }
        self.shadow.get_mut(block.0).expect("just inserted")
    }

    fn apply_inval(&mut self, sys: &System, i: &Invalidation) {
        self.log.push(AuditEvent::Invalidate(*i));
        self.mutated.push(i.block);
        if self.zerodev && i.reason == InvalReason::Dev {
            self.fail(
                sys,
                i.block,
                "a ZeroDEV configuration emitted a directory-eviction victim (DEV)",
            );
        }
        let exact = self.exact;
        let sb = self.entry(i.block);
        let s = i.socket.0 as usize;
        if !sb.holders[s].contains(i.core) {
            // Imprecise formats (coarse segments, region entries) legally
            // over-invalidate; the spurious message is acknowledged and
            // ignored. Under precise tracking it is a protocol bug.
            if exact {
                self.fail(sys, i.block, "invalidation sent to a core holding no copy");
            }
            return;
        }
        sb.holders[s].remove(i.core);
        if sb.owner == Some((i.socket, i.core)) {
            sb.owner = None;
        }
    }

    // -- checks -----------------------------------------------------------

    /// Runs [`Self::check_block`] once over each distinct block the hook's
    /// flow or shadow update mutated, plus the hook's own `block`, and
    /// drains the list.
    fn check_mutated(&mut self, sys: &System, block: BlockAddr) {
        let mut mutated = std::mem::take(&mut self.mutated);
        mutated.push(block);
        mutated.sort_unstable();
        mutated.dedup();
        for &b in &mutated {
            self.check_block(sys, b);
        }
        #[cfg(test)]
        self.checked.extend_from_slice(&mutated);
        mutated.clear();
        self.mutated = mutated;
    }

    fn check_access_stat_deltas(&mut self, sys: &System, block: BlockAddr, op: Op) {
        let stats = &sys.stats;
        let d_miss = stats.core_cache_misses - self.snap.core_cache_misses;
        let d_upg = stats.upgrades - self.snap.upgrades;
        if d_miss + d_upg != 1 {
            self.fail(
                sys,
                block,
                "one access must count exactly one core-cache miss or upgrade",
            );
        }
        if (op == Op::Upgrade) != (d_upg == 1) {
            self.fail(sys, block, "access counted under the wrong class");
        }
        let d_llc =
            (stats.llc_hits - self.snap.llc_hits) + (stats.llc_misses - self.snap.llc_misses);
        if d_llc > 1 {
            self.fail(sys, block, "one access counted more than one LLC hit/miss");
        }
        self.check_stats(sys, block);
    }

    /// Message-byte totals must equal per-class counts times the class
    /// size, and a ZeroDEV machine must never have counted a DEV.
    fn check_stats(&self, sys: &System, block: BlockAddr) {
        let stats = &sys.stats;
        for (i, c) in ALL_CLASSES.iter().enumerate() {
            if stats.msg_bytes[i] != stats.msg_counts[i] * c.bytes() {
                self.fail(
                    sys,
                    block,
                    &format!(
                        "message-byte conservation broken for {:?}: {} bytes from {} messages of {} bytes",
                        c, stats.msg_bytes[i], stats.msg_counts[i], c.bytes()
                    ),
                );
            }
        }
        if self.zerodev && stats.dev_invalidations != 0 {
            self.fail(sys, block, "ZeroDEV machine counted DEV invalidations");
        }
        if stats.dram_writes_dir != stats.dir_llc_evictions {
            self.fail(
                sys,
                block,
                "every directory LLC eviction must write home memory exactly once (WB_DE)",
            );
        }
    }

    /// Checks every invariant that can be stated about a single block.
    /// Exposed within the crate so [`System::audit_check_block`] can verify
    /// a block corrupted from outside any flow (fault injection), which no
    /// hook would otherwise check before the end-of-run sweep.
    pub(crate) fn check_block(&self, sys: &System, block: BlockAddr) {
        let mem = sys.memory();
        let corrupted = mem.is_corrupted(block);
        let fallback;
        let sb = match self.shadow.get(block.0) {
            Some(sb) => sb,
            None => {
                // A home block becomes corrupted only through an observed
                // transaction, which puts it in the shadow map.
                if corrupted {
                    self.fail(
                        sys,
                        block,
                        "corrupted block never seen in the access stream",
                    );
                }
                fallback = ShadowBlock::new(self.sockets);
                &fallback
            }
        };
        let sd = mem.socket_dir_peek(sys.config().home_socket(block), block);
        let mut llc_data_somewhere = false;

        for s in 0..self.sockets {
            let sid = SocketId(s as u8);
            let holders = sb.holders[s];
            let entry = sys.entry_of(sid, block);
            let segment = mem.peek_entry(block, sid);
            let line = sys.llc_line_of(sid, block);
            if matches!(line, Some(LlcLine::Data { .. })) {
                llc_data_somewhere = true;
            }

            if entry.is_some() && segment.is_some() {
                self.fail(
                    sys,
                    block,
                    &format!("socket {s}: entry lives both in the socket and housed at home"),
                );
            }
            let tracked = entry.or(segment);
            match tracked {
                Some(e) => {
                    if e.is_dead() {
                        self.fail(sys, block, &format!("socket {s}: dead entry kept live"));
                    }
                    for c in holders.iter() {
                        if !e.sharers.contains(c) {
                            self.fail(
                                sys,
                                block,
                                &format!(
                                    "socket {s}: directory lost true holder c{} (precision ⊇ broken)",
                                    c.0
                                ),
                            );
                        }
                    }
                    if self.exact {
                        if e.sharers != holders {
                            self.fail(
                                sys,
                                block,
                                &format!("socket {s}: sharer set not exact under a precise format"),
                            );
                        }
                        match sb.owner {
                            Some((os, oc)) if os == sid => {
                                if !e.state.is_owned() || e.owner() != Some(oc) {
                                    self.fail(
                                        sys,
                                        block,
                                        &format!("socket {s}: directory owner differs from true owner c{}", oc.0),
                                    );
                                }
                            }
                            _ => {
                                if e.state.is_owned() {
                                    self.fail(
                                        sys,
                                        block,
                                        &format!("socket {s}: directory claims M/E but no core owns the block"),
                                    );
                                }
                            }
                        }
                    }
                }
                None => {
                    if self.precise_dir && !holders.is_empty() {
                        self.fail(
                            sys,
                            block,
                            &format!("socket {s}: private holders with no tracking entry anywhere"),
                        );
                    }
                }
            }

            match self.llc_design {
                LlcDesign::Inclusive => {
                    if !holders.is_empty() && !line.as_ref().is_some_and(LlcLine::holds_block) {
                        self.fail(
                            sys,
                            block,
                            &format!("socket {s}: inclusive LLC lost a privately held block"),
                        );
                    }
                }
                LlcDesign::Epd => {
                    if sb.owner.is_some_and(|(os, _)| os == sid)
                        && line.as_ref().is_some_and(LlcLine::holds_block)
                    {
                        self.fail(
                            sys,
                            block,
                            &format!("socket {s}: EPD LLC holds an owner-tracked block"),
                        );
                    }
                }
                LlcDesign::NonInclusive => {}
            }

            if self.sockets > 1 {
                let trace =
                    !holders.is_empty() || entry.is_some() || segment.is_some() || line.is_some();
                if trace && !sd.is_some_and(|e| e.sharers.contains(sid)) {
                    self.fail(
                        sys,
                        block,
                        &format!("socket-level directory lost sharing socket {s}"),
                    );
                }
            }
        }

        // SWMR: an owner tolerates no second copy anywhere.
        if let Some((os, oc)) = sb.owner {
            if sb.total_holders() != 1 {
                self.fail(
                    sys,
                    block,
                    &format!(
                        "SWMR broken: s{}/c{} owns the block but {} copies exist",
                        os.0,
                        oc.0,
                        sb.total_holders()
                    ),
                );
            }
            if !sb.holders[os.0 as usize].contains(oc) {
                self.fail(sys, block, "owner lost its own copy");
            }
        }

        // Socket-level ownership must cover any core-level owner, and an
        // owned socket entry is exclusive by construction.
        if self.sockets > 1 {
            if let Some((os, _)) = sb.owner {
                if !sd.is_some_and(|e| e.owned && e.owner() == Some(os)) {
                    self.fail(
                        sys,
                        block,
                        &format!(
                            "socket-level directory does not record owning socket s{}",
                            os.0
                        ),
                    );
                }
            }
            if let Some(e) = sd {
                if e.owned && e.sharers.count() != 1 {
                    self.fail(
                        sys,
                        block,
                        "socket-level entry is owned but lists multiple sharer sockets",
                    );
                }
            }
        }

        // Corrupted-block safety (§III-D): the data must live on somewhere.
        if corrupted && sb.total_holders() == 0 && !llc_data_somewhere {
            self.fail(
                sys,
                block,
                "home copy corrupted with no private holder and no LLC data line",
            );
        }
        if let Some(cb) = mem.corrupted_block(block) {
            for sid in cb.sockets().iter() {
                let seg = cb.segment(sid).expect("listed socket has a segment");
                if seg.is_dead() {
                    self.fail(
                        sys,
                        block,
                        &format!("housed segment of socket {} tracks nobody", sid.0),
                    );
                }
            }
        }
    }

    /// Walks every block of the shadow map and every corrupted home block,
    /// then runs the machine-wide checks. Runs once at the end of an audited
    /// run (see [`System::audit_sweep`]): a corruption planted outside any
    /// flow on a block no later transaction touches is caught here.
    pub fn full_sweep(&self, sys: &System) {
        let mut blocks: Vec<BlockAddr> = self.shadow.iter().map(|(k, _)| BlockAddr(k)).collect();
        blocks.sort_unstable();
        for b in blocks {
            self.check_block(sys, b);
        }
        for (b, _) in sys.memory().corrupted_blocks() {
            if !self.shadow.contains_key(b.0) {
                self.check_block(sys, b); // fails: never seen in the stream
            }
        }
        self.check_machine(sys);
    }

    /// The machine-wide checks, O(LLC lines): the spilled-lines gauge, the
    /// stats conservation laws and [`System::check_invariants`]. Every
    /// [`SWEEP_EVERY`] transactions and at the end of a run.
    fn check_machine(&self, sys: &System) {
        // Gauge conservation: the spilled-lines gauge tracks the real LLC.
        let actual: usize = (0..self.sockets)
            .map(|s| sys.spilled_lines(SocketId(s as u8)))
            .sum();
        if sys.stats.spilled_lines_current != actual as u64 {
            panic!(
                "coherence oracle violation: spilled-lines gauge ({}) diverged from the LLC ({})\n{}",
                sys.stats.spilled_lines_current,
                actual,
                self.log.dump()
            );
        }
        self.check_stats(sys, BlockAddr(0));
        // Structural walker shared with the property tests.
        sys.check_invariants();
    }

    // -- violation reporting ----------------------------------------------

    /// Renders everything known about `block` (shadow and engine state).
    fn describe_block(&self, sys: &System, block: BlockAddr) -> String {
        let mut out = String::new();
        let mem = sys.memory();
        match self.shadow.get(block.0) {
            Some(sb) => {
                let _ = writeln!(out, "  shadow owner: {:?}", sb.owner);
                for (s, h) in sb.holders.iter().enumerate() {
                    if !h.is_empty() {
                        let _ = writeln!(out, "  shadow holders s{s}: {h:?}");
                    }
                }
            }
            None => {
                let _ = writeln!(out, "  shadow: block never accessed");
            }
        }
        for s in 0..self.sockets {
            let sid = SocketId(s as u8);
            let _ = writeln!(
                out,
                "  s{s}: entry={:?} segment={:?} llc={:?}",
                sys.entry_of(sid, block),
                mem.peek_entry(block, sid),
                sys.llc_line_of(sid, block),
            );
        }
        if self.sockets > 1 {
            let _ = writeln!(
                out,
                "  socket dir: {:?}",
                mem.socket_dir_peek(sys.config().home_socket(block), block)
            );
        }
        let _ = writeln!(out, "  memory corrupted: {}", mem.is_corrupted(block));
        out
    }

    fn fail(&self, sys: &System, block: BlockAddr, why: &str) -> ! {
        panic!(
            "coherence oracle violation: {why}\nblock {:?} state after {} transactions:\n{}{}",
            block,
            self.txns,
            self.describe_block(sys, block),
            self.log.dump()
        );
    }
}

#[cfg(test)]
mod recorded_set;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_is_bounded_and_ordered() {
        let mut log = EventLog::new(4);
        for i in 0..10u64 {
            log.push(AuditEvent::SharingWriteback {
                socket: SocketId(0),
                block: BlockAddr(i),
            });
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.capacity(), 4);
        let blocks: Vec<u64> = log
            .iter()
            .map(|e| match e {
                AuditEvent::SharingWriteback { block, .. } => block.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(blocks, vec![6, 7, 8, 9]);
        assert!(log.dump().contains("sh-wb"));
    }

    #[test]
    fn event_display_is_compact() {
        let e = AuditEvent::Invalidate(Invalidation {
            socket: SocketId(1),
            core: CoreId(3),
            block: BlockAddr(0x40),
            reason: InvalReason::Coherence,
        });
        let s = format!("{e}");
        assert!(s.contains("s1/c3"), "{s}");
        assert!(s.contains("Coherence"), "{s}");
    }
}
