//! The shared test driver: a private-cache model that goes through
//! [`System::apply_effects`] like the simulator does, the random
//! access/evict step the stress and snapshot suites run, and the
//! directory cross-check the stress and protocol suites run.

// Each test binary compiles this module and uses a different subset of it.
#![allow(dead_code)]

use std::collections::HashMap;
use zerodev_common::{BlockAddr, CoreId, Cycle, MesiState, Prng, SocketId, SystemConfig};
use zerodev_core::{system::Downgrade, EvictKind, Invalidation, Op, PrivateCaches, System};

/// Every core's private copies, keyed by `(socket, core, block)`; absent
/// means Invalid.
#[derive(Clone, Default)]
pub struct Lines(HashMap<(u8, u16, u64), MesiState>);

impl Lines {
    pub fn state(&self, s: u8, c: u16, b: BlockAddr) -> MesiState {
        self.0
            .get(&(s, c, b.0))
            .copied()
            .unwrap_or(MesiState::Invalid)
    }

    pub fn set(&mut self, s: u8, c: u16, b: BlockAddr, st: MesiState) {
        if st == MesiState::Invalid {
            self.0.remove(&(s, c, b.0));
        } else {
            self.0.insert((s, c, b.0), st);
        }
    }
}

impl PrivateCaches for Lines {
    fn downgrade(&mut self, socket: SocketId, core: CoreId, block: BlockAddr) -> bool {
        let st = self.state(socket.0, core.0, block);
        assert!(st.is_owned(), "downgrade of {st} line at {block:?}");
        self.set(socket.0, core.0, block, MesiState::Shared);
        st == MesiState::Modified
    }

    fn invalidate(&mut self, socket: SocketId, core: CoreId, block: BlockAddr) -> MesiState {
        let st = self.state(socket.0, core.0, block);
        self.set(socket.0, core.0, block, MesiState::Invalid);
        st
    }
}

/// A machine plus its private caches.
pub struct Model {
    pub sys: System,
    pub lines: Lines,
}

impl Model {
    pub fn new(cfg: SystemConfig) -> Self {
        Model {
            sys: System::new(cfg).expect("valid config"),
            lines: Lines::default(),
        }
    }

    pub fn state(&self, s: u8, c: u16, b: BlockAddr) -> MesiState {
        self.lines.state(s, c, b)
    }

    pub fn set(&mut self, s: u8, c: u16, b: BlockAddr, st: MesiState) {
        self.lines.set(s, c, b, st);
    }

    pub fn apply(&mut self, mut invals: Vec<Invalidation>, mut downs: Vec<Downgrade>) {
        self.sys
            .apply_effects(Cycle(0), &mut invals, &mut downs, &mut self.lines);
    }

    /// One random legal operation on one of `blocks`: an eviction, a write
    /// (silent E→M, upgrade, or RFO) or a read miss. Returns the block it
    /// touched.
    pub fn step(&mut self, rng: &mut Prng, blocks: &[BlockAddr]) -> BlockAddr {
        let s = (rng.below(self.sys.config().sockets as u64)) as u8;
        let c = (rng.below(self.sys.config().cores as u64)) as u16;
        let b = blocks[rng.below(blocks.len() as u64) as usize];
        let st = self.state(s, c, b);
        match rng.below(10) {
            // Evict (if present)
            0..=1 if st.is_valid() => {
                let kind = EvictKind::for_state(st).expect("valid copy");
                let invals = self.sys.evict(Cycle(0), SocketId(s), CoreId(c), b, kind);
                self.set(s, c, b, MesiState::Invalid);
                self.apply(invals, Vec::new());
            }
            // Write
            2..=4 => match st {
                MesiState::Modified => {}
                MesiState::Exclusive => self.set(s, c, b, MesiState::Modified),
                MesiState::Shared => {
                    let r = self
                        .sys
                        .access(Cycle(0), SocketId(s), CoreId(c), b, Op::Upgrade);
                    self.apply(r.invalidations, r.downgrades);
                    self.set(s, c, b, MesiState::Modified);
                }
                MesiState::Invalid => {
                    let r = self
                        .sys
                        .access(Cycle(0), SocketId(s), CoreId(c), b, Op::ReadExclusive);
                    self.apply(r.invalidations, r.downgrades);
                    self.set(s, c, b, r.grant);
                }
            },
            // Read (and occasionally code read)
            _ if st.is_valid() => {}
            _ => {
                let op = if rng.chance(0.1) {
                    Op::CodeRead
                } else {
                    Op::Read
                };
                let r = self.sys.access(Cycle(0), SocketId(s), CoreId(c), b, op);
                self.apply(r.invalidations, r.downgrades);
                self.set(s, c, b, r.grant);
            }
        }
        b
    }

    /// Cross-checks the private copies of `b` against the directory.
    pub fn check_block(&self, b: BlockAddr) {
        for s in 0..self.sys.config().sockets as u8 {
            let mut holders = Vec::new();
            for c in 0..self.sys.config().cores as u16 {
                let st = self.state(s, c, b);
                if st.is_valid() {
                    holders.push((c, st));
                }
            }
            let owners = holders.iter().filter(|(_, st)| st.is_owned()).count();
            assert!(owners <= 1, "SWMR violated at {b:?}: {holders:?}");
            if owners == 1 {
                assert_eq!(holders.len(), 1, "owner+sharers at {b:?}: {holders:?}");
            }
            if holders.is_empty() {
                continue;
            }
            let entry = self.sys.entry_of(SocketId(s), b);
            assert!(
                entry.is_some() || self.sys.memory_corrupted(b),
                "socket {s}: untracked private copies of {b:?}: {holders:?}"
            );
            if let Some(e) = entry {
                for (c, _) in &holders {
                    assert!(
                        e.sharers.contains(CoreId(*c)),
                        "socket {s}: directory lost sharer c{c} of {b:?} (entry {e:?})"
                    );
                }
            }
        }
    }
}
