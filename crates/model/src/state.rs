//! Canonical state encoding with core-ID symmetry reduction.
//!
//! A state is everything protocol-visible: per-core shadow MESI states, the
//! symbolic write tokens, directory entries wherever they live (dedicated
//! structure, spilled/fused LLC lines, housed home-memory segments), LLC set
//! contents in MRU→LRU order (replacement order steers future spills and
//! victims, so it is state), home-block corruption, and the socket-level
//! directory. Timing (cycles, port busy-times, DRAM state) and statistics
//! are excluded: they never influence a protocol decision.
//!
//! Cores within a socket are interchangeable: relabelling them yields a
//! behaviourally identical machine (every protocol rule is covariant under
//! the relabelling, and only timing — which we exclude — distinguishes core
//! indices). The canonical key is therefore the minimum encoding over the
//! product of per-socket core permutations, which shrinks the explored
//! graph by up to `cores!^sockets`.
//!
//! [`canonical_key`] reads the machine once into a `View`, then encodes
//! that view under each relabelling into one reused buffer, keeping the
//! smallest. Relabellings come from a fixed table (`PERMS`), so the cost
//! per permutation is a walk over a few dozen bytes with no allocation and
//! no further reads of the machine. The table covers at most
//! [`MAX_CORES`] cores per socket on at most [`MAX_SOCKETS`] sockets, the
//! limits [`crate::config::tiny`] enforces.

use zerodev_common::{BlockAddr, CoreId, MesiState, SocketId};
use zerodev_core::llc::LlcLine;
use zerodev_core::memdir::SocketDirEntry;
use zerodev_core::step::{ProtocolHarness, WriteToken};
use zerodev_core::DirEntry;

/// Most cores per socket the permutation table covers.
pub const MAX_CORES: usize = 4;

/// Most sockets [`canonical_key`] encodes.
pub const MAX_SOCKETS: usize = 2;

/// One socket's relabelling: `perm[core] = new core index`. Entries at and
/// beyond the socket's core count are the identity.
type Perm = [u8; MAX_CORES];

/// `MAX_CORES!`.
const PERM_COUNT: usize = 24;

/// Every permutation of `0..MAX_CORES`, ordered so that the first `n!`
/// are exactly the permutations of `0..n` (each fixing `n..`).
const PERMS: [Perm; PERM_COUNT] = perm_table();

/// Builds [`PERMS`]: the permutations of `0..=n` are those of `0..n` with
/// `n` kept in place (the existing prefix), followed by those with `n`
/// inserted at each earlier position.
const fn perm_table() -> [Perm; PERM_COUNT] {
    let mut table = [[0, 1, 2, 3]; PERM_COUNT];
    let mut len = 1;
    let mut n = 1;
    while n < MAX_CORES {
        let mut out = len;
        let mut pos = n;
        while pos > 0 {
            pos -= 1;
            let mut j = 0;
            while j < len {
                let mut p = table[j];
                let mut k = n;
                while k > pos {
                    p[k] = p[k - 1];
                    k -= 1;
                }
                p[pos] = n as u8;
                table[out] = p;
                out += 1;
                j += 1;
            }
        }
        len = out;
        n += 1;
    }
    table
}

/// The `n!` relabellings of a socket with `n` cores.
fn perms(n: usize) -> &'static [Perm] {
    &PERMS[..(1..=n).product::<usize>()]
}

fn mesi_byte(s: MesiState) -> u8 {
    match s {
        MesiState::Invalid => 0,
        MesiState::Shared => 1,
        MesiState::Exclusive => 2,
        MesiState::Modified => 3,
    }
}

/// Relabels a per-socket sharer vector, walking only its set bits.
fn remap_sharers(bits: u128, perm: &Perm, cores: usize) -> u128 {
    let mut out = 0u128;
    let mut rest = bits;
    while rest != 0 {
        let c = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        assert!(c < cores, "core id within socket");
        out |= 1 << perm[c];
    }
    out
}

/// Relabels a vector of global core indices (`socket * cores + core`).
fn remap_global_cores(bits: u128, perm: &[Perm], cores: usize) -> u128 {
    let mut out = 0u128;
    let mut rest = bits;
    while rest != 0 {
        let g = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let p = perm.get(g / cores).expect("global core within machine");
        out |= 1 << (g - g % cores + p[g % cores] as usize);
    }
    out
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_entry(out: &mut Vec<u8>, e: Option<DirEntry>, perm: &Perm, cores: usize) {
    match e {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            out.push(if e.state.is_owned() { 1 } else { 2 });
            push_u128(out, remap_sharers(e.sharers.0, perm, cores));
        }
    }
}

fn push_line(out: &mut Vec<u8>, block: BlockAddr, line: &LlcLine, perm: &Perm, cores: usize) {
    push_u64(out, block.0);
    match line {
        LlcLine::Data { dirty } => {
            out.push(1);
            out.push(u8::from(*dirty));
        }
        LlcLine::Spilled { entry } => {
            out.push(2);
            push_entry(out, Some(*entry), perm, cores);
        }
        LlcLine::Fused { entry, block_dirty } => {
            out.push(3);
            out.push(u8::from(*block_dirty));
            push_entry(out, Some(*entry), perm, cores);
        }
    }
}

/// Everything protocol-visible about one tracked block.
#[derive(Clone, Copy, Debug)]
struct BlockView {
    /// Shadow MESI bytes, `[socket][core]`.
    shadow: [[u8; MAX_CORES]; MAX_SOCKETS],
    token: WriteToken,
    /// Entry in each socket's dedicated directory structure.
    dedicated: [Option<DirEntry>; MAX_SOCKETS],
    /// The home-memory copy is corrupted.
    corrupted: bool,
    /// Each socket's segment housed in the corrupted home block.
    housed: [Option<DirEntry>; MAX_SOCKETS],
    /// Socket-level directory entry at the block's home.
    socket_dir: Option<SocketDirEntry>,
}

/// One read of a harness state, encodable under any relabelling.
#[derive(Debug)]
struct View {
    cores: usize,
    blocks: Vec<BlockView>,
    /// Distinct LLC sets in encoding order, as `(socket, line count)`;
    /// their lines follow one another in `lines`.
    sets: Vec<(usize, usize)>,
    /// LLC lines of every set in `sets`, each set MRU→LRU.
    lines: Vec<(BlockAddr, LlcLine)>,
}

impl View {
    fn read(h: &ProtocolHarness) -> Self {
        let (sockets, cores) = (h.sockets(), h.cores());
        let sys = h.system();
        let cfg = sys.config();
        let mem = sys.memory();
        let blocks = h
            .blocks()
            .iter()
            .map(|&block| {
                let mut v = BlockView {
                    shadow: [[0; MAX_CORES]; MAX_SOCKETS],
                    token: h.token(block),
                    dedicated: [None; MAX_SOCKETS],
                    corrupted: sys.memory_corrupted(block),
                    housed: [None; MAX_SOCKETS],
                    // Socket IDs are not permuted: homes are
                    // address-determined.
                    socket_dir: mem.socket_dir_peek(cfg.home_socket(block), block),
                };
                for s in 0..sockets {
                    let sid = SocketId(s as u8);
                    for c in 0..cores {
                        v.shadow[s][c] = mesi_byte(h.shadow_state(sid, CoreId(c as u16), block));
                    }
                    v.dedicated[s] = sys.dedicated_entry_of(sid, block);
                    v.housed[s] = mem.peek_entry(block, sid);
                }
                v
            })
            .collect();
        let banks = cfg.llc_banks as u64;
        let llc_sets = cfg.llc_sets_per_bank() as u64;
        let bank_set = |b: BlockAddr| (b.0 % banks, (b.0 / banks) % llc_sets);
        let mut sets = Vec::new();
        let mut lines = Vec::new();
        for s in 0..sockets {
            for (i, &block) in h.blocks().iter().enumerate() {
                // One entry per distinct (bank, set): skip sets an earlier
                // block already covered.
                if h.blocks()[..i]
                    .iter()
                    .any(|&b| bank_set(b) == bank_set(block))
                {
                    continue;
                }
                let before = lines.len();
                lines.extend(
                    sys.llc_set_of(SocketId(s as u8), block)
                        .map(|(b, line)| (b, *line)),
                );
                sets.push((s, lines.len() - before));
            }
        }
        View {
            cores,
            blocks,
            sets,
            lines,
        }
    }

    /// Encodes the view under `perm` (one relabelling per socket) into
    /// `out`, replacing its contents.
    fn encode(&self, perm: &[Perm], out: &mut Vec<u8>) {
        out.clear();
        let cores = self.cores;
        for b in &self.blocks {
            // Shadow states, emitted in relabelled core order.
            for (p, shadow) in perm.iter().zip(&b.shadow) {
                let mut row = [0u8; MAX_CORES];
                for (orig, &st) in shadow.iter().enumerate().take(cores) {
                    row[p[orig] as usize] = st;
                }
                out.extend_from_slice(&row[..cores]);
            }
            // Symbolic write token.
            push_u128(out, remap_global_cores(b.token.cores, perm, cores));
            out.extend_from_slice(&b.token.llc.to_le_bytes());
            out.push(u8::from(b.token.mem));
            for (p, &e) in perm.iter().zip(&b.dedicated) {
                push_entry(out, e, p, cores);
            }
            out.push(u8::from(b.corrupted));
            for (p, &e) in perm.iter().zip(&b.housed) {
                push_entry(out, e, p, cores);
            }
            match b.socket_dir {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    out.push(u8::from(e.owned));
                    out.extend_from_slice(&e.sharers.0.to_le_bytes());
                }
            }
        }
        let mut lines = self.lines.iter();
        for &(s, n) in &self.sets {
            out.push(n as u8);
            for (block, line) in lines.by_ref().take(n) {
                push_line(out, *block, line, &perm[s], cores);
            }
        }
    }
}

/// The canonical (symmetry-reduced) encoding of a harness state: the
/// minimum byte encoding over every per-socket core relabelling.
///
/// # Panics
/// Panics when the machine has more than [`MAX_CORES`] cores per socket or
/// more than [`MAX_SOCKETS`] sockets.
pub fn canonical_key(h: &ProtocolHarness) -> Vec<u8> {
    let (sockets, cores) = (h.sockets(), h.cores());
    assert!(
        (1..=MAX_CORES).contains(&cores) && (1..=MAX_SOCKETS).contains(&sockets),
        "canonical_key covers 1-{MAX_CORES} cores on 1-{MAX_SOCKETS} sockets, got {cores} x {sockets}"
    );
    let view = View::read(h);
    let table = perms(cores);
    let mut best = Vec::with_capacity(256);
    let mut cand = Vec::with_capacity(256);
    let mut perm = [PERMS[0]; MAX_SOCKETS];
    for i in 0..table.len().pow(sockets as u32) {
        let mut rest = i;
        for p in &mut perm[..sockets] {
            *p = table[rest % table.len()];
            rest /= table.len();
        }
        view.encode(&perm[..sockets], &mut cand);
        if i == 0 || cand < best {
            std::mem::swap(&mut best, &mut cand);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;
    use zerodev_common::config::{LlcDesign, SpillPolicy};
    use zerodev_common::rng::Prng;
    use zerodev_core::step::ProtocolEvent;

    #[test]
    fn permutation_table_holds_n_factorial_distinct_permutations() {
        for n in 1..=MAX_CORES {
            let table = perms(n);
            assert_eq!(table.len(), (1..=n).product::<usize>());
            for (i, p) in table.iter().enumerate() {
                let mut sorted = *p;
                sorted[..n].sort_unstable();
                assert_eq!(sorted, PERMS[0], "{p:?} permutes 0..{n} and fixes the rest");
                assert!(!table[..i].contains(p), "{p:?} repeats for n = {n}");
            }
        }
    }

    #[test]
    fn sharer_remap_moves_bits() {
        // Swap cores 0 and 1.
        let swap: Perm = [1, 0, 2, 3];
        assert_eq!(remap_sharers(0b01, &swap, 2), 0b10);
        assert_eq!(remap_sharers(0b11, &swap, 2), 0b11);
    }

    #[test]
    fn global_remap_respects_socket_blocks() {
        // 2 sockets x 2 cores; swap only socket 1's cores.
        let perm: [Perm; 2] = [PERMS[0], [1, 0, 2, 3]];
        // Core g=2 (socket 1, core 0) -> g=3.
        assert_eq!(remap_global_cores(0b0100, &perm, 2), 0b1000);
        // Socket 0 untouched.
        assert_eq!(remap_global_cores(0b0001, &perm, 2), 0b0001);
    }

    /// `ev` with its core relabelled by `perm[socket]`.
    fn relabel(ev: ProtocolEvent, perm: &[Perm]) -> ProtocolEvent {
        let map = |s: SocketId, c: CoreId| CoreId(u16::from(perm[s.0 as usize][c.0 as usize]));
        match ev {
            ProtocolEvent::Access {
                socket,
                core,
                block,
                op,
            } => ProtocolEvent::Access {
                socket,
                core: map(socket, core),
                block,
                op,
            },
            ProtocolEvent::SilentWrite {
                socket,
                core,
                block,
            } => ProtocolEvent::SilentWrite {
                socket,
                core: map(socket, core),
                block,
            },
            ProtocolEvent::Evict {
                socket,
                core,
                block,
                kind,
            } => ProtocolEvent::Evict {
                socket,
                core: map(socket, core),
                block,
                kind,
            },
        }
    }

    #[test]
    fn relabelled_walks_share_canonical_keys() {
        let machines = [
            tiny(
                SpillPolicy::FusePrivateSpillShared,
                LlcDesign::NonInclusive,
                2,
                2,
                1,
                1,
            ),
            tiny(
                SpillPolicy::FusePrivateSpillShared,
                LlcDesign::Inclusive,
                3,
                1,
                1,
                1,
            ),
        ];
        let mut rng = Prng::seeded(0x5eed_cafe);
        for mc in &machines {
            let table = perms(mc.cfg.cores);
            for walk in 0..40 {
                let perm: Vec<Perm> = (0..mc.cfg.sockets)
                    .map(|_| table[rng.below(table.len() as u64) as usize])
                    .collect();
                let mut a = ProtocolHarness::new(mc.cfg.clone(), mc.blocks.clone(), true)
                    .expect("config validates");
                let mut b = a.clone();
                for step in 0..30 {
                    let evs = a.enabled_events();
                    let ev = evs[rng.below(evs.len() as u64) as usize];
                    let ev2 = relabel(ev, &perm);
                    assert!(
                        b.enabled_events().contains(&ev2),
                        "{mc}: walk {walk} step {step}: {ev2} not enabled in the relabelled machine"
                    );
                    a.apply(ev).expect("shipped protocol holds its invariants");
                    b.apply(ev2).expect("shipped protocol holds its invariants");
                    assert_eq!(
                        canonical_key(&a),
                        canonical_key(&b),
                        "{mc}: walk {walk} step {step} under {perm:?}: {ev} vs {ev2}"
                    );
                }
            }
        }
    }
}
