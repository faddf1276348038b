//! Tiny machine configurations whose reachable state graphs are small
//! enough to enumerate exhaustively, yet rich enough to reach every ZeroDEV
//! mechanism: entry spill and fusion (`DirectoryKind::None` routes *every*
//! entry into the LLC), WB_DE eviction to home memory (degenerate 1-way
//! sets refuse spills; multi-block sets displace spilled entries), GET_DE
//! recall, and corrupted-home-memory reads.

use crate::state::{MAX_CORES, MAX_SOCKETS};
use std::fmt;
use zerodev_common::config::{
    CacheGeometry, DirectoryKind, LlcDesign, SegmentFormat, SpillPolicy, SystemConfig,
    ZeroDevConfig,
};
use zerodev_common::BlockAddr;

/// One machine + block-set the checker explores.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Short label for reports and fixtures.
    pub name: String,
    /// The concrete machine configuration.
    pub cfg: SystemConfig,
    /// The abstract address universe.
    pub blocks: Vec<BlockAddr>,
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Builds the abstracted ZeroDEV machine: `cores` per socket on `sockets`
/// sockets, a single-bank LLC of one set with `llc_ways` ways, no dedicated
/// directory (every entry is LLC-resident), and `addrs` block addresses per
/// socket's home memory.
///
/// With `llc_ways == 1` the block's own data line and its spilled entry
/// compete for the same way, so spills are refused and go straight home via
/// WB_DE; with two addresses, spills displace each other's entries — both
/// corrupted-memory paths stay reachable.
///
/// # Panics
/// Panics when the parameters violate machine limits (the checker only
/// builds configurations from its own matrix).
pub fn tiny(
    policy: SpillPolicy,
    design: LlcDesign,
    cores: usize,
    sockets: usize,
    addrs: usize,
    llc_ways: usize,
) -> ModelConfig {
    assert!(
        (1..=MAX_CORES).contains(&cores),
        "abstract machines stay tiny"
    );
    assert!((1..=MAX_SOCKETS).contains(&sockets), "1-2 sockets");
    assert!((1..=2).contains(&addrs), "1-2 addresses per home");
    let mut cfg = SystemConfig::baseline_8core();
    cfg.cores = cores;
    cfg.sockets = sockets;
    // Private geometries are irrelevant (the harness's shadow cores are
    // unbounded) but must validate.
    cfg.l1i = CacheGeometry::new(1 << 10, 2);
    cfg.l1d = CacheGeometry::new(1 << 10, 2);
    cfg.l2 = CacheGeometry::new(4 << 10, 4);
    // One bank, one set: every tracked block contends for the same ways.
    cfg.llc = CacheGeometry::new(64 * llc_ways, llc_ways);
    cfg.llc_banks = 1;
    cfg.llc_design = design;
    cfg.directory = DirectoryKind::None;
    cfg.zerodev = Some(ZeroDevConfig {
        policy,
        llc_replacement: zerodev_common::config::LlcReplacement::Lru,
        segment_format: SegmentFormat::FullMap,
    });
    // Keep machine snapshots cheap to clone during exploration.
    cfg.socket_dir_cache_sets = 8;
    // Home socket is (block >> 6) % sockets: consecutive block addresses in
    // one 64-block region share a home, the next region homes at the next
    // socket.
    let blocks = (0..sockets)
        .flat_map(|s| (0..addrs).map(move |a| BlockAddr((s as u64) * 64 + a as u64)))
        .collect();
    let name =
        format!("{policy}/{design:?} {cores}c x {sockets}s, {addrs} addr/home, {llc_ways}-way LLC");
    ModelConfig { name, cfg, blocks }
}

/// The exhaustive matrix `zerodev_model` explores: every spill policy ×
/// LLC design on the smallest machine that still reaches spill refusal →
/// WB_DE and corrupted memory, then richer machines — entry-vs-entry
/// displacement with two addresses, a third core, two ways, and a second
/// socket.
pub fn matrix() -> Vec<ModelConfig> {
    use LlcDesign::{Epd, Inclusive, NonInclusive};
    use SpillPolicy::{FuseAll, FusePrivateSpillShared, SpillAll};
    let policies = [SpillAll, FusePrivateSpillShared, FuseAll];
    let mut out = Vec::new();
    for policy in policies {
        for design in [NonInclusive, Epd, Inclusive] {
            out.push(tiny(policy, design, 2, 1, 1, 1));
        }
    }
    for policy in policies {
        out.push(tiny(policy, NonInclusive, 2, 1, 2, 2));
        out.push(tiny(policy, Epd, 2, 1, 2, 1));
    }
    out.push(tiny(FusePrivateSpillShared, Inclusive, 3, 1, 1, 1));
    out.push(tiny(FusePrivateSpillShared, NonInclusive, 2, 2, 1, 1));
    out
}
