//! The generic set-associative tagged array.

/// Replacement policy family maintained inside the array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replacement {
    /// True LRU via a per-set recency stack (Table I: all caches LRU).
    Lru,
    /// One-bit not-recently-used (Table I: the sparse directory's policy).
    Nru,
}

/// Per-line metadata bit: the line holds a payload.
const VALID: u8 = 1 << 0;
/// Per-line metadata bit: NRU reference bit.
const NRU_REF: u8 = 1 << 1;

/// Moves `way` to the MRU end of the stack in a single forward pass,
/// shifting the entries in front of it down one slot; appends it as the
/// sole shift when absent (a newly filled way). Equivalent to
/// `remove(pos)` + `insert(0, way)` without the double shift. A way that
/// is already MRU is a no-op — the common hit path touches nothing.
///
/// `stack` is the full ways-sized slot array of one set; `len` is the
/// number of live slots (the stack occupies `stack[..len]`).
#[inline]
fn stack_promote(stack: &mut [u8], len: &mut u8, way: u8) {
    let n = *len as usize;
    if stack[..n].first() == Some(&way) {
        return;
    }
    let mut prev = way;
    for slot in stack[..n].iter_mut() {
        std::mem::swap(slot, &mut prev);
        if prev == way {
            return;
        }
    }
    stack[n] = prev;
    *len += 1;
}

/// Moves `way` (which must be in the stack — every valid way is) to the
/// LRU end in a single backward pass.
#[inline]
fn stack_demote(stack: &mut [u8], len: u8, way: u8) {
    let n = len as usize;
    let mut prev = way;
    for slot in stack[..n].iter_mut().rev() {
        std::mem::swap(slot, &mut prev);
        if prev == way {
            return;
        }
    }
    debug_assert!(false, "demoted way {way} was not in the recency stack");
}

/// Removes `way` from the stack in a single pass (shifting later entries
/// up); no-op when absent.
#[inline]
fn stack_remove(stack: &mut [u8], len: &mut u8, way: u8) {
    let n = *len as usize;
    let mut found = false;
    for i in 0..n {
        if found {
            stack[i - 1] = stack[i];
        } else if stack[i] == way {
            found = true;
        }
    }
    if found {
        *len -= 1;
    }
}

/// A set-associative tagged array with duplicate-tag support.
///
/// Keys are arbitrary `u64` frame identifiers; the low bits index the set and
/// the remainder forms the tag. Two lines in one set may carry the *same*
/// tag as long as a caller-supplied predicate distinguishes their payloads —
/// exactly the situation ZeroDEV creates when a data block and its spilled
/// directory entry coexist in an LLC set (§III-C1).
///
/// All lookup/touch/remove operations take a `pred` on the payload; use
/// `|_| true` when tags are unique (ordinary caches).
///
/// Storage is struct-of-arrays: tags, one-byte line metadata, and payloads
/// live in three parallel flat vectors, so the hit-path set scan touches
/// only the tag and metadata lanes. Recency stacks are likewise one flat
/// ways-per-set array plus a per-set length, with no per-set heap
/// allocations.
#[derive(Clone, Debug)]
pub struct SetAssoc<T> {
    sets: usize,
    ways: usize,
    /// Per-line tags (`sets × ways`, set-major).
    tags: Vec<u64>,
    /// Per-line metadata bits (`VALID`, `NRU_REF`), parallel to `tags`.
    meta: Vec<u8>,
    /// Per-line payloads, parallel to `tags`.
    data: Vec<Option<T>>,
    /// Flat per-set recency stacks: way indices, MRU first. The stack of
    /// set `s` occupies `recency[s*ways..][..set_live[s]]`. Maintained for
    /// both policies (NRU victim search ignores it). Invariant: a set's
    /// stack holds exactly its valid ways.
    recency: Vec<u8>,
    /// Valid-way count per set (== its recency-stack length).
    set_live: Vec<u8>,
    policy: Replacement,
    /// Count of valid lines (kept so `len` needs no scan).
    live: usize,
}

impl<T> SetAssoc<T> {
    /// Creates an array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a positive power of two or `ways` is 0 or
    /// exceeds 255.
    pub fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0 && ways <= 255, "ways must be in 1..=255");
        let n = sets * ways;
        let mut data = Vec::with_capacity(n);
        data.resize_with(n, || None);
        SetAssoc {
            sets,
            ways,
            tags: vec![0; n],
            meta: vec![0; n],
            data,
            recency: vec![0; n],
            set_live: vec![0; sets],
            policy,
            live: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total valid lines currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no line is valid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    #[inline]
    fn tag_of(&self, key: u64) -> u64 {
        key / self.sets as u64
    }

    #[inline]
    fn key_of(&self, set: usize, tag: u64) -> u64 {
        tag * self.sets as u64 + set as u64
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn find_way(&self, key: u64, pred: impl Fn(&T) -> bool) -> Option<usize> {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        let base = set * self.ways;
        (0..self.ways).find(|&w| {
            let i = base + w;
            self.meta[i] & VALID != 0
                && self.tags[i] == tag
                && self.data[i].as_ref().is_some_and(&pred)
        })
    }

    /// Looks up a line without updating recency.
    pub fn peek(&self, key: u64, pred: impl Fn(&T) -> bool) -> Option<&T> {
        self.find_way(key, pred).map(|w| {
            self.data[self.idx(self.set_of(key), w)]
                .as_ref()
                .expect("valid line has data")
        })
    }

    /// Mutable lookup without recency update.
    pub fn peek_mut(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> Option<&mut T> {
        let set = self.set_of(key);
        self.find_way(key, pred).map(move |w| {
            let i = self.idx(set, w);
            self.data[i].as_mut().expect("valid line has data")
        })
    }

    fn promote(&mut self, set: usize, way: usize) {
        let base = set * self.ways;
        stack_promote(
            &mut self.recency[base..base + self.ways],
            &mut self.set_live[set],
            way as u8,
        );
        self.meta[base + way] |= NRU_REF;
    }

    /// Looks up a line, updating its recency (LRU promotion / NRU bit).
    /// Returns a mutable payload reference on hit.
    pub fn touch(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> Option<&mut T> {
        let set = self.set_of(key);
        let way = self.find_way(key, pred)?;
        self.promote(set, way);
        let i = self.idx(set, way);
        Some(self.data[i].as_mut().expect("valid line has data"))
    }

    /// Demotes a line to the LRU position of its set without invalidating it
    /// (used for replacement-priority experiments).
    pub fn demote(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> bool {
        let set = self.set_of(key);
        let Some(way) = self.find_way(key, pred) else {
            return false;
        };
        let base = set * self.ways;
        stack_demote(
            &mut self.recency[base..base + self.ways],
            self.set_live[set],
            way as u8,
        );
        self.meta[base + way] &= !NRU_REF;
        true
    }

    /// Removes a line and returns its payload.
    pub fn remove(&mut self, key: u64, pred: impl Fn(&T) -> bool) -> Option<T> {
        let set = self.set_of(key);
        let way = self.find_way(key, pred)?;
        let base = set * self.ways;
        stack_remove(
            &mut self.recency[base..base + self.ways],
            &mut self.set_live[set],
            way as u8,
        );
        self.live -= 1;
        self.meta[base + way] = 0;
        self.data[base + way].take()
    }

    fn pick_invalid_way(&self, set: usize) -> Option<usize> {
        let base = set * self.ways;
        (0..self.ways).find(|&w| self.meta[base + w] & VALID == 0)
    }

    /// Chooses a victim way in `set`, preferring unprotected lines and
    /// never selecting an excluded one. Returns `None` when every line in
    /// the set is excluded — exclusion is a hard bar, not a preference (a
    /// victimised "excluded" line is exactly the bug class the exclusion
    /// exists to prevent; see `insert_excluding`).
    ///
    /// For LRU this scans the recency stack from the LRU end for the first
    /// line with `protected(data) == false`, falling back to the true LRU
    /// non-excluded line when everything is protected — the paper's
    /// `dataLRU` search. For NRU it scans for a not-referenced unprotected
    /// line, clearing all reference bits when none qualifies (classic 1-bit
    /// NRU). `excluded` receives the candidate's full key and is a hard bar
    /// on top of either search.
    fn pick_victim_way(
        &mut self,
        set: usize,
        protected: impl Fn(&T) -> bool,
        excluded: impl Fn(u64, &T) -> bool,
    ) -> Option<usize> {
        let base = set * self.ways;
        let bar = |this: &Self, w: usize| {
            excluded(
                this.key_of(set, this.tags[base + w]),
                this.data[base + w].as_ref().expect("valid line has data"),
            )
        };
        match self.policy {
            Replacement::Lru => {
                let live = self.set_live[set] as usize;
                debug_assert_eq!(live, self.ways, "full set has full stack");
                for i in (0..live).rev() {
                    let w = self.recency[base + i] as usize;
                    if !protected(self.data[base + w].as_ref().expect("valid line has data"))
                        && !bar(self, w)
                    {
                        return Some(w);
                    }
                }
                // Everything unexcluded is protected: true LRU among the
                // non-excluded lines.
                for i in (0..live).rev() {
                    let w = self.recency[base + i] as usize;
                    if !bar(self, w) {
                        return Some(w);
                    }
                }
                None
            }
            Replacement::Nru => {
                // Two passes: unprotected & not-referenced, then clear bits.
                for pass in 0..2 {
                    for w in 0..self.ways {
                        if self.meta[base + w] & NRU_REF == 0
                            && !protected(
                                self.data[base + w].as_ref().expect("valid line has data"),
                            )
                            && !bar(self, w)
                        {
                            return Some(w);
                        }
                    }
                    if pass == 0 {
                        for w in 0..self.ways {
                            self.meta[base + w] &= !NRU_REF;
                        }
                    }
                }
                // Everything protected: the first non-excluded way.
                (0..self.ways).find(|&w| !bar(self, w))
            }
        }
    }

    /// Inserts a payload for `key`, evicting if the set is full.
    ///
    /// The victim search prefers lines for which `protected` returns false;
    /// a protected line is evicted only when every line in the set is
    /// protected. Returns the evicted `(key, payload)` if any.
    pub fn insert(
        &mut self,
        key: u64,
        data: T,
        protected: impl Fn(&T) -> bool,
    ) -> Option<(u64, T)> {
        match self.insert_excluding(key, data, protected, |_, _| false) {
            Ok(evicted) => evicted,
            Err(_) => unreachable!("nothing is excluded, so insertion cannot be refused"),
        }
    }

    /// [`Self::insert`] with a hard exclusion: a line for which `excluded`
    /// returns true (given its full key and payload) is never chosen as the
    /// victim. Lets a caller shield a specific resident line from its own
    /// insertion — e.g. a directory-entry spill must not displace its own
    /// block's data line.
    ///
    /// # Errors
    /// When the set is full and every line in it is excluded, the insertion
    /// is *refused*: nothing changes and the payload comes back as `Err`.
    /// (Victimising the excluded line instead would defeat the exclusion —
    /// the caller asked for it precisely because that eviction is unsafe.)
    pub fn insert_excluding(
        &mut self,
        key: u64,
        data: T,
        protected: impl Fn(&T) -> bool,
        excluded: impl Fn(u64, &T) -> bool,
    ) -> Result<Option<(u64, T)>, T> {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        let base = set * self.ways;
        let (way, evicted) = match self.pick_invalid_way(set) {
            Some(w) => (w, None),
            None => {
                let Some(w) = self.pick_victim_way(set, protected, excluded) else {
                    return Err(data);
                };
                let victim_key = self.key_of(set, self.tags[base + w]);
                stack_remove(
                    &mut self.recency[base..base + self.ways],
                    &mut self.set_live[set],
                    w as u8,
                );
                self.live -= 1;
                self.meta[base + w] = 0;
                let payload = self.data[base + w].take().expect("valid line has data");
                (w, Some((victim_key, payload)))
            }
        };
        self.tags[base + way] = tag;
        self.meta[base + way] = VALID;
        self.data[base + way] = Some(data);
        self.live += 1;
        self.promote(set, way);
        Ok(evicted)
    }

    /// Inserts only if an invalid way exists (the ZeroDEV replacement-
    /// disabled sparse directory, §III-C4).
    ///
    /// # Errors
    /// Returns the payload back as `Err` when the set is full.
    pub fn insert_no_evict(&mut self, key: u64, data: T) -> Result<(), T> {
        let set = self.set_of(key);
        match self.pick_invalid_way(set) {
            Some(way) => {
                let tag = self.tag_of(key);
                let i = self.idx(set, way);
                self.tags[i] = tag;
                self.meta[i] = VALID;
                self.data[i] = Some(data);
                self.live += 1;
                self.promote(set, way);
                Ok(())
            }
            None => Err(data),
        }
    }

    /// Iterates over all valid `(key, &payload)` pairs (diagnostics,
    /// invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        (0..self.sets).flat_map(move |set| {
            (0..self.ways).filter_map(move |w| {
                let i = set * self.ways + w;
                if self.meta[i] & VALID != 0 {
                    Some((
                        self.key_of(set, self.tags[i]),
                        self.data[i].as_ref().expect("valid line has data"),
                    ))
                } else {
                    None
                }
            })
        })
    }

    /// Iterates over the valid `(key, &payload)` pairs of the set containing
    /// `key`, in MRU→LRU order.
    pub fn iter_set(&self, key: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        let set = self.set_of(key);
        let base = set * self.ways;
        let live = self.set_live[set] as usize;
        self.recency[base..base + live].iter().map(move |&w| {
            let i = base + w as usize;
            (
                self.key_of(set, self.tags[i]),
                self.data[i].as_ref().expect("stacked line is valid"),
            )
        })
    }

    /// Number of valid lines in the set containing `key` (the recency
    /// stack holds exactly the valid ways, so no scan is needed).
    #[inline]
    pub fn set_len(&self, key: u64) -> usize {
        self.set_live[self.set_of(key)] as usize
    }

    /// Serializes the whole array *lane-exactly* for checkpointing. Geometry
    /// (sets, ways, policy) is written first and verified by
    /// [`Self::restore_with`] against the target instance; then the tag,
    /// metadata, recency, and payload lanes follow verbatim, so a restored
    /// array reproduces victim choice, NRU bits, and duplicate-tag layout
    /// byte-for-byte. `ser` encodes one payload.
    pub fn snapshot_with(
        &self,
        w: &mut zerodev_common::snap::SnapWriter,
        mut ser: impl FnMut(&mut zerodev_common::snap::SnapWriter, &T),
    ) {
        let Self {
            sets,
            ways,
            tags,
            meta,
            data,
            recency,
            set_live,
            policy,
            live,
        } = self;
        w.usize(*sets);
        w.usize(*ways);
        w.u8(match policy {
            Replacement::Lru => 0,
            Replacement::Nru => 1,
        });
        w.usize(*live);
        for &t in tags {
            w.u64(t);
        }
        for &m in meta {
            w.u8(m);
        }
        for &r in recency {
            w.u8(r);
        }
        for &l in set_live {
            w.u8(l);
        }
        for d in data {
            match d {
                Some(v) => {
                    w.bool(true);
                    ser(w, v);
                }
                None => w.bool(false),
            }
        }
    }

    /// Restores a [`Self::snapshot_with`] image into this array, which must
    /// have been constructed with the same geometry (the snapshot's header
    /// is checked against it). `de` decodes one payload.
    ///
    /// # Errors
    /// Fails with a structural [`zerodev_common::snap::SnapError`] on any
    /// geometry mismatch, lane-length drift, or payload decode error.
    pub fn restore_with(
        &mut self,
        r: &mut zerodev_common::snap::SnapReader<'_>,
        mut de: impl FnMut(
            &mut zerodev_common::snap::SnapReader<'_>,
        ) -> Result<T, zerodev_common::snap::SnapError>,
    ) -> Result<(), zerodev_common::snap::SnapError> {
        use zerodev_common::snap::SnapError;
        let Self {
            sets,
            ways,
            tags,
            meta,
            data,
            recency,
            set_live,
            policy,
            live,
        } = self;
        let image_sets = r.usize("setassoc sets")?;
        let image_ways = r.usize("setassoc ways")?;
        let image_policy = match r.u8("setassoc policy")? {
            0 => Replacement::Lru,
            1 => Replacement::Nru,
            _ => {
                return Err(SnapError::Corrupt {
                    context: "setassoc policy",
                })
            }
        };
        if (image_sets, image_ways, image_policy) != (*sets, *ways, *policy) {
            return Err(SnapError::Corrupt {
                context: "setassoc geometry",
            });
        }
        let image_live = r.usize("setassoc live")?;
        if image_live > *sets * *ways {
            return Err(SnapError::Corrupt {
                context: "setassoc live count",
            });
        }
        *live = image_live;
        for t in tags.iter_mut() {
            *t = r.u64("setassoc tag")?;
        }
        for m in meta.iter_mut() {
            *m = r.u8("setassoc meta")?;
        }
        for rec in recency.iter_mut() {
            *rec = r.u8("setassoc recency")?;
        }
        for l in set_live.iter_mut() {
            *l = r.u8("setassoc set_live")?;
        }
        for d in data.iter_mut() {
            *d = if r.bool("setassoc line flag")? {
                Some(de(r)?)
            } else {
                None
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any(_: &u32) -> bool {
        true
    }
    fn none(_: &u32) -> bool {
        false
    }

    #[test]
    fn hit_and_miss() {
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 2, Replacement::Lru);
        assert!(c.insert(5, 50, none).is_none());
        assert_eq!(c.peek(5, any), Some(&50));
        assert_eq!(c.peek(9, any), None); // same set (9 % 4 == 1? no: 5%4=1, 9%4=1) different tag
        assert_eq!(c.touch(5, any), Some(&mut 50));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.insert(2, 2, none);
        c.touch(0, any); // order MRU->LRU: 0,2,1
        let v = c.insert(3, 3, none).unwrap();
        assert_eq!(v, (1, 1));
        let v = c.insert(4, 4, none).unwrap();
        assert_eq!(v, (2, 2));
    }

    #[test]
    fn protected_lines_survive() {
        // dataLRU: ordinary lines evicted before protected (spilled/fused).
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 4, Replacement::Lru);
        for i in 0..4 {
            c.insert(i, i as u32, none);
        }
        // mark payloads >= 2 as protected; LRU order is 0 (LRU-most) .. 3
        let protected = |v: &u32| *v >= 2;
        let v = c.insert(10, 10, protected).unwrap();
        assert_eq!(v, (0, 0), "oldest unprotected evicted first");
        let v = c.insert(11, 11, protected).unwrap();
        assert_eq!(v, (1, 1));
        // now only protected (2,3) and new unprotected-looking (10,11)? 10,11 are >= 2 so protected.
        let v = c.insert(12, 12, protected).unwrap();
        assert_eq!(v.0, 2, "all protected: true LRU evicted");
    }

    #[test]
    fn duplicate_tags_coexist() {
        // A data block (even payload) and its spilled entry (odd payload)
        // share a key.
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 4, Replacement::Lru);
        c.insert(6, 100, none);
        c.insert(6, 101, none);
        assert_eq!(c.peek(6, |v| v % 2 == 0), Some(&100));
        assert_eq!(c.peek(6, |v| v % 2 == 1), Some(&101));
        assert_eq!(c.set_len(6), 2);
        let removed = c.remove(6, |v| v % 2 == 1);
        assert_eq!(removed, Some(101));
        assert_eq!(c.peek(6, |v| v % 2 == 0), Some(&100));
    }

    #[test]
    fn excluded_line_is_never_victimised() {
        // The excluded line sits at the LRU end — the natural victim — but
        // exclusion is a hard bar: the next line up must be taken instead.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 100, none);
        c.insert(1, 101, none);
        c.insert(2, 102, none);
        // MRU->LRU: 2,1,0 — key 0 is LRU-most and excluded.
        let v = c
            .insert_excluding(3, 103, none, |k, _| k == 0)
            .expect("a non-excluded victim exists");
        assert_eq!(v, Some((1, 101)), "next-LRU line evicted instead");
        assert_eq!(c.peek(0, any), Some(&100), "excluded line survives");
    }

    #[test]
    fn excluded_way_is_only_valid_victim() {
        // The corner: the set is full and every line is excluded, so the
        // *only* candidate is the line the caller shielded. Victimising it
        // would defeat the exclusion — the insertion must be refused with
        // the set untouched.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 1, Replacement::Lru);
        c.insert(0, 100, none);
        let refused = c.insert_excluding(1, 101, none, |k, _| k == 0);
        assert_eq!(refused, Err(101), "payload handed back on refusal");
        assert_eq!(c.peek(0, any), Some(&100), "excluded line untouched");
        assert_eq!(c.peek(1, any), None, "refused payload not inserted");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalid_way_sidesteps_exclusion() {
        // With a free way the exclusion never comes into play: the payload
        // lands in the invalid way and the excluded line is untouched.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Lru);
        c.insert(0, 100, none);
        let v = c
            .insert_excluding(1, 101, none, |k, _| k == 0)
            .expect("free way exists");
        assert_eq!(v, None);
        assert_eq!(c.peek(0, any), Some(&100));
        assert_eq!(c.peek(1, any), Some(&101));
    }

    #[test]
    fn exclusion_overrides_protection_fallback() {
        // All lines protected, all but one excluded: the protected-line
        // fallback must still honour the exclusion bar.
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Lru);
        c.insert(0, 100, none);
        c.insert(1, 101, none);
        let v = c
            .insert_excluding(2, 102, any, |k, _| k == 0)
            .expect("one non-excluded line remains");
        assert_eq!(
            v,
            Some((1, 101)),
            "excluded line skipped even when all protected"
        );
        assert_eq!(c.peek(0, any), Some(&100));
    }

    #[test]
    fn nru_refuses_all_excluded_set() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Nru);
        c.insert(0, 100, none);
        c.insert(1, 101, none);
        let refused = c.insert_excluding(2, 102, none, |_, _| true);
        assert_eq!(refused, Err(102));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn no_evict_insert() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Lru);
        assert!(c.insert_no_evict(0, 0).is_ok());
        assert!(c.insert_no_evict(1, 1).is_ok());
        assert_eq!(c.insert_no_evict(2, 2), Err(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_then_reinsert() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, Replacement::Lru);
        c.insert(0, 1, none);
        assert_eq!(c.remove(0, any), Some(1));
        assert_eq!(c.remove(0, any), None);
        assert!(c.is_empty());
        assert!(c.insert(0, 2, none).is_none());
    }

    #[test]
    fn nru_finds_unreferenced_victim() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 4, Replacement::Nru);
        for i in 0..4 {
            c.insert(i, i as u32, none);
        }
        // all referenced on insert; first insert clears bits then picks way 0
        let v = c.insert(4, 4, none).unwrap();
        assert_eq!(v, (0, 0));
        // ways 1..3 now unreferenced; touching 2 sets its bit
        c.touch(2, any);
        let v = c.insert(5, 5, none).unwrap();
        assert_eq!(v, (1, 1), "unreferenced way evicted before referenced");
    }

    #[test]
    fn nru_respects_protection() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2, Replacement::Nru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        let v = c.insert(2, 2, |v| *v == 0).unwrap();
        assert_eq!(v, (1, 1));
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.insert(2, 2, none);
        assert!(c.demote(2, any)); // 2 was MRU; now LRU
        let v = c.insert(3, 3, none).unwrap();
        assert_eq!(v, (2, 2));
        assert!(!c.demote(99, any));
    }

    #[test]
    fn iter_set_is_mru_order() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.touch(0, any);
        let order: Vec<u64> = c.iter_set(0).map(|(k, _)| k).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn promote_of_mru_way_short_circuits() {
        // The hit-path no-op: promoting the way that is already MRU must
        // leave the stack untouched (and, through the public API, keep the
        // set order stable across repeated touches of the MRU line).
        let mut stack = [2u8, 0, 1];
        let mut len = 3u8;
        stack_promote(&mut stack, &mut len, 2);
        assert_eq!(stack, [2, 0, 1]);
        assert_eq!(len, 3);

        let mut c: SetAssoc<u32> = SetAssoc::new(1, 3, Replacement::Lru);
        c.insert(0, 0, none);
        c.insert(1, 1, none);
        c.insert(2, 2, none); // MRU->LRU: 2,1,0
        c.touch(2, any);
        c.touch(2, any);
        let order: Vec<u64> = c.iter_set(0).map(|(k, _)| k).collect();
        assert_eq!(order, vec![2, 1, 0], "MRU touch changes nothing");
        let v = c.insert(3, 3, none).unwrap();
        assert_eq!(v, (0, 0), "LRU victim unaffected by MRU touches");
    }

    #[test]
    fn iter_visits_all() {
        let mut c: SetAssoc<u32> = SetAssoc::new(4, 2, Replacement::Lru);
        for i in 0..8 {
            c.insert(i, i as u32, none);
        }
        let mut keys: Vec<u64> = c.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn len_and_set_len_track_churn() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2, Replacement::Lru);
        assert_eq!(c.len(), 0);
        c.insert(0, 0, none);
        c.insert(2, 2, none); // set 0
        c.insert(1, 1, none); // set 1
        assert_eq!(c.len(), 3);
        assert_eq!(c.set_len(0), 2);
        assert!(c.insert(4, 4, none).is_some(), "set 0 full, evicts");
        assert_eq!(c.len(), 3, "eviction keeps the count stable");
        assert_eq!(c.set_len(0), 2);
        assert_eq!(c.remove(1, any), Some(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.set_len(1), 0);
        assert!(c.insert_no_evict(3, 3).is_ok());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn key_set_tag_round_trip() {
        let c: SetAssoc<u32> = SetAssoc::new(8, 2, Replacement::Lru);
        for key in [0u64, 7, 8, 1 << 40, (1 << 40) + 5] {
            let set = c.set_of(key);
            let tag = c.tag_of(key);
            assert_eq!(c.key_of(set, tag), key);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_panic() {
        let _: SetAssoc<u32> = SetAssoc::new(3, 2, Replacement::Lru);
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn zero_ways_panic() {
        let _: SetAssoc<u32> = SetAssoc::new(4, 0, Replacement::Lru);
    }
}
