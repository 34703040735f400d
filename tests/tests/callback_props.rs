//! Extent-generation callbacks go only to the read caches that hold the
//! file; every other cache rejects stale fills through the control
//! plane's shared published-generation floor. This suite checks that the
//! targeted delivery is indistinguishable from a broadcast: K caches
//! subscribed to one control plane run random interleavings of fill,
//! lookup, commit, overwrite, unlink and prefetch-hint steps next to K
//! standalone reference caches that are told about every event. Every
//! lookup, readahead plan and stats block must match.

use std::cell::RefCell;
use std::rc::Rc;

use nadfs_core::{
    ControlPlane, FilePolicy, LayoutSpec, ReadCache, ReadCacheConfig, ReadCacheStats,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const CACHES: usize = 4;
const FILES: usize = 3;

/// Small enough that fills evict; readahead on so hints and streams
/// register holders too.
fn config() -> ReadCacheConfig {
    ReadCacheConfig {
        capacity_bytes: 12 << 10,
        readahead_init: 1 << 10,
        readahead_max: 8 << 10,
    }
}

/// Bytes of `file` at generation `generation`, a pure function of the
/// position so overlapping fills at one generation agree.
fn data(file: u64, generation: u64, offset: u64, len: u32) -> Vec<u8> {
    (offset..offset + len as u64)
        .map(|p| (p.wrapping_mul(31) ^ generation.wrapping_mul(7) ^ file) as u8)
        .collect()
}

#[derive(Clone, Debug)]
enum Step {
    /// A completed fetch lands: stamped `lag` generations behind the
    /// newest one the file has had (0 = current). `short` marks an
    /// EOF-clamped fetch.
    Fill {
        cache: usize,
        file: usize,
        lag: usize,
        offset: u64,
        len: u32,
        short: bool,
    },
    /// A read probes the cache; with `readahead`, a miss also asks for a
    /// readahead plan.
    Lookup {
        cache: usize,
        file: usize,
        offset: u64,
        len: u32,
        readahead: bool,
    },
    /// Append and commit.
    Commit {
        file: usize,
        len: u32,
    },
    /// `pwrite` over existing bytes and commit.
    Overwrite {
        file: usize,
        offset: u64,
        len: u32,
    },
    /// Three back-to-back resolves: a sequential scan the control plane
    /// answers with a prefetch advisory.
    Hint {
        file: usize,
        len: u32,
    },
    Unlink {
        file: usize,
    },
}

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..20,
        0usize..CACHES,
        0usize..FILES,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(kind, cache, file, a, b)| {
            let offset = (a % 32) * 256;
            // Half the lengths are whole 256-byte blocks, so reads often
            // continue exactly where an earlier one ended (a stream).
            let len = if b & (1 << 62) == 0 {
                1 + (b % 2048) as u32
            } else {
                256 * (1 + (b % 8) as u32)
            };
            match kind {
                0..=5 => Step::Fill {
                    cache,
                    file,
                    lag: (a >> 32) as usize % 3,
                    offset,
                    len,
                    short: b >> 63 == 1,
                },
                6..=11 => Step::Lookup {
                    cache,
                    file,
                    offset,
                    len,
                    readahead: b >> 63 == 1,
                },
                12..=14 => Step::Commit { file, len },
                15..=16 => Step::Overwrite { file, offset, len },
                17..=18 => Step::Hint { file, len },
                _ => Step::Unlink { file },
            }
        })
}

/// One control plane with `CACHES` subscribed read caches, the reference
/// caches, and the generation history of every file.
struct Harness {
    control: Rc<RefCell<ControlPlane>>,
    subscribed: Vec<Rc<RefCell<ReadCache>>>,
    reference: Vec<ReadCache>,
    inos: Vec<u64>,
    /// Every generation each file has had, oldest first.
    history: Vec<Vec<u64>>,
    unlinked: Vec<bool>,
}

impl Harness {
    fn new() -> Harness {
        let control = ControlPlane::new(7, vec![10, 11, 12, 13]);
        let subscribed: Vec<_> = (0..CACHES)
            .map(|_| {
                let c = Rc::new(RefCell::new(ReadCache::new(config())));
                control.borrow_mut().register_read_cache(c.clone());
                c
            })
            .collect();
        control.borrow_mut().mkdir_p("/p", 0).expect("mkdir");
        let inos = (0..FILES)
            .map(|f| {
                control
                    .borrow_mut()
                    .create_file_at(&format!("/p/f{f}"), LayoutSpec::SINGLE, FilePolicy::Plain)
                    .0
                    .expect("create")
                    .id
            })
            .collect();
        Harness {
            control,
            subscribed,
            reference: (0..CACHES).map(|_| ReadCache::new(config())).collect(),
            inos,
            history: vec![vec![0]; FILES],
            unlinked: vec![false; FILES],
        }
    }

    /// Tell every reference cache about a generation the control plane
    /// may have published for `file`.
    fn broadcast_generation(&mut self, file: usize) {
        let ino = self.inos[file];
        let generation = self.control.borrow().extent_generation(ino);
        if generation != *self.history[file].last().expect("history") {
            self.history[file].push(generation);
            for r in &mut self.reference {
                r.note_generation(ino, generation);
            }
        }
    }

    fn commit(&mut self, file: usize, offset: Option<u64>, len: u32) {
        let ino = self.inos[file];
        let placed = match offset {
            None => self.control.borrow_mut().place_write(ino, len),
            Some(o) => self.control.borrow_mut().place_write_at(ino, len, o),
        };
        if let Ok(p) = placed {
            self.control.borrow_mut().commit_write(ino, &p, len);
            self.broadcast_generation(file);
        }
    }

    fn apply(&mut self, step: &Step) -> Result<(), TestCaseError> {
        match *step {
            Step::Fill {
                cache,
                file,
                lag,
                offset,
                len,
                short,
            } => {
                let ino = self.inos[file];
                let h = &self.history[file];
                let generation = h[h.len() - 1 - lag.min(h.len() - 1)];
                let bytes = data(ino, generation, offset, len);
                let requested = if short { len + 100 } else { len };
                self.subscribed[cache]
                    .borrow_mut()
                    .fill(ino, generation, offset, &bytes, requested);
                self.reference[cache].fill(ino, generation, offset, &bytes, requested);
            }
            Step::Lookup {
                cache,
                file,
                offset,
                len,
                readahead,
            } => {
                let ino = self.inos[file];
                let mut sub = self.subscribed[cache].borrow_mut();
                let reference = &mut self.reference[cache];
                let got = sub.lookup(ino, offset, len);
                let want = reference.lookup(ino, offset, len);
                prop_assert_eq!(
                    got.as_ref().map(|r| (&r.data, r.generation)),
                    want.as_ref().map(|r| (&r.data, r.generation)),
                    "lookup of file {file} at {offset}+{len} by cache {cache}"
                );
                if got.is_none() && readahead {
                    prop_assert_eq!(
                        sub.plan_readahead(ino, offset, len),
                        reference.plan_readahead(ino, offset, len)
                    );
                }
            }
            Step::Commit { file, len } => self.commit(file, None, len),
            Step::Overwrite { file, offset, len } => self.commit(file, Some(offset), len),
            Step::Hint { file, len } => {
                let ino = self.inos[file];
                for i in 0..3u64 {
                    let before = self.subscribed[0].borrow().stats.hints;
                    let plan = self
                        .control
                        .borrow_mut()
                        .resolve_read(ino, i * len as u64, len);
                    if self.subscribed[0].borrow().stats.hints == before {
                        continue;
                    }
                    // The advisory the control plane publishes for a
                    // sequential resolve: the region ahead of the reader.
                    let plan = plan.0.expect("a hint follows a resolved read");
                    let end = i * len as u64 + plan.len as u64;
                    let ahead = (plan.len as u64 * 4).min(1 << 20) as u32;
                    for r in &mut self.reference {
                        r.note_hint(ino, end, ahead);
                    }
                }
            }
            Step::Unlink { file } => {
                if !self.unlinked[file]
                    && self
                        .control
                        .borrow_mut()
                        .unlink(&format!("/p/f{file}"), 0)
                        .0
                        .is_ok()
                {
                    self.unlinked[file] = true;
                    for r in &mut self.reference {
                        r.note_generation(self.inos[file], u64::MAX);
                    }
                }
            }
        }
        Ok(())
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for (k, (sub, reference)) in self.subscribed.iter().zip(&self.reference).enumerate() {
            let sub = sub.borrow();
            let got: ReadCacheStats = sub.stats;
            prop_assert_eq!(got, reference.stats, "stats of cache {k}");
            prop_assert_eq!(sub.cached_bytes(), reference.cached_bytes());
            prop_assert_eq!(sub.cached_files(), reference.cached_files());
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn holder_callbacks_match_a_broadcast_to_every_cache(
        steps in proptest::collection::vec(step(), 1..80)
    ) {
        let mut h = Harness::new();
        for s in &steps {
            h.apply(s)?;
            h.check()?;
        }
    }
}

/// A cache that never touched file F holds no callback registration for
/// it, yet still rejects a fill stamped below F's published generation.
#[test]
fn non_holder_rejects_a_fill_stamped_below_the_published_generation() {
    let mut h = Harness::new();
    h.commit(0, None, 4096);
    let stale = h.control.borrow().extent_generation(h.inos[0]);
    let ino = h.inos[0];
    h.subscribed[0]
        .borrow_mut()
        .fill(ino, stale, 0, &data(ino, stale, 0, 4096), 4096);
    h.commit(0, Some(0), 4096);
    assert_eq!(
        h.control.borrow().layout_callbacks(),
        1,
        "only cache 0 holds the file"
    );
    let mut never = h.subscribed[1].borrow_mut();
    never.fill(ino, stale, 0, &data(ino, stale, 0, 4096), 4096);
    assert_eq!(never.stats.stale_fills, 1, "stale fill rejected");
    assert!(
        never.lookup(ino, 0, 4096).is_none(),
        "stale bytes never land"
    );
    assert_eq!(h.subscribed[0].borrow().stats.invalidations, 1);
}

/// A read that was in flight when its file was unlinked lands in a cache
/// that never held the file: the unlink tombstone rejects the fill.
#[test]
fn non_holder_rejects_an_in_flight_fill_after_unlink() {
    let mut h = Harness::new();
    h.commit(1, None, 4096);
    let ino = h.inos[1];
    let plan = h
        .control
        .borrow_mut()
        .resolve_read(ino, 0, 4096)
        .0
        .expect("resolve");
    h.apply(&Step::Unlink { file: 1 }).expect("unlink");
    assert_eq!(h.control.borrow().layout_callbacks(), 0, "nobody held it");
    let mut late = h.subscribed[2].borrow_mut();
    late.fill(
        ino,
        plan.generation,
        0,
        &data(ino, plan.generation, 0, 4096),
        4096,
    );
    assert_eq!(late.stats.stale_fills, 1, "tombstone rejected the fill");
    assert!(late.lookup(ino, 0, 4096).is_none());
}
