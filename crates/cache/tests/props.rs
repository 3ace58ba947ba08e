//! Property tests for the cache substrate: the gathering store cache against
//! a reference byte model, LRU behavior of the set-associative directory,
//! and coherence-fabric invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use ztm_cache::{CpuId, Fabric, FetchKind, SetAssoc, StoreCache, StoreOutcome, Topology, XiKind};
use ztm_mem::{Address, LineAddr, MainMemory};

/// One generated store: offset, 1–8 bytes, and whether it is an NTSTG.
/// Normal stores live in bytes 0..512 and NTSTG stores in 512..1024 — the
/// architecture leaves overlap between the two unpredictable (§II.A), so
/// the generator keeps them disjoint.
fn store_strategy() -> impl Strategy<Value = (u64, Vec<u8>, bool)> {
    (
        0u64..512,
        prop::collection::vec(any::<u8>(), 1..9),
        any::<bool>(),
    )
        .prop_map(|(off, bytes, ntstg)| {
            if ntstg {
                (512 + (off & !7), bytes, true)
            } else {
                // Keep the store inside one 128-byte granule.
                let off = off.min(512 - bytes.len() as u64);
                let adjusted = off - (off % 128 + bytes.len() as u64).saturating_sub(128);
                (adjusted, bytes, false)
            }
        })
}

proptest! {
    /// Committing a transaction applies exactly the transactional bytes;
    /// aborting applies exactly the NTSTG-marked doublewords. Compared
    /// against a reference byte map.
    #[test]
    fn store_cache_commit_matches_reference(
        stores in prop::collection::vec(store_strategy(), 1..40),
        commit in any::<bool>(),
    ) {
        let mut sc = StoreCache::new(64);
        let mut mem = MainMemory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        sc.begin_tx();
        for (off, bytes, ntstg) in &stores {
            // NTSTG must be doubleword-aligned 8-byte stores; emulate that.
            let (addr, data, nt) = if *ntstg {
                let a = off & !7;
                (a, vec![0xAB; 8], true)
            } else {
                (*off, bytes.clone(), false)
            };
            let out = sc.store(Address::new(addr), &data, true, nt);
            prop_assert_ne!(out, StoreOutcome::Overflow, "64 entries cover 1KB");
            if commit || nt {
                for (i, b) in data.iter().enumerate() {
                    reference.insert(addr + i as u64, *b);
                }
            }
        }
        let writes = if commit { sc.commit_tx() } else { sc.abort_tx() };
        for w in writes {
            w.apply_to(&mut mem);
        }
        for a in 0u64..1024 {
            let mut buf = [0u8; 1];
            mem.load_bytes(Address::new(a), &mut buf);
            let expect = reference.get(&a).copied().unwrap_or(0);
            prop_assert_eq!(buf[0], expect, "byte {}", a);
        }
    }

    /// The store cache never reports more entries than its capacity, and
    /// overflow is reported exactly when all entries are transactional and
    /// a new granule is needed.
    #[test]
    fn store_cache_capacity_invariant(
        granules in prop::collection::vec(0u64..96, 1..96),
    ) {
        let mut sc = StoreCache::new(16);
        sc.begin_tx();
        let mut distinct: Vec<u64> = Vec::new();
        for g in granules {
            let out = sc.store(Address::new(g * 128), &[1], true, false);
            let is_new = !distinct.contains(&g);
            if is_new && distinct.len() == 16 {
                prop_assert_eq!(out, StoreOutcome::Overflow);
            } else {
                prop_assert_ne!(out, StoreOutcome::Overflow);
                if is_new {
                    distinct.push(g);
                }
            }
            prop_assert!(sc.len() <= 16);
        }
    }

    /// SetAssoc with uniform priority implements true LRU per class:
    /// a line inserted and re-touched more recently than `ways` other
    /// same-class lines is still present.
    #[test]
    fn set_assoc_keeps_recently_used(
        touches in prop::collection::vec(0u64..32, 1..100),
    ) {
        let sets = 4usize;
        let ways = 3usize;
        let mut dir: SetAssoc<u64> = SetAssoc::new(sets, ways);
        // Reference: per-class recency list.
        let mut recency: HashMap<usize, Vec<u64>> = HashMap::new();
        for t in touches {
            let line = LineAddr::new(t);
            let class = line.congruence_class(sets);
            if dir.get(line).is_none() {
                dir.insert(line, t, |_, _| 0);
            }
            let list = recency.entry(class).or_default();
            list.retain(|&x| x != t);
            list.push(t);
            if list.len() > ways {
                list.remove(0);
            }
        }
        for (class, list) in &recency {
            for &t in list {
                prop_assert!(
                    dir.contains(LineAddr::new(t)),
                    "line {} of class {} should still be resident",
                    t,
                    class
                );
            }
        }
    }

    /// Fabric invariant: after any sequence of fetches with fully accepted
    /// XIs, each line has either one exclusive owner and no sharers, or no
    /// owner — and the owner is always the most recent exclusive requester.
    #[test]
    fn fabric_ownership_invariants(
        reqs in prop::collection::vec((0usize..6, 0u64..8, any::<bool>()), 1..80),
    ) {
        let mut fabric = Fabric::new(Topology::zec12(6));
        let mut last_excl: HashMap<u64, usize> = HashMap::new();
        for (cpu, line_idx, excl) in reqs {
            let line = LineAddr::new(line_idx);
            let kind = if excl { FetchKind::Exclusive } else { FetchKind::Shared };
            let plan = fabric.plan_fetch(CpuId(cpu), line, kind);
            for (target, xikind) in plan.xis {
                prop_assert_ne!(target, CpuId(cpu), "never XI yourself");
                fabric.apply_xi_result(target, line, xikind, true);
            }
            let _ = fabric.grant(CpuId(cpu), line, kind);
            if excl {
                last_excl.insert(line_idx, cpu);
            } else {
                last_excl.remove(&line_idx);
            }
            let (owner, sharers) = fabric.holders(line);
            if let Some(o) = owner {
                prop_assert!(sharers.is_empty(), "owner excludes sharers");
                if excl {
                    prop_assert_eq!(o, CpuId(cpu));
                }
            }
            // No duplicate sharers.
            let mut s = sharers.clone();
            s.sort();
            s.dedup();
            prop_assert_eq!(s.len(), sharers.len());
        }
    }

    /// Rejectability is the architecture's: only exclusive and demote XIs
    /// can be stiff-armed.
    #[test]
    fn xi_rejectability_total(kind in prop::sample::select(vec![
        XiKind::Exclusive, XiKind::Demote, XiKind::ReadOnly, XiKind::Lru
    ])) {
        let expected = matches!(kind, XiKind::Exclusive | XiKind::Demote);
        prop_assert_eq!(kind.rejectable(), expected);
    }
}
