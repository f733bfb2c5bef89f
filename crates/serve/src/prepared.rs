//! The store of prepared workloads: each workload instance — a named
//! workload at one (scale, seed), or a custom program — is generated and
//! sliced once, then shared read-only by every `/v1/run` job and
//! `/v1/sweep` point that simulates it, whatever the model or latency.
//!
//! Entries are built lazily on first use and evicted least-recently-used
//! past a fixed byte budget. Concurrent misses on one instance wait for a
//! single build; a failed build is never stored.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hidisc_isa::mem::PAGE_SIZE;
use hidisc_slicer::{CompiledWorkload, ExecEnv};
use hidisc_workloads::Scale;

use crate::JobSpec;

/// Memory budget of a service's store, in bytes of [`Prepared::weight`].
/// A Test-scale instance weighs 8–24 KiB, a Paper-scale one 44–548 KiB.
pub(crate) const PREPARED_BYTES: usize = 16 * 1024 * 1024;

/// What a workload instance depends on: everything that shapes its data
/// image and its sliced programs (never the machine config or model).
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct WorkloadKey {
    workload: String,
    scale: Scale,
    seed: u64,
    program: Option<String>,
}

impl WorkloadKey {
    /// The instance a job runs.
    pub(crate) fn of(spec: &JobSpec) -> WorkloadKey {
        WorkloadKey {
            workload: spec.workload.clone(),
            scale: spec.scale,
            seed: spec.seed,
            program: spec.program.clone(),
        }
    }
}

/// A sliced workload instance and the state it starts from.
pub(crate) struct Prepared {
    pub(crate) compiled: CompiledWorkload,
    pub(crate) env: ExecEnv,
}

impl Prepared {
    /// What the instance counts against the budget: its initial data
    /// pages, one page more for the sliced programs, and the custom
    /// source its key holds.
    fn weight(&self, key: &WorkloadKey) -> usize {
        (self.env.mem.touched_pages() + 1) * PAGE_SIZE as usize
            + key.program.as_ref().map_or(0, String::len)
    }
}

/// One instance's build slot. Its builder holds the lock while building,
/// so a concurrent miss waits for that build instead of repeating it.
type Cell = Arc<Mutex<Option<Arc<Prepared>>>>;

struct Slot {
    cell: Cell,
    /// Recency stamp of the last lookup.
    stamp: u64,
    /// Weight once built; 0 while the build runs (never evicted then).
    weight: usize,
}

#[derive(Default)]
struct Inner {
    slots: HashMap<WorkloadKey, Slot>,
    used: usize,
    stamp: u64,
    builds: u64,
}

/// The bounded, lazily filled instance store.
pub(crate) struct PreparedStore {
    budget: usize,
    inner: Mutex<Inner>,
}

/// Locks `m`, recovering the data if a builder panicked while holding it:
/// a slot left empty is simply built again.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl PreparedStore {
    /// An empty store holding at most `budget` bytes of instances.
    pub(crate) fn new(budget: usize) -> PreparedStore {
        PreparedStore {
            budget,
            inner: Mutex::default(),
        }
    }

    /// Instances built so far (`hidisc_serve_workload_builds_total`).
    pub(crate) fn builds(&self) -> u64 {
        lock(&self.inner).builds
    }

    /// Bytes of built instances held.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        lock(&self.inner).used
    }

    /// The instance `key` names, running `build` only if no store entry
    /// holds it yet, then evicting least-recently-used instances until
    /// the store fits its budget. A `build` error is returned to this
    /// caller and nothing is stored; a caller that waited on the failed
    /// build tries its own.
    pub(crate) fn get_or_build<E>(
        &self,
        key: &WorkloadKey,
        build: impl FnOnce() -> Result<Prepared, E>,
    ) -> Result<Arc<Prepared>, E> {
        let cell = {
            let mut inner = lock(&self.inner);
            inner.stamp += 1;
            let stamp = inner.stamp;
            let slot = inner.slots.entry(key.clone()).or_insert_with(|| Slot {
                cell: Cell::default(),
                stamp,
                weight: 0,
            });
            slot.stamp = stamp;
            Arc::clone(&slot.cell)
        };
        let mut held = lock(&cell);
        if let Some(p) = held.as_ref() {
            return Ok(Arc::clone(p));
        }
        let built = build();
        let mut inner = lock(&self.inner);
        // A failed build drops its slot, so a caller that waited on it
        // builds into a slot the store no longer holds: served, not kept.
        let ours = inner
            .slots
            .get(key)
            .is_some_and(|s| Arc::ptr_eq(&s.cell, &cell));
        let p = match built {
            Ok(p) => Arc::new(p),
            Err(e) => {
                if ours {
                    inner.slots.remove(key);
                }
                return Err(e);
            }
        };
        *held = Some(Arc::clone(&p));
        inner.builds += 1;
        let weight = p.weight(key);
        if !ours {
            return Ok(p);
        }
        // An instance bigger than the whole budget is served to its
        // callers but never kept: keeping it would flush the rest.
        if weight > self.budget {
            inner.slots.remove(key);
            return Ok(p);
        }
        inner.slots.get_mut(key).expect("own slot").weight = weight;
        inner.used += weight;
        while inner.used > self.budget {
            let Some(lru) = inner
                .slots
                .iter()
                .filter(|(_, s)| s.weight > 0)
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let gone = inner.slots.remove(&lru).expect("key just found");
            inner.used -= gone.weight;
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(workload: &str, seed: u64) -> WorkloadKey {
        WorkloadKey {
            workload: workload.to_string(),
            scale: Scale::Test,
            seed,
            program: None,
        }
    }

    /// A real sliced instance (the smallest micro-kernel).
    fn build(seed: u64) -> Result<Prepared, String> {
        let w = hidisc_workloads::by_name("sdot", Scale::Test, seed).expect("sdot");
        let env = hidisc_bench::env_of(&w);
        let compiled = hidisc_slicer::compile(&w.prog, &env, &Default::default())
            .map_err(|e| e.to_string())?;
        Ok(Prepared { compiled, env })
    }

    #[test]
    fn concurrent_misses_build_once_and_share_the_instance() {
        let store = PreparedStore::new(PREPARED_BYTES);
        let calls = AtomicUsize::new(0);
        let got: Vec<Arc<Prepared>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        store
                            .get_or_build(&key("sdot", 1), || {
                                calls.fetch_add(1, Ordering::Relaxed);
                                build(1)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(store.builds(), 1);
        assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])));
    }

    #[test]
    fn failed_builds_are_not_stored() {
        let store = PreparedStore::new(PREPARED_BYTES);
        let k = key("sdot", 1);
        let err = store.get_or_build(&k, || Err::<Prepared, _>("no such workload"));
        assert_eq!(err.err(), Some("no such workload"));
        assert_eq!((store.builds(), store.bytes()), (0, 0));
        assert!(lock(&store.inner).slots.is_empty());
        // The next lookup builds afresh.
        store.get_or_build(&k, || build(1)).unwrap();
        assert_eq!(store.builds(), 1);
    }

    #[test]
    fn budget_evicts_least_recently_used_instances() {
        let one = build(1).unwrap().weight(&key("sdot", 1));
        // Room for two instances, not three.
        let store = PreparedStore::new(2 * one + one / 2);
        for seed in [1, 2] {
            store
                .get_or_build(&key("sdot", seed), || build(seed))
                .unwrap();
        }
        // Touch seed 1, so seed 2 is the least recently used.
        store.get_or_build(&key("sdot", 1), || build(1)).unwrap();
        store.get_or_build(&key("sdot", 3), || build(3)).unwrap();
        assert_eq!(store.builds(), 3);
        assert_eq!(store.bytes(), 2 * one);
        store.get_or_build(&key("sdot", 1), || build(1)).unwrap();
        assert_eq!(store.builds(), 3, "seed 1 stayed");
        store.get_or_build(&key("sdot", 2), || build(2)).unwrap();
        assert_eq!(store.builds(), 4, "seed 2 was evicted and rebuilt");
        assert!(store.bytes() <= 2 * one + one / 2);
    }

    #[test]
    fn an_instance_over_the_budget_is_served_but_not_kept() {
        let one = build(1).unwrap().weight(&key("sdot", 1));
        let store = PreparedStore::new(one + one / 2);
        store.get_or_build(&key("sdot", 1), || build(1)).unwrap();
        // The source a custom-program key holds counts against the budget.
        let big = WorkloadKey {
            program: Some("x".repeat(one)),
            ..key("sdot", 2)
        };
        for _ in 0..2 {
            store.get_or_build(&big, || build(2)).unwrap();
        }
        assert_eq!(store.builds(), 3, "the oversized instance is rebuilt");
        assert_eq!(store.bytes(), one, "and flushed nothing");
        store.get_or_build(&key("sdot", 1), || build(1)).unwrap();
        assert_eq!(store.builds(), 3);
    }
}
