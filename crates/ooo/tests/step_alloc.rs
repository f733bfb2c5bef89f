//! A stepped busy cycle of the ready-list scheduler does no heap
//! allocation: once the window, LSQ, completion heap and caches have
//! reached their working size, dispatch, wakeup, issue and commit run on
//! preallocated structures only. A counting global allocator checks it
//! on a loop that keeps every stage busy (dependent and independent ALU
//! work, loads, stores, a multiply chain and a loop branch), for window
//! sizes that take the one-word, partial-word and multi-word bitset
//! paths.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hidisc_isa::asm::assemble;
use hidisc_isa::mem::Memory;
use hidisc_mem::{MemConfig, MemSystem};
use hidisc_ooo::{CoreConfig, CoreCtx, OooCore, QueueConfig, QueueFile};
use hidisc_telemetry::Telemetry;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose own contract is the one `GlobalAlloc` requires; the counter update
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LOOP: &str = r"
    li r1, 0x4000
    li r2, 200000
    li r5, 3
loop:
    ld r3, 0(r1)
    add r4, r3, r3
    mul r5, r5, r5
    sd r4, 8(r1)
    add r6, r4, r2
    xor r7, r6, r5
    sub r2, r2, 1
    bne r2, r0, loop
    halt
";

/// Steps a lone core through `warm` cycles, then returns the number of
/// heap allocations made during the next `measured` cycles.
fn allocations_while_stepping(ruu_size: u32, warm: u64, measured: u64) -> u64 {
    let cfg = CoreConfig {
        ruu_size,
        ..CoreConfig::paper_superscalar()
    };
    let mut core = OooCore::new("alloc", cfg, assemble("alloc", LOOP).unwrap());
    let mut data = Memory::new();
    data.write_i64(0x4000, 1).unwrap();
    let mut mem_sys = MemSystem::new(MemConfig::paper());
    let mut queues = QueueFile::new(QueueConfig::paper());
    let mut triggers = Vec::new();
    let mut trace = Telemetry::disabled();
    let mut before = 0;
    for now in 0..warm + measured {
        if now == warm {
            before = ALLOCS.load(Ordering::Relaxed);
        }
        let mut ctx = CoreCtx {
            mem_sys: &mut mem_sys,
            queues: &mut queues,
            data: &mut data,
            triggers: &mut triggers,
            trace: &mut trace,
        };
        core.step(now, &mut ctx).unwrap();
        assert!(!core.is_done(), "loop finished inside the measured window");
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(core.stats().committed > measured, "the core was not busy");
    allocs
}

#[test]
fn busy_cycles_do_not_allocate() {
    for ruu_size in [16, 64, 130] {
        assert_eq!(
            allocations_while_stepping(ruu_size, 5_000, 20_000),
            0,
            "ruu_size={ruu_size}: a stepped cycle allocated"
        );
    }
}
