//! A warm `DnsCache::get_shared` hit makes zero heap allocations: the
//! invariant rule `hot-alloc` checks statically, checked here on the
//! code that runs. The counting allocator (this test binary only) counts
//! per thread, so the harness's other threads do not reach the total.

use dns_server::DnsCache;
use dns_wire::{Name, RData, Record, RrClass, RrType};
use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor recurses.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to the system allocator, counting each allocation. The
/// default `realloc` goes through `alloc`, so a reallocation counts too.
struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`;
// the counter never influences allocation, so `System`'s contract holds.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract (a
    // non-zero-sized `layout`); it is forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` cannot panic, even while the thread is torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout`, passed to the allocator that
        // also receives the matching `dealloc`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // this `layout`, and every allocation here came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the `ptr`/`layout` pair came from `System.alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_get_shared_hits_do_not_allocate() {
    const NAMES: usize = 1_000;
    const HITS: usize = 50_000;
    let names: Vec<Name> = (0..NAMES)
        .map(|i| Name::parse(&format!("host-{i}.pool.mycdn.ciab.test")).expect("valid name"))
        .collect();
    let mut cache = DnsCache::new(2 * NAMES);
    for name in &names {
        let a = Record::new(
            name.clone(),
            RrClass::In,
            300,
            RData::A(Ipv4Addr::LOCALHOST),
        );
        cache.insert(name, RrType::A, vec![a], SimTime::ZERO);
    }
    let now = SimTime::ZERO + SimDuration::from_secs(10);
    // One pass first, so any state built lazily on a first hit is in place.
    for name in &names {
        assert!(cache.get_shared(name, RrType::A, now).is_some());
    }

    let before = ALLOCS.with(Cell::get);
    let mut hits = 0;
    for i in 0..HITS {
        let hit = cache.get_shared(&names[i % NAMES], RrType::A, now);
        hits += usize::from(std::hint::black_box(hit).is_some());
    }
    let allocated = ALLOCS.with(Cell::get) - before;
    assert_eq!(hits, HITS, "every warmed name must hit");
    assert_eq!(allocated, 0, "allocations over {HITS} warm hits");
}
