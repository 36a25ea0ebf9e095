//! A warm `DnsCache::get_shared` hit makes zero heap allocations, and a
//! whole served cache hit makes at most four: the invariants rule
//! `hot-alloc` checks statically, checked here on the code that runs.
//! The counting allocator (this test binary only) counts per thread, so
//! the harness's other threads do not reach the total.

use dns_server::plugins::{AuthoritativePlugin, CachePlugin, StubDomainPlugin};
use dns_server::{DnsCache, ServeEngine, Zone};
use dns_wire::{Message, Name, Opt, RData, Rcode, Record, RrClass, RrType};
use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

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

/// Decode → resolve → bounded encode, as a `mecdnsd` shard serves a
/// datagram, for names the front cache already holds. The four
/// allocations: the decoded question list, the answer records the cache
/// plugin copies out, the response's question list and the encoded
/// datagram. No name copy allocates.
#[test]
fn warm_served_hits_allocate_at_most_four_times() {
    const NAMES: usize = 1_000;
    const HITS: usize = 50_000;
    const MAX_ALLOCS_PER_HIT: u64 = 4;
    let cdns = IpAddr::V4(Ipv4Addr::new(10, 96, 0, 53));
    let client = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9));
    let apex = Name::parse("pool.mycdn.ciab.test").expect("valid name");
    let mut zone = Zone::new(apex.clone());
    let names: Vec<Name> = (0..NAMES)
        .map(|i| apex.child(&format!("host-{i}")).expect("valid name"))
        .collect();
    for (i, name) in names.iter().enumerate() {
        zone.add_a(name.clone(), Ipv4Addr::new(10, 96, 1, (i % 250) as u8), 300);
    }
    let mut engine = ServeEngine::new(vec![
        Box::new(CachePlugin::new(2 * NAMES)),
        Box::new(StubDomainPlugin::new(vec![(apex, cdns)])),
    ])
    .with_backend(cdns, vec![Box::new(AuthoritativePlugin::new(vec![zone]))]);
    let queries: Vec<Vec<u8>> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut q = Message::query(i as u16, name.clone(), RrType::A);
            q.header.recursion_desired = true;
            q.edns = Some(Opt::default());
            q.encode().expect("query encodes")
        })
        .collect();
    let serve = |engine: &mut ServeEngine, now: SimTime, datagram: &[u8]| {
        let query = Message::decode(datagram).expect("query decodes");
        let budget = query
            .edns
            .as_ref()
            .map_or(512, |o| usize::from(o.udp_payload_size));
        let response = engine.resolve(now, client, 5300, &query)?;
        response.encode_bounded(budget).ok()
    };
    // Warm the front cache: every name misses once and is answered by
    // the backend zone.
    for q in &queries {
        let answer = serve(&mut engine, SimTime::ZERO, q).expect("answered");
        assert_eq!(
            Message::decode(&answer).unwrap().header.rcode,
            Rcode::NoError
        );
    }
    let now = SimTime::ZERO + SimDuration::from_secs(10);
    let hits_before = engine.front_plugin::<CachePlugin>(0).unwrap().hits();

    let before = ALLOCS.with(Cell::get);
    let mut answered = 0;
    for i in 0..HITS {
        let answer = serve(&mut engine, now, &queries[i % NAMES]);
        answered += usize::from(std::hint::black_box(answer).is_some());
    }
    let allocated = ALLOCS.with(Cell::get) - before;

    let hits = engine.front_plugin::<CachePlugin>(0).unwrap().hits() - hits_before;
    assert_eq!(answered, HITS);
    assert_eq!(hits, HITS as u64, "every query must be a cache hit");
    assert!(
        allocated <= MAX_ALLOCS_PER_HIT * HITS as u64,
        "{allocated} allocations over {HITS} served hits ({:.2} per hit)",
        allocated as f64 / HITS as f64
    );
}
